"""Exact matrix rank and nonsingularity over the integers and the Gaussian
integers.

Two kernels, both exact:

- `nonsingular` decides, for a stack of square integer matrices, which
  are nonsingular over Q, by one rule in three steps. First it peels
  singletons, batched over the stack: a row with exactly one nonzero a_rc
  is removed with its column (Laplace expansion, det = +-a_rc *
  det(minor)), then the same for columns, until nothing is left to
  remove. A zero row or column, or two singleton rows (columns) in one
  column (row), proves the matrix singular; a matrix peeled to nothing is
  nonsingular. Second, the cores left over, each padded with an identity
  block into one stack, go to one batched elimination in numpy modulo
  `PRIME`; a core whose determinant is nonzero modulo PRIME is
  nonsingular. Third, `integer_rank` decides every core that PRIME does
  not prove. So both verdicts are proofs.
- `integer_rank` is fraction-free (Bareiss) elimination on Python ints,
  with no floating tolerance and no external computer-algebra dependency.
  `gaussian_rank` has no elimination of its own: it realifies a matrix
  B + iC over Z[i] into [[B, -C], [C, B]] over Z, whose rank over Q is
  twice the rank of B + iC over Q(i). These serve tall and wide matrices,
  the exact fallback, and ranks below full.

`nonsingular` takes its stack in `chunks`, each through all three steps
in turn. PRIME is below 2^31, so every cross-product of residues stays
below 2^62 in int64 and no modular inverse is needed. `verify --exact`
takes no prime: it reads each Gaussian-integer block's nonsingularity
off its factorisation A_j = G_j D_j (see biakit.verify) and ranks every
other block with `gaussian_rank`.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

# A prime below 2^31, so the product of two residues stays below 2^62,
# inside int64. Only `nonsingular` uses it: `verify --exact` proves its
# blocks by certificate times D_j and ranks the rest by Bareiss, no prime.
PRIME = 2147483629

# Every batched loop (peel, elimination, certificate, verification and
# simulation) takes its items in chunks of at most this many entries (at
# least one item per chunk), which bounds the temporaries of every step.
BATCH_ELEMENTS = 1 << 14


def chunks(count: int, per_item: int) -> list[range]:
    """Consecutive ranges of count items, each holding at most BATCH_ELEMENTS
    entries at per_item entries an item, and at least one item."""
    step = max(1, BATCH_ELEMENTS // max(1, per_item))
    return [range(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _eliminate_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Whether each matrix of a stack of residues mod p is nonsingular mod p.

    Eliminates in place without division: each step scales the rows below
    the pivot by the pivot and subtracts multiples of the pivot row, which
    keeps a nonsingular matrix nonsingular. Only the columns right of the
    pivot are updated; the ones left of it are never read again.
    """
    count, n, _ = a.shape
    ok = np.ones(count, dtype=bool)
    idx = np.arange(count)
    for c in range(n):
        nonzero = a[:, c:, c] != 0
        ok &= nonzero.any(axis=1)
        if not ok.any():
            break
        piv = nonzero.argmax(axis=1)
        top = a[:, c, c:]
        if piv.any():
            piv += c
            top = a[idx, piv, c:]  # a copy: the pivot rows
            a[idx, piv, c:] = a[:, c, c:]
            a[:, c, c:] = top
        rest = a[:, c + 1:, c + 1:]
        rest *= top[:, 0, None, None]
        rest -= a[:, c + 1:, c, None] * top[:, None, 1:]
        rest %= p
    return ok


def _peel(nz: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singleton peel of a stack of nonzero patterns, (N, n, n) booleans.

    Removes every live row with exactly one live nonzero, together with
    that nonzero's column, then does the same for columns, and repeats
    until nothing is removed. Each removal is a Laplace expansion,
    det = +-a_rc * det(minor) with a_rc != 0, so it keeps the determinant
    zero or nonzero. Returns (singular, rows, cols). singular[i] proves
    matrix i singular: a live row or column of it had no live nonzero, or
    two singleton rows (columns) met in one column (row), which leaves a
    zero line once the first is expanded. Otherwise rows[i] and cols[i]
    mark the same number of rows and columns: the square core whose
    determinant is zero iff the matrix's is (empty: nonsingular).
    """
    count, n, _ = nz.shape
    rows = np.ones((count, n), dtype=bool)
    cols = np.ones((count, n), dtype=bool)
    singular = np.zeros(count, dtype=bool)
    removed = True
    while removed:
        removed = False
        for a, lines, across in ((nz, rows, cols), (nz.transpose(0, 2, 1), cols, rows)):
            hits = a & across[:, None, :]
            degree = hits.sum(axis=2)
            singular |= (lines & (degree == 0)).any(axis=1)
            b, r = np.nonzero(lines & (degree == 1))
            if b.size:
                c = hits[b, r].argmax(axis=1)
                # fewer distinct columns than singleton rows: two met in one
                met = np.zeros((count, n), dtype=bool)
                met[b, c] = True
                singular |= np.bincount(b, minlength=count) > met.sum(axis=1)
                lines[b, r] = False
                across[b, c] = False
                removed = True
            lines[singular] = False
            across[singular] = False
    return singular, rows, cols


def nonsingular(stack) -> np.ndarray:
    """Whether each square integer matrix of an (N, n, n) stack is
    nonsingular over Q, exactly (see the module docstring for the rule).

    Entries must fit in int64.
    """
    stack = np.asarray(stack)
    if not np.issubdtype(stack.dtype, np.integer):
        raise TypeError("expected an integer stack")
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError("expected a stack of square matrices")
    count, n, _ = stack.shape
    out = np.zeros(count, dtype=bool)
    for chunk in chunks(count, n * n):
        part = stack[chunk.start:chunk.stop]
        singular, rows, cols = _peel(part != 0)
        size = rows.sum(axis=1)
        out[chunk.start:chunk.stop] = ~singular & (size == 0)
        open_ = np.flatnonzero(~singular & (size > 0))
        if not open_.size:
            continue
        # move every core's rows and columns to the front, in order, and pad
        # it to the largest core with an identity block, which keeps its
        # determinant. The padded cores hold no more entries than the
        # chunk, so they need no chunking of their own. A core nonsingular
        # mod PRIME is nonsingular, and Bareiss (integer_rank) decides the rest
        s = size.max()
        r = np.argsort(~rows[open_], axis=1, kind="stable")[:, :s, None]
        c = np.argsort(~cols[open_], axis=1, kind="stable")[:, None, :s]
        inside = np.arange(s) < size[open_, None]
        cores = np.where(inside[:, :, None] & inside[:, None, :],
                         part[open_[:, None, None], r, c], np.eye(s, dtype=stack.dtype))
        proven = _eliminate_mod(cores.astype(np.int64) % PRIME, PRIME)
        for i in np.flatnonzero(~proven):
            proven[i] = integer_rank(cores[i].tolist()) == s
        out[chunk.start + open_] = proven
    return out


def integer_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over Q of a matrix with integer entries.

    Bareiss elimination: every intermediate entry stays an exact integer
    (each 2x2 cross-multiplication is divisible by the previous pivot).
    Below the pivot row every column left of the pivot column is already
    zero, so each step updates only the columns to its right.
    """
    a = [[int(x) for x in row] for row in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    for row in a:
        if len(row) != nc:
            raise ValueError("ragged matrix")
    rank = 0
    prev = 1
    for c in range(nc):
        if rank == nr:
            break
        piv = next((r for r in range(rank, nr) if a[r][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pv = a[rank][c]
        right = a[rank][c + 1:]
        for r in range(rank + 1, nr):
            row = a[r]
            f = row[c]
            row[c + 1:] = [(x * pv - f * y) // prev for x, y in zip(row[c + 1:], right)]
        prev = pv
        rank += 1
    return rank


def gaussian_rank(rows: Sequence[Sequence[tuple[int, int]]]) -> int:
    """Rank over Q(i) of a matrix whose entries are Gaussian integers.

    Entries are (real, imag) pairs of ints. With B and C the real and
    imaginary parts, the rank of [[B, -C], [C, B]] over Q is twice the rank
    of B + iC over Q(i).
    """
    re = [[int(x) for x, _ in row] for row in rows]
    im = [[int(y) for _, y in row] for row in rows]
    top = [b + [-y for y in c] for b, c in zip(re, im)]
    bottom = [c + b for b, c in zip(re, im)]
    return integer_rank(top + bottom) // 2
