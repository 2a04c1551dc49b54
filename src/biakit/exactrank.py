"""Exact matrix rank and nonsingularity over the integers and the Gaussian
integers.

Two kernels, both exact:

- `nonsingular` decides, for a stack of square integer matrices, which
  are nonsingular over Q, by one rule in two steps. First it peels
  singletons, batched over the stack: a row with exactly one nonzero a_rc
  is removed with its column (Laplace expansion, det = +-a_rc *
  det(minor)), then the same for columns, until nothing is left to
  remove. A zero row or column, or two singleton rows (columns) in one
  column (row), proves the matrix singular; a matrix peeled to nothing is
  nonsingular. Second, `integer_rank` decides each distinct core the peel
  leaves, once per call: equal cores share one verdict. So both verdicts
  are proofs.
- `integer_rank` is fraction-free (Bareiss) elimination on Python ints,
  with no floating tolerance and no external computer-algebra dependency.
  `gaussian_rank` has no elimination of its own: it realifies a matrix
  B + iC over Z[i] into [[B, -C], [C, B]] over Z, whose rank over Q is
  twice the rank of B + iC over Q(i). These serve tall and wide matrices,
  the cores of `nonsingular`, and ranks below full.

`nonsingular` takes its stack in `chunks`, each through the peel in turn.
`verify --exact` reads each Gaussian-integer block's nonsingularity off its
factorisation A_j = G_j D_j (see biakit.verify) and ranks every other
block with `gaussian_rank`.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

# Every batched loop (peel, certificate, verification and simulation)
# takes its items in chunks of at most this many entries (at least one
# item per chunk), which bounds the temporaries of every step.
BATCH_ELEMENTS = 1 << 14


def chunks(count: int, per_item: int) -> list[range]:
    """Consecutive ranges of count items, each holding at most BATCH_ELEMENTS
    entries at per_item entries an item, and at least one item."""
    step = max(1, BATCH_ELEMENTS // max(1, per_item))
    return [range(lo, min(lo + step, count)) for lo in range(0, count, step)]


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
    nonsingular over Q, exactly (see the module docstring for the rule)."""
    stack = np.asarray(stack)
    if not np.issubdtype(stack.dtype, np.integer):
        raise TypeError("expected an integer stack")
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError("expected a stack of square matrices")
    count, n, _ = stack.shape
    out = np.zeros(count, dtype=bool)
    # one verdict per distinct core: the stack has one dtype, so a core's
    # bytes fix its size as well as its entries
    verdicts: dict[bytes, bool] = {}
    for chunk in chunks(count, n * n):
        part = stack[chunk.start:chunk.stop]
        singular, rows, cols = _peel(part != 0)
        size = rows.sum(axis=1)
        out[chunk.start:chunk.stop] = ~singular & (size == 0)
        for i in np.flatnonzero(~singular & (size > 0)):
            core = part[i][rows[i]][:, cols[i]]
            key = core.tobytes()
            if key not in verdicts:
                verdicts[key] = integer_rank(core.tolist()) == size[i]
            out[chunk.start + i] = verdicts[key]
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
