"""Exact matrix rank and nonsingularity over the integers and the Gaussian
integers.

Three kernels, all exact:

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
- `peel_inverses` inverts, exactly and sparsely, a stack of 0/1 matrices
  that the same peel empties: the peel's order makes each unit lower
  triangular, so substitution along it gives an integer inverse, which
  `is_inverse` proves by the exact product G X = I. Float verification
  reads its bound on sigma_min off these inverses (biakit.verify).

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


def _ranges(starts: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, at): the concatenated index ranges starts[k] .. starts[k] +
    lens[k] - 1, each index with the k it came from."""
    owner = np.repeat(np.arange(lens.size), lens)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(lens) - lens - starts, lens)


def _summed(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero sums of values over equal keys, by increasing key."""
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    if not starts.size:
        return keys, values
    sums = np.add.reduceat(values, starts)
    nonzero = sums != 0
    return keys[starts][nonzero], sums[nonzero]


def peel_inverses(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact inverses of a stack of n x n 0/1 matrices G, matrix i given by
    its nonzeros (rows[i], cols[i]), (N, nnz) each, sorted by row.

    The singleton peel of `nonsingular`, run on the nonzeros alone, keeping
    its pivots: each pass removes every live row with one live nonzero,
    then every live column with one (of two singletons meeting in one line
    only the first). Rows in the order the row passes removed them, then
    the column passes' rows in reverse, and the pivots' columns in the same
    order, make G unit lower triangular: a row removed by a row pass meets
    no column still live then but its pivot's, and a column removed by a
    column pass no row still live then but its pivot's. So substitution,
    one pass at a time, gives X = G^-1 in integers: for the pivot (r, c) of
    row r, X[c] = e_r minus the rows X[c'] of the other nonzeros (r, c') of
    that row, all of them earlier. X stays sparse: each pass gathers the
    entries of those rows and sums them by position.

    Returns (index, values, ok): X's nonzero entries as flat indices into
    (N, n, n) and their int64 values, and ok (N,). X is proven by the exact
    product G X = I (`is_inverse`), not by the peel. ok[i] is False, and
    matrix i's entries are meaningless, where the peel leaves a core or a
    zero line, or an entry outgrows `is_inverse`'s bound.
    """
    count, _ = rows.shape
    size = count * n
    base = (np.arange(count) * n)[:, None]
    gr, gc = (rows + base).ravel(), (cols + base).ravel()
    live_r = np.ones(size, dtype=bool)
    live_c = np.ones(size, dtype=bool)
    passes = []  # (row pass?, pivot rows, pivot columns)
    removed = True
    while removed:
        removed = False
        for by_row, lines, across, a, b in ((True, live_r, live_c, gr, gc),
                                            (False, live_c, live_r, gc, gr)):
            live = live_r[gr] & live_c[gc]
            single = live & (np.bincount(a[live], minlength=size)[a] == 1)
            # first singleton of each crossing line; a second one is left a zero line
            hit, first = np.unique(b[single], return_index=True)
            line = a[single][first]
            if line.size:
                lines[line] = False
                across[hit] = False
                passes.append((by_row, line, hit) if by_row else (by_row, hit, line))
                removed = True
    emptied = ~live_r.reshape(count, n).any(axis=1)
    order = [p for p in passes if p[0]] + [p for p in reversed(passes) if not p[0]]
    row_ptr = np.concatenate([[0], np.cumsum(np.bincount(gr, minlength=size))])
    # X row by row (global column of G): where its entries start, how many
    x_start = np.zeros(size, dtype=np.int64)
    x_len = np.zeros(size, dtype=np.int64)
    x_row, x_col, x_val = (np.zeros(0, dtype=np.int64) for _ in range(3))
    for _, r, c in order:
        keep = emptied[r // n]
        r, c = r[keep], c[keep]
        owner, at = _ranges(row_ptr[r], row_ptr[r + 1] - row_ptr[r])
        other = gc[at] != c[owner]
        src, owner = gc[at[other]], owner[other]
        k, e = _ranges(x_start[src], x_len[src])
        keys, vals = _summed(np.concatenate([np.arange(r.size) * n + r % n, owner[k] * n + x_col[e]]),
                             np.concatenate([np.ones(r.size, dtype=np.int64), -x_val[e]]))
        pivot = keys // n
        x_start[c] = x_row.size + np.searchsorted(pivot, np.arange(r.size))
        x_len[c] = np.bincount(pivot, minlength=r.size)
        x_row = np.concatenate([x_row, c[pivot]])
        x_col = np.concatenate([x_col, keys % n])
        x_val = np.concatenate([x_val, vals])
    index = x_row * n + x_col
    ok = emptied & is_inverse(n, rows, cols, index, x_val)
    return index, x_val, ok


def is_inverse(n: int, rows: np.ndarray, cols: np.ndarray, index: np.ndarray,
               values: np.ndarray) -> np.ndarray:
    """Whether G X = I exactly, for a stack of N n x n 0/1 matrices G given
    by their nonzeros (rows, cols), (N, nnz) each, and integer matrices X
    given by the flat indices of their nonzero entries into (N, n, n), no
    index twice, and the entries' values. A matrix with an entry beyond
    2^26 / n in magnitude is refused unchecked: below that bound every sum
    of the product stays under 2^26 in magnitude and the sum of squares of
    X's entries under 2^52, so int64, and float64, hold them exactly."""
    count = rows.shape[0]
    big = np.zeros(count, dtype=bool)
    big[index[np.abs(values) > (1 << 26) // n] // (n * n)] = True
    # X row by row: rows of big matrices hold nothing, so no sum can wrap
    row = index // n
    small = ~big[row // n]
    order = np.argsort(row[small], kind="stable")
    row, col, val = row[small][order], (index % n)[small][order], values[small][order]
    ptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=count * n))])
    base = (np.arange(count) * n)[:, None]
    gr, gc = (rows + base).ravel(), (cols + base).ravel()
    k, e = _ranges(ptr[gc], ptr[gc + 1] - ptr[gc])
    keys, sums = _summed(gr[k] * n + col[e], val[e])
    # the product's entries: exactly 1 at every diagonal position, nothing else
    diagonal = (keys % n == (keys // n) % n) & (sums == 1)
    item = keys // (n * n)
    wrong = np.zeros(count, dtype=bool)
    wrong[item[~diagonal]] = True
    return ~big & ~wrong & (np.bincount(item[diagonal], minlength=count) == n)


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
