"""Exact matrix rank and nonsingularity over the integers and the Gaussian
integers.

A stack of N n x n 0/1 matrices is given by its nonzeros: counts (N,),
how many matrix i has (0 for an all-zero matrix), and rows, cols, their
positions, matrix after matrix and by row within each. Counts may differ
from matrix to matrix. One singleton peel (`_peel`, Duff, Erisman & Reid's
permutation to triangular form) works on such stacks, and serves two
kernels:

- `nonsingular` decides which matrices are nonsingular over Q. The peel
  removes a row with exactly one live nonzero together with that
  nonzero's column (Laplace expansion, det = +-det(minor)), then the same
  for columns, until nothing is left to remove. A live row or column with
  no live nonzero then proves its matrix singular (this covers two
  singletons in one line: the second is left a zero line); a matrix
  peeled to nothing is nonsingular. `integer_rank` decides each distinct
  core the peel leaves, once per call: equal cores share one verdict. So
  both verdicts are proofs.
- `peel_inverses` inverts exactly and sparsely the matrices the peel
  empties: the peel's order makes each unit lower triangular, so
  substitution along it gives an integer inverse, which `is_inverse`
  proves by the exact product G X = I. Float verification reads its bound
  on sigma_min off these inverses (biakit.verify).

`integer_rank` is fraction-free (Bareiss) elimination on Python ints, with
no floating tolerance and no external computer-algebra dependency.
`gaussian_rank` has no elimination of its own: it realifies a matrix
B + iC over Z[i] into [[B, -C], [C, B]] over Z, whose rank over Q is twice
the rank of B + iC over Q(i). These serve tall and wide matrices, the
cores of `nonsingular`, and ranks below full. `verify --exact` reads each
Gaussian-integer block's nonsingularity off its factorisation
A_j = G_j D_j (see biakit.verify) and ranks every other block with
`gaussian_rank`.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

# Every batched loop (certificate, verification and simulation) takes its
# items in chunks of at most this many entries (at least one item per
# chunk), which bounds the temporaries of every step.
BATCH_ELEMENTS = 1 << 14


def chunks(count: int, per_item: int) -> list[range]:
    """Consecutive ranges of count items, each holding at most BATCH_ELEMENTS
    entries at per_item entries an item, and at least one item."""
    step = max(1, BATCH_ELEMENTS // max(1, per_item))
    return [range(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _lines(n: int, counts: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every nonzero's row and column as a line of the whole stack: row r
    of matrix i is row line i n + r, and likewise for columns."""
    base = np.repeat(np.arange(len(counts)) * n, counts)
    return rows + base, cols + base


def _peel(n: int, counts: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Singleton peel of a stack of 0/1 matrices given by their nonzeros
    (module docstring). Each pass removes every live row with exactly one
    live nonzero, with that nonzero's column (of two singletons in one
    column only the first), then the same for columns, until a pass
    removes nothing. Returns (live_r, live_c, passes): the rows and columns
    left, (N, n) each and equally many per matrix, spanning the core (none:
    nonsingular), and every pass as (row pass?, pivot rows, pivot columns)
    in lines of the whole stack (`_lines`).
    """
    gr, gc = _lines(n, counts, rows, cols)
    size = len(counts) * n
    live_r = np.ones(size, dtype=bool)
    live_c = np.ones(size, dtype=bool)
    passes = []
    removed = True
    while removed:
        removed = False
        for by_row, lines, across, a, b in ((True, live_r, live_c, gr, gc),
                                            (False, live_c, live_r, gc, gr)):
            live = live_r[gr] & live_c[gc]
            single = live & (np.bincount(a[live], minlength=size)[a] == 1)
            hit, first = np.unique(b[single], return_index=True)
            line = a[single][first]
            if line.size:
                lines[line] = False
                across[hit] = False
                passes.append((by_row, line, hit) if by_row else (by_row, hit, line))
                removed = True
    return live_r.reshape(-1, n), live_c.reshape(-1, n), passes


def nonsingular(n: int, counts: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Whether each 0/1 matrix of a stack given by its nonzeros (module
    docstring) is nonsingular over Q, exactly: the singleton peel, then a
    live row or column with no live nonzero proves its matrix singular,
    then `integer_rank` decides each distinct core left, once per call."""
    live_r, live_c, _ = _peel(n, counts, rows, cols)
    gr, gc = _lines(n, counts, rows, cols)
    live = live_r.ravel()[gr] & live_c.ravel()[gc]
    singular = np.zeros(len(counts), dtype=bool)
    for lines, g in ((live_r, gr), (live_c, gc)):  # a live line with no live nonzero
        degree = np.bincount(g[live], minlength=lines.size).reshape(lines.shape)
        singular |= (lines & (degree == 0)).any(axis=1)
    out = ~singular & ~live_r.any(axis=1)
    ptr = np.concatenate([[0], np.cumsum(counts)])
    at_r, at_c = np.cumsum(live_r, axis=1) - 1, np.cumsum(live_c, axis=1) - 1
    verdicts: dict[bytes, bool] = {}  # a core's bytes fix its size as well as its entries
    for i in np.flatnonzero(~singular & ~out):
        r, c = rows[ptr[i]:ptr[i + 1]], cols[ptr[i]:ptr[i + 1]]
        keep = live_r[i, r] & live_c[i, c]
        size = int(live_r[i].sum())
        core = np.zeros((size, size), dtype=np.int8)
        core[at_r[i, r[keep]], at_c[i, c[keep]]] = 1
        key = core.tobytes()
        if key not in verdicts:
            verdicts[key] = integer_rank(core.tolist()) == size
        out[i] = verdicts[key]
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


def peel_inverses(n: int, counts: np.ndarray, rows: np.ndarray,
                  cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact inverses of a stack of 0/1 matrices G given by their nonzeros
    (module docstring).

    Rows in the order `_peel`'s row passes removed them, then the column
    passes' rows in reverse, and the pivots' columns in the same order,
    make G unit lower triangular: a row removed by a row pass meets no
    column still live then but its pivot's, and a column removed by a
    column pass no row still live then but its pivot's. So substitution,
    one pass at a time, gives X = G^-1 in integers: for the pivot (r, c) of
    row r, X[c] = e_r minus the rows X[c'] of the other nonzeros (r, c') of
    that row, all of them earlier. X stays sparse: each pass gathers the
    entries of those rows and sums them by position.

    Returns (index, values, ok): X's nonzero entries as flat indices into
    (N, n, n) and their int64 values, and ok (N,). X is proven by the exact
    product G X = I (`is_inverse`), not by the peel. ok[i] is False, and
    matrix i's entries are meaningless, where the peel leaves a live line,
    or an entry outgrows `is_inverse`'s bound.
    """
    live_r, _, passes = _peel(n, counts, rows, cols)
    emptied = ~live_r.any(axis=1)
    gr, gc = _lines(n, counts, rows, cols)
    order = [p for p in passes if p[0]] + [p for p in reversed(passes) if not p[0]]
    size = len(counts) * n
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
    ok = emptied & is_inverse(n, counts, rows, cols, index, x_val)
    return index, x_val, ok


def is_inverse(n: int, counts: np.ndarray, rows: np.ndarray, cols: np.ndarray,
               index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Whether G X = I exactly, for a stack of 0/1 matrices G given by their
    nonzeros (module docstring) and integer matrices X given by the flat
    indices of their nonzero entries into (N, n, n), no index twice, and
    the entries' values. A matrix with an entry beyond 2^26 / n in
    magnitude is refused unchecked: below that bound every sum of the
    product stays under 2^26 in magnitude and the sum of squares of X's
    entries under 2^52, so int64, and float64, hold them exactly."""
    count = len(counts)
    big = np.zeros(count, dtype=bool)
    big[index[np.abs(values) > (1 << 26) // n] // (n * n)] = True
    # X row by row: rows of big matrices hold nothing, so no sum can wrap
    row = index // n
    small = ~big[row // n]
    order = np.argsort(row[small], kind="stable")
    row, col, val = row[small][order], (index % n)[small][order], values[small][order]
    ptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=count * n))])
    gr, gc = _lines(n, counts, rows, cols)
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
