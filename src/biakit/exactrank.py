"""Exact matrix rank and nonsingularity over the integers and the Gaussian
integers.

A stack of N n x n 0/1 matrices is given by its nonzeros: counts (N,),
how many matrix i has (0 for an all-zero matrix), and rows, cols, their
positions, matrix after matrix and by row within each. Counts may differ
from matrix to matrix. One singleton peel (`_peel`, Duff, Erisman & Reid's
permutation to triangular form) works on such stacks; `peel` keeps it with
the nonzeros (`Peeled`), and three kernels continue it, each its one entry
point, so a caller that needs both verdicts and inverses peels once:

- `peeled_nonsingular` decides which matrices are nonsingular over Q.
  The peel removes a row with exactly one live nonzero together with that
  nonzero's column (Laplace expansion, det = +-det(minor)), then the same
  for columns, until nothing is left to remove. A live row or column with
  no live nonzero then proves its matrix singular (this covers two
  singletons in one line: the second is left a zero line); a matrix
  peeled to nothing is nonsingular. `integer_rank` decides each distinct
  core the peel leaves, once per call: equal cores share one verdict. So
  both verdicts are proofs. The cores are built together (`_cores`).
- `peeled_inverses` inverts every nonsingular matrix exactly and
  sparsely: in the peel's order G is block lower triangular, unit pivots
  around the core C, whose adjugate (C adj C = d I, d = +-det C; d = 1
  with no core) fraction-free Gauss-Jordan elimination on
  `integer_rank`'s loop gives. Substitution then yields an integer
  X = d G^-1, which `is_inverse` proves on the same Peeled by the exact
  product X G = d I. Float verification's bound on sigma_min and the
  simulator's weights read these (biakit.verify, .sim), continuing the
  peel the scheme's certificate ran (scheme.PatternMatrix).
- `peeled_left_kernels` gives integer bases N of the left kernels where
  the cores are all zero, by substitution, proven by N G = 0: the
  design-space scan's 2 x 2 minors read them (biakit.designspace).

`integer_rank` is fraction-free (Bareiss) elimination on Python ints, with
no floating tolerance and no external computer-algebra dependency.
`gaussian_rank` has no elimination of its own: it realifies a matrix
B + iC over Z[i] into [[B, -C], [C, B]] over Z, whose rank over Q is twice
the rank of B + iC over Q(i). These serve tall and wide matrices, the
cores of `peeled_nonsingular`, and ranks below full (`verify --exact`'s blocks
its factorisation A_j = G_j D_j does not prove, see biakit.verify).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
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


def _peel(n: int, counts: np.ndarray, gr: np.ndarray, gc: np.ndarray):
    """Singleton peel of a stack of 0/1 matrices given by their nonzeros'
    lines (`peel`; module docstring). Each pass removes every live row
    with exactly one live nonzero, with that nonzero's column (of two
    singletons in one column only the first), then the same for columns,
    until a pass removes nothing or no live nonzero is left. Returns
    (live_r, live_c, passes): the rows and columns left, (N, n) each and
    equally many per matrix, spanning the core (none: nonsingular), and
    every pass as (row pass?, pivot rows, pivot columns) in lines of the
    whole stack. The loop drops the nonzeros a half-pass kills from its
    own gr and gc, so each half-pass reads only the live ones."""
    size = len(counts) * n
    live_r = np.ones(size, dtype=bool)
    live_c = np.ones(size, dtype=bool)
    passes = []
    removed = True
    while removed:
        removed = False
        for by_row, lines, across in ((True, live_r, live_c), (False, live_c, live_r)):
            a, b = (gr, gc) if by_row else (gc, gr)
            if not gr.size:  # nothing live is left to remove
                break
            single = np.bincount(a, minlength=size)[a] == 1
            order = b[single].argsort(kind="stable")  # by the line across, then first come
            hit, line = b[single][order], a[single][order]
            first = hit != np.concatenate(([-1], hit[:-1]))
            hit, line = hit[first], line[first]
            if line.size:
                lines[line] = False
                across[hit] = False
                passes.append((by_row, line, hit) if by_row else (by_row, hit, line))
                removed = True
                live = live_r[gr] & live_c[gc]
                gr, gc = gr[live], gc[live]
    return live_r.reshape(-1, n), live_c.reshape(-1, n), passes


@dataclass(frozen=True, eq=False)
class Peeled:
    """A stack of 0/1 matrices given by their nonzeros (module docstring)
    and its one singleton peel (`_peel`), which the kernels continue:
    `peeled_nonsingular`, `peeled_inverses` and `peeled_left_kernels`."""

    n: int
    counts: np.ndarray
    gr: np.ndarray       # every nonzero's row and column as a line of the
    gc: np.ndarray       # whole stack: row r of matrix i is line i n + r
    live_r: np.ndarray   # (N, n) rows and columns the peel left: the cores
    live_c: np.ndarray
    passes: list         # (row pass?, pivot rows, pivot columns), in lines

    @functools.cached_property
    def row_ptr(self) -> np.ndarray:
        """row_ptr[i n + r]: where row r of matrix i starts in gr and gc."""
        return np.searchsorted(self.gr, np.arange(len(self.counts) * self.n + 1))


def peel(n: int, counts: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> Peeled:
    """The singleton peel of a stack of 0/1 matrices given by their
    nonzeros, each taken as a row and a column line of the whole stack."""
    base = np.repeat(np.arange(len(counts)) * n, counts)
    gr, gc = rows + base, cols + base
    del base  # freed before the peel, whose peak it would raise
    return Peeled(n, counts, gr, gc, *_peel(n, counts, gr, gc))


def _cores(p: Peeled, decide) -> tuple[np.ndarray, dict]:
    """(out, verdicts) of a peeled stack: whether each matrix is
    nonsingular, and by matrix, in increasing order, the truthy
    decide(core) of each nonsingular core. A live line with no live
    nonzero proves a matrix singular. The cores of every other matrix the
    peel did not empty are built at once: each live nonzero lands at its
    core position (the cumsum of the live lines before it) by one scatter
    per core size into an (count, s s) int8 stack, in `chunks` of s s
    entries a core, and each core is keyed by (s, its bytes). decide,
    truthy for a nonsingular core, runs once per distinct core, in order
    of the first matrix that has it."""
    n, counts, live_r, live_c = p.n, p.counts, p.live_r, p.live_c
    if not live_r.any():  # every matrix peeled to nothing
        return np.ones(len(counts), dtype=bool), {}
    live = live_r.ravel()[p.gr] & live_c.ravel()[p.gc]
    r, c = p.gr[live], p.gc[live]
    singular = np.zeros(len(counts), dtype=bool)
    for lines, g in ((live_r, r), (live_c, c)):  # a live line with no live nonzero
        degree = np.bincount(g, minlength=lines.size).reshape(lines.shape)
        singular |= (lines & (degree == 0)).any(axis=1)
    size = live_r.sum(axis=1)
    out = ~singular & (size == 0)
    cored = ~singular & (size > 0)
    # every cored matrix's live nonzeros, matrix by matrix, at their core positions
    keep = cored[r // n]
    r, c = r[keep], c[keep]
    item = r // n
    at_r = (np.cumsum(live_r, axis=1) - 1).ravel()[r]
    at_c = (np.cumsum(live_c, axis=1) - 1).ravel()[c]
    ids: dict[tuple[int, bytes], int] = {}  # (s, bytes) of each distinct core
    first = []                               # the first matrix that has it
    code = np.full(len(counts), -1)          # each cored matrix's distinct core
    for s in np.flatnonzero(np.bincount(size[cored])).tolist():  # every core size, increasing
        members = np.flatnonzero(cored & (size == s))
        slot = np.zeros(len(counts), dtype=np.int64)
        slot[members] = np.arange(members.size)
        mine = size[item] == s
        at, pos = slot[item[mine]], at_r[mine] * s + at_c[mine]
        for chunk in chunks(members.size, s * s):
            lo, hi = np.searchsorted(at, (chunk.start, chunk.stop))
            stack = np.zeros((len(chunk), s * s), dtype=np.int8)
            stack[at[lo:hi] - chunk.start, pos[lo:hi]] = 1
            distinct, where, which = np.unique(stack.view((np.void, s * s)).ravel(),
                                               return_index=True, return_inverse=True)
            keys = [(s, core.tobytes()) for core in distinct]
            for key, k in zip(keys, where.tolist()):
                if key not in ids:
                    ids[key] = len(first)
                    first.append(members[chunk.start + k])
            code[members[chunk.start:chunk.stop]] = np.array([ids[key] for key in keys])[which]
    verdict = [None] * len(ids)
    for (s, entries), k in sorted(ids.items(), key=lambda item: first[item[1]]):
        verdict[k] = decide(np.frombuffer(entries, dtype=np.int8).reshape(s, s).tolist())
    nonsingular_core = np.array([bool(v) for v in verdict] + [False])  # code -1: no core
    proven = np.flatnonzero(cored & nonsingular_core[code])
    out[proven] = True
    return out, {i: verdict[code[i]] for i in proven.tolist()}


def peeled_nonsingular(p: Peeled) -> np.ndarray:
    """Whether each matrix of a peeled stack is nonsingular over Q,
    exactly: a live row or column with no live nonzero proves its matrix
    singular, then `integer_rank` decides each distinct core left, once
    per call."""
    return _cores(p, lambda core: integer_rank(core) == len(core))[0]


def _ranges(starts: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, at): the concatenated index ranges starts[k] .. starts[k] +
    lens[k] - 1, each index with the k it came from."""
    owner = np.arange(lens.size).repeat(lens)
    return owner, np.arange(owner.size) - (lens.cumsum() - lens - starts).repeat(lens)


def _summed(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero sums of values over equal keys, by increasing key."""
    order = keys.argsort(kind="stable")
    keys, values = keys[order], values[order]
    if not keys.size:
        return keys, values
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = np.add.reduceat(values, starts)
    nonzero = sums != 0
    return keys[starts][nonzero], sums[nonzero]


def _adjugate(core: list[list[int]], limit: int):
    """(d, adj) with core adj = d I, by `_bareiss` on [core | I]; None for
    a singular core, or where an entry of adj exceeds limit in magnitude."""
    s = len(core)
    a = [row + [int(r == c) for c in range(s)] for r, row in enumerate(core)]
    rank, d = _bareiss(a, s, jordan=True)
    x = [row[s:] for row in a]
    return (d, x) if rank == s and max(abs(v) for row in x for v in row) <= limit else None


def peeled_inverses(p: Peeled) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact scaled inverses X = d G^-1 of a peeled stack of 0/1 matrices
    G, continuing its peel.

    In `_peel`'s order (row-pass pivots, the core C, column-pass pivots in
    reverse) G is block lower triangular with unit pivots: a row-pass row
    meets no column live then but its pivot's, a column-pass column no row
    live then but its pivot's, and a core row no column-pass column. Each
    distinct core is inverted once per call (`_adjugate`: C adj C = d I;
    d = 1 with no core). Substitution then gives X in integers, a step at
    a time: X[c] = d e_r minus the rows X[c'] of the other nonzeros
    (r, c') of pivot (r, c)'s row, all earlier, and the core's rows are
    adj C times such right sides of the core rows, over d. Each step
    gathers sparse rows and sums them by position.

    Returns (index, values, scale, ok): X's nonzero entries as flat indices
    into (N, n, n), their int64 values, d (N,) and ok (N,), where ok proves
    X by the exact product X G = d I (`is_inverse`). Where ok is False (G
    singular, or an entry past `is_inverse`'s bound) X is meaningless.
    """
    n, counts, gr, gc, live_r, live_c = p.n, p.counts, p.gr, p.gc, p.live_r, p.live_c
    count = len(counts)
    limit = (1 << 26) // n
    ok, cores = _cores(p, lambda core: _adjugate(core, limit))
    scale = np.ones(count, dtype=np.int64)
    for i, (d, _) in cores.items():
        scale[i] = d
    row_ptr = p.row_ptr
    # X row by row (global column of G): where its entries start, how many
    x_start, x_len = np.zeros((2, count * n), dtype=np.int64)
    x_row, x_col, x_val = np.zeros((3, 0), dtype=np.int64)

    def right_sides(r):
        """d e_r minus the rows of X so far of the nonzeros of each row r
        (a row not made yet, as a pivot's own, holds nothing): (keys,
        values), keys k n + column for the k-th row, by increasing key."""
        if not x_row.size:  # no row of X yet, so nothing to gather
            return np.arange(r.size) * n + r % n, scale[r // n]
        owner, at = _ranges(row_ptr[r], row_ptr[r + 1] - row_ptr[r])
        k, e = _ranges(x_start[gc[at]], x_len[gc[at]])
        return _summed(np.concatenate([np.arange(r.size) * n + r % n, owner[k] * n + x_col[e]]),
                       np.concatenate([scale[r // n], -x_val[e]]))

    def store(c, keys, values):
        """Append X's rows c, the k-th from the entries of key k n + column."""
        nonlocal x_row, x_col, x_val
        pivot = keys // n
        x_start[c] = x_row.size + np.searchsorted(pivot, np.arange(c.size))
        x_len[c] = np.bincount(pivot, minlength=c.size)
        x_row = np.concatenate([x_row, c[pivot]])
        x_col = np.concatenate([x_col, keys % n])
        x_val = np.concatenate([x_val, values])

    # a singular matrix's rows are meaningless, and harmless
    for _, r, c in [step for step in p.passes if step[0]]:
        store(c, *right_sides(r))
    if cores:  # X's core rows: adj C times the core rows' right sides, over d
        cored = np.isin(np.arange(count), list(cores))[:, None]
        core_r, core_c = (np.flatnonzero(live & cored) for live in (live_r, live_c))
        keys, values = right_sides(core_r)
        y = np.zeros((core_r.size, n), dtype=np.int64)
        y[keys // n, keys % n] = values
        at = 0
        for d, adj in cores.values():
            y[at:at + len(adj)] = np.array(adj, dtype=np.int64) @ y[at:at + len(adj)] // d
            at += len(adj)
        k, col = np.nonzero(y)
        store(core_c, k * n + col, y[k, col])
    for _, r, c in [step for step in reversed(p.passes) if not step[0]]:
        store(c, *right_sides(r))
    index = x_row * n + x_col
    ok &= is_inverse(p, index, x_val, scale)
    return index, x_val, scale, ok


def is_inverse(p: Peeled, index: np.ndarray, values: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Whether X G = d I exactly, d = scale[i] nonzero (so X = d G^-1), for
    the 0/1 matrices G of a peeled stack (read off its nonzeros' lines,
    not its peel) and integer matrices X given by the flat indices of
    their nonzero entries into (N, n, n), no index twice, and the entries'
    values. A matrix with an entry beyond 2^26 / n in magnitude is refused
    unchecked: below that every sum of the product stays under 2^26 in
    magnitude and the sum of squares of X's entries under 2^52, so int64,
    and float64, hold them exactly."""
    n, count, ptr = p.n, len(p.counts), p.row_ptr
    bad = np.zeros(count, dtype=bool)
    bad[index[np.abs(values) > (1 << 26) // n] // (n * n)] = True
    # entry (c, r) of X times row r of G, whose nonzeros lie together; an
    # entry of a refused matrix takes none, so no sum can wrap
    line = index // n  # c as a line of the whole stack
    r = line - line % n + index % n
    k, e = _ranges(ptr[r], np.where(bad[line // n], 0, ptr[r + 1] - ptr[r]))
    keys, sums = _summed(line[k] * n + p.gc[e] % n, values[k])
    # the product's entries: exactly d at every diagonal position, nothing
    # else (zero sums are dropped, so d = 0 never passes)
    item = keys // (n * n)
    diagonal = (keys % (n * n) % (n + 1) == 0) & (sums == scale[item])
    bad[item[~diagonal]] = True
    return ~bad & (np.bincount(item[diagonal], minlength=count) == n)


def peeled_left_kernels(p: Peeled) -> tuple[np.ndarray, np.ndarray]:
    """Integer bases N of the left kernels {y : y G = 0} of a peeled stack
    of 0/1 matrices G whose cores are all zero, continuing its peel.

    In `_peel`'s order G is block lower triangular (`peeled_inverses`), so
    each core row of matrix i gives one y: 1 there, 0 on i's other core
    rows and column-pass rows, and over the row passes in reverse
    y[r] = -(sum of y over the other rows of pivot column c). The n - s
    pivots prove rank >= n - s; the identity on the s core rows and the
    exact N G = 0 (entries at most 2^26 / n, as in `is_inverse`, checked
    every pass so no sum wraps) prove N a basis. Returns (lines, basis):
    the core rows as lines of the whole stack, increasing, and
    (lines.size, n) int64, row k lines[k]'s y. Raises ValueError naming
    the first matrix whose core keeps a live nonzero (no elimination is
    run), or whose basis outgrows the bound or fails N G = 0."""
    n, gr, gc = p.n, p.gr, p.gc
    live = p.live_r.ravel()[gr] & p.live_c.ravel()[gc]
    if live.any():
        raise ValueError("matrix %d: the peel leaves a live nonzero in its core, "
                         "so its left kernel is not read off the peel" % (gr[live][0] // n))
    lines, size = np.flatnonzero(p.live_r), p.live_r.sum(axis=1)
    y = np.zeros((lines.size, n), dtype=np.int64)
    y[np.arange(lines.size), lines % n] = 1
    by_col = gc.argsort(kind="stable")  # G's nonzeros by column
    col_ptr = np.searchsorted(gc[by_col], np.arange(len(p.counts) * n + 1))

    def refuse(k, why):
        raise ValueError("matrix %d: its left kernel basis %s" % (lines[k] // n, why))
    for _, r, c in [step for step in reversed(p.passes) if step[0]]:
        q, k = _ranges((size.cumsum() - size)[r // n], size[r // n])  # each pivot, each y of its matrix
        t, e = _ranges(col_ptr[c[q]], col_ptr[c[q] + 1] - col_ptr[c[q]])
        # y[r] is still 0, so this sums c's other rows (in float64: exact under the bound)
        y[k, r[q] % n] = -np.bincount(t, y[k[t], gr[by_col[e]] % n], q.size).astype(np.int64)
        big = np.abs(y[k, r[q] % n]) > (1 << 26) // n
        if big.any():
            refuse(k[big][0], "has an entry past 2^26 / %d" % n)
    k, e = _ranges((p.counts.cumsum() - p.counts)[lines // n], p.counts[lines // n])
    # y G, each entry a sum of at most n terms (in float64: exact under the bound)
    keys = np.flatnonzero(np.bincount(k * n + gc[e] % n, y[k, gr[e] % n], lines.size * n))
    if keys.size:
        refuse(keys[0] // n, "fails N G = 0")
    return lines, y


def integer_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over Q of a matrix with integer entries (`_bareiss`)."""
    a = [[int(x) for x in row] for row in rows]
    nc = len(a[0]) if a else 0
    for row in a:
        if len(row) != nc:
            raise ValueError("ragged matrix")
    return _bareiss(a, nc)[0]


def _bareiss(a: list[list[int]], nc: int, jordan: bool = False) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of the integer rows a, in place,
    pivoting on their first nc columns: (rank, last pivot). Every entry
    stays an exact integer (each 2x2 cross-multiplication is divisible by
    the previous pivot). Below the pivot row every column left of the
    pivot column is already zero, so each step updates only the columns to
    its right. With jordan each step updates the rows above the pivot too
    (Gauss-Jordan), still exactly: on [C | I], C nonsingular, the right
    block ends as adj with C adj = d I, d = +-det C the last pivot."""
    nr = len(a)
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
        for r in [r for r in range(nr) if r != rank] if jordan else range(rank + 1, nr):
            row = a[r]
            f = row[c]
            row[c + 1:] = [(x * pv - f * y) // prev for x, y in zip(row[c + 1:], right)]
        prev = pv
        rank += 1
    return rank, prev


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
