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
- `peeled_inverses` inverts every nonsingular matrix exactly and sparsely
  and returns X's squared row norms, which float verification's bound and
  the simulator's weights read (biakit.verify, .sim).
- `peeled_left_kernels` gives integer bases N of the left kernels where
  the cores are all zero, which the design-space scan's 2 x 2 minors read
  (biakit.designspace). Both run one substitution in the peel's order
  (`_substitute`), the kernels on the transposed peel, and one proof of
  G X = d I (`_proof`), N G = 0 being its case d = 0 on the transpose.

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
        return np.concatenate(([0], np.bincount(self.gr, minlength=len(self.counts) * self.n).cumsum()))


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


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The concatenated index ranges starts[k] .. starts[k] + lens[k] - 1."""
    return (starts - lens.cumsum() + lens).repeat(lens) + np.arange(lens.sum())


def _residual(p: Peeled, r: np.ndarray, at, k: np.ndarray, scale: np.ndarray, x: tuple) -> tuple:
    """The nonzero entries (k, column lines, values) of d e_r - (G X)[r],
    by k, then column, for rows r (lines) whose nonzeros lie at at in G's,
    the k-th row's marked k, and X by rows (`is_inverse`): row r of G X
    gathers X's rows at row r's nonzeros, and one stable sort sums the
    terms of equal keys k size + column line."""
    start, length, cols, values = x
    size = p.live_r.size
    src = p.gc[at]
    got = length[src]
    e = _ranges(start[src], got)
    keys, terms = (k * size).repeat(got) + cols[e], values[e]
    if scale.any():  # d e_r's terms, none where d = 0 throughout
        keys = np.concatenate((np.arange(r.size) * size + r, keys))
        terms = np.concatenate((-scale[r // p.n], terms))
    order = keys.argsort(kind="stable")
    keys = keys[order]
    last = np.concatenate((keys[1:] != keys[:-1], [keys.size > 0])).nonzero()[0]  # each key's last term
    sums = terms[order].cumsum()[last]  # wraps only where a sum would
    sums[1:] -= sums[:-1].copy()
    nonzero = sums.nonzero()[0]
    return (*np.divmod(keys[last[nonzero]], size), -sums[nonzero])


def _adjugate(core: list[list[int]], limit: int):
    """(d, adj) with core adj = d I, by `_bareiss` on [core | I]; None for
    a singular core, or where an entry of adj exceeds limit in magnitude."""
    s = len(core)
    a = [row + [int(r == c) for c in range(s)] for r, row in enumerate(core)]
    rank, d = _bareiss(a, s, jordan=True)
    x = [row[s:] for row in a]
    return (d, x) if rank == s and max(abs(v) for row in x for v in row) <= limit else None


def _transposed(p: Peeled) -> Peeled:
    """The peeled stack of the G^T: the nonzeros by column (a stable sort,
    so by row within each), the live lines swapped, each pass read across."""
    order = p.gc.argsort(kind="stable")
    return Peeled(p.n, p.counts, p.gc[order], p.gr[order], p.live_c, p.live_r,
                  [(not by_row, c, r) for by_row, r, c in p.passes])


def _substitute(p: Peeled, scale: np.ndarray, core) -> tuple[tuple, np.ndarray]:
    """(x, rows): X with G X = d I outside the core rows, d = scale[i]
    (nonzero for every matrix or none), by rows (`is_inverse`), and each
    entry's row. In `_peel`'s order G is block lower triangular with unit
    pivots: X[c] = d e_r - (G X)[r] (`_residual`, in `chunks`) for each
    pivot (r, c) of the row passes, core(residual, store) stores the core
    columns' rows, then the column passes' pivots go in reverse."""
    n, ptr, size = p.n, p.row_ptr, p.live_r.size
    degree = ptr[1:] - ptr[:-1]
    start, length = np.zeros((2, size), dtype=np.int64)
    cols, values, rows = np.empty((3, p.gr.size), dtype=np.int64)  # grown if X outgrows G
    used = 0  # X's entries, row after row in the order made

    def store(c, k, line, vals):  # rows c, their entries as `_residual` gives them
        nonlocal cols, values, rows, used
        end = used + line.size
        if end > cols.size:
            cols, values, rows = (np.resize(a, 2 * end) for a in (cols, values, rows))
        lens = np.bincount(k, minlength=c.size)
        start[c], length[c] = lens.cumsum() - lens + used, lens
        cols[used:end], values[used:end], rows[used:end] = line, vals, c[k]
        used = end

    def residual(r):  # `_residual` of rows r
        lens = degree[r]
        return _residual(p, r, _ranges(ptr[r], lens), np.arange(r.size).repeat(lens), scale,
                         (start, length, cols, values))

    def substitute(r, c):
        if not used:  # X is empty: X[c] = d e_r, nothing at d = 0
            return store(c, np.arange(r.size), r, scale[r // n]) if scale.any() else None
        for q in chunks(r.size, 1 + int(degree[r].sum()) * (1 + used // size) // r.size):
            store(c[q.start:q.stop], *residual(r[q.start:q.stop]))

    for _, r, c in [step for step in p.passes if step[0]]:  # a singular matrix's rows are harmless
        substitute(r, c)
    core(residual, store)
    for _, r, c in [step for step in reversed(p.passes) if not step[0]]:
        substitute(r, c)
    return (start, length, cols[:used], values[:used]), rows[:used]


def peeled_inverses(p: Peeled) -> tuple[np.ndarray, ...]:
    """Exact X = d G^-1 of a peeled stack's 0/1 G by `_substitute`, each
    distinct core C inverted once (`_adjugate`: C adj C = d I; d = 1 with no
    core), X's core rows adj C times the core rows' residuals, over d.

    Returns (index, values, scale, ok, norms): X's nonzero entries as flat
    indices into (N, n, n), by row in the order made, then by column, their
    int64 values, d (N,), ok (N,), the proof G X = d I (`is_inverse`), and
    norms (N, n), X's squared row norms, exact where ok holds. Where ok is
    False (G singular, or an entry past the bound) both are meaningless."""
    n, counts, size, limit = p.n, p.counts, p.live_r.size, (1 << 26) // p.n
    ok, cores = _cores(p, lambda core: _adjugate(core, limit))
    scale = np.ones(len(counts), dtype=np.int64)
    scale[list(cores)] = [d for d, _ in cores.values()]

    def core(residual, store):
        if cores:
            cored = np.isin(np.arange(len(counts)), list(cores))[:, None]
            core_r, core_c = (np.flatnonzero(live & cored) for live in (p.live_r, p.live_c))
            k, line, vals = residual(core_r)
            y = np.zeros((core_r.size, n), dtype=np.int64)
            y[k, line % n] = vals
            at = np.cumsum([0] + [len(adj) for _, adj in cores.values()])
            for (d, adj), lo, hi in zip(cores.values(), at, at[1:]):
                y[lo:hi] = np.array(adj, dtype=np.int64) @ y[lo:hi] // d
            k, col = np.nonzero(y)
            store(core_c, k, core_c[k] - core_c[k] % n + col, y[k, col])

    x, rows = _substitute(p, scale, core)
    ok &= is_inverse(p, x, scale)
    norms = np.bincount(rows, np.square(x[3], dtype=float), size).reshape(-1, n)
    return (rows - rows // n) * n + x[2], x[3], scale, ok, norms


def _proof(p: Peeled, x: tuple, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(big, wrong) by matrix: X has an entry past 2^26 / n, below which
    every sum of G X stays under 2^26 and X's sum of squares under 2^52
    (exact in int64 and float64), or d I - G X, d = scale[i], is not zero
    (`_residual`, in `chunks` of rows; a sum that wraps stays in its row)."""
    n, ptr, gr, size = p.n, p.row_ptr, p.gr, p.live_r.size
    big, wrong = np.zeros((2, len(p.counts)), dtype=bool)
    big[x[2][np.abs(x[3]) > (1 << 26) // n] // n] = True
    for rows in chunks(size, 1 + gr.size * (1 + x[2].size // size) // size):  # about the terms a row
        lo, a, b = rows.start, ptr[rows.start], ptr[rows.stop]
        k = _residual(p, np.arange(lo, rows.stop), slice(a, b), gr[a:b] - lo, scale, x)[0]
        wrong[(k + lo) // n] = True
    return big, wrong


def is_inverse(p: Peeled, x: tuple, scale: np.ndarray) -> np.ndarray:
    """Whether G X = d I exactly (`_proof`), d = scale[i] nonzero, so
    X = d G^-1, for a peeled stack's 0/1 G (its nonzeros, not its peel) and
    X by rows: x = (start, length, cols, values), row c (a line, as G's) the
    length[c] entries from start[c] of column lines cols, no column twice."""
    big, wrong = _proof(p, x, scale)
    return ~(big | wrong | (scale == 0))


def peeled_left_kernels(p: Peeled) -> tuple[np.ndarray, np.ndarray]:
    """(lines, basis): integer bases N of the left kernels {y : y G = 0} of
    a peeled stack of 0/1 G whose cores are all zero, G^T's right kernels:
    `_substitute` of the transposed peel at d = 0, with X[l] = e_l on each
    core row l of G, gives G^T X = 0, core row l's y being column l of X
    (0 on G's column-pass rows, y[r] = -(sum of y over the other rows of
    pivot column c) over its row passes in reverse). The n - s pivots prove
    rank >= n - s; the identity on the s core rows and N G = 0 (`_proof` at
    d = 0 on G^T), a basis. The bound 2^26 / n is checked once, at the end:
    a sum can wrap only after an entry past it is stored, which refuses its
    matrix. lines: the core rows, increasing; basis: (lines.size, n) int64,
    row k lines[k]'s y. Raises ValueError naming the first matrix whose core
    keeps a live nonzero (before any substitution), else the first whose
    basis outgrows the bound or fails N G = 0."""
    live = p.live_r.ravel()[p.gr] & p.live_c.ravel()[p.gc]
    if live.any():
        raise ValueError("matrix %d: the peel leaves a live nonzero in its core, "
                         "so its left kernel is not read off the peel" % (p.gr[live][0] // p.n))
    lines, t, scale = np.flatnonzero(p.live_r), _transposed(p), np.zeros(len(p.counts), dtype=np.int64)
    x, rows = _substitute(t, scale, lambda residual, store: store(lines, np.arange(lines.size), lines, 1))
    big, wrong = _proof(t, x, scale)
    bad = np.flatnonzero(big | wrong)
    if bad.size:
        raise ValueError("matrix %d: its left kernel basis %s" % (
            bad[0], "has an entry past 2^26 / %d" % p.n if big[bad[0]] else "fails N G = 0"))
    basis = np.zeros((lines.size, p.n), dtype=np.int64)
    basis[np.searchsorted(lines, x[2]), rows % p.n] = x[3]
    return lines, basis


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
