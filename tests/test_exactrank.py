"""Exact rank routines cross-checked against a computer-algebra oracle."""
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import biakit.exactrank
from biakit.exactrank import (
    gaussian_rank, integer_rank, is_inverse, peel, peeled_inverses, peeled_nonsingular)


def test_identity_zero_empty():
    assert integer_rank([[1, 0], [0, 1]]) == 2
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([]) == 0


def test_rank_one_outer_product():
    a = [2, -3, 5]
    b = [7, 1, -4, 2]
    assert integer_rank([[x * y for y in b] for x in a]) == 1


def test_singular_square():
    # third row = first + second
    assert integer_rank([[1, 2, 3], [4, 5, 6], [5, 7, 9]]) == 2


def test_wide_and_tall():
    assert integer_rank([[1, 2, 3]]) == 1
    assert integer_rank([[1], [2], [3]]) == 1


def test_ragged_rejected():
    with pytest.raises(ValueError):
        integer_rank([[1, 2], [3]])


int_matrices = st.integers(1, 5).flatmap(
    lambda nr: st.integers(1, 5).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(-9, 9), min_size=nc, max_size=nc),
            min_size=nr, max_size=nr)))


@settings(max_examples=150, deadline=None)
@given(int_matrices)
def test_integer_rank_matches_oracle(rows):
    assert integer_rank(rows) == sympy.Matrix(rows).rank()


gauss_matrices = st.integers(1, 4).flatmap(
    lambda nr: st.integers(1, 4).flatmap(
        lambda nc: st.lists(
            st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                     min_size=nc, max_size=nc),
            min_size=nr, max_size=nr)))


@settings(max_examples=100, deadline=None)
@given(gauss_matrices)
def test_gaussian_rank_matches_oracle(rows):
    sm = sympy.Matrix([[re + im * sympy.I for re, im in row] for row in rows])
    assert gaussian_rank(rows) == sm.rank()


def test_gaussian_rank_detects_complex_dependence():
    # second column = (1+i) times the first; real projections alone look independent
    rows = [[(1, 0), (1, 1)], [(2, 1), (1, 3)]]
    assert gaussian_rank(rows) == 1


def nonzeros(stack):
    """(counts, rows, cols) of a dense stack of 0/1 matrices: the nonzeros
    of every matrix, matrix after matrix and by row within each."""
    item, rows, cols = np.nonzero(stack)
    return np.bincount(item, minlength=len(stack)), rows, cols


def decided(stack):
    """peeled_nonsingular of a dense stack of 0/1 matrices, peeled by its
    nonzeros."""
    stack = np.asarray(stack)
    return peeled_nonsingular(peel(stack.shape[-1], *nonzeros(stack))).tolist()


def det_nonzero(stack):
    return [sympy.Matrix(a.tolist()).det() != 0 for a in stack]


@st.composite
def square_stacks(draw):
    """Stacks of n x n 0/1 matrices, nonzero counts differing from matrix to
    matrix, about half of them singular by construction: one column a copy
    of another column, or zero."""
    n = draw(st.integers(1, 6))
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        a = np.array(draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n)),
                     dtype=np.int64).reshape(n, n)
        if draw(st.booleans()):
            c = draw(st.integers(0, n - 1))
            coef = [0] * (n - 1)
            if n > 1:
                coef[draw(st.integers(0, n - 2))] = draw(st.integers(0, 1))
            a[:, c] = np.delete(a, c, axis=1) @ np.array(coef, dtype=np.int64)
        mats.append(a)
    return np.stack(mats)


@settings(max_examples=200, deadline=None)
@given(square_stacks())
def test_nonsingular_matches_oracle(stack):
    assert decided(stack) == det_nonzero(stack)


@st.composite
def peelable_stacks(draw):
    """Stacks of sparse n x n 0/1 matrices that the singleton peel acts on:
    a lower-triangular block over a dense core of random size,
    [[T, 0], [X, core]], with rows and columns permuted. Some get a zero
    row or column, or two singleton rows (columns) in one column (row).
    Core sizes differ across the stack. Some matrices are permuted copies
    of earlier ones, so equal cores repeat within one call."""
    n = draw(st.integers(1, 7))
    entries = st.lists(st.sampled_from([0, 0, 1]), min_size=n * n, max_size=n * n)
    mats = []
    for _ in range(draw(st.integers(1, 5))):
        if mats and draw(st.booleans()):
            a = draw(st.sampled_from(mats))
            mats.append(a[draw(st.permutations(range(n)))][:, draw(st.permutations(range(n)))])
            continue
        a = np.array(draw(entries), dtype=np.int64).reshape(n, n)
        t = n - draw(st.integers(0, n))  # T is t x t
        a[:t, t:] = 0
        a[:t, :t] = np.tril(a[:t, :t])
        edit = draw(st.sampled_from(["none", "zero row", "zero column", "rows", "columns"]))
        i, j, c = (draw(st.integers(0, n - 1)) for _ in range(3))
        if edit == "zero row":
            a[i] = 0
        elif edit == "zero column":
            a[:, i] = 0
        elif edit in ("rows", "columns") and i != j:
            b = a if edit == "rows" else a.T  # a view: edits land in a
            b[[i, j]] = 0
            b[i, c] = b[j, c] = 1
        a = a[draw(st.permutations(range(n)))][:, draw(st.permutations(range(n)))]
        mats.append(a)
    return np.stack(mats)


@settings(max_examples=300, deadline=None)
@given(peelable_stacks())
def test_peeled_nonsingular_matches_oracle(stack):
    assert decided(stack) == det_nonzero(stack)


def test_one_call_holds_matrices_of_different_nonzero_counts():
    """The identity (4 nonzeros), a full unit triangle (10), a 3 x 3 core
    behind one unit row (7), two equal columns (11) and a matrix with two
    singleton rows in one column (4), in one call."""
    eye = np.eye(4, dtype=np.int64)
    core = eye.copy()
    core[:3, :3] = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    twins = np.tril(np.ones((4, 4), dtype=np.int64))
    twins[:, 1] = twins[:, 0]
    met = eye.copy()
    met[1] = [1, 0, 0, 0]
    stack = np.stack([eye, np.tril(np.ones((4, 4), dtype=np.int64)), core, twins, met])
    assert nonzeros(stack)[0].tolist() == [4, 10, 7, 11, 4]
    assert decided(stack) == det_nonzero(stack) == [True, True, True, False, False]
    index, values, scale, ok = peeled_inverses(peel(4, *nonzeros(stack)))
    assert ok.tolist() == [True, True, True, False, False]
    assert scale[:3].tolist() in ([1, 1, 2], [1, 1, -2])
    x = dense(index, values, 5, 4)
    assert all((stack[i] @ x[i] == scale[i] * eye).all() for i in (0, 1, 2))


def test_all_zero_matrices_are_singular():
    """A matrix with no nonzeros has count 0, also first, between others
    and last; it is singular and has no inverse."""
    eye = np.eye(3, dtype=np.int64)
    zero = np.zeros((3, 3), dtype=np.int64)
    stack = np.stack([zero, eye, zero, eye, zero, zero])
    assert nonzeros(stack)[0].tolist() == [0, 3, 0, 3, 0, 0]
    assert decided(stack) == [False, True, False, True, False, False]
    assert peeled_inverses(peel(3, *nonzeros(stack)))[3].tolist() == [False, True, False, True, False, False]
    assert decided(np.zeros((2, 3, 3), dtype=np.int64)) == [False, False]
    assert peeled_inverses(peel(3, *nonzeros(np.zeros((2, 3, 3)))))[3].tolist() == [False, False]


def _counting_integer_rank(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(rows)
        return integer_rank(rows)
    monkeypatch.setattr(biakit.exactrank, "integer_rank", counted)
    return calls


def test_peel_decides_without_elimination_and_pads_the_cores(monkeypatch):
    calls = _counting_integer_rank(monkeypatch)
    rng = np.random.default_rng(1)
    perm = rng.permutation(6)
    lower = np.tril(rng.integers(0, 2, size=(6, 6)), -1) + np.eye(6, dtype=np.int64)
    triangular = lower[perm][:, perm[::-1]]
    rows = np.eye(6, dtype=np.int64)
    rows[4] = rows[3]               # two singleton rows in column 3
    columns = rows.T.copy()         # two singleton columns in row 3
    zero_row = np.ones((6, 6), dtype=np.int64)
    zero_row[2] = 0
    assert decided([triangular, rows, columns, zero_row, zero_row.T]) \
        == [True, False, False, False, False]
    assert calls == []
    # a 2 x 2 and a 3 x 3 core behind unit rows each go to Bareiss once,
    # unpadded
    core2 = np.eye(6, dtype=np.int64)[[0, 1, 3, 2, 5, 4]]
    core2[:2, :2] = [[1, 1], [1, 1]]
    core3 = np.eye(6, dtype=np.int64)
    core3[:3, :3] = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    core3[5, 0] = 1                # row 5 is no singleton, but column 5 is
    assert decided([core2, core3]) == [False, True]
    assert calls == [[[1, 1], [1, 1]], [[1, 1, 0], [0, 1, 1], [1, 0, 1]]]
    # first seen, first decided, across core sizes: the 3 x 3 core before
    # the 2 x 2
    assert decided([core3, core2]) == [True, False]
    assert calls[2:] == [[[1, 1, 0], [0, 1, 1], [1, 0, 1]], [[1, 1], [1, 1]]]


def cores_one_by_one(p, decide):
    """`exactrank._cores` one matrix at a time, the oracle of its batched
    cores: each cored matrix's core is sliced from its own nonzeros and
    keyed by its bytes, and decide runs on the first matrix of each key."""
    counts, live_r, live_c = p.counts, p.live_r, p.live_c
    if not live_r.any():  # every matrix peeled to nothing
        return np.ones(len(counts), dtype=bool), {}
    live = live_r.ravel()[p.gr] & live_c.ravel()[p.gc]
    singular = np.zeros(len(counts), dtype=bool)
    for lines, g in ((live_r, p.gr), (live_c, p.gc)):  # a live line with no live nonzero
        degree = np.bincount(g[live], minlength=lines.size).reshape(lines.shape)
        singular |= (lines & (degree == 0)).any(axis=1)
    out = ~singular & ~live_r.any(axis=1)
    ptr = np.concatenate([[0], np.cumsum(counts)])
    at_r, at_c = np.cumsum(live_r, axis=1) - 1, np.cumsum(live_c, axis=1) - 1
    verdicts = {}  # a core's bytes fix its size as well as its entries
    found = {}
    for i in np.flatnonzero(~singular & ~out):
        r, c = (g[ptr[i]:ptr[i + 1]] - i * p.n for g in (p.gr, p.gc))
        keep = live_r[i, r] & live_c[i, c]
        size = int(live_r[i].sum())
        core = np.zeros((size, size), dtype=np.int8)
        core[at_r[i, r[keep]], at_c[i, c[keep]]] = 1
        key = core.tobytes()
        if key not in verdicts:
            verdicts[key] = decide(core.tolist())
        if verdicts[key]:
            out[i] = True
            found[int(i)] = verdicts[key]
    return out, found


def recording(calls, fn):
    """fn, appending its first argument to calls on every call."""
    def recorded(first, *rest):
        calls.append(first)
        return fn(first, *rest)
    return recorded


@st.composite
def cored_stacks(draw):
    """Stacks of n x n 0/1 matrices [[T, 0], [X, C]], rows and columns
    permuted, T unit lower triangular, so the peel removes T and leaves
    the s x s core C, 0 <= s <= n, whole unless C has a singleton line: C
    is all ones (singular from s = 2), all ones off the diagonal
    (nonsingular from s = 3) or random. A core can be the whole matrix,
    sizes mix within a stack, and permuted copies repeat cores."""
    n = draw(st.integers(1, 7))

    def bits(shape):
        return np.array(draw(st.lists(st.integers(0, 1), min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape)))), dtype=np.int64).reshape(shape)
    mats = []
    for _ in range(draw(st.integers(1, 6))):
        if mats and draw(st.booleans()):
            a = draw(st.sampled_from(mats))
        else:
            s = draw(st.integers(0, n))
            t = n - s
            a = np.zeros((n, n), dtype=np.int64)
            a[:t, :t] = np.tril(bits((t, t)), -1) + np.eye(t, dtype=np.int64)
            a[t:, :t] = bits((s, t))
            kind = draw(st.sampled_from(["ones", "ones off the diagonal", "random"]))
            ones = np.ones((s, s), dtype=np.int64)
            a[t:, t:] = {"ones": ones, "ones off the diagonal": ones - np.eye(s, dtype=np.int64),
                         "random": bits((s, s))}[kind]
        mats.append(a[draw(st.permutations(range(n)))][:, draw(st.permutations(range(n)))])
    return np.stack(mats)


@settings(max_examples=200, deadline=None)
@given(cored_stacks())
def test_batched_cores_match_the_one_by_one_oracle(stack):
    """The batched cores give the oracle's verdicts (and sympy's), the
    same inverses, dtype and shape included, and the same Bareiss calls in
    the same order, on one peel."""
    n = stack.shape[-1]
    p = peel(n, *nonzeros(stack))
    adjugate = biakit.exactrank._adjugate
    runs = []
    for cores in (biakit.exactrank._cores, cores_one_by_one):
        ranked, inverted = [], []
        with mock.patch.object(biakit.exactrank, "_cores", cores), \
                mock.patch.object(biakit.exactrank, "integer_rank", recording(ranked, integer_rank)), \
                mock.patch.object(biakit.exactrank, "_adjugate", recording(inverted, adjugate)):
            runs.append((peeled_nonsingular(p), peeled_inverses(p), ranked, inverted))
    (flags, inverses, ranked, inverted), (want, want_inverses, want_ranked, want_inverted) = runs
    assert flags.dtype == want.dtype and flags.tolist() == want.tolist() == det_nonzero(stack)
    for got, expect in zip(inverses, want_inverses):
        assert got.dtype == expect.dtype and got.shape == expect.shape and (got == expect).all()
    assert ranked == want_ranked and inverted == want_inverted


def test_singular_binary_matrices_are_proven_without_elimination_over_q(monkeypatch):
    calls = _counting_integer_rank(monkeypatch)
    a = np.triu(np.ones((30, 30), dtype=np.int64))
    singular = a.copy()
    singular[:, 7] = singular[:, 3]
    assert decided([a, singular, np.zeros_like(a)]) == [True, False, False]
    assert calls == []


def test_integer_rank_is_exact_at_any_entry_size():
    """integer_rank is exact at any entry size: on 8 x 8 matrices with
    entries up to 2^58, two of them with a column an integer combination
    of others, it agrees with sympy."""
    rng = np.random.default_rng(0)
    stack = rng.integers(-2 ** 58, 2 ** 58, size=(3, 8, 8))
    stack[1][:, 0] = stack[1][:, 1] - stack[1][:, 2]
    stack[2][:, 5] = 3 * stack[2][:, 4]
    ranks = [integer_rank(a.tolist()) for a in stack]
    assert ranks == [sympy.Matrix(a.tolist()).rank() for a in stack] == [8, 7, 7]


@pytest.mark.parametrize("core, expect", [
    ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], True),  # det = 2
    ([[1, 1], [1, 1]], False),
], ids=["det-two", "singular"])
def test_cores_the_peel_leaves_whole_go_to_integer_rank(monkeypatch, core, expect):
    calls = _counting_integer_rank(monkeypatch)
    assert (sympy.Matrix(core).det() != 0) == expect
    assert decided([core]) == [expect]
    # no line of the core is a singleton, so the peel leaves it whole: one
    # Bareiss call decides it
    assert calls == [core]


def dense(index, values, count, n):
    x = np.zeros(count * n * n, dtype=np.int64)
    x[index] = values
    return x.reshape(count, n, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.permutations(range(n)), st.permutations(range(n)),
    st.lists(st.booleans(), min_size=n * n, max_size=n * n))))
def test_peel_inverses_of_permuted_unit_triangular_matrices(case):
    """Any 0/1 unit lower-triangular matrix, rows and columns permuted,
    peels to nothing and inverts exactly: G X = I in integers."""
    n, prow, pcol, bits = case
    lower = np.tril(np.array(bits, dtype=np.int64).reshape(n, n), -1) + np.eye(n, dtype=np.int64)
    g = lower[np.ix_(prow, pcol)]
    index, values, scale, ok = peeled_inverses(peel(n, *nonzeros(g[None])))
    assert ok.tolist() == [True] and scale.tolist() == [1]
    assert (g @ dense(index, values, 1, n)[0] == np.eye(n, dtype=np.int64)).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_peel_inverses_prove_only_true_inverses(rows):
    """On any 0/1 matrix, ok holds exactly where G is nonsingular (sympy),
    and then G X = d I exactly, with X = d G^-1 (sympy) and d = +-det G;
    d = 1 wherever removing one singleton line at a time (a row or column
    with exactly one nonzero, with that nonzero's column or row) empties
    the matrix."""
    g = np.array(rows, dtype=np.int64)
    n = len(g)
    index, values, scale, ok = peeled_inverses(peel(n, *nonzeros(g[None])))
    x = dense(index, values, 1, n)[0]
    det = sympy.Matrix(rows).det()
    assert ok[0] == (det != 0)
    if ok[0]:
        assert abs(scale[0]) == abs(det)
        assert (g @ x == scale[0] * np.eye(n, dtype=np.int64)).all()
        assert sympy.Matrix(x.tolist()) == int(scale[0]) * sympy.Matrix(rows).inv()
    live_r, live_c = np.ones(n, dtype=bool), np.ones(n, dtype=bool)
    while live_r.any():
        live = g * live_r[:, None] * live_c
        r = np.flatnonzero(live_r & (live.sum(axis=1) == 1))
        c = np.flatnonzero(live_c & (live.sum(axis=0) == 1))
        if r.size:
            live_c[np.flatnonzero(live[r[0]])[0]] = live_r[r[0]] = False
        elif c.size:
            live_r[np.flatnonzero(live[:, c[0]])[0]] = live_c[c[0]] = False
        else:
            break
    if not live_r.any():
        assert ok[0] and scale[0] == 1


def test_a_core_of_determinant_two_is_inverted_at_scale_two(monkeypatch):
    """The 3 x 3 core [[1,1,0],[0,1,1],[1,0,1]] (det 2), which the peel
    leaves whole, behind unit rows and columns: G X = 2 I is proven (up to
    the sign of d), each distinct core is eliminated once per call, and a
    wrong X or a wrong d is refused."""
    calls = []
    adjugate = biakit.exactrank._adjugate

    def counted(core, limit):
        calls.append(core)
        return adjugate(core, limit)
    monkeypatch.setattr(biakit.exactrank, "_adjugate", counted)
    core = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    g = np.eye(6, dtype=np.int64)
    g[:3, :3] = core
    g[4, 0] = g[5, 2] = g[1, 3] = 1  # unit columns 4 and 5 below it, unit row 3 beside it
    stack = np.stack([g, g[np.ix_([0, 1, 2, 5, 3, 4], [0, 1, 2, 4, 5, 3])]])
    p = peel(6, *nonzeros(stack))
    index, values, scale, ok = peeled_inverses(p)
    assert ok.tolist() == [True, True]
    assert set(np.abs(scale).tolist()) == {2}
    assert calls == [core]
    x = dense(index, values, 2, 6)
    for gi, xi, d in zip(stack, x, scale):
        assert (gi @ xi == d * np.eye(6, dtype=np.int64)).all()
        assert sympy.Matrix(xi.tolist()) == int(d) * sympy.Matrix(gi.tolist()).inv()
    assert is_inverse(p, index, values, -scale).tolist() == [False, False]
    assert is_inverse(p, index, values, np.ones(2, dtype=np.int64)).tolist() == [False, False]
    halved = values.copy()
    halved[index < 36] //= 2  # X / 2 is no integer inverse
    assert is_inverse(p, index, halved, scale // [2, 1]).tolist() == [False, True]
    # d = 0 proves nothing, although G 0 = 0 I
    assert is_inverse(p, index[:0], values[:0], np.zeros(2, dtype=np.int64)).tolist() == [False, False]


def test_is_inverse_rejects_one_wrong_entry():
    """A flipped, a dropped or an added entry each breaks G X = I, and only
    for the matrix it is in."""
    g = np.array([[[1, 0, 0], [1, 1, 0], [0, 1, 1]], [[0, 1, 0], [1, 0, 0], [1, 1, 1]]])
    p = peel(3, *nonzeros(g))
    index, values, scale, ok = peeled_inverses(p)
    assert ok.tolist() == [True, True] and scale.tolist() == [1, 1]
    x = dense(index, values, 2, 3)
    assert (np.linalg.inv(g).round() == x).all()
    first = index < 9
    flipped = values.copy()
    flipped[0] = -flipped[0]
    assert is_inverse(p, index, flipped, scale).tolist() == [False, True]
    assert is_inverse(p, index[1:], values[1:], scale).tolist() == [False, True]
    extra = 9 + np.flatnonzero(x[1].ravel() == 0)[0]
    assert is_inverse(p, np.append(index, extra), np.append(values, 1), scale).tolist() == [True, False]
    assert is_inverse(p, index[first], values[first], scale).tolist() == [True, False]


def test_is_inverse_refuses_entries_past_its_bound():
    """G with ones on its diagonal and on subdiagonals 1 and 3 has an
    inverse whose entries grow geometrically with n: it is exact at n = 20
    but past 2^26 / n at n = 40, where it is refused."""
    for n, expect in ((20, True), (40, False)):
        g = np.eye(n, dtype=np.int64) + np.eye(n, k=-1, dtype=np.int64) + np.eye(n, k=-3, dtype=np.int64)
        index, values, scale, ok = peeled_inverses(peel(n, *nonzeros(g[None])))
        assert ok.tolist() == [expect]
        assert (np.abs(values).max() > (1 << 26) // n) == (not expect)
