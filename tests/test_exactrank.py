"""Exact rank routines cross-checked against a computer-algebra oracle."""
from math import prod

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import biakit.exactrank
from biakit.exactrank import (
    PRIME,
    gaussian_rank,
    integer_rank,
    nonsingular,
    nonsingular_mod_p,
)


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


@st.composite
def square_stacks(draw):
    """Stacks of n x n integer matrices, 0/1 or small signed, about half of
    them singular by construction: one column an integer combination of
    the others (for 0/1 matrices a copy of another column, or zero)."""
    n = draw(st.integers(1, 6))
    binary = draw(st.booleans())
    lo, hi = (0, 1) if binary else (-9, 9)
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        a = np.array(draw(st.lists(st.integers(lo, hi), min_size=n * n, max_size=n * n)),
                     dtype=np.int64).reshape(n, n)
        if draw(st.booleans()):
            c = draw(st.integers(0, n - 1))
            if binary:
                coef = [0] * (n - 1)
                if n > 1:
                    coef[draw(st.integers(0, n - 2))] = draw(st.integers(0, 1))
            else:
                coef = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
            a[:, c] = np.delete(a, c, axis=1) @ np.array(coef, dtype=np.int64)
        mats.append(a)
    return np.stack(mats)


@settings(max_examples=200, deadline=None)
@given(square_stacks())
def test_nonsingular_matches_oracle(stack):
    assert list(nonsingular(stack)) == [sympy.Matrix(a.tolist()).det() != 0 for a in stack]


@st.composite
def peelable_stacks(draw):
    """Stacks of sparse, signed n x n matrices that the singleton peel acts
    on: a lower-triangular block over a dense core of random size,
    [[T, 0], [X, core]], with rows and columns permuted. Some get a zero
    row or column, or two singleton rows (columns) in one column (row).
    Core sizes differ across the stack, so the cores are padded."""
    n = draw(st.integers(1, 7))
    entries = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]), min_size=n * n, max_size=n * n)
    mats = []
    for _ in range(draw(st.integers(1, 5))):
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
            b[i, c], b[j, c] = draw(st.sampled_from([1, -2])), draw(st.sampled_from([-1, 3]))
        a = a[draw(st.permutations(range(n)))][:, draw(st.permutations(range(n)))]
        mats.append(a)
    return np.stack(mats)


@settings(max_examples=300, deadline=None)
@given(peelable_stacks())
def test_peeled_nonsingular_matches_oracle(stack):
    assert list(nonsingular(stack)) == [sympy.Matrix(a.tolist()).det() != 0 for a in stack]


def test_peel_decides_without_elimination_and_pads_the_cores(monkeypatch):
    eliminated = []
    eliminate = biakit.exactrank._eliminate_mod

    def counted(a, p):
        eliminated.append(a.copy())
        return eliminate(a, p)
    monkeypatch.setattr(biakit.exactrank, "_eliminate_mod", counted)
    rng = np.random.default_rng(1)
    perm = rng.permutation(6)
    triangular = np.tril(rng.integers(1, 4, size=(6, 6)))[perm][:, perm[::-1]]
    rows = np.eye(6, dtype=np.int64)
    rows[4] = 2 * rows[3]          # two singleton rows in column 3
    columns = rows.T.copy()         # two singleton columns in row 3
    zero_row = np.ones((6, 6), dtype=np.int64)
    zero_row[2] = 0
    assert list(nonsingular(np.stack([triangular, rows, columns, zero_row, zero_row.T]))) \
        == [True, False, False, False, False]
    assert eliminated == []
    # a 2 x 2 and a 3 x 3 core behind unit rows go to one padded elimination
    core2 = np.eye(6, dtype=np.int64)[[0, 1, 3, 2, 5, 4]]
    core2[:2, :2] = [[1, 2], [3, 4]]
    core3 = np.eye(6, dtype=np.int64)
    core3[:3, :3] = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    core3[5, 0] = 1                # row 5 is no singleton, but column 5 is
    assert list(nonsingular(np.stack([core2, core3]))) == [True, False]
    assert [a.shape for a in eliminated] == [(2, 3, 3)]
    assert eliminated[0][0].tolist() == [[1, 2, 0], [3, 4, 0], [0, 0, 1]]


def test_prime_table():
    assert not any(sympy.isprime(q) for q in range(PRIME + 4, 2 ** 31, 4))
    assert sympy.isprime(PRIME) and PRIME < 2 ** 31 and PRIME % 4 == 1


def _counting_integer_rank(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(rows)
        return integer_rank(rows)
    monkeypatch.setattr(biakit.exactrank, "integer_rank", counted)
    return calls


def test_singular_binary_matrices_are_proven_without_elimination_over_q(monkeypatch):
    calls = _counting_integer_rank(monkeypatch)
    a = np.triu(np.ones((30, 30), dtype=np.int64))
    singular = a.copy()
    singular[:, 7] = singular[:, 3]
    assert list(nonsingular(np.stack([a, singular, np.zeros_like(a)]))) == [True, False, False]
    assert calls == []


def test_past_the_prime_table_falls_back_to_integer_rank(monkeypatch):
    calls = _counting_integer_rank(monkeypatch)
    rng = np.random.default_rng(0)
    stack = rng.integers(-2 ** 58, 2 ** 58, size=(3, 8, 8))
    stack[1][:, 0] = stack[1][:, 1] - stack[1][:, 2]
    stack[2][:, 5] = 3 * stack[2][:, 4]
    # every Hadamard bound exceeds the prime, so it alone bounds no determinant
    for a in stack:
        assert prod(sum(x * x for x in col) for col in a.T.tolist()) > PRIME ** 2
    assert list(nonsingular(stack)) == [integer_rank(a.tolist()) == 8 for a in stack]
    assert list(nonsingular(stack)) == [True, False, False]
    # only the singular matrices reach exact elimination, once per call
    assert len(calls) == 4


@pytest.mark.parametrize("core, expect", [
    ([[PRIME + 1, 1], [1, 1]], True),  # det = PRIME, which vanishes mod PRIME
    ([[2, 4], [1, 2]], False),
], ids=["det-is-the-prime", "singular"])
def test_cores_the_prime_does_not_prove_go_to_integer_rank(monkeypatch, core, expect):
    calls = _counting_integer_rank(monkeypatch)
    eliminations = []
    mod_p = biakit.exactrank.nonsingular_mod_p

    def counted(stack):
        eliminations.append(stack.copy())
        return mod_p(stack)
    monkeypatch.setattr(biakit.exactrank, "nonsingular_mod_p", counted)
    assert (sympy.Matrix(core).det() != 0) == expect
    assert list(nonsingular(np.array([core], dtype=np.int64))) == [expect]
    # the peel leaves the dense core whole: one elimination, then Bareiss
    assert [a.tolist() for a in eliminations] == [[core]]
    assert calls == [core]


def test_nonsingular_rejects_bad_stacks():
    with pytest.raises(ValueError):
        nonsingular(np.zeros((2, 3, 4), dtype=np.int64))
    with pytest.raises(TypeError):
        nonsingular(np.zeros((1, 2, 2)))
    # nonsingular, but cast to integers its real part is not
    with pytest.raises(TypeError, match="integer stack"):
        nonsingular_mod_p(np.array([[[1 + 1j, 0], [0, 1j]]]))
