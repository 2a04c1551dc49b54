"""Exact rank routines cross-checked against a computer-algebra oracle."""
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from biakit.exactrank import gaussian_rank, integer_rank


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
