"""Shared fixtures: constructed schemes, the pair-product 5-user family and
the golden 4-user instance, a recorder of the matrix stacks that reach
numpy's SVD, inverse and solve, a loader for the checkout's scripts, the
column-by-column loop oracle of the pair products (scheme.product_matrix),
each user's beamforming vectors read off the pair map, the pair products
on a built scheme's pattern as a scheme of their own, and a strategy for
schemes on random sub-supports of the pair products.

The golden instance is a fixed, externally specified switching assignment
and pair labeling used as a reproduction target by the acceptance gate.
Its combined receive matrix turns out to be rank deficient at receivers
1 and 3 (see README, Known limitations), which the golden acceptance test
records honestly rather than papering over.
"""
import importlib.util
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import biakit as bk
from biakit.designspace import make_pattern_matrix, row_vocabulary
from biakit.scheme import (
    PatternMatrix,
    make_config,
    pattern_from_rows,
    product_matrix,
)

ROOT = Path(__file__).resolve().parents[1]


def load(relative: str, name: str):
    """Import a file of the checkout by path, without writing bytecode."""
    spec = importlib.util.spec_from_file_location(name, ROOT / relative)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through it
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def scan_module():
    return load("scripts/certify_design_space.py", "certify_design_space")


def _product_except(tilde: np.ndarray, *users: int) -> np.ndarray:
    """Element-wise product of all pattern columns except the given users."""
    v = np.ones(tilde.shape[0], dtype=np.int64)
    for c in range(tilde.shape[1]):
        if c not in users:
            v = v * tilde[:, c]
    return v


def pair_product(tilde: np.ndarray, i: int, j: int) -> np.ndarray:
    """Element-wise product of all pattern columns except i and j."""
    return _product_except(tilde, i, j)


def exclude_one_product(tilde: np.ndarray, i: int) -> np.ndarray:
    """Element-wise product of all pattern columns except i."""
    return _product_except(tilde, i)


# one row per user, entries are antenna mode numbers over the 9 channel uses
GOLDEN_MODES_4 = (
    (1, 2, 1, 2, 1, 2, 2, 2, 1),
    (2, 1, 1, 2, 2, 1, 2, 2, 2),
    (2, 2, 2, 1, 1, 1, 1, 2, 2),
    (2, 2, 2, 2, 2, 2, 1, 1, 1),
)

# pair {i, j} -> (dimension of i, dimension of j), all 0-indexed
GOLDEN_PAIR_DIMS = {
    (2, 3): (0, 0),
    (1, 3): (0, 1),
    (1, 2): (1, 1),
    (0, 3): (0, 2),
    (0, 2): (1, 2),
    (0, 1): (2, 2),
}

# published shared vectors of the golden instance, keyed by pair
GOLDEN_VECTORS = {
    (2, 3): (0, 0, 0, 1, 0, 0, 1, 1, 0),
    (1, 3): (0, 1, 0, 0, 0, 0, 0, 1, 0),
    (1, 2): (0, 1, 0, 1, 0, 1, 0, 0, 0),
    (0, 3): (1, 0, 0, 0, 0, 0, 0, 1, 1),
    (0, 2): (1, 0, 0, 1, 1, 0, 0, 0, 0),
    (0, 1): (1, 1, 1, 0, 0, 0, 0, 0, 0),
}


def user_vectors(scheme: bk.Scheme, i: int) -> list[np.ndarray]:
    """User i's K-1 beamforming vectors in dimension order, read off the
    pair map: pair {i, o} sends its column of pattern.supports as user i's
    dimension pair_dims[pair][position of i in the pair]."""
    vectors = {}
    for c, pair in enumerate(itertools.combinations(range(scheme.pattern.users), 2)):
        if i in pair:
            vectors[scheme.pair_dims[pair][pair.index(i)]] = scheme.pattern.supports[:, c]
    return [vectors[d] for d in range(scheme.pattern.users - 1)]


def product_scheme(scheme: bk.Scheme) -> bk.Scheme:
    """The scheme's switching rows and pair map, with every pair sending its
    full pair product: aligned, but not the star family's narrower
    supports; on the star rows its certificate holds at no receiver."""
    return bk.Scheme(PatternMatrix(scheme.pattern.tilde), scheme.pair_dims)


@st.composite
def widened_schemes(draw):
    """Schemes on a vocabulary-minus-two pattern, rows shuffled, whose every
    pair shares a random nonempty subset of its pair product (never empty
    there: of the all-ones row, r_a, r_b and z_ab at most two are omitted),
    built by pattern_from_rows, under a random pair map."""
    K = draw(st.integers(3, 7))
    config = make_config(K)
    vocab = row_vocabulary(K)
    omit = draw(st.sets(st.integers(0, len(vocab) - 1), min_size=2, max_size=2))
    rows = draw(st.permutations([row for r, row in enumerate(vocab) if r not in omit]))
    tilde = np.array(rows, dtype=np.int64)
    pairs = list(itertools.combinations(range(K), 2))
    rows_by_pair = {}
    for pair, v in zip(pairs, product_matrix(tilde).T):
        inside = np.flatnonzero(v).tolist()
        rows_by_pair[pair] = draw(st.sets(st.sampled_from(inside), min_size=1))
    pattern = pattern_from_rows(config, tilde, rows_by_pair)
    dims_of = [draw(st.permutations(range(K - 1))) for _ in range(K)]
    partners = [[o for o in range(K) if o != u] for u in range(K)]
    dims = {(i, j): (dims_of[i][partners[i].index(j)], dims_of[j][partners[j].index(i)])
            for i, j in pairs}
    return bk.Scheme(pattern, dims)


def golden_tilde() -> np.ndarray:
    return np.array(GOLDEN_MODES_4, dtype=np.int64).T - 1


@pytest.fixture(scope="session")
def golden_scheme4() -> bk.Scheme:
    return bk.Scheme(PatternMatrix(golden_tilde()), GOLDEN_PAIR_DIMS)


@pytest.fixture(scope="session")
def scheme3() -> bk.Scheme:
    return bk.build_scheme(3)


@pytest.fixture(scope="session")
def scheme4() -> bk.Scheme:
    return bk.build_scheme(4)


@pytest.fixture(scope="session")
def scheme5() -> bk.Scheme:
    return bk.build_scheme(5)


@pytest.fixture(scope="session")
def scheme6() -> bk.Scheme:
    return bk.build_scheme(6)


@pytest.fixture(scope="session")
def fallback_scheme5() -> bk.Scheme:
    """The 5-user pair-product family: every shared vector is the full pair
    product, which certifies receivers 1..4 and leaves receiver 5 with a
    one-dimensional overlap in every draw."""
    return bk.Scheme(make_pattern_matrix(make_config(5)))


@pytest.fixture
def linalg_stacks(monkeypatch) -> dict[str, list[tuple[int, ...]]]:
    """The shape of every matrix stack passed to np.linalg.svd,
    np.linalg.inv and np.linalg.solve while the test runs, in call order,
    under "svd", "inv" and "solve"."""
    seen: dict[str, list[tuple[int, ...]]] = {"svd": [], "inv": [], "solve": []}
    for name, shapes in seen.items():
        def recorded(a, *args, _inner=getattr(np.linalg, name), _shapes=shapes, **kwargs):
            _shapes.append(np.shape(a))
            return _inner(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    return seen


def matrix_count(shapes, rows: int, cols: int) -> int:
    """How many rows x cols matrices a list of stack shapes holds."""
    return sum(math.prod(shape[:-2]) for shape in shapes if shape[-2:] == (rows, cols))
