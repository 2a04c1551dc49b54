"""The float bound's channel-free inputs and the simulator's weights
against dense oracles that share no code with the inverse kernel: the
rational inverse of every G_j, built column by column, and the combined
blocks of one draw whose coefficients tag their transmitter and mode."""
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from sympy import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

import biakit as bk
from biakit.designspace import make_pattern_matrix, scan
from biakit.scheme import PatternMatrix, make_config
from biakit.sim import zf_weights
from biakit.verify import combined_blocks, float_bound

from conftest import generator_matrices, widened_schemes


def squared_rows(g):
    """The squared norm of every row of G^-1 as a Fraction, exactly (sympy
    over QQ), or None for a singular G."""
    dm = DomainMatrix([[QQ(int(v)) for v in row] for row in g.tolist()], g.shape, QQ)
    try:
        inverse = dm.inv().to_list()
    except DMNonInvertibleMatrixError:
        return None
    return [sum(Fraction(int(x.numerator), int(x.denominator)) ** 2 for x in row) for row in inverse]


def tagged_blocks(pattern):
    """(tag, A): A the combined blocks of every receiver, (K, m, m), of one
    draw whose coefficient h_ji(mode) is tag[i, mode], 1 .. 2K, whatever
    the receiver j."""
    K = pattern.users
    tag = np.arange(1, 2 * K + 1).reshape(K, 2)
    coeffs = np.broadcast_to(tag, (1, K, K, 2)).astype(complex)
    return tag, combined_blocks(pattern, coeffs, slice(None))[0].real.astype(np.int64)


def assert_bound_and_weights_match_the_oracles(scheme):
    """inverse2 is ||G_j^-1||_F^2 (inf at a singular G_j) and the weights
    are the squared rows of G_j^-1 at the mode-1 and mode-2 halves of j's
    pair with o (0 at o = j and at a singular G_j), bit for bit; counts[j,
    i, mode] is how many entries of A_j the tag of (i, mode) fills, and
    aligned[j, i] whether one of A_j's columns of a pair without j carries
    i's tag, which is then in mode 2 on all of it."""
    pattern = scheme.pattern
    K = pattern.users
    pairs = list(itertools.combinations(range(K), 2))
    inverse2, weights = np.full(K, np.inf), np.zeros((K, K, 2))
    for j, g in enumerate(generator_matrices(pattern.tilde, pattern.supports)):
        squares = squared_rows(g)
        if squares is None:
            continue
        inverse2[j] = float(sum(squares))
        for n, o in enumerate(o for o in range(K) if o != j):  # G_j's columns: n, then K-1+p
            weights[j, o] = float(squares[K - 1 + pairs.index((min(j, o), max(j, o)))]), float(squares[n])
    tag, a = tagged_blocks(pattern)
    counts = np.array([[[np.count_nonzero(a[j] == tag[i, mode]) for mode in range(2)]
                        for i in range(K)] for j in range(K)])
    aligned = np.zeros((K, K), dtype=bool)
    for j in range(K):
        for p in (p for p, pair in enumerate(pairs) if j not in pair):
            column = a[j, :, K - 1 + p]
            (value,) = set(column[column != 0].tolist())  # one transmitter, one mode
            i, mode = divmod(value - 1, 2)
            assert mode == 1
            aligned[j, i] = True
    bound = float_bound(scheme)
    assert bound.inverse2.tolist() == inverse2.tolist()
    assert bound.counts.tolist() == counts.astype(float).tolist()
    assert bound.aligned.tolist() == aligned.tolist()
    assert zf_weights(scheme).tolist() == weights.tolist()


@pytest.mark.parametrize("K", range(3, 13))
def test_bound_and_weights_match_the_oracles_on_built_schemes(K):
    assert_bound_and_weights_match_the_oracles(bk.build_scheme(K))


def test_bound_and_weights_match_the_oracles_on_the_golden_instance(golden_scheme4):
    """Receivers 1 and 3 have a singular G_j: no bound and no weights."""
    assert_bound_and_weights_match_the_oracles(golden_scheme4)
    assert np.isinf(float_bound(golden_scheme4).inverse2).tolist() == [True, False, True, False]


def test_bound_and_weights_match_the_oracles_on_pair_product_schemes(fallback_scheme5):
    """The 5-user pair-product family, the family at K = 3..6 (whose
    certified G_j leave a 3 x 3 core) and every fully certified
    pair-product pattern of the scan at K = 3 and 4."""
    schemes = [fallback_scheme5] + [bk.Scheme(make_pattern_matrix(make_config(K))) for K in range(3, 7)]
    schemes += [bk.Scheme(PatternMatrix(np.array(rows, dtype=np.int64))) for K in (3, 4) for rows in scan(K)[1]]
    for scheme in schemes:
        assert_bound_and_weights_match_the_oracles(scheme)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(widened_schemes())
def test_bound_and_weights_match_the_oracles_on_widened_supports(scheme):
    assert_bound_and_weights_match_the_oracles(scheme)
