"""Rank verification, counting identities, exact mode, report formats."""
import itertools
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biakit as bk
import biakit.verify
from biakit.channel import (
    CHANNEL_STREAM,
    ChannelSet,
    draw_channel_stack,
    draw_channels,
    draw_symbols,
    effective_channel,
    receive,
    stream_seed,
)
from biakit.verify import (
    RATIO,
    check_counting,
    decompose_receiver,
    draw_bounds,
    expected_ranks,
    float_bound,
    rank_of,
    receiver_layout,
    report_to_csv,
    report_to_json,
    run_verification,
    verify_decodability,
    verify_decodability_exact,
)

from conftest import (
    ROOT,
    GOLDEN_PAIR_DIMS,
    GOLDEN_VECTORS,
    matrix_count,
    product_scheme,
    sigma_min,
    user_vectors,
    widened_schemes,
)


def test_rank_of_basics():
    assert rank_of(np.eye(3)) == 3
    assert rank_of(np.zeros((9, 1))) == 0
    assert rank_of(np.zeros((5, 0))) == 0
    assert rank_of(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1
    assert rank_of(np.diag([1.0, 1e-20])) == 1


@pytest.mark.parametrize("draws", [0, -3, True, 2.0, "3"])
def test_run_verification_rejects_fewer_than_one_draw(scheme3, draws):
    with pytest.raises(ValueError, match="trials"):
        run_verification(scheme3, draws, seed=1)
    with pytest.raises(ValueError, match="trials"):
        run_verification(scheme3, draws, seed=1, exact=True)


@pytest.mark.parametrize("seed", [True, 1.5, "3", -1])
def test_run_verification_rejects_seeds_that_are_not_natural_numbers(scheme3, seed):
    for exact in (False, True):
        with pytest.raises(ValueError, match=re.escape("seed must be an integer >= 0, got %r" % (seed,))):
            run_verification(scheme3, 2, seed, exact=exact)


def test_rank_of_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        rank_of(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError, match="non-finite"):
        rank_of(np.array([[np.inf, 1.0]]))


@pytest.mark.parametrize("K", [3, 4, 5])
def test_decomposition_shapes(K):
    scheme = bk.build_scheme(K)
    ch = draw_channels(K, 2, seed=1)
    m, pairs = scheme.config.block_len, scheme.config.pair_count
    for j in range(K):
        dec = decompose_receiver(ch, scheme, j)
        assert dec.desired.shape == (m, K - 1)
        assert dec.interference_basis.shape == (m, pairs)
    assert expected_ranks(scheme.config) == (K - 1, pairs, m)


def test_basis_columns_are_scaled_raw_columns(scheme4):
    ch = draw_channels(4, 2, seed=2)
    dec = decompose_receiver(ch, scheme4, 0)
    interference_raw = np.column_stack([
        effective_channel(ch, scheme4.pattern, 0, i) * v
        for i in range(1, 4) for v in user_vectors(scheme4, i)])
    for c in range(dec.interference_basis.shape[1]):
        col = dec.interference_basis[:, c]
        ratios = []
        for r in range(interference_raw.shape[1]):
            raw = interference_raw[:, r]
            if np.array_equal(raw != 0, col != 0):
                scale = col[col != 0][0] / raw[raw != 0][0]
                if np.allclose(col, scale * raw, rtol=1e-12, atol=0):
                    ratios.append(r)
        assert ratios, "basis column %d matches no raw column" % c


def test_golden_receiver1_alignment_directions(golden_scheme4):
    """At receiver 1 the three fully merged interference directions are the
    shared vectors of the pairs not containing user 1."""
    ch = draw_channels(4, 2, seed=6)
    dec = decompose_receiver(ch, golden_scheme4, 0)
    for c, (a, b) in enumerate(itertools.combinations(range(4), 2)):
        if 0 in (a, b):
            continue
        v = np.array(GOLDEN_VECTORS[(a, b)])
        col = dec.interference_basis[:, c]
        assert np.array_equal(col, ch.coeffs[0, a, 1] * v)


@pytest.mark.parametrize("K,ranks", [(3, (2, 3, 5)), (4, (3, 6, 9))])
def test_verified_ranks(K, ranks):
    scheme = bk.build_scheme(K)
    rng = np.random.default_rng(stream_seed(0, CHANNEL_STREAM))
    for t in range(30):
        ch = draw_channels(K, 2, seed=rng)
        for c in verify_decodability(ch, scheme, draw=t):
            assert c.passed
            assert (c.rank_desired, c.rank_interference, c.rank_combined) == ranks


def test_5user_fallback_fails_only_at_receiver5(fallback_scheme5):
    report = run_verification(fallback_scheme5, draws=10, seed=3)
    assert report.failing_receivers() == (5,)
    for c in report.checks:
        if not c.passed:
            # desired and interference are individually fine but overlap in
            # one dimension, the uncertifiable direction
            assert (c.rank_desired, c.rank_interference, c.rank_combined) == (4, 10, 13)


@pytest.mark.parametrize("K", [13, 16])
def test_large_schemes_verify_without_failures(K):
    report = run_verification(bk.build_scheme(K), draws=2, seed=3)
    assert report.failures == 0


def test_combined_matrix_conditioning(scheme4):
    """Sanity band fixed offline: the smallest combined singular value stays
    above 1e-6 of the largest in at least 99% of draws (observed: all)."""
    ok = 0
    draws = 300
    rng = np.random.default_rng(stream_seed(1, CHANNEL_STREAM))
    for t in range(draws):
        ch = draw_channels(4, 2, seed=rng)
        for j in range(4):
            dec = decompose_receiver(ch, scheme4, j)
            sv = np.linalg.svd(np.hstack([dec.desired, dec.interference_basis]),
                               compute_uv=False)
            ok += sv[-1] / sv[0] > 1e-6
    assert ok / (draws * 4) >= 0.99


@pytest.mark.parametrize("K", range(3, 11))
def test_counting_identities(K):
    scheme = bk.build_scheme(K)
    report = check_counting(scheme.config, scheme.pair_dims)
    assert report.all_passed
    assert K * (K - 1) - (K - 1) * (K - 2) // 2 == scheme.config.block_len


def test_counting_detects_broken_pair_map(scheme4):
    pair_dims = {(0, 1): (0, 0), (0, 2): (1, 1), (0, 3): (2, 2),
                 (1, 2): (1, 1), (1, 3): (2, 2), (2, 1): (0, 0)}
    report = check_counting(scheme4.config, pair_dims)
    assert not report.per_user_pairs_ok
    assert not report.all_passed


def test_adversarial_duplicated_dimension_detected(scheme4):
    """A pair map that files two of user 1's pairs under one dimension has
    no signal model; no scheme takes it, and the error names the user."""
    dims = dict(scheme4.pair_dims)
    dims[(0, 2)] = (dims[(0, 1)][0], dims[(0, 2)][1])
    with pytest.raises(ValueError, match="give user 1 each dimension exactly once"):
        bk.Scheme(scheme4.pattern, dims)


def assert_rank_rule(scheme, draws=4):
    """Every verify_decodability check equals the ranks of the desired,
    interference and combined blocks, each taken by its own SVD."""
    K = scheme.config.users
    out = []
    rng = np.random.default_rng(stream_seed(4, CHANNEL_STREAM))
    for t in range(draws):
        ch = draw_channels(K, 2, seed=rng)
        checks = verify_decodability(ch, scheme, draw=t)
        for j, check in enumerate(checks):
            dec = decompose_receiver(ch, scheme, j)
            desired, basis = dec.desired, dec.interference_basis
            ranks = (rank_of(desired), rank_of(basis), rank_of(np.hstack([desired, basis])))
            assert (check.rank_desired, check.rank_interference, check.rank_combined) == ranks
            assert check.passed == (ranks == expected_ranks(scheme.config))
        out.extend(checks)
    return out


@pytest.mark.parametrize("K", range(3, 9))
def test_rank_rule_matches_three_svd_oracle(K):
    scheme = bk.build_scheme(K)
    assert all(check.passed for check in assert_rank_rule(scheme))


def test_rank_rule_matches_three_svd_oracle_on_failing_receivers(fallback_scheme5, scheme4,
                                                                  scheme5):
    for scheme in (fallback_scheme5, product_scheme(scheme4), product_scheme(scheme5)):
        assert not all(check.passed for check in assert_rank_rule(scheme))


@pytest.mark.parametrize("K", [4, 8])
def test_float_verify_ranks_each_certified_receiver_once(K, linalg_stacks, monkeypatch):
    """The float bound proves every built receiver in every draw, once, from
    G_j^-1 and the draw's D_j: no combined block is gathered, and no
    Cholesky, SVD or inverse runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("a combined block was built")
    monkeypatch.setattr(biakit.verify.ReceiverLayout, "blocks", refuse)
    scheme = bk.build_scheme(K)
    report = run_verification(scheme, draws=3, seed=1)
    assert report.all_passed and len(report.checks) == 3 * K
    assert linalg_stacks == {"svd": [], "cholesky": [], "inv": [], "solve": []}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
def test_float_verify_refuses_non_finite_channels_before_factorising(bad, scheme4,
                                                                     linalg_stacks):
    coeffs = draw_channels(4, 2, seed=1).coeffs.copy()
    coeffs[2, 1, 0] = bad
    with pytest.raises(ValueError, match="non-finite entries"):
        verify_decodability(ChannelSet(coeffs=coeffs), scheme4)
    assert linalg_stacks["cholesky"] == linalg_stacks["svd"] == []


def test_float_verify_ranks_sub_blocks_only_at_short_receivers(fallback_scheme5, linalg_stacks):
    report = run_verification(fallback_scheme5, draws=3, seed=1)
    assert report.failing_receivers() == (5,)
    shapes = linalg_stacks["svd"]
    # receivers 1..4 keep a core, whose exact inverse lets the bound prove
    # them; receiver 5 is uncertified and goes to the SVD alone, once per
    # draw
    assert linalg_stacks["cholesky"] == []
    assert matrix_count(shapes, 14, 14) == 3
    # receiver 5's desired and interference blocks, once per draw
    assert matrix_count(shapes, 14, 4) == matrix_count(shapes, 14, 10) == 3
    assert all(shape[-2:] in {(14, 14), (14, 4), (14, 10)} for shape in shapes)


@pytest.mark.parametrize("K", [3, 4])
def test_exact_mode_certifies_small_schemes(K):
    scheme = bk.build_scheme(K)
    report = run_verification(scheme, draws=3, seed=5, exact=True)
    assert report.all_passed
    assert report.exact


def test_exact_mode_agrees_with_float_mode_on_failures(fallback_scheme5):
    exact = run_verification(fallback_scheme5, draws=3, seed=9, exact=True)
    floating = run_verification(fallback_scheme5, draws=3, seed=9)
    assert exact.failing_receivers() == floating.failing_receivers() == (5,)
    for c in exact.checks:
        if not c.passed:
            assert (c.rank_desired, c.rank_interference, c.rank_combined) == (4, 10, 13)


def test_exact_mode_eliminates_only_unproven_receivers(fallback_scheme5, monkeypatch):
    ranked = []

    def counted(rows):
        ranked.append(rows)
        return biakit.exactrank.gaussian_rank(rows)
    monkeypatch.setattr(biakit.verify, "gaussian_rank", counted)
    fast = [verify_decodability_exact(fallback_scheme5, seed=s, draw=s) for s in range(3)]
    # receiver 5 is singular, so it alone takes its three exact ranks per draw
    assert len(ranked) == 3 * 3
    # with no receiver certified every combined block is ranked exactly, and
    # only receiver 5's short rank ranks its two blocks: same checks
    monkeypatch.setattr(bk.Scheme, "certified_receivers",
                        property(lambda scheme: (False,) * scheme.pattern.users))
    assert [verify_decodability_exact(fallback_scheme5, seed=s, draw=s)
            for s in range(3)] == fast
    assert len(ranked) == 3 * 3 + 3 * (5 + 2)


@pytest.mark.parametrize("K", [4, 5, 6])
def test_scheme_certifies_no_receiver_on_beams_that_are_not_its_patterns(K):
    """The certificate covers the star pattern's own supports (under any
    pair map), not other beams on its switching rows: with the full pair
    products there, float and exact verification fail every receiver."""
    assert bk.build_scheme(4, GOLDEN_PAIR_DIMS).certified_receivers == (True,) * 4
    scheme = product_scheme(bk.build_scheme(K))
    assert scheme.certified_receivers == (False,) * K
    every = tuple(range(1, K + 1))
    assert run_verification(scheme, 2, 0, exact=True).failing_receivers() == every
    assert run_verification(scheme, 2, 0).failing_receivers() == every


def signal_residual(ch, scheme, j):
    """Relative distance of the block receive() gives receiver j from the
    column span of the layout's combined block A_j."""
    K = scheme.pattern.users
    y = receive(ch, scheme, draw_symbols(K, seed=ch.seed), j)
    a = decompose_receiver(ch, scheme, j).combined
    x = np.linalg.lstsq(a, y, rcond=None)[0]
    return np.linalg.norm(a @ x - y) / np.linalg.norm(y)


def assert_layout_matches_signal_model(scheme, draws=3):
    K = scheme.config.users
    for t in range(draws):
        ch = draw_channels(K, 2, seed=t)
        for j in range(K):
            assert signal_residual(ch, scheme, j) < 1e-12, (t, j)


@pytest.mark.parametrize("name", ["3", "4", "5", "6", "golden-map-4", "fallback5",
                                  "pair-products-4", "pair-products-5", "pair-products-6"])
def test_layout_matches_the_signal_model(name, fallback_scheme5):
    """What every transmitter sends, through the channel, lies in the span
    of the layout's A_j at every receiver: the merged interference columns
    are the signal, not a guess about it."""
    if name == "fallback5":
        scheme = fallback_scheme5
    elif name == "golden-map-4":
        scheme = bk.build_scheme(4, GOLDEN_PAIR_DIMS)
    elif name.startswith("pair-products"):
        scheme = product_scheme(bk.build_scheme(int(name[-1])))
    else:
        scheme = bk.build_scheme(int(name))
    assert_layout_matches_signal_model(scheme)


@settings(max_examples=25, deadline=None)
@given(widened_schemes())
def test_layout_matches_the_signal_model_on_random_sub_supports(scheme):
    assert_layout_matches_signal_model(scheme, draws=1)


def test_copied_vector_is_not_aligned_at_a_third_receiver(scheme4):
    """Why supports outside the pair product are refused: if pair {1,2}
    sent pair {1,3}'s vector, receiver 3 would be in mode 1 on part of it,
    so the two owners would reach it along two directions, which one merged
    column cannot span."""
    pattern, ch = scheme4.pattern, draw_channels(4, 2, seed=1)

    def owner_columns(v):
        return np.column_stack([effective_channel(ch, pattern, 2, i) * v for i in (0, 1)])
    assert rank_of(owner_columns(pattern.supports[:, 1])) == 2
    assert rank_of(owner_columns(pattern.supports[:, 0])) == 1


def test_exact_mode_is_seed_stable(scheme3):
    a = verify_decodability_exact(scheme3, seed=11)
    b = verify_decodability_exact(scheme3, seed=11)
    assert a == b


def test_report_serialization(scheme3):
    report = run_verification(scheme3, draws=4, seed=2)
    doc = json.loads(report_to_json(report))
    assert doc["K"] == 3 and doc["draws"] == 4 and doc["seed"] == 2
    assert doc["failures"] == 0 and doc["exact"] is False
    assert len(doc["checks"]) == 12
    first = doc["checks"][0]
    assert list(first) == ["draw", "rx", "rank_desired", "rank_interference",
                           "rank_combined", "pass"]
    csv_text = report_to_csv(report)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "draw,rx,rank_desired,rank_interference,rank_combined,pass"
    assert len(lines) == 13
    assert lines[1] == "0,1,2,3,5,1"


def assert_bound_below_sigma_min(scheme, coeffs):
    """On every (draw, receiver): the float bound is at most sigma_min of
    the gathered A_j (the `sigma_min` oracle), ||A_j||_F matches the
    block's, and the bound is 0 where G_j has no proven inverse. Returns
    the bound over ||A_j||_F."""
    bound = float_bound(scheme)
    low2, frob2, plain = draw_bounds(bound, coeffs)
    a = receiver_layout(scheme).blocks(coeffs, slice(None))
    assert plain.all()
    assert (np.sqrt(low2) <= sigma_min(a, np.sqrt(low2))).all()
    np.testing.assert_allclose(frob2, np.sum(np.abs(a) ** 2, axis=(2, 3)), rtol=1e-12)
    assert (low2[:, np.isinf(bound.inverse2)] == 0).all()
    return np.sqrt(low2 / frob2)


@pytest.mark.parametrize("K", range(3, 13))
def test_float_bound_never_exceeds_sigma_min_on_built_schemes(K):
    """Every built receiver has an inverse, and its bound stays under the
    SVD's sigma_min while clearing RATIO ||A_j||_F in every draw."""
    scheme = bk.build_scheme(K)
    coeffs = draw_channel_stack(K, np.random.default_rng(stream_seed(7, CHANNEL_STREAM)), 8)
    assert (assert_bound_below_sigma_min(scheme, coeffs) > RATIO).all()


@settings(max_examples=25, deadline=None)
@given(widened_schemes(), st.integers(0, 2 ** 32 - 1))
def test_float_bound_never_exceeds_sigma_min_on_widened_supports(scheme, seed):
    K = scheme.config.users
    coeffs = draw_channel_stack(K, np.random.default_rng(stream_seed(seed, CHANNEL_STREAM)), 3)
    assert_bound_below_sigma_min(scheme, coeffs)


def test_float_verify_leaves_scipy_unimported():
    """`import biakit` and a float verify import numpy alone of the
    scientific stack: no scipy, which is not a dependency."""
    code = ("import sys, biakit; "
            "assert biakit.run_verification(biakit.build_scheme(5), 3, 0).all_passed; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=ROOT)
    assert out.stdout.strip() == "[]"
