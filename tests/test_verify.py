"""Rank verification, counting identities, exact mode, report formats."""
import itertools
import json

import numpy as np
import pytest

import biakit as bk
import biakit.verify
from biakit.channel import draw_channels, effective_channel, stream_seed
from biakit.verify import (
    check_counting,
    decompose_receiver,
    expected_ranks,
    rank_of,
    report_to_csv,
    report_to_json,
    run_verification,
    verify_decodability,
    verify_decodability_exact,
)

from conftest import GOLDEN_PAIR_DIMS, GOLDEN_VECTORS, copied_beams, duplicated_beams, matrix_count


def test_rank_of_basics():
    assert rank_of(np.eye(3)) == 3
    assert rank_of(np.zeros((9, 1))) == 0
    assert rank_of(np.zeros((5, 0))) == 0
    assert rank_of(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1
    assert rank_of(np.diag([1.0, 1e-20])) == 1


@pytest.mark.parametrize("draws", [0, -3])
def test_run_verification_rejects_fewer_than_one_draw(scheme3, draws):
    with pytest.raises(ValueError, match="trials"):
        run_verification(scheme3, draws, seed=1)
    with pytest.raises(ValueError, match="trials"):
        run_verification(scheme3, draws, seed=1, exact=True)


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
        dec = decompose_receiver(ch, scheme.pattern, scheme.beams, j)
        assert dec.desired.shape == (m, K - 1)
        assert dec.interference_basis.shape == (m, pairs)
    assert expected_ranks(scheme.config) == (K - 1, pairs, m)


def test_basis_columns_are_scaled_raw_columns(scheme4):
    ch = draw_channels(4, 2, seed=2)
    dec = decompose_receiver(ch, scheme4.pattern, scheme4.beams, 0)
    interference_raw = np.column_stack([
        effective_channel(ch, scheme4.pattern, 0, i) * v
        for i in range(1, 4) for v in scheme4.beams.vectors[i]])
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
    dec = decompose_receiver(ch, golden_scheme4.pattern, golden_scheme4.beams, 0)
    for c, (a, b) in enumerate(itertools.combinations(range(4), 2)):
        if 0 in (a, b):
            continue
        v = np.array(GOLDEN_VECTORS[(a, b)])
        col = dec.interference_basis[:, c]
        assert np.array_equal(col, ch.coeffs[0, a, 1] * v)


@pytest.mark.parametrize("K,ranks", [(3, (2, 3, 5)), (4, (3, 6, 9))])
def test_verified_ranks(K, ranks):
    scheme = bk.build_scheme(K)
    for t in range(30):
        ch = draw_channels(K, 2, seed=stream_seed(0, 0, t))
        for c in verify_decodability(ch, scheme.pattern, scheme.beams, draw=t):
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
    for t in range(draws):
        ch = draw_channels(4, 2, seed=stream_seed(1, 0, t))
        for j in range(4):
            dec = decompose_receiver(ch, scheme4.pattern, scheme4.beams, j)
            sv = np.linalg.svd(np.hstack([dec.desired, dec.interference_basis]),
                               compute_uv=False)
            ok += sv[-1] / sv[0] > 1e-6
    assert ok / (draws * 4) >= 0.99


@pytest.mark.parametrize("K", range(3, 11))
def test_counting_identities(K):
    scheme = bk.build_scheme(K)
    report = check_counting(scheme.config, scheme.beams)
    assert report.all_passed
    assert K * (K - 1) - (K - 1) * (K - 2) // 2 == scheme.config.block_len


def test_counting_detects_broken_pair_map(scheme4):
    beams = bk.BeamSet(vectors=scheme4.beams.vectors,
                       pair_dims={(0, 1): (0, 0), (0, 2): (1, 1), (0, 3): (2, 2),
                                  (1, 2): (1, 1), (1, 3): (2, 2), (2, 1): (0, 0)})
    report = check_counting(scheme4.config, beams)
    assert not report.per_user_pairs_ok
    assert not report.all_passed


def test_adversarial_copied_beamformers_detected(scheme4):
    bad = copied_beams(scheme4)
    ch = draw_channels(4, 2, seed=3)
    checks = verify_decodability(ch, scheme4.pattern, bad)
    assert not checks[0].passed
    assert checks[0].rank_combined < 9


def test_adversarial_duplicated_dimension_detected(scheme4):
    bad = duplicated_beams(scheme4)
    ch = draw_channels(4, 2, seed=5)
    checks = verify_decodability(ch, scheme4.pattern, bad)
    assert not checks[0].passed
    assert checks[0].rank_desired == 2


def assert_rank_rule(scheme, beams, draws=4):
    """Every verify_decodability check equals the ranks of the desired,
    interference and combined blocks, each taken by its own SVD."""
    K = scheme.config.users
    out = []
    for t in range(draws):
        ch = draw_channels(K, 2, seed=stream_seed(4, 0, t))
        checks = verify_decodability(ch, scheme.pattern, beams, draw=t)
        for j, check in enumerate(checks):
            dec = decompose_receiver(ch, scheme.pattern, beams, j)
            desired, basis = dec.desired, dec.interference_basis
            ranks = (rank_of(desired), rank_of(basis), rank_of(np.hstack([desired, basis])))
            assert (check.rank_desired, check.rank_interference, check.rank_combined) == ranks
            assert check.passed == (ranks == expected_ranks(scheme.config))
        out.extend(checks)
    return out


@pytest.mark.parametrize("K", range(3, 9))
def test_rank_rule_matches_three_svd_oracle(K):
    scheme = bk.build_scheme(K)
    assert all(check.passed for check in assert_rank_rule(scheme, scheme.beams))


def test_rank_rule_matches_three_svd_oracle_on_failing_receivers(fallback_scheme5, scheme4):
    for scheme, beams in [(fallback_scheme5, fallback_scheme5.beams),
                          (scheme4, copied_beams(scheme4)),
                          (scheme4, duplicated_beams(scheme4))]:
        assert not all(check.passed for check in assert_rank_rule(scheme, beams))


@pytest.mark.parametrize("K", [4, 8])
def test_float_verify_ranks_each_certified_receiver_once(K, linalg_stacks):
    scheme = bk.build_scheme(K)
    report = run_verification(scheme, draws=3, seed=1)
    assert report.all_passed
    m = scheme.config.block_len
    # only combined blocks reach the SVD, one per (draw, receiver); no sub-block
    assert all(shape[-2:] == (m, m) for shape in linalg_stacks["svd"])
    assert matrix_count(linalg_stacks["svd"], m, m) == 3 * K
    assert linalg_stacks["inv"] == []


def test_float_verify_ranks_sub_blocks_only_at_short_receivers(fallback_scheme5, linalg_stacks):
    report = run_verification(fallback_scheme5, draws=3, seed=1)
    assert report.failing_receivers() == (5,)
    shapes = linalg_stacks["svd"]
    assert matrix_count(shapes, 14, 14) == 3 * 5
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
    pattern, beams = fallback_scheme5.pattern, fallback_scheme5.beams
    ranked = []

    def counted(rows):
        ranked.append(rows)
        return biakit.exactrank.gaussian_rank(rows)
    monkeypatch.setattr(biakit.verify, "gaussian_rank", counted)
    fast = [verify_decodability_exact(pattern, beams, seed=s, draw=s) for s in range(3)]
    # receiver 5 is singular, so it alone takes its three exact ranks per draw
    assert len(ranked) == 3 * 3
    # with no receiver certified every combined block is ranked exactly, and
    # only receiver 5's short rank ranks its two blocks: same checks
    monkeypatch.setattr(bk.Scheme, "certified_receivers",
                        property(lambda scheme: (False,) * scheme.pattern.users))
    assert [verify_decodability_exact(pattern, beams, seed=s, draw=s) for s in range(3)] == fast
    assert len(ranked) == 3 * 3 + 3 * (5 + 2)


@pytest.mark.parametrize("beams", [copied_beams, duplicated_beams], ids=["copied", "duplicated"])
def test_scheme_certifies_no_receiver_on_beams_that_are_not_its_patterns(beams, scheme4):
    """The certificate covers only the beams the pattern assigns (under
    any pair map); exact verification fails every receiver of these."""
    assert bk.build_scheme(4, GOLDEN_PAIR_DIMS).certified_receivers == (True,) * 4
    scheme = bk.Scheme(scheme4.pattern, beams(scheme4))
    assert scheme.certified_receivers == (False,) * 4
    assert run_verification(scheme, 2, 0, exact=True).failing_receivers() == (1, 2, 3, 4)


def test_exact_mode_is_seed_stable(scheme3):
    a = verify_decodability_exact(scheme3.pattern, scheme3.beams, seed=11)
    b = verify_decodability_exact(scheme3.pattern, scheme3.beams, seed=11)
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
