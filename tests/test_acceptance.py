"""Release acceptance gate: one test per criterion, one pass/fail line each.

Criterion 1 fails in this release, and is expected to: the golden 4-user
instance is itself rank deficient at receivers 1 and 3 for every channel
draw, and its fixed data is kept as specified. Criteria 2 and 5 pass
because build_scheme's closed-form star family certifies every receiver
for every K; with full pair-product vectors four certified receivers
would be the ceiling from K = 5 on (test_construction_space.py). The
assertions below state the criteria faithfully; weakening them would hide
a real property of the design space. README's Known limitations section
carries the analysis.
"""
import time
from fractions import Fraction

import numpy as np

import biakit as bk
from biakit.channel import CHANNEL_STREAM, SYMBOL_STREAM, stream_seed
from biakit.dof import sweep_to_csv
from biakit.errors import UnverifiableDrawError
from biakit.designspace import make_pattern_matrix
from biakit.scheme import certify_product_rank, make_config
from biakit.sim import SimConfig, estimate_dof, result_to_long_csv, result_to_summary_csv
from biakit.verify import check_counting, decompose_receiver, report_to_json, run_verification


def test_criterion_1_golden_4user_reproduction(golden_scheme4):
    """1000 seeded draws on the golden 4-user instance: every receiver must
    show ranks (3, 6, 9) with zero failures, in under 10 seconds."""
    start = time.perf_counter()
    report = run_verification(golden_scheme4, draws=1000, seed=7)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    profile = sorted({(c.rx, (c.rank_desired, c.rank_interference, c.rank_combined))
                      for c in report.checks})
    assert report.all_passed, (
        "golden instance failed %d of %d rank checks; observed per-receiver "
        "rank profile %s. The instance's combined matrix is structurally rank "
        "deficient at receivers 1 and 3 for every channel draw (its pattern "
        "matrix omits the zero pair {2,4}, leaving an exact rational "
        "dependence among the other receivers' generators). See README, "
        "Known limitations." % (report.failures, len(report.checks), profile))


def test_criterion_2_scheme_family_verification():
    """K = 3..8: generated schemes pass 200-draw rank verification with zero
    failures and the exact counting identities, in under 60 seconds."""
    start = time.perf_counter()
    rank_failures = {}
    for K in range(3, 9):
        scheme = bk.build_scheme(K)
        counting = check_counting(scheme.config, scheme.pair_dims)
        assert counting.all_passed, "counting identities broken at K=%d" % K
        report = run_verification(scheme, draws=200, seed=11)
        if not report.all_passed:
            rank_failures[K] = (report.failures, report.failing_receivers())
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert not rank_failures, (
        "rank verification failed for %s (K -> (failed checks, receivers)). "
        "build_scheme's star family certifies every receiver for every K; a "
        "failing receiver means the family or its certificate is wrong. Only "
        "full pair-product vectors stop at four certified receivers for "
        "K >= 5. See README, Known limitations." % (rank_failures,))


def test_criterion_3_product_rank_certification():
    """K = 3..12: the pair-product matrix U has exact column rank C(K,2)
    under integer elimination, in under 10 seconds."""
    start = time.perf_counter()
    for K in range(3, 13):
        pattern = make_pattern_matrix(make_config(K))
        assert certify_product_rank(pattern.tilde), K
    assert time.perf_counter() - start < 10.0


def test_criterion_4_dof_formula_suite():
    """Exact rational identities: pair bound 2K/(K+2), unique argmax at
    l = 2 for K = 3..20, and the published small-K values."""
    assert bk.bound(3, 2) == Fraction(6, 5)
    assert bk.bound(4, 2) == Fraction(4, 3)
    assert bk.bound(5, 2) == Fraction(10, 7)
    for K in range(3, 21):
        assert bk.bound(K, 2) == Fraction(2 * K, K + 2)
        assert bk.achieved(K) == Fraction(2 * K, K + 2)
        for l in range(3, K + 1):
            assert bk.bound(K, l) < bk.bound(K, 2)
        assert bk.sweep(K).l_star == 2


def test_criterion_5_noiseless_decodability():
    """transmit -> receive -> zf_decode recovers all K(K-1) symbols with
    relative error < 1e-9 over 100 draws at K = 3, 4, 5."""
    undecodable = []
    worst = 0.0
    for K in (3, 4, 5):
        scheme = bk.build_scheme(K)
        channels = np.random.default_rng(stream_seed(0, CHANNEL_STREAM))
        symbols = np.random.default_rng(stream_seed(0, SYMBOL_STREAM))
        for t in range(100):
            ch = bk.draw_channels(K, 2, seed=channels)
            sym = bk.draw_symbols(K, power=1.0, seed=symbols)
            for j in range(K):
                y = bk.receive(ch, scheme, sym, j)
                dec = decompose_receiver(ch, scheme, j)
                try:
                    est = bk.zf_decode(dec, y)
                except UnverifiableDrawError:
                    undecodable.append((K, t, j + 1))
                    continue
                err = (np.linalg.norm(est - sym.values[j])
                       / np.linalg.norm(sym.values[j]))
                worst = max(worst, float(err))
    assert worst < 1e-9
    assert not undecodable, (
        "zero-forcing was impossible for %d (K, draw, receiver) triples, "
        "first few %s: the receiver's desired and interference spaces "
        "share a dimension, so no linear decoder can null the interference. "
        "build_scheme certifies every receiver for every K; only the "
        "pair-product family leaves receiver 5 undecodable at K=5. See "
        "README, Known limitations."
        % (len(undecodable), undecodable[:3]))


def test_criterion_6_monte_carlo_dof_slope():
    """Fitted sum-rate slope over 30/40/50 dB with 500 trials within 5% of
    2K/(K+2) for K = 3, 4; TDMA baseline slope within 5% of 1 on identical
    channel draws. Under 5 minutes."""
    start = time.perf_counter()
    for K in (3, 4):
        cfg = SimConfig(snr_points_db=(30.0, 40.0, 50.0), trials=500, seed=2026)
        result = estimate_dof(bk.build_scheme(K), cfg)
        assert result.excluded == 0
        assert result.slope_deviation <= 0.05, (
            "K=%d slope %.4f deviates %.2f%% from %.4f"
            % (K, result.fitted_slope, 100 * result.slope_deviation,
               result.target_dof))
        assert abs(result.tdma_slope - 1.0) <= 0.05, (
            "K=%d TDMA slope %.4f" % (K, result.tdma_slope))
    assert time.perf_counter() - start < 300.0


def test_criterion_7_deterministic_outputs(tmp_path, golden_scheme4):
    """Repeating any run with the same seed produces byte-identical files."""
    def artifacts(d):
        d.mkdir()
        (d / "scheme.json").write_text(bk.scheme_to_json(bk.build_scheme(4)))
        report = run_verification(golden_scheme4, draws=50, seed=7)
        (d / "report.json").write_text(report_to_json(report))
        (d / "bounds.csv").write_text(sweep_to_csv(bk.sweep(6)))
        cfg = SimConfig(snr_points_db=(30.0, 40.0), trials=20, seed=5)
        result = estimate_dof(bk.build_scheme(3), cfg)
        (d / "rates.csv").write_text(result_to_long_csv(result))
        (d / "summary.csv").write_text(result_to_summary_csv(result))
        return sorted(p.name for p in d.iterdir())

    first = artifacts(tmp_path / "first")
    second = artifacts(tmp_path / "second")
    assert first == second
    for name in first:
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        assert a == b, "%s differs between identically seeded runs" % name
