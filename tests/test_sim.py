"""Zero-forcing decode, rates, TDMA baseline, slope estimation, emitters."""
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import biakit as bk
from biakit.channel import (
    CHANNEL_STREAM,
    NOISE_STREAM,
    SYMBOL_STREAM,
    draw_channels,
    draw_symbols,
    receive,
    stream_seed,
)
from biakit.designspace import scan
from biakit.errors import UnverifiableDrawError
from biakit.scheme import PatternMatrix
from biakit.sim import (
    SimConfig,
    estimate_dof,
    noise_enhancement,
    plot_script,
    receiver_rate,
    result_to_json,
    result_to_long_csv,
    result_to_summary_csv,
    tdma_sum_rate,
    zf_decode,
    zf_weights,
)
from biakit.verify import decompose_receiver

from conftest import matrix_count, widened_schemes


@pytest.mark.parametrize("K", [3, 4])
def test_noiseless_roundtrip(K):
    scheme = bk.build_scheme(K)
    channels = np.random.default_rng(stream_seed(0, CHANNEL_STREAM))
    symbols = np.random.default_rng(stream_seed(0, SYMBOL_STREAM))
    for t in range(5):
        ch = draw_channels(K, 2, seed=channels)
        sym = draw_symbols(K, power=1.0, seed=symbols)
        for j in range(K):
            y = receive(ch, scheme, sym, j)
            dec = decompose_receiver(ch, scheme, j)
            est = zf_decode(dec, y)
            err = np.linalg.norm(est - sym.values[j]) / np.linalg.norm(sym.values[j])
            assert err < 1e-9


def test_zero_symbols_decode_to_zero(scheme3):
    ch = draw_channels(3, 2, seed=1)
    sym = bk.SymbolBlock(values=np.zeros((3, 2), dtype=complex))
    dec = decompose_receiver(ch, scheme3, 0)
    y = receive(ch, scheme3, sym, 0)
    assert np.allclose(zf_decode(dec, y), 0, atol=1e-12)


def test_uncertified_receiver_raises(fallback_scheme5):
    ch = draw_channels(5, 2, seed=2)
    sym = draw_symbols(5, power=1.0, seed=3)
    dec = decompose_receiver(ch, fallback_scheme5, 4)
    y = receive(ch, fallback_scheme5, sym, 4)
    with pytest.raises(UnverifiableDrawError, match="receiver 5"):
        zf_decode(dec, y)
    with pytest.raises(UnverifiableDrawError, match="receiver 5"):
        receiver_rate(dec, power=100.0)


def test_normalized_error_halves_when_power_doubles(scheme4):
    """Post-projection error power is set by the noise alone, so the error
    normalized by symbol power scales as 1/P. Band fixed offline."""
    p0 = 10.0 ** 4.0  # 40 dB
    med = {}
    for factor in (1.0, 2.0):
        errs = []
        channels, symbols, noise = (np.random.default_rng(stream_seed(5, stream))
                                    for stream in (CHANNEL_STREAM, SYMBOL_STREAM, NOISE_STREAM))
        for t in range(200):
            ch = draw_channels(4, 2, seed=channels)
            sym = draw_symbols(4, power=p0 * factor, seed=symbols)
            j = t % 4
            y = receive(ch, scheme4, sym, j, noise_on=True, seed=noise)
            dec = decompose_receiver(ch, scheme4, j)
            est = zf_decode(dec, y)
            errs.append(np.mean(np.abs(est - sym.values[j]) ** 2) / (p0 * factor))
        med[factor] = float(np.median(errs))
    ratio = med[2.0] / med[1.0]
    assert 0.25 <= ratio <= 1.0


def test_receiver_rate_grows_with_power(scheme4):
    ch = draw_channels(4, 2, seed=7)
    dec = decompose_receiver(ch, scheme4, 1)
    rates = [receiver_rate(dec, power=10.0 ** (db / 10)) for db in (0, 20, 40)]
    assert 0 < rates[0] < rates[1] < rates[2]


def test_estimate_dof_ranks_and_inverts_once_per_receiver(scheme4, linalg_stacks):
    cfg = SimConfig(trials=3, seed=2)
    result = estimate_dof(scheme4, cfg)
    # one solve of G_j per receiver for the whole run, not per trial or SNR
    # point; no combined block is inverted, and the certificate decides
    # exclusion, so no SVD ranks anything
    assert linalg_stacks["svd"] == [] and linalg_stacks["inv"] == []
    assert matrix_count(linalg_stacks["solve"], 9, 9) == 4
    rng = np.random.default_rng(stream_seed(cfg.seed, CHANNEL_STREAM))
    for t in range(cfg.trials):
        ch = draw_channels(4, 2, seed=rng)
        for j in range(4):
            dec = decompose_receiver(ch, scheme4, j)
            for p, db in enumerate(cfg.snr_points_db):
                # closed form against A_j^{-1}: two float evaluations of one rate
                assert result.rates[p, t, j] == pytest.approx(
                    receiver_rate(dec, 10.0 ** (db / 10.0)), rel=1e-10, abs=0)


@pytest.mark.parametrize("K", [4, 8, 12, 20])
def test_estimate_dof_linear_algebra_does_not_grow_with_trials(K, linalg_stacks):
    """No SVD and no inverse at any trial count; the solves of the weights
    are the same for one trial as for five."""
    scheme = bk.build_scheme(K)
    calls = []
    for trials in (1, 5):
        estimate_dof(scheme, SimConfig(trials=trials, seed=1))
        calls.append({name: list(shapes) for name, shapes in linalg_stacks.items()})
        for shapes in linalg_stacks.values():
            shapes.clear()
    assert calls[0] == calls[1]
    assert calls[0]["svd"] == [] and calls[0]["inv"] == []
    m = scheme.config.block_len
    assert matrix_count(calls[0]["solve"], m, m) == K


@pytest.mark.parametrize("K", range(3, 13))
def test_star_family_weights(K):
    """(a, b, c) = (K-1, 1, 0) when o is the hub (user 1) and j is not, and
    (1, K-1, 0) for every other own pair."""
    w = zf_weights(bk.build_scheme(K))
    for j in range(K):
        for o in range(K):
            expect = (0, 0, 0) if o == j else (K - 1, 1, 0) if o == 0 else (1, K - 1, 0)
            np.testing.assert_allclose(w[j, o], expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize("K,pairs,partner_weights", [
    (3, 1, ((1, 2, 0), (2, 2, 0))),
    (4, 2, ((1, 4, 0), (3, 3, 0))),
])
def test_pair_product_family_weights(K, pairs, partner_weights):
    """On every fully certified pair-product scheme the weights are
    symmetric in j and o and take two values: the second on `pairs`
    disjoint pairs (one at K = 3, a perfect matching at K = 4), the first
    on every other pair."""
    schemes = scan(K)[1]
    assert len(schemes) == 3
    for rows in schemes:
        pattern = PatternMatrix(np.array(rows, dtype=np.int64))
        w = zf_weights(bk.Scheme(pattern))
        np.testing.assert_allclose(w, w.transpose(1, 0, 2), rtol=0, atol=1e-12)
        special = set()
        for j in range(K):
            for o in range(j + 1, K):
                match = [np.allclose(w[j, o], v, rtol=0, atol=1e-12) for v in partner_weights]
                assert any(match), (j, o, w[j, o])
                if match[1]:
                    special.add((j, o))
        assert len(special) == pairs
        assert len({u for pair in special for u in pair}) == 2 * pairs


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(widened_schemes())
def test_weights_have_no_cross_term(scheme):
    """c = <l, u> is 0 at every certified receiver of an aligned scheme: G_j
    is block diagonal over j's two modes, so l and u never overlap. The
    other weights are positive exactly at the certified receivers."""
    w = zf_weights(scheme)
    np.testing.assert_allclose(w[..., 2], 0, rtol=0, atol=1e-12)
    off = ~np.eye(scheme.config.users, dtype=bool)
    certified = np.array(scheme.certified_receivers)
    assert np.all((w[..., :2] > 0)[off] == np.repeat(certified, scheme.config.users - 1)[:, None])


@pytest.mark.parametrize("name", [*map(str, range(3, 11)), "fallback5"])
def test_zero_forcing_takes_no_svd(name, fallback_scheme5, linalg_stacks):
    """The certificate decides every exclusion: no SVD in the simulation or
    in the one-draw decomposition, certified or not."""
    scheme = fallback_scheme5 if name == "fallback5" else bk.build_scheme(int(name))
    K = scheme.config.users
    result = estimate_dof(scheme, SimConfig(trials=2, seed=1))
    ch = draw_channels(K, 2, seed=3)
    decomps = [decompose_receiver(ch, scheme, j) for j in range(K)]
    assert linalg_stacks["svd"] == []
    assert [d.proven for d in decomps] == list(scheme.certified_receivers)
    assert result.excluded == 3 * 2 * scheme.certified_receivers.count(False)


def projected_noise_enhancement(decomp):
    """The projection form of zero-forcing: [(G^H G)^{-1}]_dd with G the
    desired block projected off the interference basis by one QR."""
    q, _ = np.linalg.qr(decomp.interference_basis)
    g = decomp.desired - q @ (q.conj().T @ decomp.desired)
    return np.real(np.diag(np.linalg.inv(g.conj().T @ g)))


def assert_noise_enhancement_matches_projection(scheme, receivers, draws=5):
    K = scheme.config.users
    rng = np.random.default_rng(stream_seed(3, CHANNEL_STREAM))
    for t in range(draws):
        ch = draw_channels(K, 2, seed=rng)
        for j in receivers:
            dec = decompose_receiver(ch, scheme, j)
            np.testing.assert_allclose(noise_enhancement(dec), projected_noise_enhancement(dec),
                                       rtol=1e-10, atol=0)


@pytest.mark.parametrize("K", [3, 4, 8])
def test_noise_enhancement_matches_projection_oracle(K):
    assert_noise_enhancement_matches_projection(bk.build_scheme(K), range(K))


def test_noise_enhancement_matches_projection_oracle_at_certified_receivers(fallback_scheme5):
    certified = [j for j, ok in enumerate(fallback_scheme5.certified_receivers) if ok]
    assert certified == [0, 1, 2, 3]
    assert_noise_enhancement_matches_projection(fallback_scheme5, certified)


def test_tdma_matches_direct_computation(scheme3):
    ch = draw_channels(3, 2, seed=9)
    power = 100.0
    expect = 0.0
    for k in range(3):
        gains = np.abs(ch.coeffs[k, k, scheme3.pattern.tilde[:, k]]) ** 2
        expect += np.mean(np.log2(1 + power * gains))
    assert tdma_sum_rate(scheme3, ch, power) == pytest.approx(expect / 3, rel=1e-12)


def test_alignment_beats_tdma_at_high_snr(scheme4):
    power = 10.0 ** 4.0
    bia = 0.0
    tdma = 0.0
    trials = 50
    rng = np.random.default_rng(stream_seed(8, CHANNEL_STREAM))
    for t in range(trials):
        ch = draw_channels(4, 2, seed=rng)
        bia += sum(receiver_rate(decompose_receiver(ch, scheme4, j), power) for j in range(4))
        tdma += tdma_sum_rate(scheme4, ch, power)
    assert bia / trials > tdma / trials


@pytest.mark.parametrize("K,per_decade", [(3, 1.2), (4, 4.0 / 3.0)])
def test_rate_gain_per_decade(K, per_decade):
    scheme = bk.build_scheme(K)
    cfg = SimConfig(snr_points_db=(40.0, 50.0), trials=100, seed=4)
    r40, r50 = estimate_dof(scheme, cfg).mean_sum_rates
    expect = per_decade * np.log2(10.0)
    assert abs((r50 - r40) - expect) / expect < 0.1


def test_low_power_rate_vanishes(scheme3):
    cfg = SimConfig(snr_points_db=(-40.0, 0.0), trials=20, seed=6)
    low, mid = estimate_dof(scheme3, cfg).mean_sum_rates
    assert 0 <= low < 0.05
    assert low < mid


def test_estimate_dof_smoke(scheme3):
    cfg = SimConfig(trials=100, seed=12)
    result = estimate_dof(scheme3, cfg)
    assert result.excluded == 0
    assert result.rates.shape == (3, 100, 3)
    assert 1.1 < result.fitted_slope < 1.3
    assert 0.9 < result.tdma_slope < 1.1
    assert result.fitted_slope > result.tdma_slope
    assert result.target_dof == pytest.approx(1.2)
    assert result.slope_deviation < 0.05


def test_trial_reordering_leaves_aggregates_unchanged(scheme3):
    cfg = SimConfig(trials=16, seed=13)
    result = estimate_dof(scheme3, cfg)
    perm = np.random.default_rng(0).permutation(16)
    shuffled = result.rates[:, perm, :]
    assert np.allclose(shuffled.sum(axis=2).mean(axis=1),
                       result.mean_sum_rates, rtol=0, atol=1e-12)


def test_excluded_draws_are_counted_not_raised(fallback_scheme5):
    cfg = SimConfig(snr_points_db=(30.0, 40.0), trials=2, seed=14)
    result = estimate_dof(fallback_scheme5, cfg)
    # receiver 5 is excluded at every (snr, trial) and contributes zero rate
    assert result.excluded == 4
    assert np.all(result.rates[:, :, 4] == 0)
    assert np.all(result.rates[:, :, :4] > 0)


@pytest.mark.parametrize("db", [float("nan"), float("inf"), float("-inf"), 1e308, -1e308])
def test_config_rejects_snr_points_without_a_finite_power(db):
    with pytest.raises(ValueError, match=re.escape("SNR point %r dB" % db)):
        SimConfig(snr_points_db=(30.0, db) if db > 30 else (db, 30.0))


def test_config_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        SimConfig(snr_points_db=(30.0, 30.0))
    with pytest.raises(ValueError, match="trials"):
        SimConfig(trials=0)
    with pytest.raises(ValueError, match="2 SNR points"):
        estimate_dof(bk.build_scheme(3), SimConfig(snr_points_db=(30.0,), trials=2))


@pytest.mark.parametrize("field,value", [
    ("trials", True), ("trials", 2.5), ("trials", "3"),
    ("seed", True), ("seed", 1.5), ("seed", "3"), ("seed", -1),
])
def test_config_rejects_trials_and_seeds_that_are_not_integers_in_range(field, value):
    bound = ">= 1" if field == "trials" else ">= 0"
    with pytest.raises(ValueError, match=re.escape("%s must be an integer %s, got %r"
                                                   % (field, bound, value))):
        SimConfig(**{field: value})


def test_result_emitters(scheme3):
    cfg = SimConfig(snr_points_db=(30.0, 40.0), trials=4, seed=15)
    result = estimate_dof(scheme3, cfg)
    long_lines = result_to_long_csv(result).strip().split("\n")
    assert long_lines[0] == "K,snr_db,trial,rx,rate"
    assert len(long_lines) == 1 + 2 * 4 * 3
    assert long_lines[1].startswith("3,30,0,1,")
    summary_lines = result_to_summary_csv(result).strip().split("\n")
    assert summary_lines[0] == "K,snr_db,mean_sum_rate"
    assert len(summary_lines) == 3
    doc = json.loads(result_to_json(result))
    assert doc["K"] == 3 and doc["trials"] == 4
    assert len(doc["mean_sum_rate"]) == 2
    assert doc["excluded"] == 0
    assert doc["fitted_slope"] == pytest.approx(result.fitted_slope)


def test_plot_script_is_selfcontained(tmp_path):
    text = plot_script("run_summary.csv")
    compile(text, "<plot>", "exec")
    assert "run_summary.csv" in text
    assert "matplotlib" in text and "snr_db" in text
