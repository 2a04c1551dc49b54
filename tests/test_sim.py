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
from biakit.designspace import make_pattern_matrix, scan
from biakit.errors import UnverifiableDrawError
from biakit.exactrank import chunks
from biakit.scheme import (
    PatternMatrix,
    default_pair_dims,
    generator_inverses,
    generator_nonzeros,
    make_config,
    receiver_columns,
)
from biakit.sim import (
    SimConfig,
    SimResult,
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
from biakit.verify import decompose_receiver, float_bound, report_to_json, run_verification

from conftest import widened_schemes


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


def reversed_pair_map(K):
    """Every user's dimensions of default_pair_dims(K) in reverse order."""
    return {pair: (K - 2 - di, K - 2 - dj) for pair, (di, dj) in default_pair_dims(K).items()}


@pytest.mark.parametrize("K", [4, 5, 8])
def test_outputs_do_not_depend_on_the_pair_map(K):
    """A pair map only says which symbol rides which vector: the
    certificate, the float bound, the weights, the float and exact
    verification reports and the simulated rates are byte for byte the
    default map's, and a noiseless decode under the reversed map still
    returns receiver j's symbols in its dimension order."""
    default, relabelled = bk.build_scheme(K), bk.build_scheme(K, reversed_pair_map(K))
    assert not np.array_equal(relabelled.dimension_pairs(), default.dimension_pairs())
    assert relabelled.certified_receivers == default.certified_receivers
    bounds = float_bound(default), float_bound(relabelled)
    for name in ("inverse2", "counts", "aligned"):
        assert getattr(bounds[0], name).tobytes() == getattr(bounds[1], name).tobytes()
    assert zf_weights(relabelled).tobytes() == zf_weights(default).tobytes()
    for exact in (False, True):
        reports = [report_to_json(run_verification(s, 6, 3, exact)) for s in (default, relabelled)]
        assert reports[0] == reports[1]
    cfg = SimConfig(trials=20, seed=1)
    assert estimate_dof(relabelled, cfg).rates.tobytes() == estimate_dof(default, cfg).rates.tobytes()
    ch, sym = draw_channels(K, 2, seed=5), draw_symbols(K, power=1.0, seed=6)
    for j in range(K):
        est = zf_decode(decompose_receiver(ch, relabelled, j), receive(ch, relabelled, sym, j))
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
    # one exact inverse of G_j per receiver for the whole run, not per trial
    # or SNR point, and no float solve; no combined block is inverted, and
    # the certificate decides exclusion, so no SVD ranks anything
    assert linalg_stacks == {"svd": [], "cholesky": [], "inv": [], "solve": []}
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
    """No float linear algebra at any trial count: the weights come from
    the exact inverses, the same for one trial as for five."""
    scheme = bk.build_scheme(K)
    calls = []
    for trials in (1, 5):
        estimate_dof(scheme, SimConfig(trials=trials, seed=1))
        calls.append({name: list(shapes) for name, shapes in linalg_stacks.items()})
        for shapes in linalg_stacks.values():
            shapes.clear()
    assert calls[0] == calls[1] == {"svd": [], "cholesky": [], "inv": [], "solve": []}


def half_columns(K):
    """(low, high), (K, K-1) each: the columns of G_j that hold the mode-1
    and the mode-2 half of j's pair with its n-th partner (receiver_columns)."""
    col = receiver_columns(K)[1]
    return K - 1 + col[:, :K - 1], np.broadcast_to(np.arange(K - 1), (K, K - 1))


def solved_weights(scheme):
    """The weights' float oracle: (a, b, c) = (||l||^2, ||u||^2, <l, u>),
    (K, K, 3), from one batched float solve of G_j^T per chunk of
    certified receivers, G_j scattered dense from its nonzeros."""
    K, m = scheme.config.users, scheme.config.block_len
    low, high = half_columns(K)
    rx = np.flatnonzero(scheme.certified_receivers)
    _, r, c = generator_nonzeros(scheme.pattern.tilde, *np.nonzero(scheme.pattern.supports))
    r, c = r.reshape(K, -1), c.reshape(K, -1)  # one pattern: K equal counts
    halves = np.arange(K - 1)
    weights = np.zeros((K, K - 1, 3))  # [j, n]: j's pair with its n-th partner
    for chunk in chunks(rx.size, m * m):
        j = rx[chunk.start:chunk.stop]
        n = np.arange(j.size)[:, None]
        gen_t = np.zeros((j.size, m, m))  # G_j^T
        gen_t[n, c[j], r[j]] = 1.0
        picks = np.zeros((j.size, m, 2 * (K - 1)))
        picks[n, low[j], halves] = 1.0
        picks[n, high[j], K - 1 + halves] = 1.0
        rows = np.linalg.solve(gen_t, picks)
        lo, up = rows[..., :K - 1], rows[..., K - 1:]
        weights[j] = np.stack(
            [np.sum(lo * lo, axis=1), np.sum(up * up, axis=1), np.sum(lo * up, axis=1)],
            axis=-1)
    out = np.zeros((K, K, 3))
    out[~np.eye(K, dtype=bool)] = weights.reshape(-1, 3)  # partners o != j, increasing
    return out


def assert_weights_match_the_solve(scheme, rtol):
    """The exact weights against the float solve's (a, b), whose c is 0."""
    w, solved = zf_weights(scheme), solved_weights(scheme)
    np.testing.assert_allclose(solved[..., 2], 0, rtol=0, atol=1e-12)
    if rtol == 0:
        assert np.array_equal(w, solved[..., :2])
    else:
        np.testing.assert_allclose(w, solved[..., :2], rtol=rtol, atol=0)


@pytest.mark.parametrize("K", [*range(3, 31), 48])
def test_exact_weights_equal_the_solve_bit_for_bit_on_built_schemes(K):
    assert_weights_match_the_solve(bk.build_scheme(K), rtol=0)


def test_exact_weights_match_the_solve_on_pair_products_and_pair_maps():
    """At rtol 1e-10 (the solve rounds) on every fully certified scan(3)
    and scan(4) pattern, the pair-product family at K = 5 and 6 and
    reversed pair maps."""
    cases = [bk.Scheme(PatternMatrix(np.array(rows, dtype=np.int64)))
             for K in (3, 4) for rows in scan(K)[1]]
    cases += [bk.Scheme(make_pattern_matrix(make_config(K))) for K in (5, 6)]
    for K in (4, 5, 6):
        dims = {pair: (K - 2 - di, K - 2 - dj) for pair, (di, dj) in default_pair_dims(K).items()}
        cases.append(bk.build_scheme(K, dims))
    for scheme in cases:
        assert_weights_match_the_solve(scheme, rtol=1e-10)


@pytest.mark.parametrize("K", range(3, 13))
def test_star_family_weights(K):
    """(a, b) = (K-1, 1) when o is the hub (user 1) and j is not, and
    (1, K-1) for every other own pair, exactly."""
    w = zf_weights(bk.build_scheme(K))
    for j in range(K):
        for o in range(K):
            expect = (0, 0) if o == j else (K - 1, 1) if o == 0 else (1, K - 1)
            assert w[j, o].tolist() == list(expect)


@pytest.mark.parametrize("K,pairs,partner_weights", [
    (3, 1, ((1, 2), (2, 2))),
    (4, 2, ((1, 4), (3, 3))),
])
def test_pair_product_family_weights(K, pairs, partner_weights):
    """On every fully certified pair-product scheme the weights are
    symmetric in j and o and take two values exactly: the second on `pairs`
    disjoint pairs (one at K = 3, a perfect matching at K = 4), the first
    on every other pair."""
    schemes = scan(K)[1]
    assert len(schemes) == 3
    for rows in schemes:
        pattern = PatternMatrix(np.array(rows, dtype=np.int64))
        w = zf_weights(bk.Scheme(pattern))
        assert np.array_equal(w, w.transpose(1, 0, 2))
        special = set()
        for j in range(K):
            for o in range(j + 1, K):
                match = [w[j, o].tolist() == list(v) for v in partner_weights]
                assert any(match), (j, o, w[j, o])
                if match[1]:
                    special.add((j, o))
        assert len(special) == pairs
        assert len({u for pair in special for u in pair}) == 2 * pairs


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(widened_schemes())
def test_weights_have_no_cross_term(scheme):
    """At every certified receiver of an aligned scheme the rows l and u of
    X = d G_j^-1 have disjoint supports: G_j is block diagonal over j's two
    modes, so <l, u> = 0 and the weights need no third term. The weights
    are positive exactly at the certified receivers, and match the float
    solve's."""
    K, m = scheme.config.users, scheme.config.block_len
    index, values, _, ok = generator_inverses(scheme.pattern)
    low, high = half_columns(K)
    support = np.zeros(K * m * m, dtype=bool)
    support[index] = True
    support = support.reshape(K, m, m)
    for j in np.flatnonzero(ok):
        assert not (support[j, low[j]] & support[j, high[j]]).any()
    w = zf_weights(scheme)
    off = ~np.eye(K, dtype=bool)
    certified = np.array(scheme.certified_receivers)
    assert np.all((w > 0)[off] == np.repeat(certified, K - 1)[:, None])
    assert_weights_match_the_solve(scheme, rtol=1e-10)


@pytest.mark.parametrize("name", [*map(str, range(3, 11)), "fallback5"])
def test_zero_forcing_takes_no_svd(name, fallback_scheme5, linalg_stacks):
    """The certificate decides every exclusion: no SVD in the simulation or
    in the one-draw decomposition, certified or not, and the exact inverses
    give the weights: no solve either."""
    scheme = fallback_scheme5 if name == "fallback5" else bk.build_scheme(int(name))
    K = scheme.config.users
    result = estimate_dof(scheme, SimConfig(trials=2, seed=1))
    ch = draw_channels(K, 2, seed=3)
    decomps = [decompose_receiver(ch, scheme, j) for j in range(K)]
    assert linalg_stacks == {"svd": [], "cholesky": [], "inv": [], "solve": []}
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


def test_json_emit_derives_each_value_once(scheme3, monkeypatch):
    """result_to_json fits two slopes (sum rate and TDMA) and reads the
    mean sum rates once, and renders what the properties give."""
    result = estimate_dof(scheme3, SimConfig(trials=4, seed=15))
    doc = json.loads(result_to_json(result))
    assert (doc["fitted_slope"], doc["tdma_slope"], doc["slope_deviation"]) == (
        result.fitted_slope, result.tdma_slope, result.slope_deviation)
    fits, means = [], []
    polyfit, mean_sum_rates = np.polyfit, SimResult.mean_sum_rates.fget
    monkeypatch.setattr(np, "polyfit", lambda *a, **k: fits.append(1) or polyfit(*a, **k))
    monkeypatch.setattr(SimResult, "mean_sum_rates",
                        property(lambda self: means.append(1) or mean_sum_rates(self)))
    assert json.loads(result_to_json(result)) == doc
    assert (len(fits), len(means)) == (2, 1)


def test_plot_script_is_selfcontained(tmp_path):
    text = plot_script("run_summary.csv")
    compile(text, "<plot>", "exec")
    assert "run_summary.csv" in text
    assert "matplotlib" in text and "snr_db" in text
