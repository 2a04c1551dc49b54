"""The batched verify and simulate paths against the per-(draw, receiver)
loops they replaced, and the chunking of draws.

The oracles below are the one-matrix-at-a-time code: one column_stack per
block, one SVD and one inverse per (draw, receiver) and a 1-D mean per
user for TDMA, and the batched inverse of every proven combined block
that the closed-form simulation replaced. The arithmetic of every block,
rank and TDMA rate is unchanged by batching, so those and the emitted
verification bytes must be bit-identical. The simulation's zero-forcing
rates are a different float evaluation of the same quantity (the closed
form of biakit.sim), so they agree within RATE_RTOL; every other output
byte of a simulation, the exclusions included, is identical.
"""
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import biakit as bk
import biakit.exactrank
import biakit.sim
import biakit.verify
from biakit.channel import CHANNEL_STREAM, EXACT_STREAM, ChannelSet, draw_channels, stream_seed
from biakit.designspace import scan
from biakit.errors import UnverifiableDrawError
from biakit.exactrank import BATCH_ELEMENTS, chunks, gaussian_rank
from biakit.scheme import PatternMatrix, default_pair_dims
from biakit.sim import (
    SimConfig,
    SimResult,
    estimate_dof,
    result_to_json,
    result_to_long_csv,
    result_to_summary_csv,
)
from biakit.verify import (
    ReceiverCheck,
    VerificationReport,
    _exact_channel_ints,
    _proven,
    expected_ranks,
    receiver_layout,
    report_to_csv,
    report_to_json,
    run_verification,
)

from conftest import GOLDEN_PAIR_DIMS, product_scheme, user_vectors, widened_schemes

# closed-form zero-forcing rates against A_j^{-1}: measured within 6.4e-16
# relative at K = 3..20
RATE_RTOL = 1e-10

def oracle_receiver_blocks(ch, scheme, j):
    """Receiver j's desired and interference blocks, one column_stack each."""
    pattern = scheme.pattern
    K = pattern.users
    eff = ch.coeffs[j][:, pattern.tilde[:, j]]  # eff[i]: diagonal from transmitter i
    pairs = list(itertools.combinations(range(K), 2))
    src = [b if j == a else a for a, b in pairs]
    desired = eff[j][:, None] * np.column_stack(user_vectors(scheme, j))
    return desired, eff[src].T * pattern.supports


def oracle_rank(a):
    """One SVD of one matrix, cut at max(shape) * eps * largest."""
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > max(a.shape) * np.finfo(float).eps * sv[0]))


def oracle_exact_rank(a):
    return gaussian_rank(np.stack([a.real, a.imag], axis=-1).astype(np.int64).tolist())


def oracle_draw(scheme, seed, t, exact):
    K = scheme.config.users
    if exact:
        h = _exact_channel_ints(K, np.random.default_rng(stream_seed(seed, EXACT_STREAM, t)))
        return ChannelSet(coeffs=h[..., 0] + 1j * h[..., 1])
    return draw_channels(K, 2, seed=stream_seed(seed, CHANNEL_STREAM, t))


def oracle_report(scheme, draws, seed, exact=False):
    """The per-draw, per-receiver verification loop. In exact mode every
    block is ranked by Bareiss elimination (gaussian_rank) alone."""
    K, full = scheme.config.users, expected_ranks(scheme.config)
    rank = oracle_exact_rank if exact else oracle_rank
    checks = []
    for t in range(draws):
        ch = oracle_draw(scheme, seed, t, exact)
        for j in range(K):
            a = np.hstack(oracle_receiver_blocks(ch, scheme, j))
            rc = rank(a)
            ranks = full if rc == full[2] else (rank(a[:, :K - 1]), rank(a[:, K - 1:]), rc)
            checks.append(ReceiverCheck(t, j + 1, *ranks, passed=ranks == full))
    return VerificationReport(users=K, draws=draws, seed=seed, exact=exact, checks=checks)


def oracle_estimate_dof(scheme, cfg):
    """The per-(trial, receiver) simulation loop."""
    K = scheme.config.users
    powers = [10.0 ** (db / 10.0) for db in cfg.snr_points_db]
    rates = np.zeros((len(powers), cfg.trials, K))
    tdma = np.zeros((len(powers), cfg.trials))
    excluded = 0
    for t in range(cfg.trials):
        ch = oracle_draw(scheme, cfg.seed, t, exact=False)
        for j in range(K):
            a = np.hstack(oracle_receiver_blocks(ch, scheme, j))
            m = a.shape[0]
            if oracle_rank(a) < m:
                excluded += len(powers)
                continue
            w = np.linalg.inv(a)[:K - 1]
            noise = np.sum(w.real ** 2 + w.imag ** 2, axis=1)
            for p, power in enumerate(powers):
                rates[p, t, j] = float(np.sum(np.log2(1.0 + power / noise)) / m)
        for p, power in enumerate(powers):
            total = 0.0
            for k in range(K):
                gains = np.abs(ch.coeffs[k, k, scheme.pattern.tilde[:, k]]) ** 2
                total += float(np.mean(np.log2(1.0 + power * gains)))
            tdma[p, t] = total / K
    return SimResult(users=K, snr_points_db=cfg.snr_points_db, trials=cfg.trials,
                     seed=cfg.seed, rates=rates, tdma_rates=tdma, excluded=excluded)


def inv_estimate_dof(scheme, cfg):
    """The batched simulation the closed form replaced: per chunk of trials,
    every combined block by one layout gather, the exclusion rule and one
    batched inverse of the proven blocks."""
    K, m = scheme.config.users, scheme.config.block_len
    layout = receiver_layout(scheme)
    powers = [10.0 ** (db / 10.0) for db in cfg.snr_points_db]
    rates = np.zeros((len(powers), cfg.trials, K))
    tdma = np.zeros((len(powers), cfg.trials))
    excluded = 0
    for chunk in chunks(cfg.trials, K * m * m):
        coeffs = np.stack([oracle_draw(scheme, cfg.seed, t, exact=False).coeffs for t in chunk])
        ok = _proven(scheme.certified_receivers, coeffs)
        excluded += len(powers) * int(np.count_nonzero(~ok))
        w = np.linalg.inv(layout.blocks(coeffs, slice(None))[ok])[:, :K - 1]
        noise = np.sum(w.real ** 2 + w.imag ** 2, axis=-1)
        span = slice(chunk.start, chunk.stop)
        for p, power in enumerate(powers):
            rates[p, span][ok] = np.sum(np.log2(1.0 + power / noise), axis=-1) / m
        tdma[:, span] = biakit.sim._tdma_rates(coeffs, scheme.pattern.tilde, powers)
    return SimResult(users=K, snr_points_db=cfg.snr_points_db, trials=cfg.trials,
                     seed=cfg.seed, rates=rates, tdma_rates=tdma, excluded=excluded)


def assert_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def report_bytes(report):
    return report_to_json(report), report_to_csv(report)


def result_bytes(result):
    return (result.rates.tobytes(), result.tdma_rates.tobytes(), result.excluded,
            result_to_json(result), result_to_long_csv(result), result_to_summary_csv(result))


# result_to_json lines that carry a zero-forcing rate or a value derived from one
RATE_KEYS = ('"mean_sum_rate":', '"fitted_slope":', '"slope_deviation":')


def rate_free_bytes(result):
    """Every output of a simulation except its zero-forcing rates: the TDMA
    rates, the exclusion count, the JSON without the rate lines, and both
    CSVs without their rate column."""
    def cut(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]
    json_lines = [line for line in result_to_json(result).splitlines()
                  if not line.strip().startswith(RATE_KEYS)]
    return (result.tdma_rates.tobytes(), result.excluded, json_lines,
            cut(result_to_long_csv(result)), cut(result_to_summary_csv(result)))


def assert_simulation_matches(result, expect, name=""):
    """Rates within RATE_RTOL (an excluded slot's 0 exactly), every other
    output byte identical."""
    assert result.rates.shape == expect.rates.shape, name
    np.testing.assert_allclose(result.rates, expect.rates, rtol=RATE_RTOL, atol=0, err_msg=name)
    assert rate_free_bytes(result) == rate_free_bytes(expect), name


def relabelled_scheme(K):
    """The golden pair map at K = 4; every user's dimensions reversed beyond."""
    if K == 4:
        return bk.build_scheme(4, GOLDEN_PAIR_DIMS)
    dims = {pair: (K - 2 - di, K - 2 - dj) for pair, (di, dj) in default_pair_dims(K).items()}
    return bk.build_scheme(K, dims)


def schemes(fallback_scheme5):
    cases = [(str(K), bk.build_scheme(K)) for K in range(3, 9)]
    cases += [("pair-map-%d" % K, relabelled_scheme(K)) for K in (4, 5)]
    return cases + [("fallback5", fallback_scheme5)]


def test_relabelled_maps_move_columns():
    for K in (4, 5):
        a = receiver_layout(relabelled_scheme(K))
        b = receiver_layout(bk.build_scheme(K))
        assert not np.array_equal(a.col, b.col)


def test_layout_blocks_match_column_stack_blocks(fallback_scheme5):
    for _, scheme in schemes(fallback_scheme5):
        K = scheme.config.users
        layout = receiver_layout(scheme)
        for exact in (False, True):
            draws = [oracle_draw(scheme, 3, t, exact) for t in range(3)]
            blocks = layout.blocks(np.stack([ch.coeffs for ch in draws]), slice(None))
            for t, ch in enumerate(draws):
                for j in range(K):
                    desired, basis = oracle_receiver_blocks(ch, scheme, j)
                    assert_bits(blocks[t, j], np.hstack([desired, basis]))
                    got = bk.decompose_receiver(ch, scheme, j)
                    assert_bits(got.desired, desired)
                    assert_bits(got.interference_basis, basis)


def test_float_reports_match_per_draw_loop(fallback_scheme5):
    for name, scheme in schemes(fallback_scheme5):
        expect = oracle_report(scheme, 20, 3)
        assert report_bytes(run_verification(scheme, 20, 3)) == report_bytes(expect), name
    assert not expect.all_passed  # the fallback family's receiver 5 fails


def test_exact_reports_match_per_draw_loop(fallback_scheme5):
    for name, scheme in schemes(fallback_scheme5):
        expect = oracle_report(scheme, 3, 3, exact=True)
        got = run_verification(scheme, 3, 3, exact=True)
        assert report_bytes(got) == report_bytes(expect), name
    assert expect.failing_receivers() == (5,)


@pytest.mark.parametrize("K", range(3, 11))
def test_exact_mode_runs_no_elimination_on_built_schemes(K, monkeypatch):
    """Every built receiver is certified, so the factorisation proves every
    combined block: no Bareiss elimination, of a certificate or a rank."""
    calls = []
    for module, name in [(biakit.exactrank, "integer_rank"), (biakit.verify, "gaussian_rank")]:
        def counted(*args, _inner=getattr(module, name), _name=name):
            calls.append(_name)
            return _inner(*args)
        monkeypatch.setattr(module, name, counted)
    scheme = bk.build_scheme(K)
    assert run_verification(scheme, 2, 0, exact=True).all_passed
    assert calls == []


def edited_draws(edit, at=None):
    """_exact_channel_ints with edit(h) applied to every draw, or only to
    the draws whose 0-indexed call numbers are in at."""
    calls = itertools.count()

    def draw(K, rng, _inner=_exact_channel_ints):
        h = _inner(K, rng)
        if at is None or next(calls) in at:
            edit(h)
        return h
    return draw


def tie_own_pair(h):
    h[1, 2] = h[1, 1]  # own pair {1, 2} of receiver 1 (0-indexed): determinant zero


def zero_aligned(h):
    h[1, 0, 1] = 0  # receiver 1 takes pairs {0, 2} and {0, 3} from user 0 in mode 2


@pytest.mark.parametrize("edit", [tie_own_pair, zero_aligned],
                         ids=["own-pair-determinant", "aligned-coefficient"])
def test_exact_mode_sends_zero_factors_to_bareiss(edit, monkeypatch):
    """A zero factor of D_j at a certified receiver makes A_j singular; the
    report matches the all-Bareiss oracle and fails at that receiver alone."""
    scheme = bk.build_scheme(4)
    assert all(scheme.certified_receivers)
    draw = edited_draws(edit)
    monkeypatch.setattr(biakit.verify, "_exact_channel_ints", draw)
    monkeypatch.setitem(globals(), "_exact_channel_ints", draw)
    expect = oracle_report(scheme, 3, 3, exact=True)
    assert report_bytes(run_verification(scheme, 3, 3, exact=True)) == report_bytes(expect)
    assert expect.failing_receivers() == (2,)


def refuse_blocks(monkeypatch):
    """Make receiver_layout and ReceiverLayout.blocks raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a combined block was built")
    monkeypatch.setattr(biakit.verify, "receiver_layout", refuse)
    monkeypatch.setattr(biakit.verify.ReceiverLayout, "blocks", refuse)


def record_gathers(monkeypatch):
    """Count receiver_layout calls and record the draws and the receivers
    of every ReceiverLayout.blocks call while the test runs."""
    seen = {"layouts": 0, "gathers": []}
    layout, blocks = biakit.verify.receiver_layout, biakit.verify.ReceiverLayout.blocks

    def counted(*args):
        seen["layouts"] += 1
        return layout(*args)

    def recorded(self, coeffs, rx):
        seen["gathers"].append((coeffs.copy(), np.arange(len(self.src))[rx].reshape(-1).tolist()))
        return blocks(self, coeffs, rx)
    monkeypatch.setattr(biakit.verify, "receiver_layout", counted)
    monkeypatch.setattr(biakit.verify.ReceiverLayout, "blocks", recorded)
    return seen


def gathered_pairs(seen, draws):
    """The (draw, rx) pairs of every recorded gather, one list per call,
    each draw numbered by its place among draws (coefficient stacks)."""
    out = []
    for coeffs, rx in seen["gathers"]:
        ts = [next(t for t, d in enumerate(draws) if np.array_equal(h, d)) for h in coeffs]
        out.append([[t, j] for t in ts for j in rx])
    return out


@pytest.mark.parametrize("K", range(3, 13))
def test_exact_mode_builds_no_block_on_built_schemes(K, monkeypatch):
    """Decide, then gather: `_proven` decides every built receiver in every
    draw, so exact verification builds no layout and gathers no block."""
    refuse_blocks(monkeypatch)
    scheme = bk.build_scheme(K)
    for seed in (0, 5):
        report = run_verification(scheme, 3, seed, exact=True)
        assert report.all_passed and len(report.checks) == 3 * K


def test_selected_blocks_match_the_full_stack(fallback_scheme5):
    for _, scheme in schemes(fallback_scheme5):
        K = scheme.config.users
        layout = receiver_layout(scheme)
        coeffs = np.stack([oracle_draw(scheme, 3, t, True).coeffs for t in range(3)])
        full = layout.blocks(coeffs, slice(None))
        assert full.shape == (3, K) + full.shape[2:]
        assert_bits(layout.blocks(coeffs, K - 1), full[:, K - 1])
        rx = [2, 0, K - 1, 2]
        assert_bits(layout.blocks(coeffs, rx), full[:, rx])
        assert_bits(layout.blocks(coeffs, slice(1, None, 2)), full[:, 1::2])
        assert layout.blocks(coeffs, []).shape == (3, 0) + full.shape[2:]


def test_exact_reports_gather_only_unproven_blocks(golden_scheme4, fallback_scheme5, monkeypatch):
    """The golden instance, the pair-product families, certified and not,
    and the pair products on the star pattern match the all-Bareiss oracle
    byte for byte. A run builds its layout once (one chunk) if some
    receiver is unproven, else never, and gathers exactly the unproven
    (draw, rx) blocks, a draw at a time."""
    built = bk.build_scheme(5)
    cases = [("golden", golden_scheme4), ("fallback5", fallback_scheme5),
             ("hand-built5", product_scheme(built))]
    cases += certified_pair_product_schemes()
    for name, scheme in cases:
        expect = oracle_report(scheme, 3, 6, exact=True)
        draws = [oracle_draw(scheme, 6, t, True).coeffs for t in range(3)]
        with monkeypatch.context() as patch:
            seen = record_gathers(patch)
            got = run_verification(scheme, 3, 6, exact=True)
        assert report_bytes(got) == report_bytes(expect), name
        unproven = [[[t, j] for j, ok in enumerate(scheme.certified_receivers) if not ok]
                    for t in range(3)]
        assert seen["layouts"] == (1 if unproven[0] else 0), name
        assert gathered_pairs(seen, draws) == (unproven if unproven[0] else []), name
    assert golden_scheme4.certified_receivers == (False, True, False, True)


@pytest.mark.parametrize("edit", [tie_own_pair, zero_aligned],
                         ids=["own-pair-determinant", "aligned-coefficient"])
def test_exact_runs_over_chunks_build_one_layout(edit, monkeypatch):
    """One draw per chunk, zero factors in draws 2 and 4 of 6 only: a
    layout is built in the chunks of draws 2 and 4 alone, each gathers its
    own unproven block, and the report matches the oracle."""
    scheme = bk.build_scheme(4)
    K, m = scheme.config.users, scheme.config.block_len
    monkeypatch.setattr(biakit.exactrank, "BATCH_ELEMENTS", K * m * m)
    monkeypatch.setitem(globals(), "_exact_channel_ints", edited_draws(edit, at={2, 4}))
    expect = oracle_report(scheme, 6, 3, exact=True)
    monkeypatch.setitem(globals(), "_exact_channel_ints", edited_draws(edit, at={2, 4}))
    draws = [oracle_draw(scheme, 3, t, True).coeffs for t in range(6)]
    monkeypatch.setattr(biakit.verify, "_exact_channel_ints", edited_draws(edit, at={2, 4}))
    seen = record_gathers(monkeypatch)
    got = run_verification(scheme, 6, 3, exact=True)
    assert report_bytes(got) == report_bytes(expect)
    assert seen["layouts"] == 2
    assert gathered_pairs(seen, draws) == [[[2, 1]], [[4, 1]]]
    assert [(c.draw, c.rx) for c in got.checks if not c.passed] == [(2, 2), (4, 2)]


@pytest.mark.parametrize("K", [4, 5, 6])
def test_exact_reports_match_per_draw_loop_on_hand_built_beams(K):
    """Hand-built beams, the full pair products on the star pattern, prove
    nothing by factorisation; every block goes to Bareiss, as in the
    oracle, and every receiver fails."""
    scheme = product_scheme(bk.build_scheme(K))
    expect = oracle_report(scheme, 3, 3, exact=True)
    assert report_bytes(run_verification(scheme, 3, 3, exact=True)) == report_bytes(expect)
    assert expect.failing_receivers() == tuple(range(1, K + 1))


def test_simulation_matches_per_trial_loop(fallback_scheme5):
    for name, scheme in schemes(fallback_scheme5):
        cfg = SimConfig(trials=12, seed=4)
        result = estimate_dof(scheme, cfg)
        assert_simulation_matches(result, oracle_estimate_dof(scheme, cfg), name)
    assert result.excluded == 3 * 12  # receiver 5 of the fallback family


@pytest.mark.parametrize("edit", [tie_own_pair, zero_aligned],
                         ids=["own-pair-determinant", "aligned-coefficient"])
def test_simulation_excludes_zero_factors(edit, monkeypatch):
    """A zero factor of D_j at a certified receiver excludes that receiver
    in every trial, and only it; the SVD oracle agrees byte for byte."""
    scheme = bk.build_scheme(4)
    inner = biakit.sim.draw_channel_stack

    def draw_stack(K, seeds):
        coeffs = inner(K, seeds)
        for h in coeffs:
            edit(h)
        return coeffs

    def draw(K, M=2, seed=0, _inner=draw_channels):
        ch = _inner(K, M, seed=seed)
        edit(ch.coeffs)
        return ch
    monkeypatch.setattr(biakit.sim, "draw_channel_stack", draw_stack)
    monkeypatch.setitem(globals(), "draw_channels", draw)
    cfg = SimConfig(trials=5, seed=4)
    result = estimate_dof(scheme, cfg)
    assert_simulation_matches(result, oracle_estimate_dof(scheme, cfg))
    assert result.excluded == 3 * 5
    assert np.all(result.rates[:, :, 1] == 0)
    assert np.all(np.delete(result.rates, 1, axis=2) > 0)


@pytest.mark.parametrize("K", [4, 5, 6])
def test_simulation_excludes_every_slot_on_hand_built_beams(K):
    """Hand-built beams, the full pair products on the star pattern, prove
    nothing: every (snr, trial, receiver) slot is excluded, as by the SVD
    oracle, and zf_decode raises."""
    scheme = product_scheme(bk.build_scheme(K))
    cfg = SimConfig(trials=5, seed=3)
    result = estimate_dof(scheme, cfg)
    assert_simulation_matches(result, oracle_estimate_dof(scheme, cfg))
    assert result.excluded == 3 * 5 * K
    ch = draw_channels(K, 2, seed=3)
    for j in range(K):
        dec = bk.decompose_receiver(ch, scheme, j)
        with pytest.raises(UnverifiableDrawError, match="receiver %d" % (j + 1)):
            bk.zf_decode(dec, np.ones(scheme.config.block_len, dtype=complex))


def test_simulation_matches_per_trial_loop_past_eight_users():
    # K - 1 >= 8 rates per receiver and m >= 44 uses per TDMA mean: numpy's
    # pairwise summation differs from a plain loop at these lengths
    scheme = bk.build_scheme(9)
    cfg = SimConfig(trials=3, seed=6)
    assert_simulation_matches(estimate_dof(scheme, cfg), oracle_estimate_dof(scheme, cfg))


def test_draw_chunks_respect_the_budget(monkeypatch):
    assert chunks(120, 324) == [range(0, 50), range(50, 100), range(100, 120)]
    assert chunks(3, 71148) == [range(0, 1), range(1, 2), range(2, 3)]
    assert chunks(0, 9) == []
    monkeypatch.setattr(biakit.exactrank, "BATCH_ELEMENTS", 7)
    assert chunks(5, 3) == [range(0, 2), range(2, 4), range(4, 5)]


@pytest.mark.parametrize("draws_per_chunk", [1, 3])
def test_chunking_changes_no_output(draws_per_chunk, fallback_scheme5, monkeypatch):
    """One draw per chunk, and three per chunk over 7 draws (the last one
    partial), give the same bytes as the default single chunk. Verification
    chunks hold combined blocks (K m^2 entries a draw), the simulation's
    hold channel coefficients (2 K^2 a trial); at either budget the
    simulation's weights take one receiver per chunk."""
    for scheme in (bk.build_scheme(4), fallback_scheme5):
        K, m = scheme.config.users, scheme.config.block_len
        cfg = SimConfig(trials=7, seed=8)
        default = (report_bytes(run_verification(scheme, 7, 8)),
                   report_bytes(run_verification(scheme, 7, 8, exact=True)),
                   result_bytes(estimate_dof(scheme, cfg)))
        with monkeypatch.context() as patch:
            patch.setattr(biakit.exactrank, "BATCH_ELEMENTS", draws_per_chunk * K * m * m)
            assert len(chunks(7, K * m * m)) == -(-7 // draws_per_chunk)
            chunked = (report_bytes(run_verification(scheme, 7, 8)),
                       report_bytes(run_verification(scheme, 7, 8, exact=True)))
            patch.setattr(biakit.exactrank, "BATCH_ELEMENTS", draws_per_chunk * 2 * K * K)
            assert len(chunks(7, 2 * K * K)) == -(-7 // draws_per_chunk)
            assert len(chunks(K, m * m)) == K
            chunked += (result_bytes(estimate_dof(scheme, cfg)),)
        assert chunked == default


@pytest.mark.parametrize("K,draws", [(4, 120), (8, 3), (12, 2), (20, 2)])
def test_no_stack_outgrows_the_chunk_budget(K, draws, linalg_stacks):
    scheme = bk.build_scheme(K)
    m = scheme.config.block_len
    run_verification(scheme, draws, 1)
    estimate_dof(scheme, SimConfig(trials=draws, seed=1))
    shapes = linalg_stacks["svd"] + linalg_stacks["solve"]
    assert max(np.prod(shape) for shape in shapes) <= max(BATCH_ELEMENTS, K * m * m)
    # one SVD per chunk of draws in verification; the simulation inverts
    # nothing and solves once per chunk of receivers, whatever the trials
    assert len(linalg_stacks["svd"]) == len(chunks(draws, K * m * m))
    assert linalg_stacks["inv"] == []
    assert len(linalg_stacks["solve"]) == len(chunks(K, m * m))
    assert all(shape[-2:] == (m, m) for shape in linalg_stacks["solve"])


def certified_pair_product_schemes():
    """Every fully certified pair-product scheme at K = 3 and 4 (scan)."""
    cases = []
    for K in (3, 4):
        for n, rows in enumerate(scan(K)[1]):
            pattern = PatternMatrix(np.array(rows, dtype=np.int64))
            cases.append(("pair-product-%d-%d" % (K, n), bk.Scheme(pattern)))
    return cases


def test_closed_form_matches_the_batched_inverse(fallback_scheme5):
    """The closed-form noise enhancement against A_j^{-1} of every proven
    block: the star family K = 3..12, every fully certified pair-product
    scheme, the fallback family and relabelled pair maps."""
    cases = [(str(K), bk.build_scheme(K)) for K in range(3, 13)]
    cases += certified_pair_product_schemes()
    cases += [("fallback5", fallback_scheme5)]
    cases += [("pair-map-%d" % K, relabelled_scheme(K)) for K in (4, 5, 6)]
    for name, scheme in cases:
        cfg = SimConfig(trials=4 if scheme.config.users > 8 else 12, seed=5)
        assert_simulation_matches(estimate_dof(scheme, cfg), inv_estimate_dof(scheme, cfg), name)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(widened_schemes())
def test_closed_form_matches_the_batched_inverse_on_widened_supports(scheme):
    cfg = SimConfig(trials=3, seed=2)
    assert_simulation_matches(estimate_dof(scheme, cfg), inv_estimate_dof(scheme, cfg))


def test_simulation_builds_no_block(scheme4, fallback_scheme5, monkeypatch):
    """estimate_dof reads no receiver layout and gathers no combined block."""
    def refuse(*args, **kwargs):
        raise AssertionError("estimate_dof built a combined block")
    monkeypatch.setattr(biakit.verify, "receiver_layout", refuse)
    monkeypatch.setattr(biakit.verify.ReceiverLayout, "blocks", refuse)
    for scheme in (scheme4, fallback_scheme5):
        estimate_dof(scheme, SimConfig(trials=3, seed=1))
