"""The batched verify and simulate paths against the per-(draw, receiver)
loops they replaced, and the chunking of draws.

The oracles below are the one-matrix-at-a-time code: one column_stack per
block, one SVD and one inverse per (draw, receiver) and a 1-D mean per
user for TDMA. The arithmetic of every entry is unchanged by batching, so
blocks, ranks, rates and emitted bytes must be bit-identical.
"""
import itertools

import numpy as np
import pytest

import biakit as bk
import biakit.exactrank
import biakit.sim
import biakit.verify
from biakit.channel import CHANNEL_STREAM, EXACT_STREAM, ChannelSet, draw_channels, stream_seed
from biakit.errors import UnverifiableDrawError
from biakit.exactrank import BATCH_ELEMENTS, chunks, gaussian_rank
from biakit.scheme import default_pair_dims
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
    expected_ranks,
    receiver_layout,
    report_to_csv,
    report_to_json,
    run_verification,
)

from conftest import GOLDEN_PAIR_DIMS, copied_beams, product_beams

def oracle_receiver_blocks(ch, pattern, beams, j):
    """Receiver j's desired and interference blocks, one column_stack each."""
    K = pattern.users
    eff = ch.coeffs[j][:, pattern.tilde[:, j]]  # eff[i]: diagonal from transmitter i
    pairs = list(itertools.combinations(range(K), 2))
    src = [b if j == a else a for a, b in pairs]
    shared = np.column_stack([beams.shared_vector(a, b) for a, b in pairs])
    desired = eff[j][:, None] * np.column_stack(beams.vectors[j])
    return desired, eff[src].T * shared


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
            a = np.hstack(oracle_receiver_blocks(ch, scheme.pattern, scheme.beams, j))
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
            a = np.hstack(oracle_receiver_blocks(ch, scheme.pattern, scheme.beams, j))
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


def assert_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def report_bytes(report):
    return report_to_json(report), report_to_csv(report)


def result_bytes(result):
    return (result.rates.tobytes(), result.tdma_rates.tobytes(), result.excluded,
            result_to_json(result), result_to_long_csv(result), result_to_summary_csv(result))


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
        a = receiver_layout(relabelled_scheme(K).pattern, relabelled_scheme(K).beams)
        b = receiver_layout(bk.build_scheme(K).pattern, bk.build_scheme(K).beams)
        assert not np.array_equal(a.vec, b.vec)


def test_layout_blocks_match_column_stack_blocks(fallback_scheme5):
    for _, scheme in schemes(fallback_scheme5):
        K = scheme.config.users
        layout = receiver_layout(scheme.pattern, scheme.beams)
        for exact in (False, True):
            draws = [oracle_draw(scheme, 3, t, exact) for t in range(3)]
            blocks = layout.blocks(np.stack([ch.coeffs for ch in draws]))
            for t, ch in enumerate(draws):
                for j in range(K):
                    desired, basis = oracle_receiver_blocks(ch, scheme.pattern, scheme.beams, j)
                    assert_bits(blocks[t, j], np.hstack([desired, basis]))
                    got = bk.decompose_receiver(ch, scheme.pattern, scheme.beams, j)
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


def edited_draws(edit):
    """_exact_channel_ints with edit(h) applied to every draw."""
    def draw(K, rng, _inner=_exact_channel_ints):
        h = _inner(K, rng)
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


@pytest.mark.parametrize("K", [4, 5, 6])
def test_exact_reports_match_per_draw_loop_on_hand_built_beams(K):
    """Beams that are not the pattern's (full pair products on the star
    pattern) prove nothing by factorisation; every block goes to Bareiss,
    as in the oracle, and every receiver fails."""
    built = bk.build_scheme(K)
    scheme = bk.Scheme(pattern=built.pattern, beams=product_beams(built))
    expect = oracle_report(scheme, 3, 3, exact=True)
    assert report_bytes(run_verification(scheme, 3, 3, exact=True)) == report_bytes(expect)
    assert expect.failing_receivers() == tuple(range(1, K + 1))


def test_simulation_matches_per_trial_loop(fallback_scheme5):
    for name, scheme in schemes(fallback_scheme5):
        cfg = SimConfig(trials=12, seed=4)
        result = estimate_dof(scheme, cfg)
        assert result_bytes(result) == result_bytes(oracle_estimate_dof(scheme, cfg)), name
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
    assert result_bytes(result) == result_bytes(oracle_estimate_dof(scheme, cfg))
    assert result.excluded == 3 * 5
    assert np.all(result.rates[:, :, 1] == 0)
    assert np.all(np.delete(result.rates, 1, axis=2) > 0)


@pytest.mark.parametrize("K", [4, 5, 6])
def test_simulation_excludes_every_slot_on_hand_built_beams(K):
    """Beams that are not the pattern's prove nothing: every (snr, trial,
    receiver) slot is excluded, as by the SVD oracle, and zf_decode raises."""
    built = bk.build_scheme(K)
    scheme = bk.Scheme(pattern=built.pattern, beams=product_beams(built))
    cfg = SimConfig(trials=5, seed=3)
    result = estimate_dof(scheme, cfg)
    assert result_bytes(result) == result_bytes(oracle_estimate_dof(scheme, cfg))
    assert result.excluded == 3 * 5 * K
    ch = draw_channels(K, 2, seed=3)
    for j in range(K):
        dec = bk.decompose_receiver(ch, scheme.pattern, scheme.beams, j)
        with pytest.raises(UnverifiableDrawError, match="receiver %d" % (j + 1)):
            bk.zf_decode(dec, np.ones(scheme.config.block_len, dtype=complex))


def test_misaligned_beams_are_rejected_by_every_run(scheme4):
    """A shared vector outside its pair product is refused before any draw:
    float and exact verification and the simulation raise, naming the pair
    and the row, instead of ranking a block the signal never forms."""
    scheme = bk.Scheme(pattern=scheme4.pattern, beams=copied_beams(scheme4))
    message = r"support of pair \{1,2\} leaves the pair product at row 5"
    for run in (lambda: run_verification(scheme, 3, 3),
                lambda: run_verification(scheme, 3, 3, exact=True),
                lambda: estimate_dof(scheme, SimConfig(trials=5, seed=3))):
        with pytest.raises(ValueError, match=message):
            run()


def test_simulation_matches_per_trial_loop_past_eight_users():
    # K - 1 >= 8 rates per receiver and m >= 44 uses per TDMA mean: numpy's
    # pairwise summation differs from a plain loop at these lengths
    scheme = bk.build_scheme(9)
    cfg = SimConfig(trials=3, seed=6)
    assert result_bytes(estimate_dof(scheme, cfg)) == result_bytes(oracle_estimate_dof(scheme, cfg))


def test_draw_chunks_respect_the_budget(monkeypatch):
    assert chunks(120, 324) == [range(0, 50), range(50, 100), range(100, 120)]
    assert chunks(3, 71148) == [range(0, 1), range(1, 2), range(2, 3)]
    assert chunks(0, 9) == []
    monkeypatch.setattr(biakit.exactrank, "BATCH_ELEMENTS", 7)
    assert chunks(5, 3) == [range(0, 2), range(2, 4), range(4, 5)]


@pytest.mark.parametrize("draws_per_chunk", [1, 3])
def test_chunking_changes_no_output(draws_per_chunk, fallback_scheme5, monkeypatch):
    """One draw per chunk, and three per chunk over 7 draws (the last one
    partial), give the same bytes as the default single chunk."""
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
                       report_bytes(run_verification(scheme, 7, 8, exact=True)),
                       result_bytes(estimate_dof(scheme, cfg)))
        assert chunked == default


@pytest.mark.parametrize("K,draws", [(4, 120), (8, 3), (12, 2)])
def test_no_stack_outgrows_the_chunk_budget(K, draws, linalg_stacks):
    scheme = bk.build_scheme(K)
    m = scheme.config.block_len
    run_verification(scheme, draws, 1)
    estimate_dof(scheme, SimConfig(trials=draws, seed=1))
    shapes = linalg_stacks["svd"] + linalg_stacks["inv"]
    assert max(np.prod(shape) for shape in shapes) <= max(BATCH_ELEMENTS, K * m * m)
    # one SVD per chunk in verification, one inverse per chunk in the simulation
    count = len(chunks(draws, K * m * m))
    assert (len(linalg_stacks["svd"]), len(linalg_stacks["inv"])) == (count, count)
