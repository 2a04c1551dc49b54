"""The batched verify and simulate paths against the per-(draw, receiver)
loops they replaced, and the chunking of draws.

The oracles below are the one-matrix-at-a-time code: one column_stack per
block, one SVD and one inverse per (draw, receiver) and a 1-D mean per
user for TDMA, and the batched inverse of every proven combined block
that the closed-form simulation replaced. The arithmetic of every block,
rank and TDMA rate is unchanged by batching, and a block the float bound
or the Cholesky margin proves full is one the oracle's SVD calls full, so
those and the emitted verification bytes must be bit-identical. The simulation's zero-forcing
rates are a different float evaluation of the same quantity (the closed
form of biakit.sim), so they agree within RATE_RTOL; every other output
byte of a simulation, the exclusions included, is identical.
"""
import itertools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import biakit as bk
import biakit.cli
import biakit.exactrank
import biakit.scheme
import biakit.sim
import biakit.verify
from biakit.channel import CHANNEL_STREAM, EXACT_STREAM, ChannelSet, draw_channels, stream_seed
from biakit.designspace import make_pattern_matrix, scan
from biakit.errors import UnverifiableDrawError
from biakit.exactrank import chunks, gaussian_rank
from biakit.formats import render_csv, render_json
from biakit.scheme import (
    PatternMatrix,
    default_pair_dims,
    generator_nonzeros,
    make_config,
    receiver_columns,
)
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
    combined_blocks,
    draw_bounds,
    expected_ranks,
    float_bound,
    report_to_csv,
    report_to_json,
    run_verification,
    verify_decodability,
)

from conftest import (
    GOLDEN_PAIR_DIMS,
    matrix_count,
    product_scheme,
    sigma_min,
    user_vectors,
    widened_schemes,
)

# what linalg_stacks holds when no numpy linear algebra ran
NO_LINALG = {"svd": [], "cholesky": [], "inv": [], "solve": []}

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


def oracle_draws(scheme, seed, draws, exact):
    """The first draws draws of the seed's channel (float) or exact stream,
    one one-draw call after another on one Generator."""
    K = scheme.config.users
    rng = np.random.default_rng(stream_seed(seed, EXACT_STREAM if exact else CHANNEL_STREAM))
    if exact:
        return [ChannelSet(coeffs=h[..., 0] + 1j * h[..., 1])
                for h in (_exact_channel_ints(K, rng) for _ in range(draws))]
    return [draw_channels(K, 2, seed=rng) for _ in range(draws)]


def oracle_ranks(ch, scheme, rank=oracle_rank):
    """The (rank_desired, rank_interference, rank_combined) of every
    receiver of one draw: one rank of every combined block, and of its two
    blocks where that one is short."""
    K, full = scheme.config.users, expected_ranks(scheme.config)
    out = []
    for j in range(K):
        a = np.hstack(oracle_receiver_blocks(ch, scheme, j))
        rc = rank(a)
        out.append(full if rc == full[2] else (rank(a[:, :K - 1]), rank(a[:, K - 1:]), rc))
    return out


def oracle_checks(ch, scheme, t, rank=oracle_rank):
    """The checks of every receiver of one draw, numbered t."""
    full = expected_ranks(scheme.config)
    return [ReceiverCheck(t, j + 1, *ranks, passed=ranks == full)
            for j, ranks in enumerate(oracle_ranks(ch, scheme, rank))]


def oracle_report(scheme, draws, seed, exact=False):
    """The per-draw, per-receiver verification loop. In exact mode every
    block is ranked by Bareiss elimination (gaussian_rank) alone."""
    rank = oracle_exact_rank if exact else oracle_rank
    ranks = []
    for ch in oracle_draws(scheme, seed, draws, exact):
        ranks += oracle_ranks(ch, scheme, rank)
    return VerificationReport(users=scheme.config.users, draws=draws, seed=seed, exact=exact,
                              ranks=np.array(ranks, dtype=np.int64))


def oracle_estimate_dof(scheme, cfg):
    """The per-(trial, receiver) simulation loop."""
    K = scheme.config.users
    powers = [10.0 ** (db / 10.0) for db in cfg.snr_points_db]
    rates = np.zeros((len(powers), cfg.trials, K))
    tdma = np.zeros((len(powers), cfg.trials))
    excluded = 0
    for t, ch in enumerate(oracle_draws(scheme, cfg.seed, cfg.trials, exact=False)):
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
    every combined block by one gather, the exclusion rule and one
    batched inverse of the proven blocks."""
    K, m = scheme.config.users, scheme.config.block_len
    powers = [10.0 ** (db / 10.0) for db in cfg.snr_points_db]
    rates = np.zeros((len(powers), cfg.trials, K))
    tdma = np.zeros((len(powers), cfg.trials))
    excluded = 0
    draws = oracle_draws(scheme, cfg.seed, cfg.trials, exact=False)
    for chunk in chunks(cfg.trials, K * m * m):
        coeffs = np.stack([draws[t].coeffs for t in chunk])
        ok = _proven(scheme.certified_receivers, coeffs)
        excluded += len(powers) * int(np.count_nonzero(~ok))
        w = np.linalg.inv(combined_blocks(scheme.pattern, coeffs, slice(None))[ok])[:, :K - 1]
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


def test_relabelled_maps_move_dimension_pairs_not_columns():
    """A pair map relabels which symbol rides which vector and nothing
    else: the relabelled schemes' combined blocks equal the default ones,
    bit for bit, in float and exact draws."""
    for K in (4, 5):
        a, b = relabelled_scheme(K), bk.build_scheme(K)
        assert not np.array_equal(a.dimension_pairs(), b.dimension_pairs())
        for exact in (False, True):
            coeffs = np.stack([ch.coeffs for ch in oracle_draws(b, 3, 3, exact)])
            assert_bits(combined_blocks(a.pattern, coeffs, slice(None)),
                        combined_blocks(b.pattern, coeffs, slice(None)))


def test_layout_blocks_match_column_stack_blocks(fallback_scheme5):
    """The gathered blocks hold j's own pairs in increasing order, whatever
    the pair map; decompose_receiver's desired block is in j's dimension
    order."""
    for _, scheme in schemes(fallback_scheme5):
        K = scheme.config.users
        pairs = list(itertools.combinations(range(K), 2))
        for exact in (False, True):
            draws = oracle_draws(scheme, 3, 3, exact)
            blocks = combined_blocks(scheme.pattern, np.stack([ch.coeffs for ch in draws]), slice(None))
            for t, ch in enumerate(draws):
                for j in range(K):
                    desired, basis = oracle_receiver_blocks(ch, scheme, j)
                    dims = [scheme.pair_dims[pair][pair.index(j)] for pair in pairs if j in pair]
                    assert_bits(blocks[t, j], np.hstack([desired[:, dims], basis]))
                    got = bk.decompose_receiver(ch, scheme, j)
                    assert_bits(got.desired, desired)
                    assert_bits(got.interference_basis, basis)


def test_float_reports_match_per_draw_loop(fallback_scheme5, golden_scheme4):
    cases = schemes(fallback_scheme5) + [("golden4", golden_scheme4)]
    cases += [(str(K), bk.build_scheme(K)) for K in range(9, 13)]
    for name, scheme in cases:
        draws = 20 if scheme.config.users <= 8 else 3
        expect = oracle_report(scheme, draws, 3)
        assert report_bytes(run_verification(scheme, draws, 3)) == report_bytes(expect), name
        # the fallback family's receiver 5 fails, and the golden instance's 1 and 3
        assert expect.failing_receivers() == {"fallback5": (5,), "golden4": (1, 3)}.get(name, ())


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(widened_schemes())
def test_float_reports_match_per_draw_loop_on_widened_supports(scheme):
    expect = oracle_report(scheme, 3, 5)
    assert report_bytes(run_verification(scheme, 3, 5)) == report_bytes(expect)


def test_exact_reports_match_per_draw_loop(fallback_scheme5):
    for name, scheme in schemes(fallback_scheme5):
        expect = oracle_report(scheme, 3, 3, exact=True)
        got = run_verification(scheme, 3, 3, exact=True)
        assert report_bytes(got) == report_bytes(expect), name
    assert expect.failing_receivers() == (5,)


def counting(monkeypatch, targets) -> list[str]:
    """The names of every call of the (module, name) targets, in order."""
    calls = []
    for module, name in targets:
        def counted(*args, _inner=getattr(module, name), _name=name):
            calls.append(_name)
            return _inner(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("K", range(3, 11))
def test_exact_mode_runs_no_elimination_on_built_schemes(K, monkeypatch):
    """Every built receiver is certified, so the factorisation proves every
    combined block: no Bareiss elimination, of a certificate or a rank."""
    calls = counting(monkeypatch, [(biakit.exactrank, "integer_rank"), (biakit.verify, "gaussian_rank")])
    scheme = bk.build_scheme(K)
    assert run_verification(scheme, 2, 0, exact=True).all_passed
    assert calls == []


@pytest.mark.parametrize("argv, inverted", [
    (["verify", "--users", "8", "--trials", "4"], True),
    (["simulate", "--users", "4", "--trials", "4"], True),
    (["verify", "--users", "7", "--exact", "--trials", "2"], False),
    (["generate", "--users", "6"], False),
], ids=["verify", "simulate", "verify-exact", "generate"])
def test_each_run_builds_and_peels_its_generators_once(argv, inverted, monkeypatch, tmp_path, capsys):
    """A run builds G_j's nonzeros and peels them once, for the certificate;
    float verification and simulation invert them by continuing that peel
    (one substitution and one proof X G_j = d I), and exact verification
    and generate take no inverse at all."""
    calls = counting(monkeypatch, [
        (biakit.scheme, "generator_nonzeros"), (biakit.exactrank, "_peel"),
        (biakit.scheme, "peeled_inverses"), (biakit.exactrank, "peeled_inverses"),
        (biakit.exactrank, "is_inverse")])
    if argv[0] == "simulate":
        argv = argv + ["--out", str(tmp_path / "run")]
    assert biakit.cli.main(argv) == 0
    capsys.readouterr()
    expect = ["generator_nonzeros", "_peel"] + ["peeled_inverses", "is_inverse"] * inverted
    assert calls == expect


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
    """Make combined_blocks raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a combined block was built")
    monkeypatch.setattr(biakit.verify, "combined_blocks", refuse)


def record_gathers(monkeypatch):
    """Record the draws and the receivers of every combined_blocks call
    while the test runs."""
    seen = {"gathers": []}
    blocks = biakit.verify.combined_blocks

    def recorded(pattern, coeffs, rx):
        seen["gathers"].append((coeffs.copy(), np.arange(pattern.users)[rx].reshape(-1).tolist()))
        return blocks(pattern, coeffs, rx)
    monkeypatch.setattr(biakit.verify, "combined_blocks", recorded)
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
    draw, so exact verification gathers no block."""
    refuse_blocks(monkeypatch)
    scheme = bk.build_scheme(K)
    for seed in (0, 5):
        report = run_verification(scheme, 3, seed, exact=True)
        assert report.all_passed and len(report.checks) == 3 * K


def factored_blocks(scheme, coeffs):
    """G_j D_j of every receiver in every draw of coeffs (T, K, K, 2), with
    G_j scattered from generator_nonzeros and D_j built from the
    coefficients and receiver_columns(K), in the same columns, no
    permutation: column c of A_j (transmitter i = src[j, c], pair
    p = col[j, c]) puts h_ji(2) at row K-1+p, or, when p is j's own pair
    in own column n, h_ji(1) at row K-1+p (the mode-1 half) and h_ji(2) at
    row n (the mode-2 half)."""
    pattern = scheme.pattern
    K, m = pattern.users, pattern.block_len
    counts, rows, cols = generator_nonzeros(pattern.tilde, pattern.supports)
    g = np.zeros((K, m, m))
    g[np.repeat(np.arange(K), counts), rows, cols] = 1
    src, col = receiver_columns(K)
    d = np.zeros(coeffs.shape[:2] + (m, m), dtype=complex)
    for j in range(K):
        own = col[j, :K - 1].tolist()
        for c, (i, pair) in enumerate(zip(src[j], col[j])):
            if pair in own:
                d[:, j, K - 1 + pair, c], d[:, j, own.index(pair), c] = coeffs[:, j, i, 0], coeffs[:, j, i, 1]
            else:
                d[:, j, K - 1 + pair, c] = coeffs[:, j, i, 1]
    return g @ d


def assert_factorisation(scheme):
    """A_j = G_j D_j bit for bit, for float and exact draws, at every receiver."""
    for exact in (False, True):
        coeffs = np.stack([ch.coeffs for ch in oracle_draws(scheme, 3, 3, exact)])
        blocks = combined_blocks(scheme.pattern, coeffs, slice(None))
        product = factored_blocks(scheme, coeffs)
        # the sign of a zero entry is the one bit the two evaluations may
        # differ in: adding 0.0 makes every zero +0
        assert_bits(blocks + 0.0, product + 0.0)


def test_combined_blocks_factor_through_the_generator_matrices(fallback_scheme5, golden_scheme4):
    cases = [scheme for _, scheme in schemes(fallback_scheme5)] + [golden_scheme4]
    cases += [bk.Scheme(make_pattern_matrix(make_config(K))) for K in range(3, 7)]
    for scheme in cases:
        assert_factorisation(scheme)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(widened_schemes())
def test_combined_blocks_factor_through_the_generator_matrices_on_widened_supports(scheme):
    assert_factorisation(scheme)


def test_selected_blocks_match_the_full_stack(fallback_scheme5):
    for _, scheme in schemes(fallback_scheme5):
        K, pattern = scheme.config.users, scheme.pattern
        coeffs = np.stack([ch.coeffs for ch in oracle_draws(scheme, 3, 3, True)])
        full = combined_blocks(pattern, coeffs, slice(None))
        assert full.shape == (3, K) + full.shape[2:]
        assert_bits(combined_blocks(pattern, coeffs, K - 1), full[:, K - 1])
        rx = [2, 0, K - 1, 2]
        assert_bits(combined_blocks(pattern, coeffs, rx), full[:, rx])
        assert_bits(combined_blocks(pattern, coeffs, slice(1, None, 2)), full[:, 1::2])
        assert combined_blocks(pattern, coeffs, []).shape == (3, 0) + full.shape[2:]


def test_exact_reports_gather_only_unproven_blocks(golden_scheme4, fallback_scheme5, monkeypatch):
    """The golden instance, the pair-product families, certified and not,
    and the pair products on the star pattern match the all-Bareiss oracle
    byte for byte. A run gathers exactly the unproven (draw, rx) blocks,
    each once, a receiver at a time, and none where every receiver is
    proven."""
    built = bk.build_scheme(5)
    cases = [("golden", golden_scheme4), ("fallback5", fallback_scheme5),
             ("hand-built5", product_scheme(built))]
    cases += certified_pair_product_schemes()
    for name, scheme in cases:
        expect = oracle_report(scheme, 3, 6, exact=True)
        draws = [ch.coeffs for ch in oracle_draws(scheme, 6, 3, True)]
        with monkeypatch.context() as patch:
            seen = record_gathers(patch)
            got = run_verification(scheme, 3, 6, exact=True)
        assert report_bytes(got) == report_bytes(expect), name
        unproven = [[[t, j] for t in range(3)]
                    for j, ok in enumerate(scheme.certified_receivers) if not ok]
        assert gathered_pairs(seen, draws) == unproven, name
    assert golden_scheme4.certified_receivers == (False, True, False, True)


@pytest.mark.parametrize("edit", [tie_own_pair, zero_aligned],
                         ids=["own-pair-determinant", "aligned-coefficient"])
def test_exact_runs_over_chunks_build_one_layout(edit, monkeypatch):
    """One draw per chunk, zero factors in draws 2 and 4 of 6 only: the
    chunks of draws 2 and 4 alone gather, each its own unproven block, and
    the report matches the oracle."""
    scheme = bk.build_scheme(4)
    K = scheme.config.users
    monkeypatch.setattr(biakit.exactrank, "BATCH_ELEMENTS", 2 * K * K)
    monkeypatch.setitem(globals(), "_exact_channel_ints", edited_draws(edit, at={2, 4}))
    expect = oracle_report(scheme, 6, 3, exact=True)
    monkeypatch.setitem(globals(), "_exact_channel_ints", edited_draws(edit, at={2, 4}))
    draws = [ch.coeffs for ch in oracle_draws(scheme, 3, 6, True)]
    monkeypatch.setattr(biakit.verify, "_exact_channel_ints", edited_draws(edit, at={2, 4}))
    seen = record_gathers(monkeypatch)
    got = run_verification(scheme, 6, 3, exact=True)
    assert report_bytes(got) == report_bytes(expect)
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


def object_report_bytes(report):
    """report_to_json and report_to_csv rendered from objects: one dict and
    one row a ReceiverCheck of report.checks."""
    checks = report.checks
    doc = render_json({
        "K": report.users,
        "draws": report.draws,
        "seed": report.seed,
        "exact": report.exact,
        "failures": sum(1 for c in checks if not c.passed),
        "checks": [{"draw": c.draw, "rx": c.rx, "rank_desired": c.rank_desired,
                    "rank_interference": c.rank_interference,
                    "rank_combined": c.rank_combined, "pass": c.passed} for c in checks],
    })
    rows = [(c.draw, c.rx, c.rank_desired, c.rank_interference, c.rank_combined, int(c.passed))
            for c in checks]
    table = render_csv(["draw", "rx", "rank_desired", "rank_interference", "rank_combined", "pass"],
                       list(zip(*rows)))
    return doc, table


def test_columnar_reports_match_the_object_renderer(golden_scheme4, fallback_scheme5):
    """The reports' columnar bytes equal those of one dict or row a check:
    every built scheme at K = 3..12 in float and exact mode, the golden
    instance (short receivers 1 and 3), the pair-product family at K = 5
    and Bareiss-ranked uncertified receivers in exact mode."""
    cases = [(str(K), bk.build_scheme(K)) for K in range(3, 13)]
    cases += [("golden4", golden_scheme4), ("fallback5", fallback_scheme5)]
    for name, scheme in cases:
        for exact, draws in ((False, 7), (True, 2)):
            report = run_verification(scheme, draws, 5, exact=exact)
            assert report_bytes(report) == object_report_bytes(report), (name, exact)
    short = run_verification(golden_scheme4, 4, 5, exact=True)
    assert short.failing_receivers() == (1, 3) and short.failures == 8
    assert {c.rank_combined for c in short.checks if not c.passed} == {8}


def test_the_run_path_builds_no_receiver_check(golden_scheme4, monkeypatch):
    """run_verification and both emitters hold the ranks as one array from
    the kernels to the bytes: no ReceiverCheck is built at K = 8 over 32
    draws, in float or exact mode, nor for the golden instance's short
    receivers. The checks view still builds one a (draw, receiver)."""
    built = []
    init = ReceiverCheck.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(ReceiverCheck, "__init__", counted)
    reports = [run_verification(bk.build_scheme(8), 32, 3),
               run_verification(bk.build_scheme(8), 2, 3, exact=True),
               run_verification(golden_scheme4, 32, 3)]
    for report in reports:
        report_bytes(report)
    assert built == []
    assert len(reports[0].checks) == 256 and len(built) == 256


def test_cli_exits_two_on_the_golden_instance(golden_scheme4, monkeypatch, capsys):
    """verify exits 2 when a check fails, in float and exact mode and either
    format: the golden instance fails at receivers 1 and 3 in every draw."""
    monkeypatch.setattr(biakit.cli, "build_scheme", lambda users, pair_dims=None: golden_scheme4)
    for extra in ([], ["--exact"], ["--format", "csv"]):
        assert biakit.cli.main(["verify", "--users", "4", "--trials", "3", *extra]) == 2, extra
        out = capsys.readouterr().out
        if "--format" not in extra:
            doc = json.loads(out)
            assert doc["failures"] == 6
            assert {c["rx"] for c in doc["checks"] if not c["pass"]} == {1, 3}
        else:
            assert [line.split(",")[1] for line in out.splitlines()[1:] if line.endswith(",0")] == \
                ["1", "3"] * 3


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

    def draw_stack(K, rng, T):
        coeffs = inner(K, rng, T)
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
    partial), give the same bytes as the default single chunk. Float and
    exact verification and the simulation size their chunks by channel
    coefficients (2 K^2 a draw), the work of the proof and of the rates.
    At that budget the simulation's weights take one receiver per chunk."""
    for scheme in (bk.build_scheme(4), fallback_scheme5):
        K, m = scheme.config.users, scheme.config.block_len
        cfg = SimConfig(trials=7, seed=8)
        default = (report_bytes(run_verification(scheme, 7, 8)),
                   report_bytes(run_verification(scheme, 7, 8, exact=True)),
                   result_bytes(estimate_dof(scheme, cfg)))
        with monkeypatch.context() as patch:
            patch.setattr(biakit.exactrank, "BATCH_ELEMENTS", draws_per_chunk * 2 * K * K)
            assert len(chunks(7, 2 * K * K)) == -(-7 // draws_per_chunk)
            assert len(chunks(K, m * m)) == K
            chunked = (report_bytes(run_verification(scheme, 7, 8)),
                       report_bytes(run_verification(scheme, 7, 8, exact=True)),
                       result_bytes(estimate_dof(scheme, cfg)))
        assert chunked == default


def stream_outputs(scheme, exact_scheme, trials, patch, draws_per_chunk=None):
    """Float ranks and simulated rates of scheme, and exact ranks of
    exact_scheme, over trials draws at seed 6; with draws_per_chunk, each
    run's chunks hold that many draws."""
    def chunked(entries_per_draw):
        if draws_per_chunk:
            patch.setattr(biakit.exactrank, "BATCH_ELEMENTS", draws_per_chunk * entries_per_draw)

    chunked(2 * scheme.config.users ** 2)
    result = estimate_dof(scheme, SimConfig(trials=trials, seed=6))
    ranks = run_verification(scheme, trials, 6).ranks
    chunked(2 * exact_scheme.config.users ** 2)
    exact = run_verification(exact_scheme, trials, 6, exact=True).ranks
    return ranks, exact, result.rates, result.tdma_rates


@pytest.mark.parametrize("K", [3, 8])
def test_a_run_is_a_prefix_of_a_longer_run(K, fallback_scheme5, monkeypatch):
    """Draw t is the t-th draw of its stream: at 5 draws, float verification,
    exact verification (of the fallback family, whose receiver 5 goes to
    Bareiss) and the simulation give the first rows of their 40-draw runs,
    byte for byte, and chunks of one draw or three change neither run."""
    scheme = bk.build_scheme(K)
    runs = {}
    for draws_per_chunk in (None, 1, 3):
        with monkeypatch.context() as patch:
            for trials in (5, 40):
                runs[draws_per_chunk, trials] = stream_outputs(
                    scheme, fallback_scheme5, trials, patch, draws_per_chunk)
    for draws_per_chunk in (1, 3):
        for trials in (5, 40):
            for got, expect in zip(runs[draws_per_chunk, trials], runs[None, trials]):
                assert_bits(got, expect)
    short, long = runs[None, 5], runs[None, 40]
    assert_bits(short[0], long[0][:5 * K])
    assert_bits(short[1], long[1][:5 * 5])
    assert_bits(short[2], long[2][:, :5])
    assert_bits(short[3], long[3][:, :5])
    assert long[1].shape == (40 * 5, 3)


def test_verify_and_simulate_read_one_stream(monkeypatch):
    """Float verification and the simulation read the same coefficients for
    trial t, over several chunks: the t-th draw_channels draw of the seed's
    channel stream."""
    scheme = bk.build_scheme(4)
    seen = {biakit.verify: [], biakit.sim: []}
    for module, stacks in seen.items():
        def record(K, rng, T, _inner=module.draw_channel_stack, _stacks=stacks):
            _stacks.append(_inner(K, rng, T))
            return _stacks[-1]
        monkeypatch.setattr(module, "draw_channel_stack", record)
    monkeypatch.setattr(biakit.exactrank, "BATCH_ELEMENTS", 3 * 2 * 4 * 4)
    run_verification(scheme, 7, 9)
    estimate_dof(scheme, SimConfig(trials=7, seed=9))
    expect = np.stack([ch.coeffs for ch in oracle_draws(scheme, 9, 7, False)])
    for stacks in seen.values():
        assert [len(coeffs) for coeffs in stacks] == [3, 3, 1]
        assert_bits(np.concatenate(stacks), expect)


def test_receiver_chunks_change_no_float_output(fallback_scheme5, golden_scheme4, monkeypatch,
                                                linalg_stacks):
    """Float verification one block a stack, and two, gives the bytes of the
    default chunks. A built scheme gathers nothing. On the fallback family
    only the receiver the bound cannot prove is gathered: receivers 1..4,
    certified with a core, have an exact inverse and are proven; receiver
    5, uncertified, reaches the SVD alone, and nothing takes a Cholesky."""
    for scheme in (bk.build_scheme(4), fallback_scheme5, golden_scheme4):
        m = scheme.config.block_len
        default = report_bytes(run_verification(scheme, 5, 2))
        for blocks_per_chunk in (1, 2):
            with monkeypatch.context() as patch:
                patch.setattr(biakit.exactrank, "BATCH_ELEMENTS", blocks_per_chunk * m * m)
                assert report_bytes(run_verification(scheme, 5, 2)) == default
    for shapes in linalg_stacks.values():
        shapes.clear()
    with monkeypatch.context() as patch:
        seen = record_gathers(patch)
        run_verification(bk.build_scheme(4), 5, 2)
        assert seen == {"gathers": []}
        assert linalg_stacks["cholesky"] == linalg_stacks["svd"] == []
        patch.setattr(biakit.exactrank, "BATCH_ELEMENTS", 14 * 14)
        run_verification(fallback_scheme5, 5, 2)
    assert [rx for _, rx in seen["gathers"]] == [[4]] * 5
    assert linalg_stacks["cholesky"] == []
    assert matrix_count(linalg_stacks["svd"], 14, 14) == 5
    assert all(shape[:1] == (1,) for shape in linalg_stacks["svd"])


@pytest.mark.parametrize("K,draws", [(4, 120), (8, 3), (12, 2), (20, 2)])
def test_no_stack_outgrows_the_chunk_budget(K, draws, linalg_stacks, monkeypatch):
    refuse_blocks(monkeypatch)
    scheme = bk.build_scheme(K)
    run_verification(scheme, draws, 1)
    estimate_dof(scheme, SimConfig(trials=draws, seed=1))
    # the float bound proves every built block, so verification takes no
    # Cholesky and no SVD, and builds no block (refuse_blocks); the
    # simulation inverts nothing and solves nothing, whatever the trials:
    # no stack reaches numpy's linear algebra at all
    assert linalg_stacks == NO_LINALG


@pytest.mark.parametrize("K", [4, 6])
def test_no_exact_gather_outgrows_one_block(K, monkeypatch):
    """Exact verification of the full pair products on the star pattern,
    where every receiver goes to Bareiss, at a budget of one block: every
    gather holds at most one block, and the report is unchanged."""
    scheme = product_scheme(bk.build_scheme(K))
    m = scheme.config.block_len
    default = report_bytes(run_verification(scheme, 3, 1, exact=True))
    seen = record_gathers(monkeypatch)
    monkeypatch.setattr(biakit.exactrank, "BATCH_ELEMENTS", m * m)
    assert report_bytes(run_verification(scheme, 3, 1, exact=True)) == default
    assert [len(coeffs) * len(rx) for coeffs, rx in seen["gathers"]] == [1] * (3 * K)


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
    """estimate_dof gathers no combined block."""
    def refuse(*args, **kwargs):
        raise AssertionError("estimate_dof built a combined block")
    monkeypatch.setattr(biakit.verify, "combined_blocks", refuse)
    for scheme in (scheme4, fallback_scheme5):
        estimate_dof(scheme, SimConfig(trials=3, seed=1))


def float_gathers(monkeypatch, scheme, draws, seed):
    """run_verification's float report, and the (draw, rx) pair of every
    block it gathered, in gather order."""
    with monkeypatch.context() as patch:
        seen = record_gathers(patch)
        report = run_verification(scheme, draws, seed)
    coeffs = [ch.coeffs for ch in oracle_draws(scheme, seed, draws, False)]
    return report, [pair for pairs in gathered_pairs(seen, coeffs) for pair in pairs]


def test_receivers_with_no_proven_inverse_are_always_gathered(golden_scheme4, fallback_scheme5,
                                                              monkeypatch):
    """An uncertified receiver (golden 1 and 3, fallback 5) has no inverse:
    its bound is 0, never a division by a zero norm, so it is gathered in
    every draw. Every certified one has, also where its G_j keeps a core
    (fallback 1..4, the certified pair-product schemes at K = 3 and 4), and
    none of these is gathered. Reports match the per-draw loop byte for
    byte."""
    cases = [("golden", golden_scheme4), ("fallback5", fallback_scheme5)]
    cases += certified_pair_product_schemes() + [("4", bk.build_scheme(4))]
    unproven = {"golden": [0, 2], "fallback5": [4]}
    for name, scheme in cases:
        K = scheme.config.users
        bound = float_bound(scheme)
        none = np.flatnonzero(np.isinf(bound.inverse2)).tolist()
        assert none == unproven.get(name, []), name
        assert none == [j for j in range(K) if not scheme.certified_receivers[j]], name
        coeffs = np.stack([ch.coeffs for ch in oracle_draws(scheme, 4, 4, False)])
        low2, _, _ = draw_bounds(bound, coeffs)
        assert (low2[:, none] == 0).all() and (low2 > 0).sum() == 4 * (K - len(none)), name
        report, gathered = float_gathers(monkeypatch, scheme, 4, 4)
        assert report_bytes(report) == report_bytes(oracle_report(scheme, 4, 4)), name
        assert sorted(gathered, key=lambda p: (p[1], p[0])) == [[t, j] for j in none for t in range(4)], name


def test_float_reports_match_the_svd_oracle_on_pair_product_families(golden_scheme4):
    """Float reports equal the all-SVD per-draw loop byte for byte on the
    pair-product family at K = 4..6, whose certified receivers keep a core,
    and on the golden instance, whose uncertified ones are ranked."""
    cases = [make_pattern_matrix(make_config(K)) for K in (4, 5, 6)]
    for scheme in [bk.Scheme(pattern) for pattern in cases] + [golden_scheme4]:
        report = run_verification(scheme, 6, 7)
        assert report_bytes(report) == report_bytes(oracle_report(scheme, 6, 7))


def test_float_verification_gathers_no_certified_pair_product_receiver(monkeypatch):
    """Every certified receiver of the pair-product family at K = 4..6 has
    an exact inverse, so on Gaussian draws the bound proves it and only the
    uncertified ones (receivers 5 and up) are gathered."""
    for K in (4, 5, 6):
        scheme = bk.Scheme(make_pattern_matrix(make_config(K)))
        with monkeypatch.context() as patch:
            seen = record_gathers(patch)
            run_verification(scheme, 20, 3)
        gathered = sorted({j for _, rx in seen["gathers"] for j in rx})
        assert gathered == list(range(4, K))
        assert [scheme.certified_receivers[j] for j in gathered] == [False] * (K - 4)


def test_simulation_takes_no_float_linear_algebra(fallback_scheme5, golden_scheme4, linalg_stacks):
    """estimate_dof reaches no np.linalg routine on the star family at
    K = 3..12, the fallback family and the golden instance."""
    cases = [bk.build_scheme(K) for K in range(3, 13)] + [fallback_scheme5, golden_scheme4]
    for scheme in cases:
        estimate_dof(scheme, SimConfig(trials=3, seed=4))
    assert linalg_stacks == NO_LINALG


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(widened_schemes())
def test_simulation_takes_no_float_linear_algebra_on_widened_supports(linalg_stacks, scheme):
    estimate_dof(scheme, SimConfig(trials=2, seed=4))
    assert linalg_stacks == NO_LINALG


def near_parallel_own_pair(eps):
    def edit(h):  # receiver 1's pair with 2 (0-indexed): h_12 nearly parallel to h_11
        h[1, 2] = (0.6 - 0.3j) * h[1, 1] + eps * np.array([1.0, 1j])
    return edit


def tiny_aligned(eps):
    def edit(h):  # receiver 1 takes pairs {0, 2}, {0, 3}, ... from user 0 in mode 2
        h[1, 0, 1] = eps
    return edit


def planted(monkeypatch, edit):
    """Apply edit to every float draw, of run_verification and of the
    oracle alike."""
    inner = biakit.verify.draw_channel_stack

    def draw_stack(K, rng, T):
        coeffs = inner(K, rng, T)
        for h in coeffs:
            edit(h)
        return coeffs

    def draw(K, M=2, seed=0, _inner=draw_channels):
        ch = _inner(K, M, seed=seed)
        edit(ch.coeffs)
        return ch
    monkeypatch.setattr(biakit.verify, "draw_channel_stack", draw_stack)
    monkeypatch.setitem(globals(), "draw_channels", draw)


@pytest.mark.parametrize("K", [4, 7])
@pytest.mark.parametrize("plant", [near_parallel_own_pair, tiny_aligned])
@pytest.mark.parametrize("eps", [1e-4, 1e-10, 1e-13, 1e-16, 1e-300, 0.0])
def test_float_bound_on_planted_near_singular_draws(K, plant, eps, monkeypatch):
    """A near-zero own-pair determinant or aligned coefficient at receiver
    1: the bound stays below sigma_min (`sigma_min`), clears the ratio at 1e-4
    and refuses from 1e-10 down (every draw of receiver 1 is gathered, and
    only those), and the report matches the per-draw loop byte for byte."""
    scheme = bk.build_scheme(K)
    planted(monkeypatch, plant(eps))
    coeffs = np.stack([ch.coeffs for ch in oracle_draws(scheme, 2, 3, False)])
    low2, frob2, plain = draw_bounds(float_bound(scheme), coeffs)
    low = np.sqrt(low2)
    assert (low <= sigma_min(combined_blocks(scheme.pattern, coeffs, slice(None)), low)).all()
    report, gathered = float_gathers(monkeypatch, scheme, 3, 2)
    assert report_bytes(report) == report_bytes(oracle_report(scheme, 3, 2))
    assert gathered == ([] if eps == 1e-4 else [[0, 1], [1, 1], [2, 1]])
    # an aligned coefficient of 1e-300 lies outside the range the rounding argument covers
    assert plain[:, 1].all() == (plant is near_parallel_own_pair or eps != 1e-300)


@pytest.mark.parametrize("scale", [2.0 ** -90, 2.0 ** 90, 2.0 ** -120, 2.0 ** 120, 1e-200, 1e200, 0.0])
def test_float_bound_covers_only_moduli_in_its_range(scale, monkeypatch):
    """A draw scaled by 2^+-90 is proven as at scale 1; scaled past the
    bound's range, or to zero (F = 0: the strict test refuses), it is
    gathered whole and ranked, and every check matches the per-draw SVD
    oracle on the scaled draw."""
    scheme = bk.build_scheme(5)
    ch = draw_channels(5, 2, seed=3)
    ch = ChannelSet(coeffs=ch.coeffs * scale)
    with monkeypatch.context() as patch:
        seen = record_gathers(patch)
        checks = verify_decodability(ch, scheme, draw=2)
    assert checks == oracle_checks(ch, scheme, 2)
    gathered = [j for _, rx in seen["gathers"] for j in rx]
    assert gathered == ([] if scale in (2.0 ** -90, 2.0 ** 90) else list(range(5)))
