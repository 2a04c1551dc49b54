"""Channel draws, effective diagonals, transmit/receive, replay format."""
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biakit as bk
from biakit.channel import (
    CHANNEL_STREAM,
    EXACT_STREAM,
    NOISE_STREAM,
    SYMBOL_STREAM,
    channels_from_json,
    channels_to_json,
    draw_channel_stack,
    draw_channels,
    draw_symbols,
    effective_channel,
    receive,
    stream_seed,
    transmit,
)
from biakit.scheme import PatternMatrix

from conftest import GOLDEN_MODES_4, user_vectors


def test_draws_deterministic_and_seed_sensitive():
    a = draw_channels(3, 2, seed=42)
    b = draw_channels(3, 2, seed=42)
    c = draw_channels(3, 2, seed=43)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)
    assert a.coeffs.shape == (3, 3, 2)


def stream_draws(seed, stream, T, K=4):
    """The first T draws of one stream, one draw_channels call after another."""
    rng = np.random.default_rng(stream_seed(seed, stream))
    return np.stack([draw_channels(K, 2, seed=rng).coeffs for _ in range(T)])


def test_stream_seeds_are_independent():
    """The four streams of one seed, and one stream of two seeds, give
    different draws; a stream replays exactly, and its successive draws
    differ from one another."""
    streams = (CHANNEL_STREAM, NOISE_STREAM, SYMBOL_STREAM, EXACT_STREAM)
    assert sorted(streams) == [0, 1, 2, 3]
    draws = [stream_draws(0, stream, 2) for stream in streams] + [stream_draws(1, CHANNEL_STREAM, 2)]
    for a, b in itertools.combinations(draws, 2):
        assert not np.isin(a, b).any()
    assert not np.isin(draws[0][0], draws[0][1]).any()
    assert np.array_equal(stream_draws(0, CHANNEL_STREAM, 2), draws[0])
    assert stream_seed(3, EXACT_STREAM).spawn_key == (EXACT_STREAM,)


@pytest.mark.parametrize("K", [3, 8])
@pytest.mark.parametrize("T", [1, 5])
def test_channel_stack_equals_successive_draws(K, T):
    """T successive draw_channels on one Generator give exactly the
    coefficients of one draw_channel_stack on a fresh copy of it, and leave
    the Generator where the stack leaves it."""
    one, stack = (np.random.default_rng(stream_seed(9, CHANNEL_STREAM)) for _ in range(2))
    draws = np.stack([draw_channels(K, 2, seed=one).coeffs for _ in range(T)])
    got = draw_channel_stack(K, stack, T)
    assert got.shape == (T, K, K, 2)
    assert got.tobytes() == draws.tobytes()
    assert one.bit_generator.state == stack.bit_generator.state


def test_coefficient_statistics():
    """Unit-variance circular Gaussians: pooled moments and a per-draw band.

    The per-draw band on the sample variance of |h|^2 over the 32
    coefficients of a 4-user draw was fixed from an offline run of 1e5
    draws (observed range 0.09..7.4, so [0.05, 10.0] is loose but real).
    """
    gains = []
    for seed in range(300):
        g = np.abs(draw_channels(4, 2, seed=seed).coeffs) ** 2
        v = g.var(ddof=1)
        assert 0.05 <= v <= 10.0, seed
        gains.append(g.ravel())
    pooled = np.concatenate(gains)
    assert abs(pooled.mean() - 1.0) < 0.05
    assert abs(pooled.var(ddof=1) - 1.0) < 0.15
    # real and imaginary parts carry half the power each
    re = np.array([draw_channels(4, 2, seed=s).coeffs.real for s in range(100)])
    assert abs((re ** 2).mean() - 0.5) < 0.05


def test_effective_channel_indexing(scheme4):
    ch = draw_channels(4, 2, seed=9)
    tilde = scheme4.pattern.tilde
    for k, i in itertools.product(range(4), repeat=2):
        eff = effective_channel(ch, scheme4.pattern, k, i)
        assert np.array_equal(eff, ch.coeffs[k, i, tilde[:, k]])
        assert set(eff) <= {ch.coeffs[k, i, 0], ch.coeffs[k, i, 1]}


def test_effective_channel_golden_diagonal(golden_scheme4):
    ch = draw_channels(4, 2, seed=11)
    eff = effective_channel(ch, golden_scheme4.pattern, 0, 0)
    expect = [ch.coeffs[0, 0, mode - 1] for mode in GOLDEN_MODES_4[0]]
    assert np.array_equal(eff, np.array(expect))


def test_constant_column_uses_single_mode():
    tilde = np.ones((5, 3), dtype=np.int64)
    tilde[:, 1] = 0
    pattern = PatternMatrix(tilde)
    ch = draw_channels(3, 2, seed=1)
    eff = effective_channel(ch, pattern, 1, 2)
    assert np.array_equal(eff, np.full(5, ch.coeffs[1, 2, 0]))


def test_transmit_basis_and_linearity(scheme4):
    zeros = bk.SymbolBlock(values=np.zeros((4, 3), dtype=complex))
    assert np.array_equal(transmit(scheme4, zeros, 2), np.zeros(9))
    one_hot = bk.SymbolBlock(values=np.zeros((4, 3), dtype=complex))
    one_hot.values[1, 2] = 1.0
    assert np.array_equal(transmit(scheme4, one_hot, 1),
                          user_vectors(scheme4, 1)[2].astype(complex))
    s1 = draw_symbols(4, power=1.0, seed=5)
    s2 = draw_symbols(4, power=1.0, seed=6)
    both = bk.SymbolBlock(values=s1.values + s2.values)
    for i in range(4):
        lhs = transmit(scheme4, both, i)
        rhs = transmit(scheme4, s1, i) + transmit(scheme4, s2, i)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=0)


def test_receive_superposition(scheme4):
    ch = draw_channels(4, 2, seed=3)
    s1 = draw_symbols(4, power=2.0, seed=5)
    s2 = draw_symbols(4, power=2.0, seed=6)
    both = bk.SymbolBlock(values=s1.values + s2.values)
    for k in range(4):
        lhs = receive(ch, scheme4, both, k)
        rhs = receive(ch, scheme4, s1, k) + receive(ch, scheme4, s2, k)
        assert np.linalg.norm(lhs - rhs) < 1e-12 * np.linalg.norm(lhs)


def test_receive_single_symbol(scheme3):
    sym = bk.SymbolBlock(values=np.zeros((3, 2), dtype=complex))
    sym.values[2, 1] = 1.0
    ch = draw_channels(3, 2, seed=8)
    y = receive(ch, scheme3, sym, 0)
    expect = effective_channel(ch, scheme3.pattern, 0, 2) * user_vectors(scheme3, 2)[1]
    assert np.array_equal(y, expect)


def test_noise_reproducible_and_nonzero(scheme3):
    ch = draw_channels(3, 2, seed=2)
    sym = draw_symbols(3, power=1.0, seed=4)
    clean = receive(ch, scheme3, sym, 1)
    n1 = receive(ch, scheme3, sym, 1, noise_on=True, seed=7)
    n2 = receive(ch, scheme3, sym, 1, noise_on=True, seed=7)
    n3 = receive(ch, scheme3, sym, 1, noise_on=True, seed=8)
    assert np.array_equal(n1, n2)
    assert not np.array_equal(n1, clean)
    assert not np.array_equal(n1, n3)


@pytest.mark.parametrize("K", [3, 4, 5])
def test_shared_support_sees_one_coefficient(K):
    scheme = bk.build_scheme(K)
    ch = draw_channels(K, 2, seed=13)
    for (i, j), v in zip(itertools.combinations(range(K), 2), scheme.pattern.supports.T):
        for w in range(K):
            if w in (i, j):
                continue
            # the whole support sits in mode 2, so the scaling is one scalar
            lhs = effective_channel(ch, scheme.pattern, w, i) * v
            assert np.array_equal(lhs, ch.coeffs[w, i, 1] * v)


def test_channel_json_roundtrip():
    ch = draw_channels(3, 2, seed=21)
    text = channels_to_json(ch)
    doc = json.loads(text)
    assert doc["seed"] == 21
    assert len(doc["coeffs"]) == 18
    back = channels_from_json(text)
    assert np.array_equal(back.coeffs, ch.coeffs)


def test_channel_json_records_spawned_seeds():
    ch = draw_channels(3, 2, seed=stream_seed(5, EXACT_STREAM))
    doc = json.loads(channels_to_json(ch))
    assert doc["seed"] == {"entropy": 5, "spawn_key": [EXACT_STREAM]}


def test_channel_json_replays_a_stream_draw():
    """A draw taken from a run's stream has a Generator for its seed, which
    names no draw: its file says "seed": null, as a file loaded without a
    seed does, and replays the coefficients exactly."""
    rng = np.random.default_rng(1)
    draw_channels(3, 2, seed=rng)
    ch = draw_channels(3, 2, seed=rng)
    text = channels_to_json(ch)
    assert json.loads(text)["seed"] is None
    back = channels_from_json(text)
    assert back.seed is None and back.coeffs.tobytes() == ch.coeffs.tobytes()
    assert channels_to_json(back) == text


@pytest.mark.parametrize("corrupt, message", [
    (lambda coeffs: coeffs.pop(3), "missing channel record rx=1 tx=2 mode=2"),
    (lambda coeffs: coeffs.append(dict(coeffs[3], re=0.5)),
     "duplicate channel record rx=1 tx=2 mode=2"),
    (lambda coeffs: coeffs[0].update(rx=0), "channel record rx=0 tx=1 mode=1"),
    # one record naming receiver 10^7: no (10^7, 10^7, 2) array can be allocated
    (lambda coeffs: coeffs.__setitem__(slice(None), [dict(coeffs[0], rx=10 ** 7)]),
     "missing channel record rx=1 tx=1 mode=1"),
    # the search for a missing record allocates nothing in K or M
    (lambda coeffs: coeffs.__setitem__(slice(None), [dict(coeffs[0], rx=10 ** 12)]),
     "missing channel record rx=1 tx=1 mode=1"),
    (lambda coeffs: coeffs.__setitem__(slice(None), [dict(coeffs[0], mode=10 ** 12)]),
     "missing channel record rx=1 tx=1 mode=1"),
], ids=["missing", "duplicate", "rx-zero", "huge-rx", "rx-10^12", "mode-10^12"])
def test_channel_json_rejects_malformed_records(corrupt, message):
    doc = json.loads(channels_to_json(draw_channels(3, 2, seed=21)))
    corrupt(doc["coeffs"])
    with pytest.raises(ValueError, match=message):
        channels_from_json(json.dumps(doc))


@pytest.mark.parametrize("corrupt, n", [
    (lambda coeffs: coeffs[3].pop("re"), 4),
    (lambda coeffs: coeffs[0].pop("mode"), 1),
    (lambda coeffs: coeffs[1].update(rx=1.5), 2),
    (lambda coeffs: coeffs[2].update(tx=True), 3),
    (lambda coeffs: coeffs[4].update(re="nan"), 5),
    (lambda coeffs: coeffs[5].update(im=float("nan")), 6),
    (lambda coeffs: coeffs[6].update(re=float("inf")), 7),
    (lambda coeffs: coeffs[7].update(im=None), 8),
    (lambda coeffs: coeffs.__setitem__(8, [1, 1, 1]), 9),
], ids=["no-re", "no-mode", "rx-float", "tx-bool", "re-string", "im-nan", "re-inf", "im-null",
        "record-not-an-object"])
def test_channel_json_names_malformed_records_by_position(corrupt, n):
    doc = json.loads(channels_to_json(draw_channels(3, 2, seed=21)))
    corrupt(doc["coeffs"])
    with pytest.raises(ValueError, match="channel record %d must have" % n):
        channels_from_json(json.dumps(doc))


@pytest.mark.parametrize("doc", [{"seed": 21}, [], {"coeffs": {}}],
                         ids=["no-coeffs", "not-an-object", "coeffs-not-a-list"])
def test_channel_json_needs_a_coeffs_list(doc):
    with pytest.raises(ValueError, match='must be a JSON object with a "coeffs" list'):
        channels_from_json(json.dumps(doc))


def test_channel_json_takes_integral_parts():
    doc = json.loads(channels_to_json(draw_channels(3, 2, seed=21)))
    doc["coeffs"][0].update(re=2, im=-1)
    assert channels_from_json(json.dumps(doc)).coeffs[0, 0, 0] == 2 - 1j


seeds = st.one_of(
    st.integers(0, 2 ** 64),
    st.builds(stream_seed, st.integers(0, 2 ** 32),
              st.sampled_from([CHANNEL_STREAM, NOISE_STREAM, SYMBOL_STREAM, EXACT_STREAM])))


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 7), seeds)
def test_channel_json_roundtrip_is_exact(K, seed):
    ch = draw_channels(K, seed=seed)
    text = channels_to_json(ch)
    back = channels_from_json(text)
    assert back.coeffs.shape == ch.coeffs.shape
    assert back.coeffs.tobytes() == ch.coeffs.tobytes()
    assert channels_to_json(back) == text
