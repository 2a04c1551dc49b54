"""Channel model: per-mode coefficients, effective diagonals, transmit/receive.

Coefficients h[k][i][mode] (receiver k, transmitter i) are i.i.d. unit-variance
circularly-symmetric complex Gaussians, constant over the m channel uses of a
block. Receiver k's antenna follows its pattern column, so the link from
transmitter i acts as the diagonal matrix diag(h[k][i][modes[r][k]], r=1..m).

Seeding: every one-draw entry point takes anything numpy.random.default_rng
does: a plain int seed, a numpy.random.SeedSequence, or a Generator, whose
stream it continues. Layers that need several independent streams from one
master seed derive one stream per id with the spawn key (stream id,): 0 =
channel draws, 1 = noise, 2 = symbols, 3 = exact-mode integer channels. A
run makes one Generator per (seed, stream) and takes its trials from it in
turn, so trial t is the t-th draw of its stream, whatever the chunk size,
and a run is a prefix of a longer run with the same seed. Replaying trial t
means replaying the t draws before it: `draw_channel_stack` of the stream's
Generator, or t + 1 successive `draw_channels` on it.
"""
from __future__ import annotations

import cmath
import json
from dataclasses import dataclass

import numpy as np

from .formats import Records, is_int, render_json
from .scheme import PatternMatrix, Scheme

CHANNEL_STREAM = 0
NOISE_STREAM = 1
SYMBOL_STREAM = 2
EXACT_STREAM = 3

# numpy's default SeedSequence pool size (a constant: reading it would import
# numpy.random at import time), and the largest a replay file may ask for
_POOL_SIZE, _MAX_POOL_SIZE = 4, 1 << 20


def stream_seed(master: int, stream: int) -> np.random.SeedSequence:
    """Named independent stream of a master seed: a run's Generator for that
    stream is np.random.default_rng of it."""
    return np.random.SeedSequence(entropy=master, spawn_key=(stream,))


@dataclass(eq=False)
class ChannelSet:
    """All K*K*M block-constant coefficients of one draw."""

    coeffs: np.ndarray  # complex, shape (K, K, M); [rx, tx, mode-1]
    seed: object = None


def draw_channels(K: int, M: int = 2, seed=0) -> ChannelSet:
    """One i.i.d. CN(0,1) coefficient per (receiver, transmitter, mode)."""
    rng = np.random.default_rng(seed)
    coeffs = (rng.standard_normal((K, K, M)) + 1j * rng.standard_normal((K, K, M)))
    coeffs /= np.sqrt(2.0)
    return ChannelSet(coeffs=coeffs, seed=seed)


def draw_channel_stack(K: int, rng: np.random.Generator, T: int) -> np.ndarray:
    """The next T two-mode draws of a stream, stacked (T, K, K, 2), by one
    normal draw of shape (T, 2, K, K, 2). Normal draws are sequential, and
    each trial takes its real parts, then its imaginary parts, exactly as
    draw_channels' two draws do, with the same arithmetic: the stack is
    byte-identical to T successive draw_channels(K, 2, seed=rng)."""
    z = rng.standard_normal((T, 2, K, K, 2))
    coeffs = z[:, 0] + 1j * z[:, 1]
    coeffs /= np.sqrt(2.0)
    return coeffs


def effective_channel(ch: ChannelSet, pattern: PatternMatrix, k: int, i: int) -> np.ndarray:
    """Diagonal of the link matrix from transmitter i to receiver k.

    Entry r is h[k][i][mode], with the mode chosen by receiver k's own
    switching pattern at channel use r.
    """
    return ch.coeffs[k, i, pattern.tilde[:, k]]


@dataclass(eq=False)
class SymbolBlock:
    """One block of transmit symbols: values[i][d], plus per-symbol power."""

    values: np.ndarray  # complex, shape (K, K-1)
    power: float = 1.0


def draw_symbols(K: int, power: float = 1.0, seed=0) -> SymbolBlock:
    """Random CN(0, power) symbols for all users and dimensions."""
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((K, K - 1)) + 1j * rng.standard_normal((K, K - 1))
    s *= np.sqrt(power / 2.0)
    return SymbolBlock(values=s, power=float(power))


def transmit(scheme: Scheme, sym: SymbolBlock, i: int) -> np.ndarray:
    """User i's block signal: symbols riding their binary beamforming vectors."""
    return _signals(scheme, sym.values)[i]


def _signals(scheme: Scheme, values: np.ndarray) -> np.ndarray:
    """(K, m): user i's sum_d values[i, d] * its dimension-d vector, added in order of d."""
    pairs = scheme.dimension_pairs()
    x = np.zeros((scheme.pattern.users, scheme.pattern.block_len), dtype=complex)
    for d in range(values.shape[1]):
        x += values[:, d, None] * scheme.pattern.supports[:, pairs[:, d]].T
    return x


def receive(
    ch: ChannelSet,
    scheme: Scheme,
    sym: SymbolBlock,
    k: int,
    noise_on: bool = False,
    seed=0,
) -> np.ndarray:
    """Received block at receiver k: all users' signals through their
    effective diagonals, plus optional unit-variance complex noise. The
    pair map is read once for all K transmitters."""
    pattern = scheme.pattern
    m = pattern.block_len
    x = _signals(scheme, sym.values)
    y = np.zeros(m, dtype=complex)
    for i in range(pattern.users):
        y += effective_channel(ch, pattern, k, i) * x[i]
    if noise_on:
        rng = np.random.default_rng(seed)
        y += (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2.0)
    return y


# ---------------------------------------------------------------------------
# replay format


def channels_to_json(ch: ChannelSet) -> str:
    """Dump a draw for exact replay: one record per coefficient, 1-indexed,
    in (rx, tx, mode) order. The seed is written when it names the draw: an
    int, or a SeedSequence as its entropy and spawn key, and its pool size
    where that is not numpy's default; any other seed (a
    Generator: the draw of a run's stream, which depends on the draws
    before it) is written null, as a file loaded without a seed has."""
    rx, tx, mode = (index.reshape(-1) + 1 for index in np.indices(ch.coeffs.shape))
    flat = np.asarray(ch.coeffs, dtype=complex).reshape(-1)
    records = Records(("rx", "tx", "mode", "re", "im"), (rx, tx, mode, flat.real, flat.imag))
    seed = ch.seed
    if isinstance(seed, np.random.SeedSequence):
        record = {"entropy": seed.entropy, "spawn_key": list(seed.spawn_key)}
        if seed.pool_size != _POOL_SIZE:
            record["pool_size"] = seed.pool_size
        seed = record
    elif not is_int(seed):
        seed = None
    return render_json({"seed": seed, "coeffs": records})


def channels_from_json(text: str) -> ChannelSet:
    """Load a replay file: a JSON object whose "coeffs" list holds exactly
    one record for every (rx, tx, mode) in 1..K x 1..K x 1..M, with K and M
    the largest indices present. rx, tx and mode must be integers and re
    and im finite numbers. Otherwise ValueError names the offending record,
    by its 1-indexed position or by its indices. A "seed" record is read
    back as the seed it names (`_seed`)."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("coeffs"), list):
        raise ValueError('channel file must be a JSON object with a "coeffs" list')
    records = doc["coeffs"]
    if not records:
        raise ValueError("channel file has no coefficient records")
    keys, values = zip(*(_record(n, r) for n, r in enumerate(records, 1)))
    seen = set()
    for key in keys:
        if min(key) < 1:
            raise ValueError("channel record rx=%d tx=%d mode=%d: indices start at 1" % key)
        if key in seen:
            raise ValueError("duplicate channel record rx=%d tx=%d mode=%d" % key)
        seen.add(key)
    K = max(max(rx, tx) for rx, tx, _ in keys)
    M = max(mode for _, _, mode in keys)
    # the distinct keys number len(records), so one of the first
    # len(records) + 1 keys in order is missing unless all K*K*M are there.
    # The ranges stay lazy: one record can name an index of 10^12
    every = ((rx, tx, mode) for rx in range(1, K + 1) for tx in range(1, K + 1)
             for mode in range(1, M + 1))
    for key in every:
        if key not in seen:
            raise ValueError("missing channel record rx=%d tx=%d mode=%d" % key)
    coeffs = np.zeros((K, K, M), dtype=complex)
    for (rx, tx, mode), value in zip(keys, values):
        coeffs[rx - 1, tx - 1, mode - 1] = value
    return ChannelSet(coeffs=coeffs, seed=_seed(doc.get("seed")))


def _seed(record):
    """The seed a replay file names: null, an int >= 0, or a SeedSequence
    from its {"entropy": int or [ints], "spawn_key": [ints]} record, all
    ints >= 0, with an optional "pool_size" from numpy's default 4 to
    2^20, so the draw replays from it. Otherwise ValueError names it."""
    if record is None or (is_int(record) and record >= 0):
        return record
    if isinstance(record, dict) and {"entropy", "spawn_key"} <= set(record) <= {
            "entropy", "spawn_key", "pool_size"}:
        entropy, key = record["entropy"], record["spawn_key"]
        pool = record.get("pool_size", _POOL_SIZE)
        parts = entropy if isinstance(entropy, list) else [entropy]
        if (isinstance(key, list) and all(is_int(k) and k >= 0 for k in parts + key)
                and is_int(pool) and _POOL_SIZE <= pool <= _MAX_POOL_SIZE):
            return np.random.SeedSequence(entropy, spawn_key=key, pool_size=pool)
    raise ValueError('channel file seed must be null, an integer >= 0 or a record '
                     '{"entropy": ..., "spawn_key": [...]} of integers >= 0 with an '
                     'optional "pool_size" in 4..2^20, got %s' % json.dumps(record))


def _record(n: int, r) -> tuple[tuple[int, int, int], complex]:
    """(rx, tx, mode) and coefficient of the n-th (1-indexed) channel record."""
    try:
        key = (r["rx"], r["tx"], r["mode"])
        parts = (r["re"], r["im"])
        if all(map(is_int, key)) and all(is_int(x) or isinstance(x, float) for x in parts):
            value = complex(*parts)
            if cmath.isfinite(value):
                return key, value
    except (KeyError, TypeError, OverflowError):
        pass
    raise ValueError("channel record %d must have integer rx, tx, mode and finite numbers "
                     "re, im, got %s" % (n, json.dumps(r)))
