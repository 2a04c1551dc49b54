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
    return _signal(scheme.pattern.supports, scheme.dimension_columns()[i], sym.values[i])


def _signal(supports: np.ndarray, columns: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_d values[d] * supports[:, columns[d]], added in dimension order."""
    x = np.zeros(supports.shape[0], dtype=complex)
    for value, c in zip(values, columns):
        x += value * supports[:, c]
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
    columns = scheme.dimension_columns()
    y = np.zeros(m, dtype=complex)
    for i in range(pattern.users):
        y += effective_channel(ch, pattern, k, i) * _signal(pattern.supports, columns[i], sym.values[i])
    if noise_on:
        rng = np.random.default_rng(seed)
        y += (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2.0)
    return y


# ---------------------------------------------------------------------------
# replay format


def channels_to_json(ch: ChannelSet) -> str:
    """Dump a draw for exact replay: one record per coefficient, 1-indexed,
    in (rx, tx, mode) order. The seed is written when it names the draw: an
    int, a SeedSequence as its entropy and spawn key, or such a record read
    from a replay file; any other seed (a Generator: the draw of a run's
    stream, which depends on the draws before it) is written null, as a
    file loaded without a seed has."""
    rx, tx, mode = (index.reshape(-1) + 1 for index in np.indices(ch.coeffs.shape))
    flat = np.asarray(ch.coeffs, dtype=complex).reshape(-1)
    records = Records(("rx", "tx", "mode", "re", "im"), (rx, tx, mode, flat.real, flat.imag))
    seed = ch.seed
    if isinstance(seed, np.random.SeedSequence):
        seed = {"entropy": seed.entropy, "spawn_key": list(seed.spawn_key)}
    elif not (is_int(seed) or isinstance(seed, dict)):
        seed = None
    return render_json({"seed": seed, "coeffs": records})


def channels_from_json(text: str) -> ChannelSet:
    """Load a replay file: a JSON object whose "coeffs" list holds exactly
    one record for every (rx, tx, mode) in 1..K x 1..K x 1..M, with K and M
    the largest indices present. rx, tx and mode must be integers and re
    and im finite numbers. Otherwise ValueError names the offending record,
    by its 1-indexed position or by its indices."""
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
    return ChannelSet(coeffs=coeffs, seed=doc.get("seed"))


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
