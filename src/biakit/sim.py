"""Monte Carlo estimation of achieved sum rate and its high-SNR slope.

Decoding is zero-forcing on receiver j's square combined block
A_j = [desired | interference basis] (see verify). When A_j is
nonsingular, the zero-forcing filter W_j is the first K-1 rows of A_j^{-1}:
W_j A_j = [I | 0], so W_j y returns the desired symbols plus filtered noise
and nulls every interference column. With per-symbol power P and unit
noise, the SINR of dimension d is P / ||row d of W_j||^2. That squared row
norm equals [(G^H G)^{-1}]_dd with G the desired block projected off the
interference basis, the usual projection form of the same filter. Per-user
rate is (1/m) sum_d log2(1 + SINR_d), so the sum rate's slope against
log2(P) reads directly as sum DoF.

Exclusion is decided by proof, never by a numeric rank. Up to column
order A_j = G_j D_j, so det A_j = +-det G_j times D_j's factors (see
verify). A (trial, receiver) pair is excluded, contributing zero rate and
counted in `excluded`, when the receiver is uncertified, when the
scheme's beams are not its pattern's, or when a factor of that draw is
exactly 0: an own-pair determinant det_o = h_jj(1)h_jo(2) - h_jo(1)h_jj(2)
or a mode-2 coefficient h_ji(2), i != j (the aligned coefficients are
among these). Every other A_j is proven nonsingular. Fully certified
schemes (build_scheme, for every K) are excluded only on an exactly zero
factor, which Gaussian draws give with probability 0. The TDMA baseline
gives each user a 1/K share of every channel use at the same per-symbol
power, under the identical channel draws.

`estimate_dof` builds the scheme's receiver layout and its certificate
once (verify) and takes its trials in the same `exactrank.chunks` as
verification, at most `exactrank.BATCH_ELEMENTS` block entries each. Per
chunk, one gather gives every combined block, `verify._proven` the
exclusion rule, one batched inverse of the proven blocks the noise
enhancements (squared norms of the first K-1 rows), and the own-link
gains (T, K, m) the TDMA rate of every power. Each row is reduced alone,
in the order the one-receiver functions use, so rates are bit-identical
to them: `noise_enhancement`, `receiver_rate` and `tdma_sum_rate` are
one-draw views of these kernels, and `zf_decode`, `noise_enhancement`
and `receiver_rate` raise on an excluded receiver
(`ReceiverDecomposition.proven` is False).
SNR points must be finite and give a finite, positive power 10^(dB/10).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import CHANNEL_STREAM, ChannelSet, draw_channel_stack, stream_seed
from .dof import achieved
from .errors import UnverifiableDrawError
from .exactrank import chunks
from .formats import render_csv, render_json
from .scheme import Scheme
from .verify import ReceiverDecomposition, _proven, receiver_layout


def _zf_filters(blocks: np.ndarray, symbols: int) -> np.ndarray:
    """W for a stack of nonsingular combined blocks (N, m, m): the first
    `symbols` rows of each inverse, by one batched inverse."""
    return np.linalg.inv(blocks)[:, :symbols]


def _row_power(w: np.ndarray) -> np.ndarray:
    """Squared norm of every row of a stack of filters (..., d, m)."""
    return np.sum(w.real ** 2 + w.imag ** 2, axis=-1)


def _zf_filter(decomp: ReceiverDecomposition) -> np.ndarray:
    """W_j, the first K-1 rows of A_j^{-1}.

    Raises the unverifiable-draw error unless the certificate proves A_j
    nonsingular for this draw (the exclusion rule of the module docstring).
    """
    if not decomp.proven:
        raise UnverifiableDrawError(
            "receiver %d: combined block not proven nonsingular, cannot null interference"
            % (decomp.rx + 1))
    return _zf_filters(decomp.combined[None], decomp.desired.shape[1])[0]


def zf_decode(decomp: ReceiverDecomposition, y: np.ndarray) -> np.ndarray:
    """Recover the receiver's desired symbols from one received block: W_j y."""
    return _zf_filter(decomp) @ y


def noise_enhancement(decomp: ReceiverDecomposition) -> np.ndarray:
    """||row d of W_j||^2 for every desired dimension d: SINR_d = P / this."""
    return _row_power(_zf_filter(decomp))


def _rates(noise: np.ndarray, power: float, m: int) -> np.ndarray:
    """Bits per channel use over an m-use block at per-symbol power, one
    rate per row of noise enhancements (..., K-1)."""
    return np.sum(np.log2(1.0 + power / noise), axis=-1) / m


def receiver_rate(decomp: ReceiverDecomposition, power: float) -> float:
    """Post-zero-forcing rate of one receiver, bits per channel use."""
    return float(_rates(noise_enhancement(decomp), power, decomp.desired.shape[0]))


def _tdma_rates(coeffs: np.ndarray, tilde: np.ndarray, powers) -> np.ndarray:
    """TDMA sum rate (P, T) for every power and every draw of a stack
    coeffs (T, K, K, M): the mean of user k's log2(1 + P |h_kk|^2) over the
    m uses of its own pattern, summed over users in order, over K. Each
    mean reduces one row of a contiguous (T*K, m) array of own-link gains,
    so it adds in the same order as a one-user mean."""
    T, K, _, _ = coeffs.shape
    own = np.arange(K)[:, None]
    gains = np.ascontiguousarray(np.abs(coeffs[:, own, own, tilde.T]) ** 2).reshape(T * K, -1)
    out = np.empty((len(powers), T))
    for p, power in enumerate(powers):
        per_user = np.log2(1.0 + power * gains).mean(axis=1).reshape(T, K)
        total = np.zeros(T)
        for k in range(K):
            total += per_user[:, k]
        out[p] = total / K
    return out


def tdma_sum_rate(scheme: Scheme, ch: ChannelSet, power: float) -> float:
    """Orthogonal-access baseline on the same draw: each user k transmits
    alone in a 1/K share of the block through its own switching pattern."""
    return float(_tdma_rates(ch.coeffs[None], scheme.pattern.tilde, [power])[0, 0])


@dataclass(frozen=True)
class SimConfig:
    snr_points_db: tuple[float, ...] = (30.0, 40.0, 50.0)
    trials: int = 500
    seed: int = 0

    def __post_init__(self):
        pts = tuple(float(x) for x in self.snr_points_db)
        for x in pts:
            try:
                ok = math.isfinite(x) and 0.0 < 10.0 ** (x / 10.0) < math.inf
            except OverflowError:
                ok = False
            if not ok:
                raise ValueError("SNR point %r dB must be finite and give a finite, "
                                 "positive power 10^(dB/10)" % x)
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("snr_points_db must be strictly increasing")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        object.__setattr__(self, "snr_points_db", pts)


@dataclass(eq=False)
class SimResult:
    users: int
    snr_points_db: tuple[float, ...]
    trials: int
    seed: int
    rates: np.ndarray          # (snr, trial, rx) per-user bits/use; 0 if excluded
    tdma_rates: np.ndarray     # (snr, trial) baseline sum rate
    excluded: int              # count of (snr, trial, rx) zero-forcing failures
    fitted_slope: float = field(default=0.0)
    tdma_slope: float = field(default=0.0)

    @property
    def mean_sum_rates(self) -> np.ndarray:
        return self.rates.sum(axis=2).mean(axis=1)

    @property
    def mean_tdma_rates(self) -> np.ndarray:
        return self.tdma_rates.mean(axis=1)

    @property
    def target_dof(self) -> float:
        return float(achieved(self.users))

    @property
    def slope_deviation(self) -> float:
        return abs(self.fitted_slope - self.target_dof) / self.target_dof


def estimate_dof(scheme: Scheme, cfg: SimConfig) -> SimResult:
    """Sweep SNR points over shared per-trial channel draws and fit the
    sum-rate slope against log2(linear SNR).

    One layout and one certificate serve the run; each chunk of trials
    takes the exclusion rule (`verify._proven`), one batched inverse of
    the proven blocks and the TDMA baseline of every power at once.
    """
    if len(cfg.snr_points_db) < 2:
        raise ValueError("need at least 2 SNR points to fit a slope")
    K, m = scheme.config.users, scheme.config.block_len
    layout = receiver_layout(scheme.pattern, scheme.beams)
    certified = scheme.certified_receivers
    powers = [10.0 ** (db / 10.0) for db in cfg.snr_points_db]
    rates = np.zeros((len(powers), cfg.trials, K))
    tdma = np.zeros((len(powers), cfg.trials))
    excluded = 0
    for chunk in chunks(cfg.trials, K * m * m):
        seeds = [stream_seed(cfg.seed, CHANNEL_STREAM, t) for t in chunk]
        coeffs = draw_channel_stack(K, seeds)
        ok = _proven(certified, coeffs)
        excluded += len(powers) * int(np.count_nonzero(~ok))
        noise = _row_power(_zf_filters(layout.blocks(coeffs)[ok], K - 1))
        span = slice(chunk.start, chunk.stop)
        for p, power in enumerate(powers):
            rates[p, span][ok] = _rates(noise, power, m)
        tdma[:, span] = _tdma_rates(coeffs, scheme.pattern.tilde, powers)
    result = SimResult(
        users=K, snr_points_db=cfg.snr_points_db, trials=cfg.trials,
        seed=cfg.seed, rates=rates, tdma_rates=tdma, excluded=excluded)
    x = np.log2(powers)
    result.fitted_slope = float(np.polyfit(x, result.mean_sum_rates, 1)[0])
    result.tdma_slope = float(np.polyfit(x, result.mean_tdma_rates, 1)[0])
    return result


# ---------------------------------------------------------------------------
# emitters


def result_to_long_csv(result: SimResult) -> str:
    rows = []
    for p, db in enumerate(result.snr_points_db):
        for t in range(result.trials):
            for j in range(result.users):
                rows.append([result.users, db, t, j + 1, float(result.rates[p, t, j])])
    return render_csv(["K", "snr_db", "trial", "rx", "rate"], rows)


def result_to_summary_csv(result: SimResult) -> str:
    rows = [[result.users, db, float(result.mean_sum_rates[p])]
            for p, db in enumerate(result.snr_points_db)]
    return render_csv(["K", "snr_db", "mean_sum_rate"], rows)


def result_to_json(result: SimResult) -> str:
    return render_json({
        "K": result.users,
        "snr_points_db": list(result.snr_points_db),
        "trials": result.trials,
        "seed": result.seed,
        "mean_sum_rate": [float(x) for x in result.mean_sum_rates],
        "mean_tdma_rate": [float(x) for x in result.mean_tdma_rates],
        "fitted_slope": result.fitted_slope,
        "tdma_slope": result.tdma_slope,
        "target_dof": result.target_dof,
        "slope_deviation": result.slope_deviation,
        "excluded": result.excluded,
    })


def plot_script(summary_csv_name: str) -> str:
    """A self-contained matplotlib script that plots the summary CSV."""
    return f'''"""Plot mean sum rate against SNR from {summary_csv_name}."""
import csv

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

snr, rate = [], []
with open({summary_csv_name!r}) as fh:
    for row in csv.DictReader(fh):
        snr.append(float(row["snr_db"]))
        rate.append(float(row["mean_sum_rate"]))

fig, ax = plt.subplots(figsize=(6, 4))
ax.plot(snr, rate, "o-")
ax.set_xlabel("SNR (dB)")
ax.set_ylabel("mean sum rate (bits/channel use)")
ax.grid(True, alpha=0.3)
fig.tight_layout()
fig.savefig("sum_rate.png", dpi=150)
print("wrote sum_rate.png")
'''
