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

A receiver whose combined block is rank deficient (numeric rank of A_j
below m) cannot zero-force all its symbols; such (trial, receiver) pairs
contribute zero rate and are counted in `excluded`. Fully certified
schemes (build_scheme, for every K) never hit this path. The TDMA baseline
gives each user a 1/K share of every channel use at the same per-symbol
power, under the identical channel draws.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import CHANNEL_STREAM, ChannelSet, draw_channels, effective_channel, stream_seed
from .dof import achieved
from .errors import UnverifiableDrawError
from .formats import render_csv, render_json
from .scheme import Scheme
from .verify import ReceiverDecomposition, decompose_receiver


def _zf_filter(decomp: ReceiverDecomposition) -> np.ndarray:
    """W_j, the first K-1 rows of A_j^{-1}.

    Raises the unverifiable-draw error when A_j is rank deficient (desired
    and interference spaces overlap, so some desired dimension is
    unrecoverable by any linear nulling).
    """
    m = decomp.desired.shape[0]
    if decomp.rank_combined < m:
        raise UnverifiableDrawError(
            "receiver %d: combined rank %d < %d, cannot null interference"
            % (decomp.rx + 1, decomp.rank_combined, m))
    return np.linalg.inv(decomp.combined)[:decomp.desired.shape[1]]


def zf_decode(decomp: ReceiverDecomposition, y: np.ndarray) -> np.ndarray:
    """Recover the receiver's desired symbols from one received block: W_j y."""
    return _zf_filter(decomp) @ y


def noise_enhancement(decomp: ReceiverDecomposition) -> np.ndarray:
    """||row d of W_j||^2 for every desired dimension d: SINR_d = P / this."""
    w = _zf_filter(decomp)
    return np.sum(w.real ** 2 + w.imag ** 2, axis=1)


def _rate(inv_diag: np.ndarray, power: float, m: int) -> float:
    """Bits per channel use over an m-use block at per-symbol power."""
    sinr = power / inv_diag
    return float(np.sum(np.log2(1.0 + sinr)) / m)


def receiver_rate(decomp: ReceiverDecomposition, power: float) -> float:
    """Post-zero-forcing rate of one receiver, bits per channel use."""
    return _rate(noise_enhancement(decomp), power, decomp.desired.shape[0])


def tdma_sum_rate(scheme: Scheme, ch: ChannelSet, power: float) -> float:
    """Orthogonal-access baseline on the same draw: each user k transmits
    alone in a 1/K share of the block through its own switching pattern."""
    K = scheme.config.users
    total = 0.0
    for k in range(K):
        gains = np.abs(effective_channel(ch, scheme.pattern, k, k)) ** 2
        total += float(np.mean(np.log2(1.0 + power * gains)))
    return total / K


@dataclass(frozen=True)
class SimConfig:
    users: int
    snr_points_db: tuple[float, ...] = (30.0, 40.0, 50.0)
    trials: int = 500
    seed: int = 0

    def __post_init__(self):
        pts = tuple(float(x) for x in self.snr_points_db)
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
    sum-rate slope against log2(linear SNR)."""
    if len(cfg.snr_points_db) < 2:
        raise ValueError("need at least 2 SNR points to fit a slope")
    K = scheme.config.users
    powers = [10.0 ** (db / 10.0) for db in cfg.snr_points_db]
    rates = np.zeros((len(powers), cfg.trials, K))
    tdma = np.zeros((len(powers), cfg.trials))
    excluded = 0
    for t in range(cfg.trials):
        ch = draw_channels(K, scheme.config.mode_count,
                           seed=stream_seed(cfg.seed, CHANNEL_STREAM, t))
        for j in range(K):
            dec = decompose_receiver(ch, scheme.pattern, scheme.beams, j)
            try:
                inv_diag = noise_enhancement(dec)
            except UnverifiableDrawError:
                excluded += len(powers)
                continue
            for p, power in enumerate(powers):
                rates[p, t, j] = _rate(inv_diag, power, dec.desired.shape[0])
        for p, power in enumerate(powers):
            tdma[p, t] = tdma_sum_rate(scheme, ch, power)
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
