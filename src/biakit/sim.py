"""Monte Carlo estimation of achieved sum rate and its high-SNR slope.

Decoding is zero-forcing on receiver j's square combined block
A_j = [desired | interference basis] (see verify). When A_j is
nonsingular, the zero-forcing filter W_j is the first K-1 rows of A_j^{-1}:
W_j A_j = [I | 0], so W_j y returns the desired symbols plus filtered noise
and nulls every interference column. With per-symbol power P and unit
noise, the SINR of dimension d is P / ||row d of W_j||^2, the noise
enhancement [(H^H H)^{-1}]_dd of the projection form of the same filter.
Per-user rate is (1/m) sum_d log2(1 + SINR_d), so the sum rate's slope
against log2(P) reads directly as sum DoF.

Exclusion is decided by proof, never by a numeric rank. Column for
column A_j = G_j D_j, so det A_j = +-det G_j times D_j's factors (see
verify). A (trial, receiver) pair is excluded, contributing zero rate and
counted in `excluded`, when the receiver is uncertified or when a factor
of that draw is exactly 0: an own-pair determinant
det_o = h_jj(1)h_jo(2) - h_jo(1)h_jj(2) or a mode-2 coefficient h_ji(2),
i != j (the aligned coefficients are among these). Every other A_j is
proven nonsingular. Fully certified schemes (build_scheme, for every K)
are excluded only on an exactly zero factor, which Gaussian draws give
with probability 0. The TDMA baseline gives each user a 1/K share of
every channel use at the same per-symbol power, under the identical
channel draws.

The same factorisation puts the noise enhancement in closed form, so
`estimate_dof` builds no block and takes no inverse per trial.
A_j^{-1} = D_j^{-1} G_j^{-1}, and the desired rows touch only the own
2x2 blocks of D_j, so the row of own pair {j, o}'s column is
(h_jo(2) l_o - h_jo(1) u_o) / det_o, with l_o and u_o the rows of
G_j^{-1} of the pair's mode-1 and mode-2 halves. Its squared norm is
N = (a |h_jo(2)|^2 + b |h_jo(1)|^2) / |det_o|^2 with the channel-free
weights a = ||l_o||^2 and b = ||u_o||^2 (`zf_weights`, once per run, read
exactly off the proven integer inverse X = d G_j^-1, which
`scheme.generator_inverses` takes by continuing the singleton peel of the
pattern's certificate: no float solve, and no G_j built or peeled twice);
the cross term <l_o, u_o> is 0 for every aligned scheme. Only the one-draw
views take float linear algebra (`_zf_filter`'s inverse). Trial t is the
t-th draw of the seed's channel stream, the one float verification reads.
Per chunk of trials (`exactrank.chunks`) the run takes the next draws in
one `draw_channel_stack`, `verify._proven`, the own-pair determinants, one
weighted sum and the TDMA rate of every power; the chunk size changes no
output, and a run is a prefix of a longer one with the same seed. Rates
agree with the one-draw views `noise_enhancement` and `receiver_rate`,
which keep A_j^{-1} (and, as `zf_decode`, raise on an excluded receiver),
within 1e-10 relative. `SimResult` stores the rates; its means and fitted
slopes are derived from them, each once per emit.
SNR points must be finite and give a finite, positive power 10^(dB/10).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CHANNEL_STREAM, ChannelSet, draw_channel_stack, stream_seed
from .dof import achieved
from .errors import UnverifiableDrawError
from .exactrank import chunks
from .formats import format_float, is_int, render_csv, render_json
from .scheme import Scheme, generator_inverses, receiver_columns
from .verify import ReceiverDecomposition, _abs2, _proven, own_pair_dets


def _zf_filter(decomp: ReceiverDecomposition) -> np.ndarray:
    """W_j, the first K-1 rows of A_j^{-1}.

    Raises the unverifiable-draw error unless the certificate proves A_j
    nonsingular for this draw (the exclusion rule of the module docstring).
    """
    if not decomp.proven:
        raise UnverifiableDrawError(
            "receiver %d: combined block not proven nonsingular, cannot null interference"
            % (decomp.rx + 1))
    return np.linalg.inv(decomp.combined)[:decomp.desired.shape[1]]


def zf_decode(decomp: ReceiverDecomposition, y: np.ndarray) -> np.ndarray:
    """Recover the receiver's desired symbols from one received block: W_j y."""
    return _zf_filter(decomp) @ y


def noise_enhancement(decomp: ReceiverDecomposition) -> np.ndarray:
    """||row d of W_j||^2 for every desired dimension d: SINR_d = P / this."""
    return np.sum(_abs2(_zf_filter(decomp)), axis=-1)


def _rates(noise: np.ndarray, power: float, m: int) -> np.ndarray:
    """Bits per channel use over an m-use block at per-symbol power, one
    rate per row of noise enhancements (..., K-1)."""
    return np.sum(np.log2(1.0 + power / noise), axis=-1) / m


def receiver_rate(decomp: ReceiverDecomposition, power: float) -> float:
    """Post-zero-forcing rate of one receiver, bits per channel use."""
    return float(_rates(noise_enhancement(decomp), power, decomp.desired.shape[0]))


def zf_weights(scheme: Scheme) -> np.ndarray:
    """(a, b) = (||l||^2, ||u||^2), (K, K, 2) indexed [j, o]: the squared
    norms of the rows l and u of G_j^-1 of own pair {j, o}'s mode-1 and
    mode-2 halves (`scheme.receiver_columns`), exact sums of squares of the
    rows of X = d G_j^-1 (`scheme.generator_inverses`) over d^2; zero at
    o = j and where G_j has no proven inverse (an uncertified receiver).
    No cross term <l, u> is needed: a pair without j lies inside its pair
    product, where t_j = 1, so G_j is block diagonal over j's two modes
    (as in star_pattern_matrix) and l and u have disjoint supports."""
    K, m = scheme.config.users, scheme.config.block_len
    index, values, scale, ok = generator_inverses(scheme.pattern)
    # ||row c of X||^2 of every receiver j, (K, m)
    squares = np.bincount(index // m, weights=values.astype(float) ** 2, minlength=K * m).reshape(K, m)
    own = receiver_columns(K)[1][:, :K - 1]  # [j, n]: the pair of j and its n-th partner
    low, high = np.take_along_axis(squares, K - 1 + own, axis=1), squares[:, :K - 1]
    weights = np.stack([low, high], axis=-1) / scale[:, None, None] ** 2.0
    weights[~ok] = 0.0
    out = np.zeros((K, K, 2))
    out[~np.eye(K, dtype=bool)] = weights.reshape(-1, 2)  # partners o != j, increasing
    return out


def _tdma_rates(coeffs: np.ndarray, tilde: np.ndarray, powers) -> np.ndarray:
    """TDMA sum rate (P, T) for every power and every draw of a stack
    coeffs (T, K, K, M): the mean of user k's log2(1 + P |h_kk|^2) over the
    m uses of its own pattern, summed over users in order, over K. The logs
    of every power are taken in one broadcast, in place, and each mean
    reduces one row of a contiguous (P, T*K, m) array, as a one-user mean."""
    T, K, _, _ = coeffs.shape
    own = np.arange(K)[:, None]
    gains = np.ascontiguousarray(np.abs(coeffs[:, own, own, tilde.T]) ** 2).reshape(T * K, -1)
    logs = np.asarray(powers, dtype=float)[:, None, None] * gains
    logs += 1.0
    per_user = np.log2(logs, out=logs).mean(axis=2).reshape(len(powers), T, K)
    return sum(per_user.transpose(2, 0, 1)) / K  # Python's sum: user after user


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
        if not is_int(self.trials) or self.trials < 1:
            raise ValueError("trials must be an integer >= 1, got %r" % (self.trials,))
        if not is_int(self.seed) or self.seed < 0:
            raise ValueError("seed must be an integer >= 0, got %r" % (self.seed,))
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

    @property
    def mean_sum_rates(self) -> np.ndarray:
        return self.rates.sum(axis=2).mean(axis=1)

    @property
    def mean_tdma_rates(self) -> np.ndarray:
        return self.tdma_rates.mean(axis=1)

    def _slope(self, mean_rates: np.ndarray) -> float:
        """Least-squares slope of mean rates against log2 of the linear SNR."""
        x = np.log2([10.0 ** (db / 10.0) for db in self.snr_points_db])
        return float(np.polyfit(x, mean_rates, 1)[0])

    @property
    def fitted_slope(self) -> float:
        return self._slope(self.mean_sum_rates)

    @property
    def tdma_slope(self) -> float:
        return self._slope(self.mean_tdma_rates)

    @property
    def target_dof(self) -> float:
        return float(achieved(self.users))

    @property
    def slope_deviation(self) -> float:
        return _deviation(self.fitted_slope, self.target_dof)


def _deviation(slope: float, target: float) -> float:
    return abs(slope - target) / target  # the slope's relative miss


def estimate_dof(scheme: Scheme, cfg: SimConfig) -> SimResult:
    """Sweep SNR points over shared channel draws, trial t the t-th draw of
    the seed's channel stream, and fit the sum-rate slope against log2
    (linear SNR).

    The weights of every own pair (`zf_weights`), partners in increasing
    order (`scheme.receiver_columns`), serve the run; each chunk of trials
    takes the exclusion rule (`verify._proven`), the own-pair determinants
    and one weighted sum for the noise enhancements, and the TDMA baseline
    of every power at once. No combined block is built.
    """
    if len(cfg.snr_points_db) < 2:
        raise ValueError("need at least 2 SNR points to fit a slope")
    K, m = scheme.config.users, scheme.config.block_len
    src, col = receiver_columns(K)
    rx = np.arange(K)[:, None]
    partner = src[rx, K - 1 + col[:, :K - 1]]  # j's partners, increasing; a, b: (K, K-1) each
    a, b = np.moveaxis(zf_weights(scheme)[rx, partner], -1, 0)
    certified = scheme.certified_receivers
    powers = [10.0 ** (db / 10.0) for db in cfg.snr_points_db]
    rates = np.zeros((len(powers), cfg.trials, K))
    tdma = np.zeros((len(powers), cfg.trials))
    excluded = 0
    rng = np.random.default_rng(stream_seed(cfg.seed, CHANNEL_STREAM))
    for chunk in chunks(cfg.trials, K * K * 2):
        coeffs = draw_channel_stack(K, rng, len(chunk))
        ok = _proven(certified, coeffs)
        excluded += len(powers) * int(np.count_nonzero(~ok))
        # h_jo and det_o of every proven receiver's own pairs, (N, K-1, 2) and (N, K-1)
        h = coeffs[:, rx, partner][ok]
        det = own_pair_dets(coeffs)[:, rx, partner][ok]
        j = np.nonzero(ok)[1]
        noise = (a[j] * _abs2(h[..., 1]) + b[j] * _abs2(h[..., 0])) / _abs2(det)
        span = slice(chunk.start, chunk.stop)
        for p, power in enumerate(powers):
            rates[p, span][ok] = _rates(noise, power, m)
        tdma[:, span] = _tdma_rates(coeffs, scheme.pattern.tilde, powers)
    return SimResult(
        users=K, snr_points_db=cfg.snr_points_db, trials=cfg.trials,
        seed=cfg.seed, rates=rates, tdma_rates=tdma, excluded=excluded)


# ---------------------------------------------------------------------------
# emitters


def result_to_long_csv(result: SimResult) -> str:
    P, T, K = result.rates.shape
    # each SNR point's text once, not once a row; render_csv checks the rates
    snr = [format_float(x) for x in result.snr_points_db]
    return render_csv(["K", "snr_db", "trial", "rx", "rate"], [
        np.full(P * T * K, K),
        [text for text in snr for _ in range(T * K)],
        np.tile(np.repeat(np.arange(T), K), P),
        np.tile(np.arange(1, K + 1), P * T),
        result.rates.reshape(-1)])


def result_to_summary_csv(result: SimResult) -> str:
    P = len(result.snr_points_db)
    return render_csv(["K", "snr_db", "mean_sum_rate"], [
        np.full(P, result.users), np.array(result.snr_points_db), result.mean_sum_rates])


def result_to_json(result: SimResult) -> str:
    """The run's summary: every derived value computed once, from rates."""
    sums, tdma = result.mean_sum_rates, result.mean_tdma_rates
    slope, target = result._slope(sums), result.target_dof
    return render_json({
        "K": result.users,
        "snr_points_db": list(result.snr_points_db),
        "trials": result.trials,
        "seed": result.seed,
        "mean_sum_rate": [float(x) for x in sums],
        "mean_tdma_rate": [float(x) for x in tdma],
        "fitted_slope": slope,
        "tdma_slope": result._slope(tdma),
        "target_dof": target,
        "slope_deviation": _deviation(slope, target),
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
