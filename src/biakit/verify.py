"""Per-receiver decodability verification and dimension-counting checks.

At receiver j the desired block stacks the K-1 own-channel columns. The
(K-1)^2 cross-channel interference columns come in exactly-colinear pairs:
both owners of a shared vector reach any third receiver through the same
binary vector, scaled by their own mode-2 coefficients. Merging each
colinear pair leaves a K(K-1)/2-column basis. Together the two blocks form
the square m x m combined block A_j = [desired | interference basis],
m = (K-1) + K(K-1)/2. Decodability of the draw means rank_desired = K-1,
rank_interference = K(K-1)/2 and rank_combined = m (desired space disjoint
from interference).

`receiver_blocks` is the one place that turns a channel draw into these
columns; float verification, exact verification and the simulator all use
it. Every verdict is read off A_j by one rule: a receiver whose A_j has
rank m reports the expected ranks without further work, and only the
others are ranked block by block. Full rank of A_j gives full column rank
to the desired and interference blocks, which are column subsets of it.
The two modes differ only in how ranks are taken:

- float: `rank_of` (SVD) over Gaussian draws, fast and statistical. The
  rule agrees with ranking every block: a column subset D of A has
  sigma_min(D) >= sigma_min(A) and sigma_max(D) <= sigma_max(A), so
  whenever the cut max(shape) * eps * sigma_max lies below sigma_min(A)
  it lies below sigma_min(D) too.
- exact: certification grade, over Gaussian-integer draws. A_j has rank m
  when it is nonsingular modulo a prime under Z[i] -> F_p (i -> a square
  root of -1 mod p), since then its determinant is nonzero over Z[i].
  A block this does not prove (in practice one the scheme leaves
  uncertified, as the pair-product reference family does for K >= 5;
  build_scheme leaves none) is ranked by `exactrank.gaussian_rank`,
  which realifies each Z[i] matrix onto the fraction-free integer kernel.

The channel-free certificate that powers construction lives in
scheme.certify_receivers.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channel import EXACT_STREAM, CHANNEL_STREAM, ChannelSet, draw_channels, stream_seed
from .exactrank import gaussian_rank, nonsingular_mod_p
from .formats import render_csv, render_json
from .scheme import BeamSet, PatternMatrix, Scheme, SchemeConfig, make_config


def rank_of(matrix: np.ndarray) -> int:
    """Numeric rank: singular values above max(rows, cols) * eps * largest."""
    a = np.asarray(matrix)
    if not np.isfinite(a).all():
        raise ValueError("non-finite entries")
    if a.size == 0:
        return 0
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    cut = max(a.shape) * np.finfo(float).eps * sv[0]
    return int(np.count_nonzero(sv > cut))


def receiver_blocks(
    ch: ChannelSet, pattern: PatternMatrix, beams: BeamSet, j: int
) -> tuple[np.ndarray, np.ndarray]:
    """Receiver j's desired block (m x (K-1)) and merged interference
    basis (m x K(K-1)/2) for one channel draw.

    Row r of every column carries the coefficient of receiver j's mode at
    channel use r. Colinear interference pairs are merged structurally
    from the pair map (alignment is exact by construction, so no numeric
    colinearity detection is involved): the column of pair {a, b}, in
    lexicographic pair order, is its shared vector scaled by the link from
    the lower-numbered owner, or from the other owner when j is in the pair.
    """
    K = pattern.users
    eff = ch.coeffs[j][:, pattern.tilde[:, j]]  # eff[i]: diagonal from transmitter i
    pairs = list(itertools.combinations(range(K), 2))
    src = [b if j == a else a for a, b in pairs]
    shared = np.column_stack([beams.shared_vector(a, b) for a, b in pairs])
    desired = eff[j][:, None] * np.column_stack(beams.vectors[j])
    return desired, eff[src].T * shared


@dataclass(eq=False)
class ReceiverDecomposition:
    """Desired and interference column blocks at one receiver, and the
    numeric rank of the combined block A_j they form."""

    rx: int
    desired: np.ndarray            # m x (K-1)
    interference_basis: np.ndarray  # m x K(K-1)/2 after merging colinear pairs
    rank_combined: int

    @property
    def combined(self) -> np.ndarray:
        """A_j = [desired | interference_basis], m x m."""
        return np.hstack([self.desired, self.interference_basis])


def decompose_receiver(
    ch: ChannelSet, pattern: PatternMatrix, beams: BeamSet, j: int
) -> ReceiverDecomposition:
    """Build receiver j's column blocks and the numeric rank of both together."""
    desired, basis = receiver_blocks(ch, pattern, beams, j)
    return ReceiverDecomposition(
        rx=j,
        desired=desired,
        interference_basis=basis,
        rank_combined=rank_of(np.hstack([desired, basis])),
    )


def expected_ranks(config: SchemeConfig) -> tuple[int, int, int]:
    return (config.symbols_per_user, config.pair_count, config.block_len)


@dataclass(frozen=True)
class ReceiverCheck:
    """Rank outcome for one (draw, receiver) pair."""

    draw: int
    rx: int
    rank_desired: int
    rank_interference: int
    rank_combined: int
    passed: bool


def _receiver_checks(blocks, rank_combined, rank, draw: int) -> list[ReceiverCheck]:
    """The one rank rule, over every receiver's square combined block.

    rank_combined[j] is the rank of blocks[j]. A full one proves the
    expected ranks; otherwise `rank` ranks the desired and interference
    column blocks.
    """
    K = len(blocks)
    full = expected_ranks(make_config(K))
    out = []
    for j, (a, rc) in enumerate(zip(blocks, rank_combined)):
        ranks = full if rc == full[2] else (rank(a[:, :K - 1]), rank(a[:, K - 1:]), rc)
        out.append(ReceiverCheck(draw, j + 1, *ranks, passed=ranks == full))
    return out


def verify_decodability(
    ch: ChannelSet, pattern: PatternMatrix, beams: BeamSet, draw: int = 0
) -> list[ReceiverCheck]:
    """Check the three rank conditions at every receiver for one draw, with
    one SVD per receiver whose combined block has full numeric rank.

    Failures are reported, never raised; callers decide severity.
    """
    blocks = [np.hstack(receiver_blocks(ch, pattern, beams, j)) for j in range(pattern.users)]
    return _receiver_checks(blocks, [rank_of(a) for a in blocks], rank_of, draw)


def _exact_channel_ints(K: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian-integer channel draw for certification runs; entries are
    nonzero integers in [-999, 999] + i[-999, 999]."""
    coeffs = rng.integers(-999, 1000, size=(K, K, 2, 2))
    while True:
        dead = (coeffs[..., 0] == 0) & (coeffs[..., 1] == 0)
        if not dead.any():
            return coeffs
        coeffs[dead] = rng.integers(-999, 1000, size=(int(dead.sum()), 2))


def _exact_rank(block: np.ndarray) -> int:
    """gaussian_rank of a complex block with exact Gaussian-integer entries."""
    return gaussian_rank(np.stack([block.real, block.imag], axis=-1).astype(np.int64).tolist())


def verify_decodability_exact(
    pattern: PatternMatrix, beams: BeamSet, seed=0, draw: int = 0
) -> list[ReceiverCheck]:
    """Same three conditions with exact arithmetic: channels are random
    Gaussian integers and every rank is proven, so there is no floating
    tolerance anywhere.

    The draw goes through the same column builder as the float path. Its
    parts are integers of magnitude at most 999 and the beamforming
    vectors are 0/1, so every column entry is exact in complex floating
    point and converts back to integers without loss. The K square
    combined blocks go to `exactrank.nonsingular_mod_p` as one stack; a
    block nonsingular modulo the prime has rank m. Every other block is
    ranked by `gaussian_rank`, and so are its desired and interference
    blocks when that rank is short.
    """
    K = pattern.users
    rng = np.random.default_rng(
        seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed))
    h = _exact_channel_ints(K, rng)
    ch = ChannelSet(coeffs=h[..., 0] + 1j * h[..., 1])
    blocks = np.stack([np.hstack(receiver_blocks(ch, pattern, beams, j)) for j in range(K)])
    rank_combined = [pattern.block_len if proven else _exact_rank(a)
                     for a, proven in zip(blocks, nonsingular_mod_p(blocks))]
    return _receiver_checks(blocks, rank_combined, _exact_rank, draw)


@dataclass(eq=False)
class VerificationReport:
    """Aggregate of rank checks over many draws."""

    users: int
    draws: int
    seed: int
    exact: bool
    checks: list[ReceiverCheck]

    @property
    def failures(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    @property
    def all_passed(self) -> bool:
        return self.failures == 0

    def failing_receivers(self) -> tuple[int, ...]:
        return tuple(sorted({c.rx for c in self.checks if not c.passed}))


def run_verification(scheme: Scheme, draws: int, seed: int, exact: bool = False) -> VerificationReport:
    """Verify a scheme over independent channel draws (floating or exact)."""
    checks: list[ReceiverCheck] = []
    for t in range(draws):
        if exact:
            checks.extend(verify_decodability_exact(
                scheme.pattern, scheme.beams,
                seed=stream_seed(seed, EXACT_STREAM, t), draw=t))
        else:
            ch = draw_channels(scheme.config.users, scheme.config.mode_count,
                               seed=stream_seed(seed, CHANNEL_STREAM, t))
            checks.extend(verify_decodability(ch, scheme.pattern, scheme.beams, draw=t))
    return VerificationReport(
        users=scheme.config.users, draws=draws, seed=seed, exact=exact, checks=checks)


def report_to_json(report: VerificationReport) -> str:
    return render_json({
        "K": report.users,
        "draws": report.draws,
        "seed": report.seed,
        "exact": report.exact,
        "failures": report.failures,
        "checks": [
            {
                "draw": c.draw,
                "rx": c.rx,
                "rank_desired": c.rank_desired,
                "rank_interference": c.rank_interference,
                "rank_combined": c.rank_combined,
                "pass": c.passed,
            }
            for c in report.checks
        ],
    })


def report_to_csv(report: VerificationReport) -> str:
    rows = [[c.draw, c.rx, c.rank_desired, c.rank_interference, c.rank_combined,
             int(c.passed)] for c in report.checks]
    return render_csv(
        ["draw", "rx", "rank_desired", "rank_interference", "rank_combined", "pass"], rows)


# ---------------------------------------------------------------------------
# structural counting


@dataclass(frozen=True)
class CountingReport:
    users: int
    per_user_pairs_ok: bool      # every user belongs to exactly K-1 pairs
    symbol_identity_ok: bool     # K(K-1) - C(K-1,2) = m
    per_receiver_dims_ok: bool   # (K-1) desired + K(K-1)/2 interference = m

    @property
    def all_passed(self) -> bool:
        return self.per_user_pairs_ok and self.symbol_identity_ok and self.per_receiver_dims_ok


def check_counting(config: SchemeConfig, beams: BeamSet) -> CountingReport:
    """Exact integer identities tying symbol counts to channel uses."""
    K = config.users
    m = config.block_len
    membership = [0] * K
    for (i, j) in beams.pair_dims:
        membership[i] += 1
        membership[j] += 1
    per_user = all(c == config.symbols_per_user for c in membership)
    symbol_identity = K * (K - 1) - (K - 1) * (K - 2) // 2 == m
    per_receiver = (K - 1) + K * (K - 1) // 2 == m
    return CountingReport(
        users=K,
        per_user_pairs_ok=per_user,
        symbol_identity_ok=symbol_identity,
        per_receiver_dims_ok=per_receiver,
    )
