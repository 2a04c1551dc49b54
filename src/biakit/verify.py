"""Per-receiver decodability verification and dimension-counting checks.

At receiver j the desired block stacks the K-1 own-channel columns. The
(K-1)^2 cross-channel interference columns come in exactly-colinear pairs:
both owners of a pair send its one column of BeamSet.shared, and a third
receiver keeps mode 2 over it because it lies inside the pair product, so
the two reach that receiver along one direction, scaled by their own
mode-2 coefficients. Merging each colinear pair leaves a K(K-1)/2-column
basis. Together the two blocks form the square m x m combined block
A_j = [desired | interference basis], m = (K-1) + K(K-1)/2. Decodability
of the draw means rank_desired = K-1, rank_interference = K(K-1)/2 and
rank_combined = m (desired space disjoint from interference).

`receiver_layout` is the one place that turns a scheme into these columns;
float and exact verification use it (the simulator needs no block, see
biakit.sim). It checks the alignment it merges on (scheme.check_supports),
so beams whose shared vector leaves its pair product raise ValueError,
naming the pair and the row, instead of being ranked as if aligned: the
block it builds is always the span of the signal `channel.receive` forms.
It is built at most once per run (never in build_scheme) and records,
for every receiver j and column c of A_j, the transmitter src[j, c] and
the 0/1 beam vec[j, :, c]. Row r of A_j is read in receiver j's mode at
channel use r, so for a stack of draws coeffs (T, K, K, M) one gather
coeffs[:, j, src[j, c], tilde[r, j]] * vec[j, r, c] yields every combined
block (T, K, m, m), or only the blocks of chosen (draw, receiver) pairs
(`ReceiverLayout.blocks`). Runs take their draws in `exactrank.chunks` of at
most `exactrank.BATCH_ELEMENTS` block entries (at least one draw a chunk),
the one sizing rule of every batched kernel, so memory stays flat in the
draw count; chunking changes no output. `decompose_receiver`,
`verify_decodability` and `verify_decodability_exact` are one-draw views
of the same kernels.

Every verdict is read off A_j by one rule: a receiver whose A_j has
rank m reports the expected ranks without further work, and only the
others are ranked block by block. Full rank of A_j gives full column rank
to the desired and interference blocks, which are column subsets of it.

Up to column order A_j = G_j D_j (scheme.certify_receivers): G_j is
receiver j's 0/1 generator matrix and D_j is block diagonal, one aligned
mode-2 coefficient per pair without j and the 2x2 block [[h_jj(1),
h_jo(1)], [h_jj(2), h_jo(2)]] per own pair {j, o}. So det A_j = +-det G_j
times the product of those coefficients and of the own-pair determinants
det_o = h_jj(1)h_jo(2) - h_jo(1)h_jj(2). `_proven` reads this proof off a
stack of draws: a receiver in `Scheme.certified_receivers` (certified,
and the beams are the pattern's) whose D_j factors are all nonzero has a
nonsingular A_j. The consumers that decide read the proof: exact
verification, the simulator's exclusion rule and its one-draw decoder
(`decompose_receiver`'s `proven`). Float verification measures instead.
The two modes:

- float: `stack_ranks`, one batched SVD per chunk over Gaussian draws,
  fast and statistical, the package's numerical check of the certificate,
  which reads no proof (`rank_of` is its one-matrix view, used for the
  blocks of a short A_j). The rule agrees with ranking every block: a
  column subset D of A has sigma_min(D) >= sigma_min(A) and
  sigma_max(D) <= sigma_max(A), so whenever the cut
  max(shape) * eps * sigma_max lies below sigma_min(A) it lies below
  sigma_min(D) too.
- exact: certification grade, over Gaussian-integer draws (one seeded
  stream per draw), with one exact rule and no prime. It decides, then
  gathers: each chunk draws its coefficients and `_proven` decides every
  certified receiver from them alone (every factor is a product of
  integers of magnitude at most 999, exact in complex float64), with no
  layout and no block. Only the other (draw, receiver) pairs (an
  uncertified G_j, a zero factor, aligned beams that are not the
  pattern's) take a block, `ReceiverLayout.blocks` of just those pairs on
  a layout built at most once per run, and `exactrank.gaussian_rank`
  ranks it, realifying each Z[i] matrix onto the fraction-free integer
  kernel. A scheme whose every receiver is certified is verified with no
  layout at all; beams that are not the pattern's certify nothing, so
  their run builds the layout and its alignment check.

The channel-free certificate that powers construction lives in
scheme.certify_receivers.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .channel import EXACT_STREAM, CHANNEL_STREAM, ChannelSet, draw_channel_stack, stream_seed
from .exactrank import chunks, gaussian_rank
from .formats import render_csv, render_json
from .scheme import BeamSet, PatternMatrix, Scheme, SchemeConfig, check_supports, make_config


def stack_ranks(stack: np.ndarray) -> np.ndarray:
    """Numeric rank of every matrix of a (..., rows, cols) stack, by one
    batched SVD: the singular values above max(rows, cols) * eps * largest.
    An all-zero matrix has rank 0."""
    a = np.asarray(stack)
    if not np.isfinite(a).all():
        raise ValueError("non-finite entries")
    if a.size == 0:
        return np.zeros(a.shape[:-2], dtype=np.int64)
    sv = np.linalg.svd(a, compute_uv=False)
    cut = max(a.shape[-2:]) * np.finfo(float).eps * sv[..., :1]
    return np.count_nonzero(sv > cut, axis=-1)


def rank_of(matrix: np.ndarray) -> int:
    """Numeric rank of one matrix: `stack_ranks` of a one-matrix stack."""
    return int(stack_ranks(np.asarray(matrix)[None])[0])


@dataclass(frozen=True, eq=False)
class ReceiverLayout:
    """Where every entry of every receiver's combined block comes from.

    Entry (r, c) of A_j is vec[j, r, c] times the coefficient of the link
    from transmitter src[j, c] to receiver j, in receiver j's mode
    mode[j, r] at channel use r. Columns 0..K-2 are j's own beams (src = j);
    the rest are the pairs in lexicographic order, each from the
    lower-numbered owner, or from the other owner when j is in the pair.
    """

    mode: np.ndarray  # (K, m) 0-indexed mode of receiver j at use r: tilde.T
    src: np.ndarray   # (K, m) transmitter of column c of A_j
    vec: np.ndarray   # (K, m, m) 0/1 beam of column c of A_j

    @property
    def users(self) -> int:
        return int(self.src.shape[0])

    @property
    def block_len(self) -> int:
        return int(self.src.shape[1])

    def blocks(self, coeffs: np.ndarray, pairs: np.ndarray | None = None) -> np.ndarray:
        """Every combined block of a stack of draws, by one gather:
        coeffs (T, K, K, M) [draw, rx, tx, mode] -> A (T, K, m, m). Given
        pairs, an (n, 2) array of (draw, rx) indices, only those blocks:
        (n, m, m), each bit-identical to its entry of the full stack."""
        if pairs is None:
            rx = np.arange(self.users)[:, None, None]
            return coeffs[:, rx, self.src[:, None, :], self.mode[:, :, None]] * self.vec
        t, j = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
        return (coeffs[t[:, None, None], j[:, None, None], self.src[j][:, None, :],
                       self.mode[j][:, :, None]] * self.vec[j])


def receiver_layout(pattern: PatternMatrix, beams: BeamSet) -> ReceiverLayout:
    """The layout of a scheme's K combined blocks (see ReceiverLayout), the
    one place that merges a pair's two interference columns into one. The
    alignment that merge needs is checked: ValueError names the pair and row
    of a shared vector outside its pair product (check_supports), or the
    fault of the pair map (check_pair_dims)."""
    K, m = pattern.users, pattern.block_len
    check_supports(pattern.tilde, beams.shared, pattern.products)
    a, b = np.array(list(itertools.combinations(range(K), 2))).T
    rx = np.arange(K)[:, None]
    src = np.hstack([np.repeat(rx, K - 1, axis=1), np.where(a == rx, b, a)])
    # A_j's column c is shared's column cols[j, c]: j's own dimensions, then every pair
    cols = np.hstack([beams.dimension_columns(), np.broadcast_to(np.arange(a.size), (K, a.size))])
    # the verify-float benchmark read up to 9% slower when src and vec were built
    # otherwise, with the same arithmetic (cause not found); this form measured at parity
    vec = np.empty((K, m, m), dtype=beams.shared.dtype)
    for j in range(K):
        vec[j] = beams.shared[:, cols[j]]
    return ReceiverLayout(mode=pattern.tilde.T.copy(), src=src, vec=vec)


@dataclass(eq=False)
class ReceiverDecomposition:
    """Desired and interference column blocks at one receiver, and whether
    the combined block A_j they form is proven nonsingular (`_proven`)."""

    rx: int
    desired: np.ndarray            # m x (K-1)
    interference_basis: np.ndarray  # m x K(K-1)/2 after merging colinear pairs
    proven: bool

    @property
    def combined(self) -> np.ndarray:
        """A_j = [desired | interference_basis], m x m."""
        return np.hstack([self.desired, self.interference_basis])


def decompose_receiver(
    ch: ChannelSet, pattern: PatternMatrix, beams: BeamSet, j: int
) -> ReceiverDecomposition:
    """Receiver j's desired block (m x (K-1)) and merged interference basis
    (m x K(K-1)/2) for one channel draw, the two column blocks of A_j from
    the scheme's layout, and whether the certificate times D_j proves A_j
    nonsingular for this draw (no numeric rank is taken)."""
    a = receiver_layout(pattern, beams).blocks(ch.coeffs[None])[0, j]
    d = pattern.users - 1
    proven = bool(_proven(Scheme(pattern, beams).certified_receivers, ch.coeffs[None])[0, j])
    return ReceiverDecomposition(
        rx=j, desired=a[:, :d], interference_basis=a[:, d:], proven=proven)


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


def _receiver_checks(blocks, rank_combined, rank, first_draw: int) -> list[ReceiverCheck]:
    """The one rank rule, over the square combined blocks of a chunk of draws.

    rank_combined (T, K) holds the rank of every combined block; blocks[t, j]
    is A_j of draw t (a (T, K, m, m) stack, or a dict keyed by (t, j)), read
    only where that rank is short. A full one proves the expected ranks;
    otherwise `rank` ranks the desired and interference column blocks. Draw
    t is numbered first_draw + t.
    """
    rows = np.asarray(rank_combined).tolist()
    K = len(rows[0])
    full = expected_ranks(make_config(K))
    m = full[2]
    out = []
    for t, row in enumerate(rows):
        for j, rc in enumerate(row):
            if rc == m:
                ranks = full
            else:
                a = blocks[t, j]
                ranks = (rank(a[:, :K - 1]), rank(a[:, K - 1:]), rc)
            out.append(ReceiverCheck(first_draw + t, j + 1, *ranks, passed=ranks == full))
    return out


def _float_checks(layout: ReceiverLayout, coeffs: np.ndarray, first_draw: int) -> list[ReceiverCheck]:
    """Float checks of a chunk of draws: one batched SVD of every combined block."""
    blocks = layout.blocks(coeffs)
    return _receiver_checks(blocks, stack_ranks(blocks), rank_of, first_draw)


def verify_decodability(
    ch: ChannelSet, pattern: PatternMatrix, beams: BeamSet, draw: int = 0
) -> list[ReceiverCheck]:
    """Check the three rank conditions at every receiver for one draw, with
    one SVD per receiver whose combined block has full numeric rank.

    Failures are reported, never raised; callers decide severity.
    """
    return _float_checks(receiver_layout(pattern, beams), ch.coeffs[None], draw)


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


def own_pair_dets(coeffs: np.ndarray) -> np.ndarray:
    """det_o = h_jj(1)h_jo(2) - h_jo(1)h_jj(2) of every own pair {j, o} of
    a stack of draws coeffs (T, K, K, 2), (T, K, K) indexed [t, j, o] (0 at
    o = j): the determinant of D_j's 2x2 block of that pair."""
    K = coeffs.shape[1]
    hjj = coeffs[:, np.arange(K), np.arange(K), None]  # (T, K, 1, 2)
    return hjj[..., 0] * coeffs[..., 1] - coeffs[..., 0] * hjj[..., 1]


def _proven(certified: tuple[bool, ...], coeffs: np.ndarray) -> np.ndarray:
    """Which combined blocks of a stack of draws coeffs (T, K, K, 2) the
    certificate proves nonsingular, (T, K): receiver j is proven in draw t
    when certified[j] holds (Scheme.certified_receivers) and every factor
    of its D_j is nonzero, since det A_j = +-det G_j times their product."""
    K = coeffs.shape[1]
    # D_j's factors are the own-pair determinants and the aligned mode-2
    # coefficients, covered by asking every h_ji(2), i != j, to be nonzero
    nonzero = ((own_pair_dets(coeffs) != 0) & (coeffs[..., 1] != 0)) | np.eye(K, dtype=bool)
    return np.array(certified, dtype=bool) & nonzero.all(axis=2)


def _lazy_layout(pattern: PatternMatrix, beams: BeamSet):
    """receiver_layout(pattern, beams) as a callable that builds it on its
    first call only."""
    return functools.cache(lambda: receiver_layout(pattern, beams))


def _exact_checks(certified: tuple[bool, ...], layout, seeds, first_draw: int) -> list[ReceiverCheck]:
    """Exact checks of a chunk of draws, one Gaussian-integer draw per seed
    (an int or a SeedSequence): decide, then gather. A receiver `_proven`
    proves has rank m and needs no block; only the other (draw, rx) pairs
    take one, from layout() (`_lazy_layout`), and Bareiss ranks them."""
    K = len(certified)
    h = np.stack([_exact_channel_ints(K, np.random.default_rng(s)) for s in seeds])
    coeffs = h[..., 0] + 1j * h[..., 1]  # (T, K, K, 2) [draw, rx, tx, mode]
    proven = _proven(certified, coeffs)
    rank_combined = np.full(proven.shape, make_config(K).block_len)
    blocks = {}
    todo = np.argwhere(~proven)
    if todo.size:
        for (t, j), a in zip(todo.tolist(), layout().blocks(coeffs, todo)):
            blocks[t, j] = a
            rank_combined[t, j] = _exact_rank(a)
    return _receiver_checks(blocks, rank_combined, _exact_rank, first_draw)


def verify_decodability_exact(
    pattern: PatternMatrix, beams: BeamSet, seed=0, draw: int = 0
) -> list[ReceiverCheck]:
    """Same three conditions with exact arithmetic: channels are random
    Gaussian integers and every rank is proven, so there is no floating
    tolerance anywhere.

    One rule, with no prime: when the beams are the pattern's, a certified
    receiver whose D_j factors (aligned mode-2 coefficients, own-pair
    determinants) are all nonzero has rank m, since det A_j = +-det G_j
    times their product; it takes no block. Every other block comes from
    the same layout as the float path. The draw's parts are integers of
    magnitude at most 999 and the beamforming vectors are 0/1, so every
    block entry is exact in complex floating point and converts back to
    integers without loss. Such a block is ranked by `gaussian_rank`, and
    so are its desired and interference blocks when that rank is short.
    """
    certified = Scheme(pattern, beams).certified_receivers
    return _exact_checks(certified, _lazy_layout(pattern, beams), [seed], draw)


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
    """Verify a scheme over independent channel draws (floating or exact),
    in chunks of draws, on at most one layout (see the module docstring:
    exact runs build it only for a receiver the certificate leaves
    unproven). Raises ValueError unless draws >= 1."""
    if draws < 1:
        raise ValueError("draws (trials) must be >= 1, got %d" % draws)
    K, m = scheme.config.users, scheme.config.block_len
    checks: list[ReceiverCheck] = []
    if exact:
        certified = scheme.certified_receivers
        layout = _lazy_layout(scheme.pattern, scheme.beams)
    else:
        layout = receiver_layout(scheme.pattern, scheme.beams)
    for chunk in chunks(draws, K * m * m):
        if exact:
            seeds = [stream_seed(seed, EXACT_STREAM, t) for t in chunk]
            checks.extend(_exact_checks(certified, layout, seeds, chunk.start))
        else:
            seeds = [stream_seed(seed, CHANNEL_STREAM, t) for t in chunk]
            coeffs = draw_channel_stack(K, seeds)
            checks.extend(_float_checks(layout, coeffs, chunk.start))
    return VerificationReport(
        users=K, draws=draws, seed=seed, exact=exact, checks=checks)


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
    rows = [(c.draw, c.rx, c.rank_desired, c.rank_interference, c.rank_combined, int(c.passed))
            for c in report.checks]
    return render_csv(
        ["draw", "rx", "rank_desired", "rank_interference", "rank_combined", "pass"],
        list(zip(*rows)))


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
