"""Per-receiver decodability verification and dimension-counting checks.

At receiver j the desired block stacks the K-1 own-channel columns. The
(K-1)^2 cross-channel interference columns come in exactly-colinear pairs:
both owners of a pair send its one column of PatternMatrix.supports, and a
third receiver keeps mode 2 over it because it lies inside the pair
product (checked when the pattern is built), so the two reach that
receiver along one direction, scaled by their own mode-2 coefficients.
Merging each colinear pair leaves a K(K-1)/2-column basis. Together the
two blocks form the square m x m combined block
A_j = [desired | interference basis], m = (K-1) + K(K-1)/2. Decodability
of the draw means rank_desired = K-1, rank_interference = K(K-1)/2 and
rank_combined = m (desired space disjoint from interference).

`receiver_layout` is the one place that turns a scheme into these columns;
float and exact verification use it (the simulator needs no block, see
biakit.sim). Every scheme's supports are aligned, so the block it builds
is always the span of the signal `channel.receive` forms. It is never
built in build_scheme, costs O(K m) and records, for every receiver j and
column c of A_j, the transmitter src[j, c] and the pair col[j, c] whose
shared vector fills it, beside one (C(K,2), m) copy of the shared vectors.
Row r of A_j is read in receiver j's mode at channel use r, so for a stack
of draws coeffs (T, K, K, M) one gather
coeffs[:, j, src[j, c], tilde[r, j]] * vectors[col[j, c], r] yields the
combined blocks of any receivers j in every draw (`ReceiverLayout.blocks`).
Runs take their draws in `exactrank.chunks` of at
most `exactrank.BATCH_ELEMENTS` block entries (at least one draw a chunk),
the one sizing rule of every batched kernel, and float runs gather each
chunk of draws a chunk of receivers at a time by the same rule, so every
gathered, Gram, factor or SVD stack holds at most BATCH_ELEMENTS entries
or one block, and memory stays flat in the draw count and in K; chunking
changes no output. `decompose_receiver`,
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
stack of draws: a receiver in `Scheme.certified_receivers` (the
pattern's certificate) whose D_j factors are all nonzero has a
nonsingular A_j. The consumers that decide read the proof: exact
verification, the simulator's exclusion rule and its one-draw decoder
(`decompose_receiver`'s `proven`). Float verification measures instead.
The two modes:

- float: `square_ranks` over Gaussian draws, fast and statistical, the
  package's numerical check of the certificate, which reads no proof. Its
  ranks are those of `stack_ranks`, one batched SVD cut at
  max(shape) * eps * sigma_max (`rank_of` is its one-matrix view, used
  for the blocks of a short A_j), but a stack whose every A has full rank
  by the margin below takes no SVD. The rule agrees with ranking every
  block: a column subset D of A has sigma_min(D) >= sigma_min(A) and
  sigma_max(D) <= sigma_max(A), so whenever the cut lies below
  sigma_min(A) it lies below sigma_min(D) too, and an A_j the margin
  proves is one the cut clears.

  The margin (Rump, "Verification of positive definiteness", BIT 2006).
  Let F = ||A||_F of an m x m block and u = 2^-53. Form G = fl(A^H A),
  subtract MARGIN * F^2 (MARGIN = tau^2 = 2^-30, F^2 the trace of G) from
  its diagonal and factor the result by Cholesky. If the factor exists,
  A^H A minus tau^2 F^2 I differs from R^H R, a positive semidefinite
  matrix, by the rounding of the Gram, the shift and the factorisation
  (Higham, Accuracy and Stability of Numerical Algorithms, 10.1:
  |dH| <= gamma_(m+1) |R^H||R|, and ||R||_F^2 is about F^2), at most about
  4(m+2) u F^2 in the 2-norm, which is under 1e-3 tau^2 F^2 for m <= 2095
  (build_scheme stops at m = 1175). So sigma_min(A) > (1 - 1e-3) tau F
  >= 3e-5 sigma_max(A). LAPACK's singular values are off by a few m u
  sigma_max at most, so the cut m * eps * sigma_max (about 2.6e-13
  sigma_max at m = 1175) cannot reach sigma_min: the SVD would find rank
  m, and the report is `expected_ranks` with no SVD. A stack whose
  factorisation fails, or whose F^2 is not finite or not well clear of
  underflow, goes to `stack_ranks` whole. A draw with a non-finite
  coefficient raises ValueError before anything is gathered.
- exact: certification grade, over Gaussian-integer draws (one seeded
  stream per draw), with one exact rule and no prime. It decides, then
  gathers: each chunk draws its coefficients and `_proven` decides every
  certified receiver from them alone (every factor is a product of
  integers of magnitude at most 999, exact in complex float64), with no
  layout and no block. Only the other (draw, receiver) pairs (an
  uncertified G_j or a zero factor) take a block, gathered a draw at a
  time by `ReceiverLayout.blocks` on a layout built only in a chunk that
  holds such a pair, and `exactrank.gaussian_rank` ranks it, realifying
  each Z[i] matrix onto the fraction-free integer kernel. A scheme whose
  every receiver is certified is verified with no layout at all.

The channel-free certificate that powers construction lives in
scheme.certify_receivers.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channel import EXACT_STREAM, CHANNEL_STREAM, ChannelSet, draw_channel_stack, stream_seed
from .exactrank import chunks, gaussian_rank
from .formats import is_int, render_csv, render_json
from .scheme import Scheme, SchemeConfig, make_config


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


# tau^2 of the full-rank margin (module docstring), a fixed constant
MARGIN = 2.0 ** -30
# below this ||A||_F^2 the Gram's underflow could eat the margin
_TINY = 2.0 ** -900


def square_ranks(stack: np.ndarray) -> np.ndarray:
    """`stack_ranks` of a (..., m, m) stack, with no SVD when the Cholesky
    margin (module docstring) proves every matrix A of it nonsingular: the
    factor of A^H A less MARGIN * ||A||_F^2 on its diagonal exists."""
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries: fall back
        g = np.matmul(stack.conj().swapaxes(-1, -2), stack)
        f2 = np.trace(g, axis1=-2, axis2=-1).real
    if np.all((f2 > _TINY) & (f2 < np.inf)):
        d = np.arange(g.shape[-1])
        g[..., d, d] -= MARGIN * f2[..., None]
        try:
            np.linalg.cholesky(g)
            return np.full(stack.shape[:-2], stack.shape[-1])
        except np.linalg.LinAlgError:
            pass
    return stack_ranks(stack)


@dataclass(frozen=True, eq=False)
class ReceiverLayout:
    """Where every entry of every receiver's combined block comes from.

    Entry (r, c) of A_j is vectors[col[j, c], r], the shared vector of pair
    col[j, c] at channel use r, times the coefficient of the link from
    transmitter src[j, c] to receiver j, in receiver j's mode mode[j, r] at
    use r. Columns 0..K-2 are j's own beams (src = j); the rest are the
    pairs in lexicographic order, each from the lower-numbered owner, or
    from the other owner when j is in the pair.
    """

    mode: np.ndarray     # (K, m) 0-indexed mode of receiver j at use r: tilde.T
    src: np.ndarray      # (K, m) transmitter of column c of A_j
    col: np.ndarray      # (K, m) pair whose shared vector fills column c of A_j
    vectors: np.ndarray  # (C(K,2), m) 0/1 shared vector of every pair: supports.T

    def blocks(self, coeffs: np.ndarray, rx) -> np.ndarray:
        """The combined blocks of receivers rx in every draw of a stack
        coeffs (T, K, K, M) [draw, rx, tx, mode], by one gather: rx is any
        numpy index over receivers (an int, a list, a slice) and the result
        is (T,) + rx.shape + (m, m)."""
        K, m = self.src.shape
        j = np.arange(K)[rx, None, None]
        r, c = np.ogrid[:m, :m]
        return coeffs[:, j, self.src[j, c], self.mode[j, r]] * self.vectors[self.col[j, c], r]


def receiver_layout(scheme: Scheme) -> ReceiverLayout:
    """The layout of a scheme's K combined blocks (see ReceiverLayout), the
    one place that merges a pair's two interference columns into one."""
    pattern = scheme.pattern
    K = pattern.users
    a, b = np.array(list(itertools.combinations(range(K), 2))).T
    rx = np.arange(K)[:, None]
    src = np.hstack([np.repeat(rx, K - 1, axis=1), np.where(a == rx, b, a)])
    # j's own dimensions, then every pair
    col = np.hstack([scheme.dimension_columns(), np.broadcast_to(np.arange(a.size), (K, a.size))])
    return ReceiverLayout(mode=pattern.tilde.T.copy(), src=src, col=col,
                          vectors=np.ascontiguousarray(pattern.supports.T))


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


def decompose_receiver(ch: ChannelSet, scheme: Scheme, j: int) -> ReceiverDecomposition:
    """Receiver j's desired block (m x (K-1)) and merged interference basis
    (m x K(K-1)/2) for one channel draw, the two column blocks of A_j from
    the scheme's layout, and whether the certificate times D_j proves A_j
    nonsingular for this draw (no numeric rank is taken)."""
    a = receiver_layout(scheme).blocks(ch.coeffs[None], j)[0]
    d = scheme.pattern.users - 1
    proven = bool(_proven(scheme.certified_receivers, ch.coeffs[None])[0, j])
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

    rank_combined (T, K) holds the rank of every combined block; blocks, a
    dict keyed by (t, j), holds A_j of draw t where that rank is short. A
    full one proves the expected ranks; otherwise `rank` ranks the desired
    and interference column blocks. Draw t is numbered first_draw + t.
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
    """Float checks of a chunk of draws, gathered a chunk of receivers at a
    time (`exactrank.chunks`): `square_ranks` of every stack of combined
    blocks, keeping only the short blocks for their sub-block ranks."""
    if not np.isfinite(coeffs).all():
        raise ValueError("non-finite entries")
    T = len(coeffs)
    K, m = layout.src.shape
    rank_combined = np.full((T, K), m)
    blocks = {}
    for rx in chunks(K, T * m * m):
        a = layout.blocks(coeffs, slice(rx.start, rx.stop))
        ranks = square_ranks(a)
        rank_combined[:, rx.start:rx.stop] = ranks
        for t, i in np.argwhere(ranks < m).tolist():
            blocks[t, rx.start + i] = a[t, i]
    return _receiver_checks(blocks, rank_combined, rank_of, first_draw)


def verify_decodability(ch: ChannelSet, scheme: Scheme, draw: int = 0) -> list[ReceiverCheck]:
    """Check the three rank conditions at every receiver for one draw: the
    combined blocks take no SVD when the Cholesky margin proves them all,
    else one SVD each, and only a short one has its two blocks ranked.

    Failures are reported, never raised; callers decide severity.
    """
    return _float_checks(receiver_layout(scheme), ch.coeffs[None], draw)


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


def _exact_checks(scheme: Scheme, seeds, first_draw: int) -> list[ReceiverCheck]:
    """Exact checks of a chunk of draws, one Gaussian-integer draw per seed
    (an int or a SeedSequence): decide, then gather. A receiver `_proven`
    proves has rank m and needs no block; only the other (draw, rx) pairs
    take one, gathered a draw at a time on a layout built only when such a
    pair exists, and Bareiss ranks them."""
    K = scheme.config.users
    h = np.stack([_exact_channel_ints(K, np.random.default_rng(s)) for s in seeds])
    coeffs = h[..., 0] + 1j * h[..., 1]  # (T, K, K, 2) [draw, rx, tx, mode]
    proven = _proven(scheme.certified_receivers, coeffs)
    rank_combined = np.full(proven.shape, scheme.config.block_len)
    blocks = {}
    todo = [(t, np.flatnonzero(~row).tolist()) for t, row in enumerate(proven) if not row.all()]
    layout = receiver_layout(scheme) if todo else None
    for t, rx in todo:
        for j, a in zip(rx, layout.blocks(coeffs[t, None], rx)[0]):
            blocks[t, j] = a
            rank_combined[t, j] = _exact_rank(a)
    return _receiver_checks(blocks, rank_combined, _exact_rank, first_draw)


def verify_decodability_exact(scheme: Scheme, seed=0, draw: int = 0) -> list[ReceiverCheck]:
    """Same three conditions with exact arithmetic: channels are random
    Gaussian integers and every rank is proven, so there is no floating
    tolerance anywhere.

    One rule, with no prime: a certified receiver whose D_j factors
    (aligned mode-2 coefficients, own-pair determinants) are all nonzero
    has rank m, since det A_j = +-det G_j times their product; it takes no
    block. Every other block comes from the same layout as the float path.
    The draw's parts are integers of magnitude at most 999 and the
    beamforming vectors are 0/1, so every block entry is exact in complex
    floating point and converts back to integers without loss. Such a block is ranked by `gaussian_rank`, and
    so are its desired and interference blocks when that rank is short.
    """
    return _exact_checks(scheme, [seed], draw)


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
    in chunks of draws (see the module docstring: float runs build one
    layout, exact runs one per chunk that holds a receiver the certificate
    leaves unproven). Raises ValueError unless draws is an integer >= 1
    and seed an integer >= 0."""
    if not is_int(draws) or draws < 1:
        raise ValueError("draws (trials) must be an integer >= 1, got %r" % (draws,))
    if not is_int(seed) or seed < 0:
        raise ValueError("seed must be an integer >= 0, got %r" % (seed,))
    K, m = scheme.config.users, scheme.config.block_len
    checks: list[ReceiverCheck] = []
    layout = None if exact else receiver_layout(scheme)
    for chunk in chunks(draws, K * m * m):
        if exact:
            seeds = [stream_seed(seed, EXACT_STREAM, t) for t in chunk]
            checks.extend(_exact_checks(scheme, seeds, chunk.start))
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


def check_counting(config: SchemeConfig,
                   pair_dims: dict[tuple[int, int], tuple[int, int]]) -> CountingReport:
    """Exact integer identities tying symbol counts to channel uses;
    pair_dims is a pair map, {(i, j): (d_i, d_j)}."""
    K = config.users
    m = config.block_len
    membership = [0] * K
    for (i, j) in pair_dims:
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
