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

`scheme.receiver_columns(K)` decides these columns: the transmitter
src[j, c] and the pair col[j, c] whose vector fills column c of A_j. The
gather, the float bound and the simulator (no block, see biakit.sim)
read it; the pair map only labels symbols (`Scheme.dimension_pairs`).
Supports are aligned, so the block spans the signal `channel.receive`
forms. Row r of A_j is read in receiver j's mode at use r, so one gather
coeffs[:, j, src[j, c], tilde[r, j]] * supports[r, col[j, c]] yields the
combined blocks of any receivers j in every draw of a stack
(`combined_blocks`, which takes the pattern, not the scheme). Draw t of
a run is the t-th draw of the seed's channel stream (float, the
simulator's stream too) or exact stream (`channel.stream_seed`), so a
run is a prefix of a longer one. Runs take their draws in
`exactrank.chunks` of 2 K^2 channel coefficients a draw. Both modes
decide, then gather (`_gather_ranks`): each chunk's proof (below)
settles what it can from the coefficients alone, and only the (draw, rx)
pairs it leaves open are gathered, a receiver at a time, at most
`exactrank.BATCH_ELEMENTS` entries or one block a stack. So memory stays
flat in the draw count and in K, and chunking changes no output. A
gathered A_j of rank m reports the expected ranks (its desired and
interference blocks are column subsets of it); only a short one has its
two blocks ranked. A run's ranks stay one
(draws * K, 3) int64 array in (draw, rx) order from the kernels to the
bytes (`VerificationReport.ranks`); `verify_decodability` and
`verify_decodability_exact` are one-draw views of the same kernels, and
only they and `VerificationReport.checks` build ReceiverCheck objects
(`decompose_receiver` builds a one-draw ReceiverDecomposition).

A_j = G_j D_j column for column (scheme.certify_receivers): G_j is
receiver j's 0/1 generator matrix and D_j holds one aligned mode-2
coefficient per pair without j and the 2x2 block [[h_jj(2), h_jo(2)],
[h_jj(1), h_jo(1)]] on own pair {j, o}'s two columns. So det A_j =
+-det G_j times the product of those coefficients and of the own-pair
determinants det_o = h_jj(1)h_jo(2) - h_jo(1)h_jj(2). `_proven` reads
this proof off a stack of draws: a receiver in
`Scheme.certified_receivers` (the pattern's certificate) whose D_j
factors are all nonzero has a nonsingular A_j. Exact verification, the
simulator's exclusion rule and its one-draw decoder
(`decompose_receiver`'s `proven`) decide by it. Float verification
reads a float bound off the same factorisation. The two modes:

- float: Gaussian draws, fast, the package's numerical check of the
  certificate. Its ranks are those of `stack_ranks`, one batched SVD cut
  at max(shape) * eps * sigma_max (`rank_of` is its one-matrix view). The
  rule agrees with ranking every block: a column subset D of A has
  sigma_min(D) >= sigma_min(A) and sigma_max(D) <= sigma_max(A). Its
  proof: `float_bound` reads the scheme once a run, the exact
  inverse X = d G_j^-1 of every certified G_j (`scheme.generator_inverses`,
  one kernel that continues the singleton peel the pattern's certificate
  ran, so no G_j is rebuilt or peeled again, proves X and returns the
  squared norm of every row of X: ||G_j^-1||_F^2 = ||X||_F^2 / d^2 sums
  that one array, and d = 1 with ||G_j^-1||_F^2 = nnz(G_j) for every
  built G_j), and, off the supports' nonzeros the certificate read
  (`PatternMatrix.nonzeros`) and the columns `combined_blocks` gathers
  (`scheme.receiver_columns`), the support counts that give ||A_j||_F from
  the coefficients and the sources of the aligned columns. Each chunk,
  `draw_bounds` reads the draws' D_j, O(K^2) a draw and no block.

  The bound. A_j = G_j D_j, exactly in float too: every entry of the
  gathered block is one coefficient or 0. So sigma_min(A_j) >=
  sigma_min(G_j) sigma_min(D_j) (Golub & Van Loan, Matrix Computations)
  with sigma_min(G_j) = 1 / ||G_j^-1||_2 >= 1 / ||G_j^-1||_F. D_j is block
  diagonal up to a symmetric permutation, so sigma_min(D_j) is the least
  of |h_ja(2)| over its aligned columns (a the lower owner of a pair
  without j) and of sigma_min(B_o) over its own-pair blocks B_o, and
  sigma_min(B_o) = |det_o| / sigma_max(B_o) >= |det_o| / ||B_o||_F. And
  sigma_max(A_j) <= F = ||A_j||_F, with F^2 the sum over transmitters i
  and modes of the entries of A_j that carry h_ji(mode), times
  |h_ji(mode)|^2. Receiver j is proven in a draw when, in float,
  sigma_min(D_j)^2 / ||G_j^-1||_F^2 > RATIO^2 F^2 (RATIO = tau = 2^-30, a
  fixed constant), with no square root taken.

  Rounding. Let u = 2^-53, and let every coefficient of receiver j be 0 or
  of a modulus in [2^-100, 2^100] (else the receiver is gathered), so no
  product or sum leaves the normal range but by an absolute 2^-1074, far
  below u times any term it joins. Each |h|^2 is within 3u. A complex
  product is within sqrt(2) gamma_2 |x||y| (Higham, Accuracy and
  Stability of Numerical Algorithms, 3.6), so the computed det_o is
  within 4u (|h_jj(1)||h_jo(2)| + |h_jo(1)||h_jj(2)|) <= 2u ||B_o||_F^2 of
  det_o, and with ||B_o||_F^2 (5u), the squares and the division the
  computed |det_o|^2 / ||B_o||_F^2 is at most (1 + 10u) (|det_o| / ||B_o||_F
  + 2u ||B_o||_F)^2. G_j has no zero column, so both halves of every own
  pair's vector are nonempty and each entry of B_o appears in A_j:
  ||B_o||_F <= F. F^2 sums at most 2 K^2 terms, within about 2 K^2 u,
  ||G_j^-1||_F^2 = ||X||_F^2 / d^2 is one division of two exact integers
  below 2^52 (`exactrank.is_inverse`), within u, and the product and
  quotient of the test add 2u. So a test that passes gives
  sigma_min(D_j) / ||G_j^-1||_F >= (1 - 2 K^2 u - 21u) tau F - 2u F
  >= (1 - 1e-3) tau F for every K below 10^6, since 2u < 1e-6 tau: hence
  sigma_min(A_j) > (1 - 1e-3) tau F >= 9.3e-10 sigma_max(A_j). LAPACK's
  singular values are off by a few m u sigma_max at most, so the SVD cut
  m * eps * sigma_max (about 2.6e-13 sigma_max at m = 1175) cannot reach
  sigma_min: the SVD would find rank m, and the report is
  `expected_ranks` with no block. The test is strict, so an all-zero draw
  (F = 0) never passes, and a receiver with no proven inverse (an
  uncertified G_j) has a bound of 0 and passes in no draw.

  The pairs the bound leaves, an uncertified receiver's (its A_j is
  singular in every draw) and a near-singular draw's, are ranked by
  `stack_ranks`. A draw with a non-finite coefficient raises ValueError
  before anything is bounded or gathered.
- exact: certification grade, over Gaussian-integer draws (one
  `_exact_channel_ints` draw after another from the run's exact stream),
  with one exact rule and no prime. Its proof is `_proven` (every factor
  is a product of integers of magnitude at most 999, exact in complex
  float64). The pairs it leaves (an uncertified G_j or a zero factor) are
  ranked by `exactrank.gaussian_rank`, realifying each Z[i] matrix onto
  the fraction-free integer kernel. A scheme whose every receiver is
  certified is verified with no block gathered at all.

The channel-free certificate that powers construction lives in
scheme.certify_receivers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import EXACT_STREAM, CHANNEL_STREAM, ChannelSet, draw_channel_stack, stream_seed
from .exactrank import chunks, gaussian_rank
from .formats import Records, is_int, render_csv, render_json
from .scheme import (
    PatternMatrix, Scheme, SchemeConfig, generator_inverses, make_config, pair_users, receiver_columns)


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


def combined_blocks(pattern: PatternMatrix, coeffs: np.ndarray, rx) -> np.ndarray:
    """The combined blocks of receivers rx in every draw of a stack coeffs
    (T, K, K, M) [draw, rx, tx, mode], by one gather: rx is any numpy index
    over receivers (an int, a list, a slice) and the result is (T,) +
    rx.shape + (m, m). Entry (r, c) of A_j is supports[r, col[j, c]], the
    shared vector of pair col[j, c] at channel use r, times the coefficient
    of the link from transmitter src[j, c] to receiver j, in receiver j's
    mode tilde[r, j] at use r; src and col are `scheme.receiver_columns`.
    The pattern's own arrays are read in place, and no pair map is."""
    K, m = pattern.users, pattern.block_len
    src, col = receiver_columns(K)
    j = np.arange(K)[rx, None, None]
    r, c = np.ogrid[:m, :m]
    return coeffs[:, j, src[j, c], pattern.tilde[r, j]] * pattern.supports[r, col[j, c]]


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
    """Receiver j's desired block (m x (K-1)), in j's dimension order, and
    merged interference basis (m x K(K-1)/2) for one channel draw, columns
    of A_j from `combined_blocks`, and whether the certificate times D_j
    proves A_j nonsingular for this draw (no numeric rank is taken)."""
    K = scheme.pattern.users
    d = K - 1
    a = combined_blocks(scheme.pattern, ch.coeffs[None], j)[0]
    dims = np.searchsorted(receiver_columns(K)[1][j, :d], scheme.dimension_pairs()[j])  # own pairs ascend
    proven = bool(_proven(scheme.certified_receivers, ch.coeffs[None])[0, j])
    return ReceiverDecomposition(
        rx=j, desired=a[:, dims], interference_basis=a[:, d:], proven=proven)


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


def _as_checks(ranks: np.ndarray, K: int, first_draw: int) -> list[ReceiverCheck]:
    """One ReceiverCheck a row of a (draws * K, 3) ranks array in (draw, rx)
    order, its first draw numbered first_draw."""
    full = expected_ranks(make_config(K))
    return [ReceiverCheck(first_draw + i // K, i % K + 1, *row, passed=tuple(row) == full)
            for i, row in enumerate(ranks.tolist())]


# tau: the bound must clear tau ||A_j||_F (module docstring), a fixed constant
RATIO = 2.0 ** -30
# the bound's rounding argument covers coefficient moduli of 0 and of
# [1/_RANGE, _RANGE]; a receiver with another coefficient is gathered
_RANGE = 2.0 ** 100


@dataclass(frozen=True, eq=False)
class FloatBound:
    """What the float bound (module docstring) reads off a scheme, once a
    run: nothing here depends on the channel."""

    inverse2: np.ndarray  # (K,) ||G_j^-1||_F^2 = ||X||_F^2 / d^2; inf where no inverse is proven
    counts: np.ndarray    # (K, K, 2) [j, i, mode]: entries of A_j that carry h_ji(mode)
    aligned: np.ndarray   # (K, K) [j, i]: h_ji(2) scales an aligned column of A_j


def float_bound(scheme: Scheme) -> FloatBound:
    """The FloatBound of a scheme: the exact inverse X = d G_j^-1 of every
    certified G_j (`scheme.generator_inverses`, proven by X G_j = d I),
    whose row norms sum to ||X||_F^2, and, off the supports' nonzeros the
    certificate read (`PatternMatrix.nonzeros`) and the columns
    `combined_blocks` gathers (`scheme.receiver_columns`), the support
    counts behind ||A_j||_F and the aligned columns' sources."""
    pattern = scheme.pattern
    K, m = pattern.users, pattern.block_len
    _, _, scale, ok, norms = generator_inverses(pattern)
    inverse2 = np.where(ok, norms.sum(axis=1) / scale ** 2.0, np.inf)
    src, col = receiver_columns(K)
    rx = np.arange(K)[:, None]
    r, pair = pattern.nonzeros
    a, b = pair_users(K)
    # [j, pair], pair < m: the pair's entries in receiver j's mode 2, all
    # of them where j is not in the pair (its vector lies inside the pair
    # product), and read off tilde at its two owners
    total = np.bincount(pair, minlength=m)
    mode2 = total + np.zeros((K, 1))
    for u in (a, b):
        mode2[u, np.arange(u.size)] = np.bincount(pair, pattern.tilde[r, u[pair]], u.size)
    at = (rx * K + src).ravel()  # [j, c] -> flat [j, i]: the transmitter of column c of A_j
    counts = np.empty((K * K, 2))
    counts[:, 1] = np.bincount(at, mode2[rx, col].ravel(), K * K)
    counts[:, 0] = np.bincount(at, total[col].ravel(), K * K) - counts[:, 1]
    counts = counts.reshape(K, K, 2)
    pair_src = src[:, K - 1:].copy()
    pair_src[rx, col[:, :K - 1]] = rx  # j's own pairs are not aligned
    aligned = np.zeros((K, K), dtype=bool)
    aligned[rx, pair_src] = True
    aligned[rx[:, 0], rx[:, 0]] = False
    return FloatBound(inverse2=inverse2, counts=counts, aligned=aligned)


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 of every entry."""
    return z.real ** 2 + z.imag ** 2


def draw_bounds(bound: FloatBound, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(low2, frob2, plain), (T, K) each, for a stack of draws coeffs
    (T, K, K, 2) with no block: low2 = sigma_min(D_j)^2 / ||G_j^-1||_F^2, a
    lower bound on sigma_min(A_j)^2 (0 where G_j has no proven inverse),
    frob2 = ||A_j||_F^2, and plain, whether every coefficient of receiver j
    is 0 or of a modulus in [1/_RANGE, _RANGE]. All in float: the module
    docstring bounds their rounding where plain holds."""
    K = coeffs.shape[1]
    d = np.arange(K)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        mag2 = _abs2(coeffs)
        frob2 = np.einsum("tjim,jim->tj", mag2, bound.counts)
        # sigma_min of own pair {j, o}'s block B_o is at least |det_o| / ||B_o||_F
        det2 = _abs2(own_pair_dets(coeffs))
        link2 = mag2.sum(axis=-1)
        b2 = link2[:, d, d, None] + link2
        own2 = np.divide(det2, b2, out=np.zeros_like(det2), where=b2 > 0)
        own2[:, d, d] = np.inf
        aligned2 = np.where(bound.aligned, mag2[..., 1], np.inf)
        low2 = np.minimum(own2.min(axis=2), aligned2.min(axis=2)) / bound.inverse2
        plain = ((coeffs == 0) | ((mag2 >= _RANGE ** -2) & (mag2 <= _RANGE ** 2))).all(axis=(2, 3))
    return low2, frob2, plain


def _float_proven(bound: FloatBound, coeffs: np.ndarray) -> np.ndarray:
    """Which combined blocks of a stack of float draws coeffs (T, K, K, 2)
    the float bound proves full rank, (T, K): where it clears
    RATIO ||A_j||_F. Raises ValueError on a non-finite coefficient."""
    if not np.isfinite(coeffs).all():
        raise ValueError("non-finite entries")
    low2, frob2, plain = draw_bounds(bound, coeffs)
    return plain & (low2 > RATIO ** 2 * frob2)


def verify_decodability(ch: ChannelSet, scheme: Scheme, draw: int = 0) -> list[ReceiverCheck]:
    """Check the three rank conditions at every receiver for one draw: a
    receiver the float bound proves (module docstring) reports full ranks
    with no block; every other one has its combined block ranked by one
    SVD, and only a short one has its two blocks ranked too.

    Failures are reported, never raised; callers decide severity.
    """
    coeffs = ch.coeffs[None]
    ranks = _gather_ranks(scheme, coeffs, _float_proven(float_bound(scheme), coeffs), False)
    return _as_checks(ranks, scheme.config.users, draw)


def _exact_channel_ints(K: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian-integer channel draw for certification runs; entries are
    nonzero integers in [-999, 999] + i[-999, 999]."""
    coeffs = rng.integers(-999, 1000, size=(K, K, 2, 2))
    while True:
        dead = (coeffs[..., 0] == 0) & (coeffs[..., 1] == 0)
        if not dead.any():
            return coeffs
        coeffs[dead] = rng.integers(-999, 1000, size=(int(dead.sum()), 2))


def _exact_draws(K: int, rng: np.random.Generator, draws: int) -> np.ndarray:
    """The next `draws` `_exact_channel_ints` draws of rng, one after
    another, as complex coefficients (T, K, K, 2) [draw, rx, tx, mode]."""
    h = np.stack([_exact_channel_ints(K, rng) for _ in range(draws)])
    return h[..., 0] + 1j * h[..., 1]


def _exact_ranks(stack: np.ndarray) -> np.ndarray:
    """gaussian_rank of every complex block of a stack with exact
    Gaussian-integer entries, one block at a time."""
    parts = np.stack([stack.real, stack.imag], axis=-1).astype(np.int64)
    return np.array([gaussian_rank(block.tolist()) for block in parts], dtype=np.int64)


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


def _gather_ranks(scheme: Scheme, coeffs: np.ndarray, proven: np.ndarray, exact: bool) -> np.ndarray:
    """The (T * K, 3) int64 ranks (rank_desired, rank_interference,
    rank_combined), in (draw, rx) order, of a chunk of draws coeffs
    (T, K, K, 2) whose proof (`_proven` or `_float_proven`) settled the
    combined blocks in proven (T, K): decide, then gather (module
    docstring). Bareiss ranks every exact block and `stack_ranks` every
    float one, the combined block first and the two blocks of a short A_j
    after it."""
    K, m = scheme.config.users, scheme.config.block_len
    out = np.empty(proven.shape + (3,), dtype=np.int64)
    out[...] = expected_ranks(scheme.config)
    rank = _exact_ranks if exact else stack_ranks
    for j in np.flatnonzero(~proven.all(axis=0)).tolist():
        draws = np.flatnonzero(~proven[:, j])
        for part in chunks(draws.size, m * m):
            t = draws[part.start:part.stop]
            a = combined_blocks(scheme.pattern, coeffs[t], j)
            ranks = rank(a)
            out[t, j, 2] = ranks
            a, t = a[ranks < m], t[ranks < m]
            out[t, j, 0] = rank(a[..., :K - 1])
            out[t, j, 1] = rank(a[..., K - 1:])
    return out.reshape(-1, 3)


def verify_decodability_exact(scheme: Scheme, seed=0, draw: int = 0) -> list[ReceiverCheck]:
    """Same three conditions with exact arithmetic over one Gaussian-integer
    draw of default_rng(seed): `_proven` settles a certified receiver whose D_j
    factors are all nonzero, and `gaussian_rank` ranks every other block
    (its parts are integers below 1000, exact in complex float64), so no
    floating tolerance takes part anywhere."""
    coeffs = _exact_draws(scheme.config.users, np.random.default_rng(seed), 1)
    ranks = _gather_ranks(scheme, coeffs, _proven(scheme.certified_receivers, coeffs), True)
    return _as_checks(ranks, scheme.config.users, draw)


@dataclass(eq=False)
class VerificationReport:
    """Aggregate of rank checks over many draws: ranks is the
    (draws * users, 3) int64 array of (rank_desired, rank_interference,
    rank_combined) of every (draw, receiver) pair, in (draw, rx) order."""

    users: int
    draws: int
    seed: int
    exact: bool
    ranks: np.ndarray

    @property
    def passed(self) -> np.ndarray:
        """Whether each row of ranks is the expected one, (draws * users,)."""
        return (self.ranks == expected_ranks(make_config(self.users))).all(axis=1)

    @property
    def failures(self) -> int:
        return int(np.count_nonzero(~self.passed))

    @property
    def all_passed(self) -> bool:
        return self.failures == 0

    def failing_receivers(self) -> tuple[int, ...]:
        return tuple(np.unique(np.flatnonzero(~self.passed) % self.users + 1).tolist())

    @property
    def checks(self) -> list[ReceiverCheck]:
        """The rows of ranks as ReceiverCheck objects, a view no run builds."""
        return _as_checks(self.ranks, self.users, 0)


def run_verification(scheme: Scheme, draws: int, seed: int, exact: bool = False) -> VerificationReport:
    """Verify a scheme over the successive draws of the seed's channel
    (float) or exact stream, a chunk at a time (module docstring). Raises
    ValueError unless draws is an integer >= 1 and seed an integer >= 0."""
    if not is_int(draws) or draws < 1:
        raise ValueError("draws (trials) must be an integer >= 1, got %r" % (draws,))
    if not is_int(seed) or seed < 0:
        raise ValueError("seed must be an integer >= 0, got %r" % (seed,))
    K = scheme.config.users
    parts = []
    bound = None if exact else float_bound(scheme)
    rng = np.random.default_rng(stream_seed(seed, EXACT_STREAM if exact else CHANNEL_STREAM))
    for chunk in chunks(draws, 2 * K * K):
        if exact:
            coeffs = _exact_draws(K, rng, len(chunk))
            proven = _proven(scheme.certified_receivers, coeffs)
        else:
            coeffs = draw_channel_stack(K, rng, len(chunk))
            proven = _float_proven(bound, coeffs)
        parts.append(_gather_ranks(scheme, coeffs, proven, exact))
    return VerificationReport(
        users=K, draws=draws, seed=seed, exact=exact, ranks=np.concatenate(parts))


_CHECK_FIELDS = ("draw", "rx", "rank_desired", "rank_interference", "rank_combined", "pass")


def _check_columns(report: VerificationReport) -> list:
    """The columns of _CHECK_FIELDS but the last, one row a check."""
    row = np.arange(len(report.ranks))
    return [row // report.users, row % report.users + 1, *report.ranks.T]


def report_to_json(report: VerificationReport) -> str:
    passed = report.passed
    return render_json({
        "K": report.users,
        "draws": report.draws,
        "seed": report.seed,
        "exact": report.exact,
        "failures": int(np.count_nonzero(~passed)),
        "checks": Records(_CHECK_FIELDS, _check_columns(report) + [passed]),
    })


def report_to_csv(report: VerificationReport) -> str:
    return render_csv(list(_CHECK_FIELDS), _check_columns(report) + [report.passed.astype(np.int64)])


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
