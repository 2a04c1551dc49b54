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
A run makes one Generator per (seed, stream) (`channel.stream_seed`):
draw t is the t-th draw of the seed's channel stream in float mode, the
stream the simulator reads too, and of its exact stream in exact mode, so a
run is a prefix of a longer one with the same seed. Runs take their draws
in `exactrank.chunks` (at least one draw a chunk), each chunk the next
draws of the stream, by the one sizing rule of every batched kernel: exact
runs at K m^2 block entries a draw, float runs at 2 K^2 channel
coefficients a draw, the work of their decision. A float run gathers what
it still needs a receiver at a time, in chunks of at most
`exactrank.BATCH_ELEMENTS` entries or one block, so every gathered, Gram,
factor or SVD stack stays that small and memory stays flat in the draw
count and in K; chunking changes no output.
`decompose_receiver`, `verify_decodability` and `verify_decodability_exact`
are one-draw views of the same kernels. A run's ranks stay one
(draws * K, 3) int64 array in (draw, rx) order from the kernels to the
emitted bytes (`VerificationReport.ranks`); only the one-draw views and
`VerificationReport.checks` turn its rows into ReceiverCheck objects.

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
(`decompose_receiver`'s `proven`). Float verification reads a float
bound off the same factorisation: G_j^-1, exact and proven by the exact
product G_j X = I, with the draw's own D_j. The two modes:

- float: Gaussian draws, fast, the package's numerical check of the
  certificate. Its ranks are those of `stack_ranks`, one batched SVD cut
  at max(shape) * eps * sigma_max (`rank_of` is its one-matrix view; the
  two blocks of every short A_j are ranked in stacks too). The rule
  agrees with ranking every block: a column subset D of A has
  sigma_min(D) >= sigma_min(A) and sigma_max(D) <= sigma_max(A), so
  whenever the cut lies below sigma_min(A) it lies below sigma_min(D)
  too. Like exact mode it decides,
  then gathers. `float_bound` reads the scheme once a run: the exact
  inverse of every certified G_j that the singleton peel empties
  (`scheme.generator_inverses`; every built G_j has one, with
  ||G_j^-1||_F^2 = nnz(G_j)), the support counts that give ||A_j||_F
  from the coefficients, and the sources of the aligned columns. Each
  chunk, `draw_bounds` reads the draws' D_j, O(K^2) a draw and no block.

  The bound. A_j P = G_j D_j for a column permutation P, exactly in float
  too: every entry of the gathered block is one coefficient or 0. So
  sigma_min(A_j) >= sigma_min(G_j) sigma_min(D_j) (Golub & Van Loan,
  Matrix Computations) with sigma_min(G_j) = 1 / ||G_j^-1||_2 >=
  1 / ||G_j^-1||_F. D_j is block diagonal, so sigma_min(D_j) is the least
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
  ||G_j^-1||_F^2 is an exact integer below 2^52 (`exactrank.is_inverse`),
  and the product and quotient of the test add 2u. So a test that passes
  gives sigma_min(D_j) / ||G_j^-1||_F >= (1 - 2 K^2 u - 20u) tau F - 2u F
  >= (1 - 1e-3) tau F for every K below 10^6, since 2u < 1e-6 tau: hence
  sigma_min(A_j) > (1 - 1e-3) tau F >= 9.3e-10 sigma_max(A_j). LAPACK's
  singular values are off by a few m u sigma_max at most, so the SVD cut
  m * eps * sigma_max (about 2.6e-13 sigma_max at m = 1175) cannot reach
  sigma_min: the SVD would find rank m, and the report is
  `expected_ranks` with no block. The test is strict, so an all-zero draw
  (F = 0) never passes, and a receiver with no proven inverse (an
  uncertified G_j, or a certified one the peel leaves a core of: the
  pair-product families) has a bound of 0 and passes in no draw.

  Only the (draw, receiver) pairs the bound leaves are gathered, a
  receiver at a time, and ranked: an uncertified receiver's by
  `stack_ranks` alone (its A_j is singular in every draw, so no margin
  can prove it), a certified one's by `square_ranks`, which skips the SVD
  of a stack whose every A the Cholesky margin proves full.

  The margin (Rump, "Verification of positive definiteness", BIT 2006).
  Let F = ||A||_F of an m x m block. Form G = fl(A^H A),
  subtract MARGIN * F^2 (MARGIN = tau^2 = 2^-30, F^2 the trace of G) from
  its diagonal and factor the result by Cholesky. If the factor exists,
  A^H A minus tau^2 F^2 I differs from R^H R, a positive semidefinite
  matrix, by the rounding of the Gram, the shift and the factorisation
  (Higham, 10.1: |dH| <= gamma_(m+1) |R^H||R|, and ||R||_F^2 is about
  F^2), at most about 4(m+2) u F^2 in the 2-norm, which is under 1e-3
  tau^2 F^2 for m <= 2095 (build_scheme stops at m = 1175). So
  sigma_min(A) > (1 - 1e-3) tau F >= 3e-5 sigma_max(A), which the SVD
  cut cannot reach either. A stack whose factorisation fails, or whose
  F^2 is not finite or not well clear of underflow, goes to `stack_ranks`
  whole. A draw with a non-finite coefficient raises ValueError before
  anything is bounded or gathered.
- exact: certification grade, over Gaussian-integer draws (one
  `_exact_channel_ints` draw after another from the run's exact stream),
  with one exact rule and no prime. It decides, then gathers: each chunk
  draws its coefficients and `_proven` decides every certified receiver
  from them alone (every factor is a product of
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
from .formats import Records, is_int, render_csv, render_json
from .scheme import Scheme, SchemeConfig, generator_inverses, make_config


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


def _receiver_checks(blocks, rank_combined, ranks) -> np.ndarray:
    """The one rank rule, over the square combined blocks of a chunk of draws.

    rank_combined (T, K) holds the rank of every combined block; blocks, a
    dict keyed by (t, j), holds A_j of draw t where that rank is short. A
    full one proves the expected ranks; otherwise `ranks` ranks the desired
    and the interference column blocks, each stacked over the short A_j in
    `exactrank.chunks` of blocks. Returns the (T * K, 3) int64 array of
    (rank_desired, rank_interference, rank_combined), in (draw, rx) order.
    """
    rank_combined = np.asarray(rank_combined)
    K = rank_combined.shape[1]
    full = expected_ranks(make_config(K))
    out = np.empty(rank_combined.shape + (3,), dtype=np.int64)
    out[...] = full
    out[..., 2] = rank_combined
    short = np.argwhere(rank_combined < full[2])
    for part in chunks(len(short), full[2] ** 2):
        t, j = short[part].T
        a = np.stack([blocks[key] for key in zip(t.tolist(), j.tolist())])
        out[t, j, 0] = ranks(a[..., :K - 1])
        out[t, j, 1] = ranks(a[..., K - 1:])
    return out.reshape(-1, 3)


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

    inverse2: np.ndarray  # (K,) ||G_j^-1||_F^2, exact; inf where no inverse is proven
    counts: np.ndarray    # (K, K, 2) [j, i, mode]: entries of A_j that carry h_ji(mode)
    aligned: np.ndarray   # (K, K) [j, i]: h_ji(2) scales an aligned column of A_j


def float_bound(scheme: Scheme) -> FloatBound:
    """The FloatBound of a scheme: the exact inverse of every certified G_j
    the singleton peel empties (`scheme.generator_inverses`, proven by
    G_j X = I), and from the supports and the pattern alone, per receiver,
    the support counts behind ||A_j||_F and the aligned columns' sources
    (the pairs' owners as `receiver_layout` picks them)."""
    pattern = scheme.pattern
    K, m = pattern.users, pattern.block_len
    index, values, ok = generator_inverses(pattern)
    squares = np.bincount(index // (m * m), weights=values.astype(float) ** 2, minlength=K)
    inverse2 = np.where(ok, squares, np.inf)
    a, b = np.array(list(itertools.combinations(range(K), 2))).T
    rx = np.arange(K)[:, None]
    src = np.where(a == rx, b, a)
    own = (a == rx) | (b == rx)
    mode2 = pattern.tilde.T @ pattern.supports  # [j, pair]: support rows where j is in mode 2
    per_mode = np.stack([pattern.supports.sum(axis=0) - mode2, mode2], axis=-1)
    counts = np.zeros((K, K, 2))
    np.add.at(counts, (rx, src), per_mode)  # every pair's column
    d = np.arange(K)
    counts[d, d] += (per_mode * own[..., None]).sum(axis=1)  # j's own beams
    aligned = np.zeros((K, K), dtype=bool)
    aligned[rx, np.where(own, rx, src)] = True
    aligned[d, d] = False
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


def _float_checks(scheme: Scheme, bound: FloatBound, coeffs: np.ndarray) -> np.ndarray:
    """The ranks (`_receiver_checks`) of a chunk of float draws: decide,
    then gather. The bound proves a receiver full rank where it clears
    RATIO ||A_j||_F; only the other (draw, rx) pairs take a block, gathered
    a receiver at a time in `exactrank.chunks` of blocks, and
    `square_ranks` ranks a certified receiver's, `stack_ranks` an
    uncertified one's (always singular, so the margin could never prove
    it). Only short blocks are kept, for their sub-block ranks."""
    if not np.isfinite(coeffs).all():
        raise ValueError("non-finite entries")
    m = scheme.config.block_len
    low2, frob2, plain = draw_bounds(bound, coeffs)
    proven = plain & (low2 > RATIO ** 2 * frob2)
    rank_combined = np.full(proven.shape, m)
    blocks = {}
    todo = np.flatnonzero(~proven.all(axis=0)).tolist()
    layout = receiver_layout(scheme) if todo else None
    for j in todo:
        rank = square_ranks if scheme.certified_receivers[j] else stack_ranks
        draws = np.flatnonzero(~proven[:, j])
        for part in chunks(draws.size, m * m):
            t = draws[part.start:part.stop]
            a = layout.blocks(coeffs[t], j)
            ranks = rank(a)
            rank_combined[t, j] = ranks
            for i in np.flatnonzero(ranks < m).tolist():
                blocks[int(t[i]), j] = a[i]
    return _receiver_checks(blocks, rank_combined, stack_ranks)


def verify_decodability(ch: ChannelSet, scheme: Scheme, draw: int = 0) -> list[ReceiverCheck]:
    """Check the three rank conditions at every receiver for one draw: a
    receiver the float bound proves (module docstring) reports full ranks
    with no block; every other one has its combined block ranked (the
    Cholesky margin, else one SVD, or the SVD alone when uncertified), and
    only a short one has its two blocks ranked too.

    Failures are reported, never raised; callers decide severity.
    """
    ranks = _float_checks(scheme, float_bound(scheme), ch.coeffs[None])
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


def _exact_checks(scheme: Scheme, rng: np.random.Generator, draws: int) -> np.ndarray:
    """The ranks (`_receiver_checks`) of a chunk of exact draws, the next
    `draws` Gaussian-integer draws of rng, one after another: decide, then
    gather. A receiver `_proven` proves has rank m and needs no block; only
    the other (draw, rx) pairs take one, gathered a draw at a time on a
    layout built only when such a pair exists, and Bareiss ranks them."""
    K = scheme.config.users
    h = np.stack([_exact_channel_ints(K, rng) for _ in range(draws)])
    coeffs = h[..., 0] + 1j * h[..., 1]  # (T, K, K, 2) [draw, rx, tx, mode]
    proven = _proven(scheme.certified_receivers, coeffs)
    rank_combined = np.full(proven.shape, scheme.config.block_len)
    blocks = {}
    todo = [(t, np.flatnonzero(~row).tolist()) for t, row in enumerate(proven) if not row.all()]
    layout = receiver_layout(scheme) if todo else None
    for t, rx in todo:
        a = layout.blocks(coeffs[t, None], rx)[0]
        rank_combined[t, rx] = _exact_ranks(a)
        blocks.update(((t, j), b) for j, b in zip(rx, a))
    return _receiver_checks(blocks, rank_combined, _exact_ranks)


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
    ranks = _exact_checks(scheme, np.random.default_rng(seed), 1)
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
    """Verify a scheme over independent channel draws (floating or exact),
    the successive draws of the seed's channel or exact stream, in chunks
    of draws (see the module docstring: a float run reads its
    scheme's FloatBound once; either mode builds a layout only in a chunk
    that holds a (draw, receiver) pair its proof leaves open). Raises
    ValueError unless draws is an integer >= 1 and seed an integer >= 0."""
    if not is_int(draws) or draws < 1:
        raise ValueError("draws (trials) must be an integer >= 1, got %r" % (draws,))
    if not is_int(seed) or seed < 0:
        raise ValueError("seed must be an integer >= 0, got %r" % (seed,))
    K, m = scheme.config.users, scheme.config.block_len
    parts = []
    bound = None if exact else float_bound(scheme)
    rng = np.random.default_rng(stream_seed(seed, EXACT_STREAM if exact else CHANNEL_STREAM))
    for chunk in chunks(draws, K * m * m if exact else 2 * K * K):
        if exact:
            parts.append(_exact_checks(scheme, rng, len(chunk)))
        else:
            coeffs = draw_channel_stack(K, rng, len(chunk))
            parts.append(_float_checks(scheme, bound, coeffs))
    return VerificationReport(
        users=K, draws=draws, seed=seed, exact=exact, ranks=np.concatenate(parts))


_CHECK_FIELDS = ("draw", "rx", "rank_desired", "rank_interference", "rank_combined", "pass")


def _check_columns(report: VerificationReport) -> list:
    """The columns of _CHECK_FIELDS but the last, one row a check."""
    row = np.arange(len(report.ranks))
    return [row // report.users, row % report.users + 1, *report.ranks.T]


def report_to_json(report: VerificationReport) -> str:
    return render_json({
        "K": report.users,
        "draws": report.draws,
        "seed": report.seed,
        "exact": report.exact,
        "failures": report.failures,
        "checks": Records(_CHECK_FIELDS, _check_columns(report) + [report.passed]),
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
