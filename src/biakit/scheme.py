"""Construction of switching-pattern matrices and binary beamforming vectors.

A scheme for K users spends m = (K+2)(K-1)/2 channel uses per block. Every
receiver follows one column of an m x K binary pattern matrix (0 -> antenna
mode 1, 1 -> mode 2). Each unordered user pair {i, j} shares one binary
beamforming vector whose support lies inside the pair product, the
element-wise product of all pattern columns except i and j. The vector
serves as one of the K-1 transmit dimensions of user i and one of user j,
so the pair's symbols occupy a single shared direction at every third
receiver, which sits in mode 2 over the whole support (Gou-Wang-Jafar
alignment needs only a constant mode there).

Each shared vector is stored once, as a column of one (m, C(K,2)) 0/1
support matrix in lexicographic pair order, the order of product_matrix
and of the certificate: PatternMatrix.supports, checked where it enters
(check_supports, through certify_receivers). A Scheme is a pattern plus
its pair map, which says under which dimension each owner sends its
pair's column; both owners of a pair therefore always send one vector,
and the pattern's certificate is the scheme's. The map is only a
labelling, read where symbols meet columns (Scheme.dimension_pairs);
every column order, G_j's and the combined block's, is
receiver_columns(K), a function of K alone.

Receiver j can separate its K-1 desired dimensions from interference iff a
binary m x m generator matrix G_j is nonsingular over the rationals (see
certify_receivers), an exact channel-free condition this module certifies
during construction. G_j is built by its nonzeros, never densely, from
one column table per pattern: the column each support entry takes in
each receiver's G_j (generator_nonzeros). The pattern keeps its
certificate's one singleton peel of every G_j (PatternMatrix.generators),
and the exact inverses that float verification and the simulator read
continue it (generator_inverses). When every shared vector is the full
pair product, fully certified matrices exist only for K = 3 and K = 4 and
four certified receivers is the ceiling beyond (README "Known
limitations"; that reference family and its exhaustive scan live in
biakit.designspace). Narrower supports lift that ceiling: build_scheme
returns the closed-form star family (star_pattern_matrix), whose every
G_j has determinant +-1 for every K.
"""
from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSchemeError
from .exactrank import Peeled, integer_rank, peel, peeled_inverses, peeled_nonsingular
from .formats import is_int, render_json


@dataclass(frozen=True)
class SchemeConfig:
    """Integer skeleton of a scheme: every size follows from K = users."""

    users: int

    @property
    def block_len(self) -> int:
        """m: channel uses per block."""
        return (self.users + 2) * (self.users - 1) // 2

    @property
    def symbols_per_user(self) -> int:
        """d: transmit dimensions per user."""
        return self.users - 1

    @property
    def pair_count(self) -> int:
        return self.users * (self.users - 1) // 2


def make_config(users: int) -> SchemeConfig:
    """Closed-form sizes for a K-user scheme; rejects degenerate K < 3."""
    if not is_int(users):
        raise TypeError("users must be an int")
    if users < 3:
        # K=2 collapses: the shared vector is an empty product (all ones)
        # and there is no third receiver to align at
        raise DegenerateSchemeError(
            "degenerate-scheme: need at least 3 users, got %d" % users)
    return SchemeConfig(users)


# ---------------------------------------------------------------------------
# pattern matrices


@dataclass(eq=False)
class PatternMatrix:
    """Binary switching patterns (one column per receiver) and the support
    of every pair's shared vector.

    tilde holds {0,1} (any other entry raises ValueError naming its row
    and column); modes = tilde + 1 holds {1,2}. supports is the
    (m, C(K,2)) 0/1 matrix whose column c is the vector the c-th pair
    (lexicographic, as in product_matrix) shares; each column must lie
    inside its pair product, and the default is product_matrix(tilde).
    certified_receivers[j] is the exact decodability certificate of
    receiver j (certify_receivers, which checks the supports), computed
    at construction and never taken from the caller. generators keeps
    the K generator matrices G_j by their nonzeros with the one singleton
    peel that proved the certificate, so generator_inverses continues it
    and no G_j is built or peeled twice; nonzeros keeps the supports'
    nonzeros (rows, pairs) as check_supports read them, row by row, for
    the float bound's counts (verify.float_bound).
    """

    tilde: np.ndarray
    supports: np.ndarray | None = None  # None: product_matrix(tilde)
    certified_receivers: tuple[bool, ...] = field(init=False)
    generators: Peeled = field(init=False, repr=False)
    nonzeros: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        bad = (self.tilde != 0) & (self.tilde != 1)
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise ValueError("tilde entries must be 0 or 1, got %s at row %d, column %d"
                             % (self.tilde[r, c], r + 1, c + 1))
        if self.supports is None:
            self.supports = product_matrix(self.tilde)
        certificate = certify_receivers(self.tilde, self.supports)
        self.certified_receivers = tuple(certificate)
        self.generators, self.nonzeros = certificate.generators, certificate.nonzeros

    @property
    def modes(self) -> np.ndarray:
        return self.tilde + 1

    @property
    def block_len(self) -> int:
        return int(self.tilde.shape[0])

    @property
    def users(self) -> int:
        return int(self.tilde.shape[1])


def pair_users(K: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, b): the users of every pair a < b, in lexicographic pair order
    (np.triu_indices(K, 1), at a fraction of its cost)."""
    return np.nonzero(np.arange(K)[:, None] < np.arange(K))


def product_matrix(tilde: np.ndarray) -> np.ndarray:
    """U: one column per user pair (lexicographic), stacked pair products.

    tilde may carry leading axes, (..., m, K) -> (..., m, C(K,2)). The
    product for (a, b) is that of the columns before a, between a and b,
    and after b: a prefix and a suffix cumulative product give the first
    and the last, one cumulative product per a the middle. int64
    multiplication is commutative and associative even when it wraps, so
    this equals the column-by-column product.
    """
    t = np.asarray(tilde, dtype=np.int64)
    one = np.ones(t.shape[:-1] + (1,), dtype=np.int64)
    before = np.cumprod(np.concatenate([one, t[..., :-1]], axis=-1), axis=-1)
    after = np.cumprod(np.concatenate([one, t[..., :0:-1]], axis=-1), axis=-1)[..., ::-1]
    blocks = []
    for a in range(t.shape[-1] - 1):
        between = np.cumprod(np.concatenate([one, t[..., a + 1:-1]], axis=-1), axis=-1)
        blocks.append(before[..., a, None] * between * after[..., a + 1:])
    return np.concatenate(blocks, axis=-1)


def certify_product_rank(tilde: np.ndarray) -> bool:
    """Exact check that U has full column rank C(K,2) over the rationals."""
    u = product_matrix(tilde)
    return integer_rank(u.tolist()) == u.shape[1]


def check_supports(tilde: np.ndarray, supports: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raise ValueError unless supports is an (m, C(K,2)) 0/1 matrix whose
    every column lies inside its pair product: the condition that puts
    every third receiver in mode 2 on the pair's shared vector. The first
    bad entry, pair by pair, is named by its pair and row. Returns the
    nonzeros (rows, pairs), row by row, which generator_nonzeros takes.

    Only the nonzero entries are read. tilde is 0/1 (PatternMatrix checks
    it), so row r lies inside the product of pair {a, b} iff every other
    column of the row is 1: its sum less tilde[r, a] and tilde[r, b] is K - 2."""
    m, K = tilde.shape
    v = np.asarray(supports)
    if v.shape != (m, K * (K - 1) // 2):
        raise ValueError("supports must be a %d x %d matrix, one column per pair, got shape %s"
                         % (m, K * (K - 1) // 2, v.shape))
    r, c = divmod(np.flatnonzero(v != 0), v.shape[1])  # np.nonzero(v), at a fraction of its cost
    a, b = pair_users(K)
    t = np.asarray(tilde, dtype=np.int64)
    malformed = v[r, c] != 1
    bad = np.flatnonzero(malformed | (t.sum(axis=1)[r] - t[r, a[c]] - t[r, b[c]] != K - 2))
    if bad.size:
        first = bad[np.argmin(c[bad])]  # the least pair, then (row by row) the least row
        pair, row = int(c[first]), int(r[first])
        if malformed[first]:
            raise ValueError("support of pair {%d,%d} must be 0/1, got %s at row %d"
                             % (a[pair] + 1, b[pair] + 1, v[row, pair], row + 1))
        raise ValueError("support of pair {%d,%d} leaves the pair product at row %d"
                         % (a[pair] + 1, b[pair] + 1, row + 1))
    return r, c


class Certificate(tuple):
    """certify_receivers' flags, one per receiver, carrying generators: the
    `exactrank.Peeled` singleton peel of the K matrices G_j that proved
    them, which generator_inverses continues, and nonzeros: the supports'
    nonzeros (rows, pairs) that check_supports returned."""

    generators: Peeled
    nonzeros: tuple[np.ndarray, np.ndarray]


def certify_receivers(tilde: np.ndarray, supports: np.ndarray | None = None) -> Certificate:
    """Channel-free decodability certificate, one flag per receiver.

    Receiver j separates desired from interference for almost every channel
    draw iff the binary m x m matrix G_j has rank m over the rationals. G_j
    holds the shared vector v_ab of every pair without j, and the two mode
    halves v_jo*(1-t_j), v_jo*t_j of every pair {j, o} (t_j: j's pattern
    column), in the columns of receiver_columns(K). The received combined
    block is A_j = G_j D_j column for column: D_j holds one mode-2
    coefficient per aligned pair (j is in mode 2 on every v_ab) and, per
    own pair, h_jj and h_jo in both modes on the pair's two columns, a 2x2
    block invertible for almost every draw.

    supports defaults to the pair products; there v_jo*t_j = w_o (the
    exclude-one product), so G_j spans the same space as [U | w_o, o != j].
    The supports are checked against their pair products first
    (check_supports): the one alignment check and read, where they enter.

    The K matrices are built by their nonzeros and peeled once
    (`exactrank.peel`), so each flag is a proof either way
    (`exactrank.peeled_nonsingular`): the peel expands G_j exactly, and
    Bareiss elimination decides whatever core is left. The flags come as
    a Certificate, a tuple that keeps that peel and the supports' nonzeros.
    Raises ValueError unless
    tilde has m = (K+2)(K-1)/2 rows."""
    rows, pairs = check_supports(tilde, product_matrix(tilde) if supports is None else supports)
    m = (tilde.shape[1] + 2) * (tilde.shape[1] - 1) // 2
    if len(tilde) != m:
        raise ValueError("tilde must have (K+2)(K-1)/2 = %d rows, got %d" % (m, len(tilde)))
    generators = peel(m, *generator_nonzeros(tilde, rows, pairs))
    certificate = Certificate(peeled_nonsingular(generators).tolist())
    certificate.generators, certificate.nonzeros = generators, (rows, pairs)
    return certificate


@functools.lru_cache(maxsize=64)
def receiver_columns(K: int) -> tuple[np.ndarray, np.ndarray]:
    """(src, col), (K, m) each, read-only and computed once per K: the one
    column map of receiver j's combined block A_j and generator matrix G_j.
    Column c of A_j carries pair col[j, c]'s vector from transmitter
    src[j, c]: columns 0..K-2 are j's own pairs, partners increasing
    (src = j), column K-1+p is pair p (lexicographic), from its lower owner
    or, when j is in it, the other. G_j holds an own pair's mode-2 half in
    its own column, its mode-1 half in column K-1+p, so A_j = G_j D_j."""
    j, n = np.arange(K)[:, None], np.arange(K - 1)
    o = n + (n >= j)  # j's partners, increasing
    a, b = np.minimum(j, o), np.maximum(j, o)
    own = a * (2 * K - a - 1) // 2 + b - a - 1  # lexicographic index of pair (a, b)
    low, high = a[o > j], b[o > j]  # row by row: every pair once, lexicographic
    src = np.hstack([np.repeat(j, K - 1, axis=1), np.where(low == j, high, low)])
    col = np.hstack([own, np.broadcast_to(np.arange(low.size), (K, low.size))])
    src.flags.writeable = col.flags.writeable = False  # one copy, shared by every caller
    return src, col


def generator_nonzeros(tilde: np.ndarray, rows: np.ndarray, pairs: np.ndarray) -> tuple[np.ndarray, ...]:
    """G_j of every receiver j by its nonzeros (counts, rows, cols) in
    `exactrank`'s convention, columns as receiver_columns(K), for tilde
    (v, K) of any v rows (the design-space scan passes its vocabulary,
    v = m + 2) and np.nonzero of the (v, C(K,2)) supports, (rows, pairs).
    G_j holds each support entry once (an own pair's in one of its mode
    halves), in a column that depends on the entry's tilde row, its pair
    and j alone, so a row subset's G_j is this G_j at its rows. One
    (K, nnz) column table, entries row by row, gives the K matrices."""
    K = tilde.shape[1]
    col = receiver_columns(K)[1]
    own = np.full((K, col.shape[1] - K + 1), -1)  # [j, pair]: j's own column of the pair
    own[np.arange(K)[:, None], col[:, :K - 1]] = np.arange(K - 1)
    at = own[:, pairs]
    table = np.where((at >= 0) & (tilde[rows].T == 1), at, K - 1 + pairs)  # (K, nnz): mode 2 in the own column
    return np.full(K, rows.size), rows[None].repeat(K, axis=0).ravel(), table.ravel()


def generator_inverses(pattern: PatternMatrix) -> tuple[np.ndarray, ...]:
    """`exactrank.peeled_inverses` of every receiver's G_j: (index, values,
    scale, ok, norms), X = d G_j^-1 exact in integers as flat indices into
    (K, m, m) and values, d (K,), ok, the proof X G_j = d I
    (`exactrank.is_inverse`, on the same peel), which holds exactly where
    the certificate does unless an entry outgrows that proof's bound, and
    norms (K, m), the squared norm of every row of X, exact where ok holds.
    It continues the peel the certificate ran (PatternMatrix.generators):
    G_j's nonzeros are not rebuilt and not peeled again; only the cores'
    adjugates, the substitution and the proof run here, each call."""
    return peeled_inverses(pattern.generators)


def pattern_from_rows(config: SchemeConfig, tilde, rows_by_pair: dict) -> PatternMatrix:
    """Validated, certified PatternMatrix from a pattern and support rows.

    rows_by_pair maps (a, b), a < b, to the 0-indexed rows of the pair's
    shared vector; a pair left out shares its full pair product. Raises
    ValueError unless tilde is an m x K matrix, 0/1 (PatternMatrix), and
    every row list is nonempty, within the block and inside its pair
    product. The certificate is recomputed, never trusted.
    """
    K, m = config.users, config.block_len
    tilde = np.array(tilde, dtype=np.int64)
    if tilde.shape != (m, K):
        raise ValueError("tilde must be %d x %d" % (m, K))
    column = {pair: c for c, pair in enumerate(itertools.combinations(range(K), 2))}
    supports = np.zeros((m, len(column)), dtype=np.int64)
    for (a, b), rows in rows_by_pair.items():
        if (a, b) not in column:
            raise ValueError("bad pair {%d,%d}" % (a + 1, b + 1))
        rows = list(rows)
        if not rows or not all(0 <= r < m for r in rows):
            raise ValueError("rows of pair {%d,%d} must be nonempty and within 1..%d"
                             % (a + 1, b + 1, m))
        supports[rows, column[(a, b)]] = 1
    left = [c for pair, c in column.items() if pair not in rows_by_pair]
    if left:  # a document that gives every pair's rows needs no product here
        supports[:, left] = product_matrix(tilde)[:, left]
    return PatternMatrix(tilde, supports)


def star_pattern_matrix(config: SchemeConfig) -> PatternMatrix:
    """The closed-form family that certifies every receiver for every K.

    User 0 is the hub. Write r_u for the row that is 0 only at user u and
    z_ab for the row that is 0 exactly at users a and b. The m rows are,
    in order: K-1 copies r_0^(o) of r_0 (o = 1..K-1), then r_o for
    o = 1..K-1, then z_ab for 1 <= a < b <= K-1 in lexicographic order.
    The hub pairs share v_0o = {r_0^(o), r_o}, the rim pairs share
    v_ab = {z_ab, r_a, r_b}; each lies inside its pair product, so
    alignment holds.

    Why every G_j (see certify_receivers) has determinant +-1: every
    pattern column has exactly K-1 zeros. A support of a pair without j
    lies inside its pair product, so only where t_j = 1; the rows with
    t_j = 0 therefore meet only the mode-1 halves of j's K-1 own pairs,
    and G_j splits into two square diagonal blocks. In each block every
    column is either a unit vector or the only column to touch some row
    (r_0^(o) for v_0o, z_ab for v_ab). Ordering those private rows and
    their columns first makes the block lower block-triangular with
    permutation blocks on the diagonal, so both blocks, and G_j, have
    determinant +-1. The certificate holds for every K, and the singleton
    peel proves it with no elimination. Its order also inverts every G_j
    exactly (generator_inverses): G_j^-1 has entries +-1, as many as G_j
    has ones (checked for K = 3..20).

    tilde and supports are written straight as arrays, their columns in
    lexicographic pair order; PatternMatrix still checks them (0/1,
    check_supports) and computes the certificate.
    """
    K, m = config.users, config.block_len
    hub = np.arange(1, K)  # hub pair (0, o) is column o - 1
    a, b = (users[K - 1:] for users in pair_users(K))  # the rim pairs, columns K-1..
    rim, z = np.arange(K - 1, a.size + K - 1), np.arange(2 * K - 2, m)  # column and row z_ab
    r = K - 2 + hub  # row of r_o
    tilde = np.ones((m, K), dtype=np.int64)
    tilde[:K - 1, 0] = tilde[r, hub] = 0
    tilde[z, a] = tilde[z, b] = 0
    supports = np.zeros((m, rim.size + K - 1), dtype=np.int64)
    supports[hub - 1, hub - 1] = supports[r, hub - 1] = 1  # v_0o = {r_0^(o), r_o}
    supports[z, rim] = supports[r[a - 1], rim] = supports[r[b - 1], rim] = 1  # v_ab = {z_ab, r_a, r_b}
    return PatternMatrix(tilde, supports)


# ---------------------------------------------------------------------------
# pair maps


def default_pair_dims(K: int) -> dict[tuple[int, int], tuple[int, int]]:
    """Lexicographic pair order, first-come dimension indices per user: (i, j)
    is user i's dimension j - 1 and user j's dimension i, since before it
    user i has its i lower pairs and its j - i - 1 higher ones, and user j
    its i pairs (a, j), a < i. Valid by construction: no check is needed."""
    return {(i, j): (j - 1, i) for i, j in itertools.combinations(range(K), 2)}


def check_pair_dims(K: int, dims: dict[tuple[int, int], tuple[int, int]]) -> None:
    """Raise ValueError unless dims holds only ints or numpy integers (a
    bool or float entry is named), covers every unordered pair exactly once
    and gives each user each dimension index 0..K-2 exactly once."""
    for pair, d in dims.items():
        if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in (*pair, *d)):
            raise ValueError("pair map entry %r: %r must hold integer users and dimensions" % (pair, d))
    if sorted(dims) != list(itertools.combinations(range(K), 2)):
        raise ValueError("pair map must cover every unordered pair exactly once")
    seen = [set() for _ in range(K)]
    for (i, j), (di, dj) in dims.items():
        for user, d in ((i, di), (j, dj)):
            if not 0 <= d < K - 1 or d in seen[user]:
                raise ValueError("pair map must give user %d each dimension exactly once" % (user + 1))
            seen[user].add(d)


# ---------------------------------------------------------------------------
# whole schemes

# largest K m^2 build_scheme takes (K = 48), the entries of one draw's K
# combined m x m blocks: a bound on the scheme sizes the package is tested
# at, since no run holds those blocks at once (verify gathers a block or
# exactrank.BATCH_ELEMENTS entries at a time)
MAX_BLOCK_ENTRIES = 1 << 26


@dataclass(eq=False)
class Scheme:
    """A pattern and its pair map: pair_dims maps each pair (i, j), i < j,
    to the dimensions (d_i, d_j) under which both owners send the pair's
    one column of pattern.supports. A caller's map is checked once, here
    (check_pair_dims); the default (default_pair_dims) is valid by
    construction. Relabeling changes no span, only which symbol rides
    which vector."""

    pattern: PatternMatrix
    pair_dims: dict[tuple[int, int], tuple[int, int]] | None = None

    def __post_init__(self):
        if self.pair_dims is None:
            self.pair_dims = default_pair_dims(self.pattern.users)
        else:  # checked, then kept as Python ints, as the JSON emitter takes them
            check_pair_dims(self.pattern.users, self.pair_dims)
            self.pair_dims = {tuple(map(int, p)): tuple(map(int, d)) for p, d in self.pair_dims.items()}

    @property
    def config(self) -> SchemeConfig:
        return make_config(self.pattern.users)

    @property
    def certified_receivers(self) -> tuple[bool, ...]:
        return self.pattern.certified_receivers

    def dimension_pairs(self) -> np.ndarray:
        """(K, K-1): [i, d] is the pair (lexicographic) whose vector user i
        sends under dimension d: the pair map, read where symbols meet columns."""
        out = np.empty((self.pattern.users, self.pattern.users - 1), dtype=np.intp)
        for p, ((a, b), (da, db)) in enumerate(sorted(self.pair_dims.items())):  # lexicographic
            out[a, da] = out[b, db] = p
        return out


def _sized_config(users: int) -> SchemeConfig:
    """make_config(users), refused with ValueError when K m^2 exceeds
    MAX_BLOCK_ENTRIES (K >= 49): checked before anything is built."""
    config = make_config(users)
    entries = users * config.block_len ** 2
    if entries > MAX_BLOCK_ENTRIES:
        raise ValueError("users K=%d is too large: K*m^2 = %d is more than 2^26 (K <= 48)"
                         % (users, entries))
    return config


def build_scheme(
    users: int,
    pair_dims: dict[tuple[int, int], tuple[int, int]] | None = None,
) -> Scheme:
    """The K-user scheme of star_pattern_matrix, which certifies every
    receiver for every K >= 3 whose K m^2 fits MAX_BLOCK_ENTRIES
    (K <= 48); a larger K raises ValueError before anything is built."""
    return Scheme(star_pattern_matrix(_sized_config(users)), pair_dims)


def scheme_to_json(scheme: Scheme) -> str:
    """External scheme document: 1-indexed users, dimensions and support rows."""
    pairs = itertools.combinations(range(scheme.config.users), 2)
    doc = {
        "K": scheme.config.users,
        "m": scheme.config.block_len,
        "tilde": [[int(x) for x in row] for row in scheme.pattern.tilde],
        "pairs": [
            {"users": [i + 1, j + 1], "dims": [d + 1 for d in scheme.pair_dims[(i, j)]],
             "rows": (np.flatnonzero(v) + 1).tolist()}
            for (i, j), v in zip(pairs, scheme.pattern.supports.T)
        ],
    }
    return render_json(doc)


def scheme_from_json(text: str) -> Scheme:
    """Rebuild a scheme from its JSON document, revalidating structure.

    The document must be an object with an integer "K", "pairs" and
    "tilde"; otherwise ValueError names the key. "pairs" is read as a pair
    map (pair_dims_from_json), so a malformed entry raises ValueError
    naming it. A pair without "rows" shares its full pair product. Given
    rows must be a list of integers, nonempty and inside the pair product;
    the certificate is recomputed. "tilde" must be a list of rows, each a
    list of K entries, or ValueError names the 1-indexed row. K, users,
    dims, rows and every "tilde" entry must be JSON integers: a float, a
    string or a boolean raises ValueError too, naming the pair or the
    1-indexed row and column. An "m", which may be left out, must be the
    JSON integer (K+2)(K-1)/2, or ValueError names it. A K that
    build_scheme would refuse is refused here too, before anything is
    built.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("scheme document must be a JSON object, got %s" % json.dumps(doc))
    for key in ("K", "pairs", "tilde"):
        if key not in doc:
            raise ValueError("scheme document has no %r key" % key)
    if not is_int(doc["K"]):
        raise ValueError('"K" must be an integer, got %s' % json.dumps(doc["K"]))
    config = _sized_config(doc["K"])
    if "m" in doc and not (is_int(doc["m"]) and doc["m"] == config.block_len):
        raise ValueError('"m" must be the integer %d for K=%d, got %s'
                         % (config.block_len, config.users, json.dumps(doc["m"])))
    dims, rows_by_pair = {}, {}
    for (i, j), pair_dims, entry in _pair_entries(doc["pairs"]):
        if not 0 <= i < j < config.users:
            raise ValueError("bad pair %r" % (entry["users"],))
        dims[(i, j)] = pair_dims
        if "rows" in entry:
            rows = entry["rows"]
            if not isinstance(rows, list) or not all(map(is_int, rows)):
                raise ValueError('"rows" of pair {%d,%d} must be a list of integers, got %s'
                                 % (i + 1, j + 1, json.dumps(rows)))
            rows_by_pair[(i, j)] = [r - 1 for r in rows]
    tilde = doc["tilde"]
    if not isinstance(tilde, list):
        raise ValueError('"tilde" must be a list of rows, got %s' % json.dumps(tilde))
    for r, row in enumerate(tilde, 1):
        if not isinstance(row, list) or len(row) != config.users:
            raise ValueError('"tilde" row %d must be a list of %d integers, got %s'
                             % (r, config.users, json.dumps(row)))
        for c, x in enumerate(row, 1):
            if not is_int(x):
                raise ValueError('"tilde" entry at row %d, column %d must be an integer, got %s'
                                 % (r, c, json.dumps(x)))
    return Scheme(pattern_from_rows(config, tilde, rows_by_pair), dims)


def _pair_entries(doc) -> list[tuple[tuple[int, int], tuple[int, int], dict]]:
    """((i, j), (di, dj), entry) per {"users": [i, j], "dims": [di, dj]}
    entry, 0-indexed with i <= j. Raises ValueError naming the first
    malformed entry, or the first that repeats a pair (in either order)."""
    if not isinstance(doc, list):
        raise ValueError('pair map must be a list of {"users": [i, j], "dims": [di, dj]} '
                         "entries, got %s" % json.dumps(doc))
    out, seen = [], set()
    for n, entry in enumerate(doc, 1):
        try:
            (i, j), (di, dj) = entry["users"], entry["dims"]
            ok = all(map(is_int, (i, j, di, dj)))
        except (KeyError, TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError('pair map entry %d must be {"users": [i, j], "dims": [di, dj]} '
                             "with integers, got %s" % (n, json.dumps(entry)))
        i, j, di, dj = i - 1, j - 1, di - 1, dj - 1
        if i > j:
            (i, j), (di, dj) = (j, i), (dj, di)
        if (i, j) in seen:
            raise ValueError("pair map entry %d repeats pair {%d,%d}" % (n, i + 1, j + 1))
        seen.add((i, j))
        out.append(((i, j), (di, dj), entry))
    return out


def pair_dims_from_json(text: str) -> dict[tuple[int, int], tuple[int, int]]:
    """Parse a pair->dimension override: [{"users":[i,j],"dims":[di,dj]}, ...],
    bare or under "pairs". Raises ValueError naming the first malformed entry."""
    doc = json.loads(text)
    if isinstance(doc, dict) and "pairs" in doc:
        doc = doc["pairs"]
    return {pair: dims for pair, dims, _ in _pair_entries(doc)}
