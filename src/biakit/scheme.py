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
(check_supports, through certify_receivers; the default pair products
need no check). A Scheme is a pattern plus its pair map, which says under
which dimension each owner sends its pair's column; both owners of a pair
therefore always send one vector, and the pattern's certificate is the
scheme's.

Receiver j can separate its K-1 desired dimensions from interference iff a
binary m x m generator matrix G_j is nonsingular over the rationals (see
certify_receivers), an exact channel-free condition this module certifies
during construction. When every shared vector is the full pair product,
fully certified matrices exist only for K = 3 and K = 4 and four certified
receivers is the ceiling beyond (README "Known limitations"; that
reference family and its exhaustive scan live in biakit.designspace).
Narrower supports lift that ceiling: build_scheme returns the closed-form
star family (star_pattern_matrix), whose every G_j has determinant +-1
for every K.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSchemeError
from .exactrank import chunks, integer_rank, nonsingular, peel_inverses
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
    receiver j (certify_receivers, which checks explicit supports),
    computed at construction and never taken from the caller.
    """

    tilde: np.ndarray
    supports: np.ndarray | None = None  # None: product_matrix(tilde)
    certified_receivers: tuple[bool, ...] = field(init=False)

    def __post_init__(self):
        bad = np.argwhere((self.tilde != 0) & (self.tilde != 1))
        if bad.size:
            r, c = bad[0]
            raise ValueError("tilde entries must be 0 or 1, got %s at row %d, column %d"
                             % (self.tilde[r, c], r + 1, c + 1))
        if self.supports is None:  # the pair products themselves: nothing to check
            self.supports = product_matrix(self.tilde)
            self.certified_receivers = tuple(
                bool(x) for x in certify_patterns(self.tilde[None], self.supports[None])[0])
        else:
            self.certified_receivers = certify_receivers(self.tilde, self.supports)

    @property
    def modes(self) -> np.ndarray:
        return self.tilde + 1

    @property
    def block_len(self) -> int:
        return int(self.tilde.shape[0])

    @property
    def users(self) -> int:
        return int(self.tilde.shape[1])


def zero_at(K: int, *users: int) -> tuple[int, ...]:
    """The length-K binary row that is 0 exactly at the given users."""
    return tuple(0 if c in users else 1 for c in range(K))


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


def check_supports(tilde: np.ndarray, supports: np.ndarray) -> None:
    """Raise ValueError unless supports is an (m, C(K,2)) 0/1 matrix whose
    every column lies inside its pair product: the condition that puts
    every third receiver in mode 2 on the pair's shared vector. The first
    bad entry, pair by pair, is named by its pair and row.

    Only the nonzero entries are read. tilde is 0/1 (PatternMatrix checks
    it), so row r lies inside the product of pair {a, b} iff every other
    column of the row is 1: its sum less tilde[r, a] and tilde[r, b] is K - 2.
    """
    m, K = tilde.shape
    v = np.asarray(supports)
    if v.shape != (m, K * (K - 1) // 2):
        raise ValueError("supports must be a %d x %d matrix, one column per pair, got shape %s"
                         % (m, K * (K - 1) // 2, v.shape))
    c, r = np.nonzero(v.T)  # pair by pair, then row by row
    a, b = np.triu_indices(K, 1)
    t = np.asarray(tilde, dtype=np.int64)
    malformed = v[r, c] != 1
    bad = np.flatnonzero(malformed | (t.sum(axis=1)[r] - t[r, a[c]] - t[r, b[c]] != K - 2))
    if bad.size:
        first = bad[0]
        pair, row = int(c[first]), int(r[first])
        if malformed[first]:
            raise ValueError("support of pair {%d,%d} must be 0/1, got %s at row %d"
                             % (a[pair] + 1, b[pair] + 1, v[row, pair], row + 1))
        raise ValueError("support of pair {%d,%d} leaves the pair product at row %d"
                         % (a[pair] + 1, b[pair] + 1, row + 1))


def certify_receivers(tilde: np.ndarray, supports: np.ndarray | None = None) -> tuple[bool, ...]:
    """Channel-free decodability certificate, one flag per receiver.

    Receiver j separates desired from interference for almost every channel
    draw iff the binary m x m matrix G_j has rank m over the rationals. G_j
    holds the shared vector v_ab of every pair without j, and the two mode
    halves v_jo*(1-t_j), v_jo*t_j of every pair {j, o} (t_j: j's pattern
    column). Up to column order the received combined block is G_j D_j,
    with D_j block diagonal: one mode-2 coefficient per aligned pair (j is
    in mode 2 on every v_ab) and the 2x2 block [[h_jj(1), h_jo(1)],
    [h_jj(2), h_jo(2)]] per own pair, invertible for almost every draw.

    supports defaults to the pair products; there v_jo*t_j = w_o (the
    exclude-one product), so G_j spans the same space as [U | w_o, o != j].
    Explicit supports are checked against their pair products first
    (check_supports): the one alignment check, where supports enter.

    The K matrices are built by their nonzeros (generator_nonzeros) and
    decided by certify_patterns, so each flag is a proof either way (see
    `exactrank.nonsingular`): the singleton peel on those nonzeros expands
    G_j exactly, and exact Bareiss elimination decides whatever core is
    left.
    """
    if supports is not None:
        check_supports(tilde, supports)
        supports = np.asarray(supports)[None]
    return tuple(bool(x) for x in certify_patterns(tilde[None], supports)[0])


def certify_patterns(tilde: np.ndarray, supports: np.ndarray | None = None) -> np.ndarray:
    """certify_receivers for a stack of P patterns: (P, K) flags.

    tilde is (P, m, K); supports is (P, m, C(K,2)), every pair's shared
    vector in lexicographic pair order, or None for the pair products. The
    supports are not checked here. Every G_j is built by its nonzeros
    (generator_nonzeros), never densely. Patterns go in `exactrank.chunks`
    of at most `exactrank.BATCH_ELEMENTS` nonzeros, K times the stack's
    largest support count a pattern (at least one pattern), one
    `nonsingular` call per chunk.
    """
    count, m, K = tilde.shape
    if m != (K + 2) * (K - 1) // 2:
        raise ValueError("tilde must have (K+2)(K-1)/2 = %d rows, got %d"
                         % ((K + 2) * (K - 1) // 2, m))
    v = product_matrix(tilde) if supports is None else supports
    out = np.empty((count, K), dtype=bool)
    for chunk in chunks(count, K * int(np.count_nonzero(v, axis=(1, 2)).max(initial=0))):
        part = slice(chunk.start, chunk.stop)
        out[part] = nonsingular(m, *generator_nonzeros(tilde[part], v[part])).reshape(-1, K)
    return out


def own_pair_columns(K: int) -> tuple[np.ndarray, np.ndarray]:
    """Where receiver j's own pairs sit among the columns of G_j: (low,
    high), (K, K-1) each, the column of the mode-1 half and of the mode-2
    half of j's pair with each partner o != j, partners in increasing
    order. G_j holds every pair's column first, lexicographically, own
    pairs halved to v*(1-t_j) in place; then v*t_j of each own pair."""
    pairs = list(itertools.combinations(range(K), 2))
    low = np.array([[c for c, pair in enumerate(pairs) if j in pair] for j in range(K)])
    high = np.broadcast_to(len(pairs) + np.arange(K - 1), (K, K - 1))
    return low, high


def generator_nonzeros(tilde: np.ndarray, supports: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """G_j of every receiver j of every pattern of a stack, tilde (P, m, K)
    and supports (P, m, C(K,2)), by its nonzeros (counts, rows, cols) in
    `exactrank`'s convention, P K matrices in (pattern, receiver) order,
    columns as own_pair_columns. Every G_j holds each support entry once
    (an own pair's in its mode-1 or its mode-2 half), so each of a
    pattern's K matrices has the support's nonzero count."""
    P, m, K = tilde.shape
    low, high = own_pair_columns(K)
    half = np.full((K, low.shape[0] * (K - 1) // 2), -1)  # [j, pair]: j's mode-2 column
    half[np.arange(K)[:, None], low] = high
    owner, r, pair = np.nonzero(supports)
    nnz = np.bincount(owner, minlength=P)
    counts = np.repeat(nnz, K)
    item = np.repeat(np.arange(P * K), counts)
    p, j = item // K, item % K
    # matrix (p, j) takes pattern p's support entries, in order
    at = (np.cumsum(nnz) - nnz)[p] + np.arange(item.size) - (np.cumsum(counts) - counts)[item]
    r, pair = r[at], pair[at]
    mode2 = (half[j, pair] >= 0) & (tilde[p, r, j] == 1)
    return counts, r, np.where(mode2, half[j, pair], pair)


def generator_inverses(pattern: PatternMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(index, values, ok): the exact inverse of G_j of every receiver j,
    its nonzero entries as flat indices into (K, m, m) and their int64
    values, proven wherever ok (`exactrank.peel_inverses`: singleton peel
    order, substitution, then the exact product G_j X = I as the proof).
    ok is False for a G_j the peel does not empty: a singular one, or a
    certified one that leaves a core."""
    nonzeros = generator_nonzeros(pattern.tilde[None], pattern.supports[None])
    return peel_inverses(pattern.block_len, *nonzeros)


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
    if left:  # the star family gives every pair's rows and needs no product here
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
    """
    K = config.users
    rim = list(itertools.combinations(range(1, K), 2))
    tilde = ([zero_at(K, 0)] * (K - 1) + [zero_at(K, o) for o in range(1, K)]
             + [zero_at(K, a, b) for a, b in rim])
    r = {o: K - 2 + o for o in range(1, K)}  # row index of r_o
    rows = {(0, o): (o - 1, r[o]) for o in range(1, K)}
    rows.update({(a, b): (2 * K - 2 + n, r[a], r[b]) for n, (a, b) in enumerate(rim)})
    return pattern_from_rows(config, tilde, rows)


# ---------------------------------------------------------------------------
# pair maps


def default_pair_dims(K: int) -> dict[tuple[int, int], tuple[int, int]]:
    """Lexicographic pair order, first-come dimension indices per user."""
    nxt = [0] * K
    dims = {}
    for i, j in itertools.combinations(range(K), 2):
        dims[(i, j)] = (nxt[i], nxt[j])
        nxt[i] += 1
        nxt[j] += 1
    return dims


def check_pair_dims(K: int, dims: dict[tuple[int, int], tuple[int, int]]) -> None:
    """Raise ValueError unless dims covers every unordered pair exactly once
    and gives each user each dimension index 0..K-2 exactly once."""
    if sorted(dims) != list(itertools.combinations(range(K), 2)):
        raise ValueError("pair map must cover every unordered pair exactly once")
    seen = [set() for _ in range(K)]
    for (i, j), (di, dj) in dims.items():
        for user, d in ((i, di), (j, dj)):
            if not 0 <= d < K - 1 or d in seen[user]:
                raise ValueError(
                    "pair map must give user %d each dimension exactly once" % (user + 1))
            seen[user].add(d)


# ---------------------------------------------------------------------------
# whole schemes

# largest K m^2 build_scheme takes (K = 48): the entries of one draw's K
# combined m x m blocks, which `verify --exact` gathers in a draw whose
# proof leaves every receiver open
MAX_BLOCK_ENTRIES = 1 << 26


@dataclass(eq=False)
class Scheme:
    """A pattern and its pair map: pair_dims maps each pair (i, j), i < j,
    to the dimensions (d_i, d_j) under which both owners send the pair's
    one column of pattern.supports. The map defaults to default_pair_dims
    and is checked once, here (check_pair_dims); relabeling never changes
    spans, only which symbol rides which vector."""

    pattern: PatternMatrix
    pair_dims: dict[tuple[int, int], tuple[int, int]] | None = None

    def __post_init__(self):
        K = self.pattern.users
        self.pair_dims = default_pair_dims(K) if self.pair_dims is None else dict(self.pair_dims)
        check_pair_dims(K, self.pair_dims)

    @property
    def config(self) -> SchemeConfig:
        return make_config(self.pattern.users)

    @property
    def certified_receivers(self) -> tuple[bool, ...]:
        return self.pattern.certified_receivers

    def dimension_columns(self) -> np.ndarray:
        """(K, K-1): the column of pattern.supports that user i sends as
        dimension d."""
        K = self.pattern.users
        pairs = list(itertools.combinations(range(K), 2))
        dims = [self.pair_dims[pair] for pair in pairs]
        cols = np.empty((K, K - 1), dtype=np.intp)
        cols[np.array(pairs), np.array(dims)] = np.arange(len(pairs))[:, None]
        return cols


def _sized_config(users: int) -> SchemeConfig:
    """make_config(users), refused with ValueError when K m^2, the entries
    of one draw's K combined blocks, exceeds MAX_BLOCK_ENTRIES
    (K >= 49): checked before anything is built."""
    config = make_config(users)
    entries = users * config.block_len ** 2
    if entries > MAX_BLOCK_ENTRIES:
        raise ValueError("users K=%d is too large: one draw's K combined blocks hold "
                         "K*m^2 = %d entries, more than 2^26 (K <= 48)" % (users, entries))
    return config


def build_scheme(
    users: int,
    pair_dims: dict[tuple[int, int], tuple[int, int]] | None = None,
) -> Scheme:
    """The K-user scheme of star_pattern_matrix, which certifies every
    receiver for every K >= 3 whose K m^2, the entries of one draw's K
    combined blocks, fits MAX_BLOCK_ENTRIES (K <= 48); a larger K
    raises ValueError before anything is built."""
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
    1-indexed row and column. A K that build_scheme would refuse is refused
    here too, before anything is built.
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
