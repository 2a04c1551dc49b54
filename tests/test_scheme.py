"""Scheme construction: sizes, pattern matrices, beamformer assignment, JSON."""
import functools
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import biakit as bk
import biakit.exactrank
import biakit.scheme
from biakit.sim import SimConfig, estimate_dof
from biakit.verify import run_verification
from biakit.errors import DegenerateSchemeError
from biakit.designspace import make_pattern_matrix, row_vocabulary
from biakit.exactrank import integer_rank, peel, peeled_inverses
from biakit.scheme import (
    PatternMatrix,
    MAX_BLOCK_ENTRIES,
    certify_patterns,
    certify_product_rank,
    certify_receivers,
    check_supports,
    default_pair_dims,
    generator_inverses,
    generator_nonzeros,
    make_config,
    pair_dims_from_json,
    product_matrix,
    receiver_columns,
    scheme_from_json,
    scheme_to_json,
    star_pattern_matrix,
)

from conftest import (
    GOLDEN_PAIR_DIMS,
    GOLDEN_VECTORS,
    exclude_one_product,
    golden_tilde,
    pair_product,
    product_scheme,
    scan_masks,
    user_vectors,
    widened_schemes,
)


@pytest.mark.parametrize("K,m,d,pairs", [
    (3, 5, 2, 3),
    (4, 9, 3, 6),
    (5, 14, 4, 10),
    (10, 54, 9, 45),
])
def test_config_sizes(K, m, d, pairs):
    cfg = make_config(K)
    assert (cfg.block_len, cfg.symbols_per_user, cfg.pair_count) == (m, d, pairs)
    # every symbol rides one pair's shared vector, two symbols per pair
    assert 2 * cfg.pair_count == K * d
    # per receiver: d desired dimensions + one per pair fill the block exactly
    assert d + pairs == m


def test_config_and_scheme_sizes_follow_from_the_user_count():
    # no size is stored beside K, so no config or scheme can disagree with it
    cfg = bk.SchemeConfig(users=5)
    assert (cfg.block_len, cfg.symbols_per_user, cfg.pair_count) == (14, 4, 10)
    scheme = bk.build_scheme(6)
    assert scheme.config == make_config(6)
    with pytest.raises(TypeError):
        bk.Scheme(config=make_config(4), pattern=scheme.pattern, pair_dims=scheme.pair_dims)


@pytest.mark.parametrize("K", [2, 1, 0, -3])
def test_config_rejects_small_user_counts(K):
    with pytest.raises(DegenerateSchemeError, match="degenerate-scheme"):
        make_config(K)


def test_config_rejects_non_integers():
    with pytest.raises(TypeError):
        make_config(4.0)
    with pytest.raises(TypeError):
        make_config(True)


@pytest.mark.parametrize("K", range(3, 9))
def test_row_vocabulary(K):
    vocab = row_vocabulary(K)
    m = make_config(K).block_len
    assert len(vocab) == m + 2
    assert len(set(vocab)) == len(vocab)
    weights = [sum(r) for r in vocab]
    assert weights[0] == K
    assert weights[1:K + 1] == [K - 1] * K
    assert weights[K + 1:] == [K - 2] * (K * (K - 1) // 2)


def test_products_relate(scheme4):
    tilde = scheme4.pattern.tilde
    K = 4
    for i, j in itertools.combinations(range(K), 2):
        v = pair_product(tilde, i, j)
        # multiplying back the j-th column recovers the exclude-one product
        assert np.array_equal(v * tilde[:, j], exclude_one_product(tilde, i))
        assert np.array_equal(v * tilde[:, i], exclude_one_product(tilde, j))
        others = [c for c in range(K) if c not in (i, j)]
        support = np.all(tilde[:, others] == 1, axis=1)
        assert np.array_equal(v.astype(bool), support)


def test_product_matrix_columns(scheme5):
    tilde = scheme5.pattern.tilde
    u = product_matrix(tilde)
    assert u.shape == (14, 10)
    for c, (i, j) in enumerate(itertools.combinations(range(5), 2)):
        assert np.array_equal(u[:, c], pair_product(tilde, i, j))


def test_product_matrix_of_a_stack_is_the_pair_products():
    # signed entries too: the cumulative products equal the per-pair product
    tilde = np.random.default_rng(0).integers(-3, 4, size=(4, 9, 6))
    u = product_matrix(tilde)
    assert u.shape == (4, 9, 15)
    for p, t in enumerate(tilde):
        for c, (i, j) in enumerate(itertools.combinations(range(6), 2)):
            assert np.array_equal(u[p, :, c], pair_product(t, i, j))


def test_constructed_3user_matrix(scheme3):
    expect = np.array([
        [1, 1, 1],
        [1, 0, 1],
        [1, 1, 0],
        [0, 0, 1],
        [0, 1, 0],
    ])
    assert np.array_equal(make_pattern_matrix(make_config(3)).tilde, expect)
    # the star family: hub rows r_0 twice, then r_1, r_2, then z_12
    star = np.array([
        [0, 1, 1],
        [0, 1, 1],
        [1, 0, 1],
        [1, 1, 0],
        [1, 0, 0],
    ])
    assert np.array_equal(scheme3.pattern.tilde, star)


@pytest.mark.parametrize("K", range(3, 9))
def test_constructed_certificates(K):
    pattern = make_pattern_matrix(make_config(K))
    if K <= 4:
        assert pattern.certified_receivers == (True,) * K
    else:
        # four certified receivers is the proven maximum; see README
        assert pattern.certified_receivers == (True,) * 4 + (False,) * (K - 4)


@pytest.mark.parametrize("K", range(3, 9))
def test_constructed_rows_come_from_vocabulary(K):
    cfg = make_config(K)
    pattern = make_pattern_matrix(cfg)
    assert pattern.tilde.shape == (cfg.block_len, K)
    rows = [tuple(int(x) for x in r) for r in pattern.tilde]
    assert len(set(rows)) == len(rows)
    assert set(rows) <= set(row_vocabulary(K))
    assert pattern.modes.min() == 1 and pattern.modes.max() == 2


@pytest.mark.parametrize("K", range(3, 7))
def test_product_rank_certificate(K):
    assert certify_product_rank(make_pattern_matrix(make_config(K)).tilde)


@pytest.mark.parametrize("K", range(3, 7))
def test_user_vector_stacks_full_rank(K):
    scheme = bk.build_scheme(K)
    for i in range(K):
        stack = [tuple(int(x) for x in v) for v in user_vectors(scheme, i)]
        assert len(set(stack)) == K - 1
        assert integer_rank([[row[c] for c in range(K - 1)]
                             for row in zip(*stack)]) == K - 1


@pytest.mark.parametrize("K", range(3, 7))
def test_vector_sharing_bijection(K):
    scheme = bk.build_scheme(K)
    column = {pair: c for c, pair in enumerate(itertools.combinations(range(K), 2))}
    owners = {}
    for i in range(K):
        for v in user_vectors(scheme, i):
            owners.setdefault(tuple(int(x) for x in v), []).append(i)
    assert len(owners) == scheme.config.pair_count
    for v, users in owners.items():
        assert len(users) == 2
        i, j = sorted(users)
        # the owners share a subset of their pair product
        assert np.all(np.array(v) <= pair_product(scheme.pattern.tilde, i, j))
        assert np.array_equal(scheme.pattern.supports[:, column[(i, j)]], np.array(v))


@pytest.mark.parametrize("K", range(3, 7))
def test_support_mode_coupling(K):
    scheme = bk.build_scheme(K)
    tilde = scheme.pattern.tilde
    for (i, j), v in zip(itertools.combinations(range(K), 2), scheme.pattern.supports.T):
        support = v == 1
        for w in range(K):
            if w in (i, j):
                continue
            # outside receivers sit in mode 2 on the whole support
            assert np.all(tilde[support, w] == 1)
        for owner in (i, j):
            # owners see both modes across the support
            col = tilde[support, owner]
            assert col.min() == 0 and col.max() == 1


def test_owner_mode_toggle_on_golden_instance():
    tilde = golden_tilde()
    for (i, j), vec in GOLDEN_VECTORS.items():
        support = np.array(vec) == 1
        for owner in (i, j):
            col = tilde[support, owner]
            assert col.min() == 0 and col.max() == 1


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 8))
def test_default_pair_dims_is_per_user_permutation(K):
    dims = default_pair_dims(K)
    assert sorted(dims) == list(itertools.combinations(range(K), 2))
    per_user = [[] for _ in range(K)]
    for (i, j), (di, dj) in dims.items():
        per_user[i].append(di)
        per_user[j].append(dj)
    for slots in per_user:
        assert sorted(slots) == list(range(K - 1))


def test_assign_rejects_bad_maps(scheme4):
    pattern = scheme4.pattern
    good = default_pair_dims(4)
    missing = dict(good)
    del missing[(0, 1)]
    with pytest.raises(ValueError, match="every unordered pair"):
        bk.Scheme(pattern, missing)
    repeated = dict(good)
    repeated[(0, 1)] = (good[(0, 2)][0], repeated[(0, 1)][1])
    with pytest.raises(ValueError, match="dimension exactly once"):
        bk.Scheme(pattern, repeated)
    out_of_range = dict(good)
    out_of_range[(0, 1)] = (3, 0)
    with pytest.raises(ValueError):
        bk.Scheme(pattern, out_of_range)


def test_custom_pair_map_relabels_without_changing_spans(scheme4):
    relabeled = bk.Scheme(scheme4.pattern, GOLDEN_PAIR_DIMS)
    for i in range(4):
        got = {tuple(int(x) for x in v) for v in user_vectors(relabeled, i)}
        want = {tuple(int(x) for x in v) for v in user_vectors(scheme4, i)}
        assert got == want


@pytest.mark.parametrize("K", [3, 4, 5])
def test_scheme_json_roundtrip(K):
    scheme = bk.build_scheme(K)
    text = scheme_to_json(scheme)
    doc = json.loads(text)
    assert list(doc) == ["K", "m", "tilde", "pairs"]
    assert doc["K"] == K and doc["m"] == scheme.config.block_len
    back = scheme_from_json(text)
    assert np.array_equal(back.pattern.tilde, scheme.pattern.tilde)
    assert back.pair_dims == scheme.pair_dims
    assert back.certified_receivers == scheme.certified_receivers
    del doc["m"]  # m is derived from K, so a document may leave it out
    assert scheme_to_json(scheme_from_json(json.dumps(doc))) == text


def test_scheme_from_json_validates(scheme3):
    doc = json.loads(scheme_to_json(scheme3))
    short = dict(doc, tilde=doc["tilde"][:-1])
    with pytest.raises(ValueError, match="5 x 3"):
        scheme_from_json(json.dumps(short))
    bad_entry = dict(doc, tilde=[[2] + row[1:] for row in doc["tilde"]][:1] + doc["tilde"][1:])
    with pytest.raises(ValueError, match="0 or 1"):
        scheme_from_json(json.dumps(bad_entry))
    bad_pair = json.loads(scheme_to_json(scheme3))
    bad_pair["pairs"][0]["users"] = [2, 2]
    with pytest.raises(ValueError, match="bad pair"):
        scheme_from_json(json.dumps(bad_pair))


@pytest.mark.parametrize("pairs,message", [
    ([{"users": [1, 2]}], "pair map entry 1 must be"),
    (5, "pair map must be a list"),
    ([{"users": [1, 2], "dims": [1, 1], "rows": [1, 3]}, {"users": [1, 3], "dims": [2, 1]},
      {"users": [2, 3], "dims": [2, 2]}, {"users": [2, 1], "dims": [1, 1], "rows": [1]}],
     r"pair map entry 4 repeats pair \{1,2\}"),
], ids=["entry-without-dims", "pairs-not-a-list", "pair-repeated"])
def test_scheme_from_json_rejects_malformed_pairs(scheme3, pairs, message):
    doc = dict(json.loads(scheme_to_json(scheme3)), pairs=pairs)
    with pytest.raises(ValueError, match=message):
        scheme_from_json(json.dumps(doc))


def _without(key):
    def edit(doc):
        del doc[key]
        return doc
    return edit


def _with(key, value):
    def edit(doc):
        doc[key] = value
        return doc
    return edit


def _with_rows(rows):
    def edit(doc):
        doc["pairs"][0]["rows"] = rows
        return doc
    return edit


def _with_tilde_row(r, row):
    def edit(doc):
        doc["tilde"][r] = row
        return doc
    return edit


@pytest.mark.parametrize("edit,message", [
    (_without("K"), "no 'K' key"),
    (_without("pairs"), "no 'pairs' key"),
    (_without("tilde"), "no 'tilde' key"),
    (_with("K", [3]), '"K" must be an integer'),
    (_with_rows(5), r'"rows" of pair \{1,2\} must be a list of integers'),
    (_with_rows([[1]]), r'"rows" of pair \{1,2\} must be a list of integers'),
    (lambda doc: [doc], "must be a JSON object"),
    (_with("K", True), '"K" must be an integer'),
    (_with("K", 3.0), '"K" must be an integer'),
    (_with_rows([True]), r'"rows" of pair \{1,2\} must be a list of integers'),
    (_with_rows([1.0]), r'"rows" of pair \{1,2\} must be a list of integers'),
    (_with_tilde_row(1, [0, 1]), r'"tilde" row 2 must be a list of 3 integers, got \[0, 1\]'),
    (_with_tilde_row(1, 5), '"tilde" row 2 must be a list of 3 integers, got 5'),
    (_with("tilde", "abc"), '"tilde" must be a list of rows, got "abc"'),
    (_with("m", 99), '"m" must be the integer 5 for K=3, got 99'),
    (_with("m", 6), '"m" must be the integer 5 for K=3, got 6'),
    (_with("m", "x"), '"m" must be the integer 5 for K=3, got "x"'),
    (_with("m", 5.0), '"m" must be the integer 5 for K=3, got 5.0'),
    (_with("m", True), '"m" must be the integer 5 for K=3, got true'),
    (_with("m", None), '"m" must be the integer 5 for K=3, got null'),
], ids=["missing-K", "missing-pairs", "missing-tilde", "K-not-an-integer", "rows-not-a-list",
        "rows-not-integers", "not-an-object", "K-bool", "K-float", "rows-bool", "rows-float",
        "tilde-ragged-row", "tilde-row-not-a-list", "tilde-not-a-list", "m-large", "m-off-by-one",
        "m-string", "m-float", "m-bool", "m-null"])
def test_scheme_from_json_names_malformed_documents(scheme3, edit, message):
    doc = edit(json.loads(scheme_to_json(scheme3)))
    with pytest.raises(ValueError, match=message):
        scheme_from_json(json.dumps(doc))


@pytest.mark.parametrize("row, col, value", [
    (1, 1, 0.9),
    (2, 2, "1"),
    (3, 3, True),
], ids=["float", "string", "bool"])
def test_scheme_from_json_rejects_non_integer_tilde_entries(scheme3, row, col, value):
    # each value would truncate to the entry it replaces (0, 1, 1)
    doc = json.loads(scheme_to_json(scheme3))
    assert int(value) == doc["tilde"][row - 1][col - 1]
    doc["tilde"][row - 1][col - 1] = value
    with pytest.raises(ValueError, match=r'"tilde" entry at row %d, column %d must be an '
                       r'integer, got %s' % (row, col, re.escape(json.dumps(value)))):
        scheme_from_json(json.dumps(doc))


@pytest.mark.parametrize("field, value", [
    ("users", [1.7, 2]),
    ("users", [True, 2]),
    ("dims", [1.9, 1]),
    ("dims", [1, False]),
    ("users", "12"),
    ("dims", [1, 1, 1]),
], ids=["users-float", "users-bool", "dims-float", "dims-bool", "users-string", "dims-three"])
def test_pair_map_entries_must_be_json_integers(scheme3, field, value):
    doc = json.loads(scheme_to_json(scheme3))
    doc["pairs"][1][field] = value
    with pytest.raises(ValueError, match="pair map entry 2 must be"):
        scheme_from_json(json.dumps(doc))
    with pytest.raises(ValueError, match="pair map entry 2 must be"):
        pair_dims_from_json(json.dumps(doc["pairs"]))


def test_pair_dims_from_json_normalizes():
    text = json.dumps([
        {"users": [4, 2], "dims": [2, 1]},
        {"users": [1, 2], "dims": [3, 3]},
    ])
    dims = pair_dims_from_json(text)
    assert dims[(1, 3)] == (0, 1)
    assert dims[(0, 1)] == (2, 2)
    wrapped = json.dumps({"pairs": [{"users": [1, 2], "dims": [1, 1]}]})
    assert pair_dims_from_json(wrapped) == {(0, 1): (0, 0)}


@pytest.mark.parametrize("K", range(3, 9))
def test_canonical_family_certifies_only_missing_pair(K):
    pattern = PatternMatrix(np.array(row_vocabulary(K)[1:-1]))
    # bottom block holds every zero pair except the lexicographically last
    expect = tuple(j in (K - 2, K - 1) for j in range(K))
    assert pattern.certified_receivers == expect


def test_golden_instance_certificate():
    # the golden 4-user instance decodes only at the receivers of its
    # missing zero pair {2, 4}; see README Known limitations
    assert certify_receivers(golden_tilde()) == (False, True, False, True)


def test_pattern_matrix_computes_its_own_certificate():
    assert PatternMatrix(golden_tilde()).certified_receivers == (False, True, False, True)
    with pytest.raises(TypeError):
        PatternMatrix(golden_tilde(), certified_receivers=(True,) * 4)


def test_certificate_rejects_a_block_of_the_wrong_length():
    # G_j is square only for m = (K+2)(K-1)/2 rows
    with pytest.raises(ValueError, match="must have"):
        certify_receivers(np.ones((6, 3), dtype=np.int64))


@pytest.mark.parametrize("K", range(3, 21))
def test_build_scheme_certifies_every_receiver(monkeypatch, K):
    eliminations = []
    with monkeypatch.context() as patch:
        patch.setattr(biakit.exactrank, "integer_rank",
                      lambda *args: eliminations.append(args))
        scheme = bk.build_scheme(K)
    assert scheme.certified_receivers == (True,) * K
    # the singleton peel expands every G_j to nothing: no Bareiss elimination
    assert eliminations == []
    # every shared vector stays inside its pair product (alignment holds)
    check_supports(scheme.pattern.tilde, scheme.pattern.supports)
    # every receiver spends K-1 channel uses in mode 1 (the proof's square blocks)
    assert (scheme.pattern.tilde == 0).sum(axis=0).tolist() == [K - 1] * K
    if K <= 14:
        assert certify_product_rank(scheme.pattern.tilde)


def test_build_scheme_refuses_oversized_blocks(monkeypatch):
    def unreached(config):
        raise AssertionError("star_pattern_matrix built K=%d" % config.users)
    monkeypatch.setattr(biakit.scheme, "star_pattern_matrix", unreached)
    for K in (49, 100000):
        with pytest.raises(ValueError, match="users K=%d is too large" % K):
            bk.build_scheme(K)
    # K = 48 is the largest K whose one draw of K combined blocks fits
    size = [K * make_config(K).block_len ** 2 for K in (48, 49)]
    assert size[0] <= MAX_BLOCK_ENTRIES < size[1]


def test_build_scheme_48_allocates_no_dense_generator_stack():
    """The certificate reads G_j by its nonzeros: building the largest scheme
    peaks under 40 MiB of traced allocations, where a dense K m^2 int8 stack
    of its G_j alone would take 63 MiB."""
    tracemalloc.start()
    try:
        bk.build_scheme(48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_scheme_from_json_refuses_oversized_blocks(monkeypatch):
    """A document's K meets build_scheme's bound before anything is built."""
    def unreached(*args):
        raise AssertionError("a pattern was built")
    monkeypatch.setattr(biakit.scheme, "pattern_from_rows", unreached)
    with pytest.raises(ValueError, match="users K=49 is too large"):
        scheme_from_json(json.dumps({"K": 49, "pairs": [], "tilde": []}))


def _pair_product_certificate(tilde):
    """The pair-product certificate as first stated: [U | w_o, o != j]."""
    m, K = tilde.shape
    u = [pair_product(tilde, a, b) for a, b in itertools.combinations(range(K), 2)]
    w = [exclude_one_product(tilde, o) for o in range(K)]
    return tuple(
        integer_rank(np.column_stack(u + [w[o] for o in range(K) if o != j]).tolist()) == m
        for j in range(K))


def _generator_matrices(tilde, supports):
    """Every receiver's G_j (see certify_receivers), (K, m, m), built column
    by column: the mode-2 half v*t_j of j's pair with each partner,
    partners in increasing order, then every pair's vector,
    lexicographically, an own pair's halved to its mode-1 half v*(1-t_j)."""
    K = tilde.shape[1]
    pairs = list(itertools.combinations(range(K), 2))
    out = []
    for j in range(K):
        t = tilde[:, j]
        own = [supports[:, pairs.index(tuple(sorted((j, o))))] * t for o in range(K) if o != j]
        rest = [v * (1 - t) if j in pair else v for pair, v in zip(pairs, supports.T)]
        out.append(np.column_stack(own + rest))
    return np.stack(out)


def _integer_rank_certificate(tilde, supports):
    """certify_receivers by exact Bareiss elimination of every G_j."""
    m = tilde.shape[0]
    return tuple(integer_rank(g.tolist()) == m for g in _generator_matrices(tilde, supports))


def scattered_generators(tilde, supports, keep=None):
    """generator_nonzeros(tilde, supports, keep) as dense (n, m, m) 0/1
    matrices."""
    counts, rows, cols = generator_nonzeros(tilde, supports, keep)
    K = tilde.shape[1]
    m = (K + 2) * (K - 1) // 2
    g = np.zeros((len(counts), m, m), dtype=np.int64)
    g[np.repeat(np.arange(len(counts)), counts), rows, cols] = 1
    return g


@pytest.mark.parametrize("K", [3, 4, 6])
def test_receiver_columns_locate_the_halves_of_every_generator_matrix(K):
    """receiver_columns(K) puts j's pair with its n-th partner in column n
    (sent by j) and pair p in column K-1+p (sent by its lower owner, or by
    the other owner when j is in it); G_j holds an own pair's mode-2 half
    in its own column and its mode-1 half in column K-1+p, and every other
    pair's vector in column K-1+p."""
    pattern = bk.build_scheme(K).pattern
    src, col = receiver_columns(K)
    gen = scattered_generators(pattern.tilde, pattern.supports)
    pairs = list(itertools.combinations(range(K), 2))
    for j in range(K):
        t = pattern.tilde[:, j]
        for n, o in enumerate(o for o in range(K) if o != j):
            c = pairs.index(tuple(sorted((j, o))))
            assert (src[j, n], col[j, n]) == (j, c)
            assert np.array_equal(gen[j][:, n], pattern.supports[:, c] * t)
            assert np.array_equal(gen[j][:, K - 1 + c], pattern.supports[:, c] * (1 - t))
        for c, (a, b) in enumerate(pairs):
            assert (src[j, K - 1 + c], col[j, K - 1 + c]) == (b if a == j else a, c)
            if j not in (a, b):
                assert np.array_equal(gen[j][:, K - 1 + c], pattern.supports[:, c])


@pytest.mark.parametrize("K", range(3, 8))
def test_star_generator_matrices_are_unimodular(K):
    # the docstring's proof: every G_j of the star family has determinant +-1
    pattern = star_pattern_matrix(make_config(K))
    for g in _generator_matrices(pattern.tilde, pattern.supports):
        assert abs(sympy.Matrix(g.tolist()).det()) == 1


@pytest.mark.parametrize("K", range(3, 15))
def test_certificate_matches_integer_rank_on_built_schemes(K):
    pattern = bk.build_scheme(K).pattern
    assert pattern.certified_receivers == _integer_rank_certificate(pattern.tilde, pattern.supports)


@pytest.mark.parametrize("K", range(3, 6))
def test_certificate_matches_integer_rank_on_every_scan_candidate(K):
    vocab = row_vocabulary(K)
    for omit in itertools.combinations(range(len(vocab)), 2):
        tilde = np.array([row for r, row in enumerate(vocab) if r not in omit], dtype=np.int64)
        assert certify_receivers(tilde) == _integer_rank_certificate(tilde, product_matrix(tilde))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6).flatmap(lambda K: st.lists(
    st.lists(st.integers(0, 1), min_size=K, max_size=K),
    min_size=(K + 2) * (K - 1) // 2, max_size=(K + 2) * (K - 1) // 2)))
def test_generalised_certificate_matches_pair_product_form(rows):
    tilde = np.array(rows, dtype=np.int64)
    expect = _pair_product_certificate(tilde)
    assert certify_receivers(tilde) == expect
    assert certify_receivers(tilde, product_matrix(tilde)) == expect


@pytest.mark.parametrize("K", range(3, 9))
def test_generalised_certificate_matches_on_built_families(K):
    tilde = make_pattern_matrix(make_config(K)).tilde
    assert certify_receivers(tilde) == _pair_product_certificate(tilde)


@pytest.mark.parametrize("K", range(5, 9))
def test_widened_scheme_json_roundtrip(K):
    scheme = bk.build_scheme(K)
    doc = json.loads(scheme_to_json(scheme))
    pairs = itertools.combinations(range(K), 2)
    for entry, pair, v in zip(doc["pairs"], pairs, scheme.pattern.supports.T, strict=True):
        assert tuple(u - 1 for u in entry["users"]) == pair
        assert entry["rows"] == [r + 1 for r in np.flatnonzero(v)]
    back = scheme_from_json(scheme_to_json(scheme))
    assert back.certified_receivers == (True,) * K
    assert np.array_equal(back.pattern.supports, scheme.pattern.supports)
    for c, pair in enumerate(itertools.combinations(range(K), 2)):
        for i, d in zip(pair, back.pair_dims[pair]):
            assert np.array_equal(user_vectors(back, i)[d], scheme.pattern.supports[:, c])


@settings(max_examples=40, deadline=None)
@given(widened_schemes())
def test_widened_scheme_json_roundtrip_property(scheme):
    pattern = scheme.pattern
    back = scheme_from_json(scheme_to_json(scheme))
    assert np.array_equal(back.pattern.tilde, pattern.tilde)
    assert np.array_equal(back.pattern.supports, pattern.supports)
    assert back.pair_dims == scheme.pair_dims
    assert back.certified_receivers == pattern.certified_receivers
    assert pattern.certified_receivers == _integer_rank_certificate(pattern.tilde, pattern.supports)


def _check_supports_per_pair(tilde, supports):
    """check_supports as a loop over the pairs and their rows: the message
    oracle."""
    m, K = tilde.shape
    pairs = list(itertools.combinations(range(K), 2))
    if supports.shape != (m, len(pairs)):
        raise ValueError("supports must be a %d x %d matrix, one column per pair, got shape %s"
                         % (m, len(pairs), supports.shape))
    for (a, b), v in zip(pairs, supports.T):
        product = pair_product(tilde, a, b)
        for r in range(m):
            if v[r] not in (0, 1):
                raise ValueError("support of pair {%d,%d} must be 0/1, got %s at row %d"
                                 % (a + 1, b + 1, v[r], r + 1))
            if v[r] > product[r]:
                raise ValueError("support of pair {%d,%d} leaves the pair product at row %d"
                                 % (a + 1, b + 1, r + 1))


def _raised(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 5).flatmap(lambda K: st.tuples(
    st.just(K),
    st.lists(st.tuples(st.sampled_from(["short", "two", "row"]),
                       st.integers(0, 20), st.integers(0, 50)), max_size=3),
    st.booleans())))
def test_check_supports_names_the_same_pair_and_row_as_a_per_pair_loop(case):
    """Support matrices with a row or a column missing, non-binary entries
    or rows outside the pair product raise the per-pair loop's message."""
    K, edits, drop = case
    pattern = bk.build_scheme(K).pattern
    supports = pattern.supports.copy()
    for kind, n, row in edits:
        if kind == "short":
            supports = supports[:-1]
        else:
            c = n % supports.shape[1]
            # 1 leaves the pair product unless the row is inside it
            supports[row % len(supports), c] = 2 if kind == "two" else 1
    if drop:
        supports = supports[:, 1:]
    expect = _raised(_check_supports_per_pair, pattern.tilde, supports)
    assert _raised(check_supports, pattern.tilde, supports) == expect


@pytest.mark.parametrize("row,col,value,message", [
    (2, 1, 2, r"pair \{1,3\} must be 0/1, got 2 at row 3"),
    (4, 0, 1, r"pair \{1,2\} leaves the pair product at row 5"),
    (7, 5, -1, r"pair \{3,4\} must be 0/1, got -1 at row 8"),
], ids=["two", "outside", "negative"])
def test_support_matrices_name_the_pair_and_row(scheme4, row, col, value, message):
    """A support matrix that is not 0/1 or leaves a pair product is refused
    wherever one is taken: check_supports, the certificate and PatternMatrix."""
    supports = scheme4.pattern.supports.copy()
    supports[row, col] = value
    tilde = scheme4.pattern.tilde
    for build in (check_supports, certify_receivers, PatternMatrix):
        with pytest.raises(ValueError, match=message):
            build(tilde, supports)
    with pytest.raises(ValueError, match=r"9 x 6 matrix, one column per pair, got shape \(9, 5\)"):
        PatternMatrix(tilde, supports[:, :5])


@pytest.mark.parametrize("value", [-1, 5])
def test_pattern_entries_must_be_binary(scheme4, value):
    """A pattern entry outside {0, 1} is refused where the pattern is
    built, with or without supports, naming its row and column: no mode 0
    or mode -1 reaches a certificate or a run."""
    tilde = scheme4.pattern.tilde.copy()
    tilde[2] = [value, 0, 0, 0]
    message = "tilde entries must be 0 or 1, got %d at row 3, column 1" % value
    for supports in (None, scheme4.pattern.supports):
        with pytest.raises(ValueError, match=message):
            PatternMatrix(tilde, supports)


def test_scheme_from_json_validates_rows(scheme5):
    doc = json.loads(scheme_to_json(scheme5))
    tilde = np.array(doc["tilde"])
    outside = int(np.flatnonzero(pair_product(tilde, 0, 1) == 0)[0])
    doc["pairs"][0]["rows"] = [outside + 1]
    with pytest.raises(ValueError, match="leaves the pair product"):
        scheme_from_json(json.dumps(doc))
    doc["pairs"][0]["rows"] = []
    with pytest.raises(ValueError, match="nonempty"):
        scheme_from_json(json.dumps(doc))
    doc["pairs"][0]["rows"] = [len(tilde) + 1]
    with pytest.raises(ValueError, match="within 1..14"):
        scheme_from_json(json.dumps(doc))
    # without rows every pair shares its full pair product
    pattern4 = make_pattern_matrix(make_config(4))
    family4 = bk.Scheme(pattern4)
    plain = json.loads(scheme_to_json(family4))
    for entry in plain["pairs"]:
        del entry["rows"]
    back = scheme_from_json(json.dumps(plain))
    for (i, j), v in zip(itertools.combinations(range(4), 2), back.pattern.supports.T):
        assert np.array_equal(v, pair_product(pattern4.tilde, i, j))
    assert back.certified_receivers == pattern4.certified_receivers


def test_pair_map_relabels_widened_vectors_without_changing_supports(scheme6):
    K = 6
    flipped = {pair: (K - 2 - di, K - 2 - dj)
               for pair, (di, dj) in default_pair_dims(K).items()}
    relabeled = bk.build_scheme(K, flipped)
    assert relabeled.pair_dims == flipped
    assert np.array_equal(relabeled.pattern.supports, scheme6.pattern.supports)
    for pair, v in zip(itertools.combinations(range(K), 2), scheme6.pattern.supports.T):
        for i, d in zip(pair, flipped[pair]):
            assert np.array_equal(user_vectors(relabeled, i)[d], v)


def test_pair_products_are_computed_once_per_pattern(monkeypatch):
    """A pattern's pair products are computed only where they are a
    support, at most once: explicit supports are checked where they enter
    (PatternMatrix -> certify_receivers -> check_supports) from the
    pattern's rows alone, with no pair product, and no run checks them
    again. The star family gives every pair's rows, so building it takes
    none; a document that leaves a pair's rows out takes one, for that
    pair's support. Default supports are the pair products themselves,
    computed once and not checked."""
    calls = []

    def counted(tilde, _inner=product_matrix):
        calls.append(tilde.shape)
        return _inner(tilde)
    monkeypatch.setattr(biakit.scheme, "product_matrix", counted)
    scheme = bk.build_scheme(6)
    assert calls == []
    products = product_scheme(scheme)
    calls.clear()
    run_verification(scheme, 2, 0)
    run_verification(products, 2, 0, exact=True)
    estimate_dof(scheme, SimConfig(trials=2, seed=0))
    assert calls == []
    doc = json.loads(scheme_to_json(scheme))
    del doc["pairs"][0]["rows"]
    scheme_from_json(json.dumps(doc))
    assert calls == [(20, 6)]
    calls.clear()
    PatternMatrix(scheme.pattern.tilde)
    assert calls == [(20, 6)]


def dense_inverses(pattern):
    """generator_inverses as dense (K, m, m) arrays X, with their scales d
    and ok flags."""
    m = pattern.block_len
    index, values, scale, ok = generator_inverses(pattern)
    x = np.zeros(pattern.users * m * m, dtype=np.int64)
    x[index] = values
    return x.reshape(pattern.users, m, m), scale, ok


@pytest.mark.parametrize("K", [3, 5, 8])
def test_generator_nonzeros_are_the_generator_matrices(K):
    """Every G_j is the one built column by column, counted once per
    support entry: of one pattern, and in one masked call whose base holds
    the star rows twice, with the star supports and with the pair
    products, and whose two masks take one copy each, so the two
    patterns' nonzero counts differ."""
    pattern = bk.build_scheme(K).pattern
    m = pattern.block_len
    products = product_matrix(pattern.tilde)
    assert np.array_equal(scattered_generators(pattern.tilde, pattern.supports),
                          _generator_matrices(pattern.tilde, pattern.supports))
    tilde = np.vstack([pattern.tilde] * 2)
    supports = np.vstack([pattern.supports, products])
    keep = np.repeat(np.eye(2, dtype=bool), m, axis=1)
    counts = generator_nonzeros(tilde, supports, keep)[0]
    assert counts.tolist() == [int(pattern.supports.sum())] * K + [int(products.sum())] * K
    assert counts[0] != counts[K]
    expect = np.concatenate([_generator_matrices(pattern.tilde, v) for v in (pattern.supports, products)])
    assert np.array_equal(scattered_generators(tilde, supports, keep), expect)


def stacked_generator_nonzeros(tilde, supports):
    """The oracle: G_j of every receiver j of every pattern of a dense
    stack, tilde (P, m, K) and supports (P, m, C(K,2)), by its nonzeros
    (counts, rows, cols), P K matrices in (pattern, receiver) order. It
    repeats every pattern's support entries once per receiver and works
    out each entry's column again in every matrix."""
    P, m, K = tilde.shape
    col = receiver_columns(K)[1]
    own = np.full((K, col.shape[1] - K + 1), -1)  # [j, pair]: j's own column of the pair
    own[np.arange(K)[:, None], col[:, :K - 1]] = np.arange(K - 1)
    owner, r, pair = np.nonzero(supports)
    nnz = np.bincount(owner, minlength=P)
    counts = np.repeat(nnz, K)
    item = np.repeat(np.arange(P * K), counts)
    p, j = item // K, item % K
    # matrix (p, j) takes pattern p's support entries, in order
    at = (np.cumsum(nnz) - nnz)[p] + np.arange(item.size) - (np.cumsum(counts) - counts)[item]
    r, pair = r[at], pair[at]
    mode2 = (own[j, pair] >= 0) & (tilde[p, r, j] == 1)
    return counts, r, np.where(mode2, own[j, pair], K - 1 + pair)


def assert_same_arrays(got, expect):
    assert len(got) == len(expect)
    for a, b in zip(got, expect):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("K", range(3, 8))
def test_generator_nonzeros_match_the_stacked_oracle_on_every_scan_stack(K):
    """The scan's masked call gives the oracle's arrays on the gathered
    stack, dtype, shape and values, where candidates' counts differ."""
    vocab, keep = scan_masks(K)
    stack = np.stack([vocab[kept] for kept in keep])
    got = generator_nonzeros(vocab, product_matrix(vocab), keep)
    assert len(set(got[0].tolist())) > 1
    assert_same_arrays(got, stacked_generator_nonzeros(stack, product_matrix(stack)))


@pytest.mark.parametrize("K", range(3, 15))
def test_generator_nonzeros_match_the_stacked_oracle_on_built_schemes(K):
    pattern = bk.build_scheme(K).pattern
    assert_same_arrays(generator_nonzeros(pattern.tilde, pattern.supports),
                       stacked_generator_nonzeros(pattern.tilde[None], pattern.supports[None]))


@st.composite
def masked_bases(draw):
    """(tilde, keep): a base of v >= m rows, each a vocabulary row or a
    random 0/1 row, and masks that keep m of its rows each."""
    K = draw(st.integers(3, 5))
    m = make_config(K).block_len
    row = st.one_of(st.sampled_from(row_vocabulary(K)), st.tuples(*[st.integers(0, 1)] * K))
    tilde = np.array(draw(st.lists(row, min_size=m, max_size=m + 3)), dtype=np.int64)
    keep = np.zeros((draw(st.integers(1, 6)), len(tilde)), dtype=bool)
    for kept in keep:
        kept[sorted(draw(st.sets(st.integers(0, len(tilde) - 1), min_size=m, max_size=m)))] = True
    return tilde, keep


@settings(max_examples=60, deadline=None)
@given(masked_bases())
def test_masked_certificate_is_every_candidates_own(base):
    """certify_patterns over a base with pair-product supports equals
    certify_receivers of each candidate built on its own, and the masked
    nonzeros equal the oracle's on the gathered stack."""
    tilde, keep = base
    supports = product_matrix(tilde)
    stack = np.stack([tilde[kept] for kept in keep])
    assert certify_patterns(tilde, supports, keep).tolist() == [
        list(certify_receivers(candidate)) for candidate in stack]
    assert_same_arrays(generator_nonzeros(tilde, supports, keep),
                       stacked_generator_nonzeros(stack, product_matrix(stack)))


@pytest.mark.parametrize("rows", [8, 10, 11])
def test_masked_certificate_rejects_a_mask_of_the_wrong_length(rows):
    """A mask must keep m = (K+2)(K-1)/2 rows (9 at K = 4): a last
    candidate that keeps 8, 10 or all 11 vocabulary rows is refused."""
    vocab, keep = scan_masks(4)
    keep[-1] = np.arange(len(vocab)) < rows
    with pytest.raises(ValueError, match="must have .* = 9 rows, got %d" % rows):
        certify_patterns(vocab, product_matrix(vocab), keep)


@pytest.mark.parametrize("K", range(3, 21))
def test_star_generator_inverses_are_exact_and_as_sparse_as_g(K):
    """Every built G_j has a proven exact inverse (d = 1) with entries in
    {-1, 0, 1} and ||G_j^-1||_F^2 = nnz(G_j)."""
    pattern = bk.build_scheme(K).pattern
    m = pattern.block_len
    index, values, scale, ok = generator_inverses(pattern)
    assert ok.all() and (scale == 1).all()
    assert set(np.abs(values).tolist()) == {1}
    nnz = int(pattern.supports.sum())
    assert np.bincount(index // (m * m), minlength=K).tolist() == [nnz] * K


@pytest.mark.parametrize("K", [4, 5, 6])
def test_star_generator_inverses_match_sympy(K):
    pattern = bk.build_scheme(K).pattern
    x, scale, ok = dense_inverses(pattern)
    assert ok.all() and (scale == 1).all()
    for g, xj in zip(_generator_matrices(pattern.tilde, pattern.supports), x):
        assert sympy.Matrix(g.tolist()).inv() == sympy.Matrix(xj.tolist())


def assert_inverses_where_certified(pattern):
    """ok is the certificate, and every proven X is d G_j^-1: G_j X = d I
    exactly."""
    x, scale, ok = dense_inverses(pattern)
    assert ok.tolist() == list(pattern.certified_receivers)
    m = pattern.block_len
    for g, xj, d in zip(_generator_matrices(pattern.tilde, pattern.supports)[ok], x[ok], scale[ok]):
        assert (g @ xj == d * np.eye(m, dtype=np.int64)).all()
    return x, scale, ok


def test_generator_inverses_exist_exactly_at_certified_receivers(golden_scheme4):
    """An uncertified G_j has no inverse (the golden instance's receivers 1
    and 3, the pair-product family's receiver 5 and up from K = 5); every
    certified one has, also where the singleton peel leaves a core (the
    pair-product families at K = 3..6, whose one core is
    [[1,1,1],[1,0,1],[0,1,1]], det -1): there d = +-1 and X equals d G_j^-1
    by sympy."""
    assert_inverses_where_certified(golden_scheme4.pattern)
    for K in (3, 4, 5, 6):
        pattern = make_pattern_matrix(make_config(K))
        x, scale, ok = assert_inverses_where_certified(pattern)
        assert ok.tolist() == [True] * min(K, 4) + [False] * (K - 4)
        assert set(np.abs(scale[ok]).tolist()) == {1}
        gen = _generator_matrices(pattern.tilde, pattern.supports)
        for j in np.flatnonzero(ok):
            assert sympy.Matrix(x[j].tolist()) == int(scale[j]) * sympy.Matrix(gen[j].tolist()).inv()


def test_generator_inverses_exist_wherever_the_scan_certifies():
    """Over every vocabulary-minus-two pattern of the design-space scan at
    K = 3..6, one peeled_inverses call per K proves an inverse exactly at
    the receivers certify_patterns certifies."""
    for K in range(3, 7):
        vocab, keep = scan_masks(K)
        supports = product_matrix(vocab)
        ok = peeled_inverses(peel(
            make_config(K).block_len, *generator_nonzeros(vocab, supports, keep)))[3]
        assert ok.reshape(-1, K).tolist() == certify_patterns(vocab, supports, keep).tolist()


def test_generator_inverses_exist_at_every_built_receiver():
    """Every G_j of build_scheme(K), K = 3..48, is certified and has a
    proven inverse."""
    for K in range(3, 49):
        pattern = bk.build_scheme(K).pattern
        ok = generator_inverses(pattern)[3]
        assert ok.all() and ok.tolist() == list(pattern.certified_receivers), K


@settings(max_examples=25, deadline=None)
@given(widened_schemes())
def test_generator_inverses_on_widened_supports(scheme):
    assert_inverses_where_certified(scheme.pattern)


def assert_inverses_continue_the_peel(pattern):
    """generator_inverses, which continues the certificate's peel, equals
    a fresh peeled_inverses of a fresh peel of freshly built nonzeros,
    array for array."""
    fresh = peeled_inverses(peel(
        pattern.block_len, *generator_nonzeros(pattern.tilde, pattern.supports)))
    kept = generator_inverses(pattern)
    assert len(kept) == len(fresh) == 4
    for a, b in zip(kept, fresh):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("make", [
    *(functools.partial(lambda K: bk.build_scheme(K).pattern, K) for K in range(3, 13)),
    *(functools.partial(lambda K: make_pattern_matrix(make_config(K)), K) for K in range(3, 7)),
], ids=["star-%d" % K for K in range(3, 13)] + ["pair-product-%d" % K for K in range(3, 7)])
def test_kept_peel_inverts_as_a_fresh_peel(make):
    """The star family (no core) and the pair-product family, whose
    certified G_j leave a 3 x 3 core."""
    assert_inverses_continue_the_peel(make())


def test_kept_peel_inverts_the_golden_instance_as_a_fresh_peel(golden_scheme4):
    assert_inverses_continue_the_peel(golden_scheme4.pattern)


@settings(max_examples=15, deadline=None)
@given(widened_schemes())
def test_kept_peel_inverts_widened_supports_as_a_fresh_peel(scheme):
    assert_inverses_continue_the_peel(scheme.pattern)
