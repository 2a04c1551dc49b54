"""Exhaustive characterization of the pattern-matrix design space.

Any row with fewer than K-2 ones zeroes every pair product and duplicate
rows add no rank, so every viable m-row matrix is the (m+2)-row vocabulary
minus two rows, up to row order. Scanning all omission pairs is therefore
a complete search. The counts pinned here hold for full pair-product
vectors: such matrices certify every receiver only for K = 3 and K = 4,
and four certified receivers is their ceiling from K = 5 on. Shared vectors
on narrower supports lift that ceiling (build_scheme's star family
certifies every receiver for every K). README's Known limitations section
spells out the consequences.
"""
import itertools
import math

import numpy as np
import pytest

import biakit.designspace
import biakit.exactrank
import biakit.scheme
from biakit.designspace import certify_candidates, make_pattern_matrix, row_vocabulary, vocabulary
from biakit.exactrank import BATCH_ELEMENTS, chunks, peel, peeled_left_kernels
from biakit.scheme import (
    PatternMatrix, certify_product_rank, certify_receivers, generator_nonzeros, make_config, product_matrix)

from conftest import ROOT, exclude_one_product, load, pair_product, scan_masks, scan_module


def scan_omissions(K):
    """Certificates for every vocabulary-minus-two-rows candidate."""
    vocab = row_vocabulary(K)
    results = []
    for omit in itertools.combinations(range(len(vocab)), 2):
        rows = [vocab[r] for r in range(len(vocab)) if r not in omit]
        cert = certify_receivers(np.array(rows, dtype=np.int64))
        results.append((omit, cert))
    return vocab, results


@pytest.mark.parametrize("K", range(3, 8))
def test_stacked_scan_matches_per_candidate_certificates(K):
    """Every flag certify_candidates gives is certify_receivers of its
    candidate built on its own, and scan reads (candidates, full, best)
    off those flags."""
    vocab, results = scan_omissions(K)
    flags = certify_candidates(*vocabulary(K))
    assert flags.dtype == bool
    assert np.array_equal(flags, np.array([list(cert) for _, cert in results]))
    full = [[vocab[r] for r in range(len(vocab)) if r not in omit]
            for omit, cert in results if all(cert)]
    best = max(sum(cert) for _, cert in results)
    assert scan_module().scan(K) == (len(results), full, best)


@pytest.mark.parametrize("K", range(5, 13))
def test_four_receivers_is_the_ceiling_up_to_12_users(K):
    """README's table: no candidate certifies every receiver and the best
    certify four, for K = 5..12."""
    m = make_config(K).block_len
    assert scan_module().scan(K) == (math.comb(m + 2, 2), [], 4)


@pytest.mark.parametrize("K", range(3, 21))
def test_vocabulary_left_kernels_are_proven_bases(K):
    """Every vocabulary G_j, (m+2) x m, peels to two zero rows, so its
    left kernel is two-dimensional (rank m): N_j G_j = 0 exactly, N_j is
    the identity on those two rows, and its entries lie in {-1, 0, 1}."""
    vocab = np.array(row_vocabulary(K), dtype=np.int8)
    v = len(vocab)
    counts, rows, cols = generator_nonzeros(vocab, *np.nonzero(product_matrix(vocab)))
    lines, basis = peeled_left_kernels(peel(v, counts, rows, cols))
    assert np.bincount(lines // v, minlength=K).tolist() == [2] * K
    assert set(np.unique(basis).tolist()) <= {-1, 0, 1}
    g = np.zeros((K, v, v - 2), dtype=np.int64)
    g[np.repeat(np.arange(K), counts), rows, cols] = 1
    for j in range(K):
        n_j = basis[lines // v == j]
        assert not (n_j @ g[j]).any()
        assert np.array_equal(n_j[:, lines[lines // v == j] % v], np.eye(2, dtype=np.int64))


def counting_peels(monkeypatch):
    """The (n, matrices, nonzeros) of every singleton peel: one per scan,
    of the vocabulary's K generator matrices, and one per pattern's
    certificate (`certify_receivers`, whose peel the pattern keeps)."""
    sizes = []
    peel = biakit.exactrank._peel

    def counted(n, counts, gr, gc):
        sizes.append((n, len(counts), gr.size))
        return peel(n, counts, gr, gc)
    monkeypatch.setattr(biakit.exactrank, "_peel", counted)
    return sizes


@pytest.mark.parametrize("K", range(3, 7))
def test_scan_certifies_a_chunk_of_candidates_per_call(monkeypatch, K):
    """A scan peels once, the K vocabulary matrices as (m+2) x (m+2), and
    takes the candidates' minors in `exactrank.chunks` of K entries a
    candidate: every candidate once, in order, at most BATCH_ELEMENTS
    entries a chunk."""
    sizes = counting_peels(monkeypatch)
    seen = []

    def recorded(count, per_item):
        seen.append((count, per_item))
        return chunks(count, per_item)
    monkeypatch.setattr(biakit.designspace, "chunks", recorded)
    candidates = scan_module().scan(K)[0]
    vocab = np.array(row_vocabulary(K))
    assert sizes == [(len(vocab), K, K * int(product_matrix(vocab).sum()))]
    assert seen == [(candidates, K)]
    parts = chunks(candidates, K)
    assert [i for part in parts for i in part] == list(range(candidates))
    assert all(len(part) * K <= BATCH_ELEMENTS for part in parts)


@pytest.mark.parametrize("K", range(3, 8))
def test_scan_runs_bareiss_at_most_once_per_certificate_call(monkeypatch, K):
    """The scan runs no Bareiss elimination at all: the peel leaves every
    vocabulary G_j two zero rows, whose left kernel it reads off, and no
    core to decide."""
    ranked = []
    bareiss = biakit.exactrank._bareiss

    def counted(*args, **kwargs):
        ranked.append(args)
        return bareiss(*args, **kwargs)
    monkeypatch.setattr(biakit.exactrank, "_bareiss", counted)
    scan_module().scan(K)
    assert ranked == []


@pytest.mark.parametrize("K", range(3, 8))
def test_scan_gathers_its_candidates_and_supports_from_the_vocabulary(monkeypatch, K):
    """The scan's one generator_nonzeros call takes the vocabulary and the
    nonzeros of its pair products, unmasked; its result is README's table
    (the benchmark's SCAN_TABLE), and four receivers at most at K = 7."""
    seen = []

    def recorded(*args):
        seen.append(args)
        return generator_nonzeros(*args)
    monkeypatch.setattr(biakit.designspace, "generator_nonzeros", recorded)
    result = biakit.designspace.scan(K)
    vocab = scan_masks(K)[0]
    [(base, rows, pairs)] = seen
    assert np.array_equal(base, vocab)
    assert_same_nonzeros((rows, pairs), product_matrix(vocab))
    table = load("perfbench/workloads.py", "perfbench_workloads").SCAN_TABLE
    candidates, full, best = result
    assert (candidates, len(full), best) == table.get(K, (math.comb(len(vocab), 2), 0, 4))


@pytest.mark.parametrize("K", range(3, 8))
def test_scan_builds_no_candidate_stack(monkeypatch, K):
    """No pattern or support that generator_nonzeros sees during scan(K)
    has a leading candidate axis: it sees only the vocabulary, (m+2, K),
    and the nonzeros of its pair products, which the scan writes in
    closed form (the designspace module does not import product_matrix,
    and the scan makes no call to it through biakit.scheme). A single
    pattern's certificate sees that pattern."""
    seen = {"product_matrix": [], "generator_nonzeros": []}

    def recorder(module, name):
        inner = getattr(module, name)

        def recorded(*args):
            seen[name].append(args)
            return inner(*args)
        monkeypatch.setattr(module, name, recorded)
    for module in (biakit.designspace, biakit.scheme):
        recorder(module, "generator_nonzeros")
    recorder(biakit.scheme, "product_matrix")
    biakit.designspace.scan(K)
    vocab = scan_masks(K)[0]
    assert "product_matrix" not in vars(biakit.designspace) and seen["product_matrix"] == []
    [(tilde, rows, pairs)] = seen["generator_nonzeros"]
    assert np.array_equal(tilde, vocab)
    assert_same_nonzeros((rows, pairs), product_matrix(vocab))
    seen["generator_nonzeros"].clear()
    PatternMatrix(vocab[2:].astype(np.int64))
    [(tilde, rows, pairs)] = seen["generator_nonzeros"]
    assert tilde.shape == (len(vocab) - 2, K)


def assert_same_nonzeros(got, supports):
    """got is np.nonzero(supports), row by row: the same arrays, dtype and
    values."""
    for a, b in zip(got, np.nonzero(supports), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("K", range(3, 13))
def test_closed_form_vocabulary_is_the_row_vocabulary_and_its_products(K):
    """vocabulary(K) is row_vocabulary(K) as an int8 array, and its
    products, the ones row, the user-pair incidence and the identity, are
    product_matrix of it, dtype included."""
    vocab, products = vocabulary(K)
    assert vocab.dtype == np.int8 and np.array_equal(vocab, np.array(row_vocabulary(K)))
    expect = product_matrix(vocab)
    assert products.dtype == expect.dtype and np.array_equal(products, expect)


@pytest.mark.parametrize("K", [3, 4])
def test_pair_product_search_is_the_stacked_scan(monkeypatch, K):
    """make_pattern_matrix peels the K vocabulary matrices once in the
    scan, then the returned pattern certifies itself once: [K, K]."""
    sizes = counting_peels(monkeypatch)
    make_pattern_matrix(make_config(K))
    m = make_config(K).block_len
    assert [(n, matrices) for n, matrices, _ in sizes] == [(m + 2, K), (m, K)]


def test_script_exports_the_designspace_scan():
    # the benchmark loads the script by path and traces its `scan`
    assert scan_module().scan is biakit.designspace.scan


def test_script_prints_the_readme_table(capsys):
    """The script's CLI prints README's design-space rows, plus m."""
    readme = [line.replace("|", " ").split() for line in (ROOT / "README.md").read_text().splitlines()
              if line.startswith(("| 3 ", "| 4 "))]
    assert scan_module().main(["--max-users", "4"]) == 0
    header, *rows = (line.split() for line in capsys.readouterr().out.splitlines())
    assert header == ["K", "m", "candidates", "fully_certified", "best_receivers"]
    assert [row[1] for row in rows] == ["5", "9"]
    assert [row[:1] + row[2:] for row in rows] == readme


@pytest.mark.parametrize("users", [2, 0, -1])
def test_script_refuses_fewer_than_three_users(capsys, users):
    """--max-users below 3 names no K to scan: exit 1 with a message on
    stderr, nothing on stdout."""
    assert scan_module().main(["--max-users", str(users)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --max-users must be at least 3, got %d\n" % users


def test_3user_space_has_exactly_three_full_families():
    vocab, results = scan_omissions(3)
    full = [omit for omit, cert in results if all(cert)]
    assert len(full) == 3
    # the pair-product constructor returns the lexicographically first of them
    first_rows = [vocab[r] for r in range(len(vocab)) if r not in full[0]]
    assert np.array_equal(make_pattern_matrix(make_config(3)).tilde, np.array(first_rows))


def test_4user_space_has_exactly_three_full_families():
    vocab, results = scan_omissions(4)
    full = [omit for omit, cert in results if all(cert)]
    assert len(full) == 3
    for omit in full:
        rows = [vocab[r] for r in omit]
        # both omitted rows have weight 2 and their zero pairs are disjoint,
        # so the all-ones and all weight-3 rows always survive
        zero_pairs = [frozenset(c for c, x in enumerate(row) if x == 0)
                      for row in rows]
        assert all(len(z) == 2 for z in zero_pairs)
        assert not zero_pairs[0] & zero_pairs[1]


@pytest.mark.parametrize("K", [5, 6])
def test_no_full_family_beyond_4_users(K):
    _, results = scan_omissions(K)
    counts = [sum(cert) for _, cert in results]
    assert all(c < K for c in counts)
    # and four certified receivers is the best any candidate achieves
    assert max(counts) == 4


@pytest.mark.parametrize("K", [5, 6, 8])
def test_constructor_reaches_the_ceiling(K):
    pattern = make_pattern_matrix(make_config(K))
    assert sum(pattern.certified_receivers) == 4
    assert certify_product_rank(pattern.tilde)


@pytest.mark.parametrize("K", range(3, 9))
def test_canonical_family_dependence_mechanism(K):
    """Why one-missing-zero-pair families fail outside the missing pair.

    The canonical matrix omits exactly one weight-(K-2) row, with zeros at
    {a, b} = {K-2, K-1}. Its pair product for {a, b} then equals the sum of
    the two exclude-one products, an exact rational dependence among the
    combined generators of every receiver outside {a, b}.
    """
    pattern = PatternMatrix(np.array(row_vocabulary(K)[1:-1]))
    a, b = K - 2, K - 1
    v = pair_product(pattern.tilde, a, b)
    w_a = exclude_one_product(pattern.tilde, a)
    w_b = exclude_one_product(pattern.tilde, b)
    assert np.array_equal(v, w_a + w_b)
    assert pattern.certified_receivers == tuple(
        j in (a, b) for j in range(K))
