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
from biakit.designspace import make_pattern_matrix, row_vocabulary
from biakit.exactrank import BATCH_ELEMENTS, chunks, integer_rank, peeled_nonsingular
from biakit.scheme import (
    PatternMatrix, certify_patterns, certify_product_rank, certify_receivers, make_config, product_matrix)

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


@pytest.mark.parametrize("K", range(3, 7))
def test_stacked_scan_matches_per_candidate_certificates(K):
    vocab, results = scan_omissions(K)
    full = [[vocab[r] for r in range(len(vocab)) if r not in omit]
            for omit, cert in results if all(cert)]
    best = max(sum(cert) for _, cert in results)
    assert scan_module().scan(K) == (len(results), full, best)


def largest_support(K):
    """The largest pair-product nonzero count of any scan candidate."""
    vocab = np.array(row_vocabulary(K))
    return max(sum(int(pair_product(tilde, a, b).sum()) for a, b in itertools.combinations(range(K), 2))
               for tilde in (np.delete(vocab, omit, axis=0)
                             for omit in itertools.combinations(range(len(vocab)), 2)))


def counting_peels(monkeypatch):
    """The (matrices, nonzeros) of every singleton peel: one per chunk of
    a stacked certificate (`certify_patterns`) and one per pattern's
    certificate (`certify_receivers`, whose peel the pattern keeps)."""
    sizes = []
    peel = biakit.exactrank._peel

    def counted(n, counts, gr, gc):
        sizes.append((len(counts), gr.size))
        return peel(n, counts, gr, gc)
    monkeypatch.setattr(biakit.exactrank, "_peel", counted)
    return sizes


@pytest.mark.parametrize("K", range(3, 7))
def test_scan_certifies_a_chunk_of_candidates_per_call(monkeypatch, K):
    """Chunks hold at most BATCH_ELEMENTS nonzeros at K times the largest
    support count a candidate, or one candidate."""
    sizes = counting_peels(monkeypatch)
    candidates = scan_module().scan(K)[0]
    per_chunk = max(1, BATCH_ELEMENTS // (K * largest_support(K)))
    assert [matrices for matrices, _ in sizes] == [
        K * min(per_chunk, candidates - lo) for lo in range(0, candidates, per_chunk)]
    assert all(nnz <= BATCH_ELEMENTS or matrices == K for matrices, nnz in sizes)


@pytest.mark.parametrize("K", range(3, 8))
def test_scan_runs_bareiss_at_most_once_per_certificate_call(monkeypatch, K):
    """The peel decides every G_j of every candidate, or leaves one 3 x 3
    core (det -1); equal cores share one verdict within a call."""
    per_call, ranked = [], []

    def counted(generators):
        before = len(ranked)
        out = peeled_nonsingular(generators)
        per_call.append(len(ranked) - before)
        return out

    def counted_rank(rows):
        ranked.append(rows)
        return integer_rank(rows)
    monkeypatch.setattr(biakit.scheme, "peeled_nonsingular", counted)
    monkeypatch.setattr(biakit.exactrank, "integer_rank", counted_rank)
    scan_module().scan(K)
    assert per_call and max(per_call) <= 1
    assert all(rows == [[1, 1, 1], [1, 0, 1], [0, 1, 1]] for rows in ranked)


@pytest.mark.parametrize("K", range(3, 8))
def test_scan_gathers_its_candidates_and_supports_from_the_vocabulary(monkeypatch, K):
    """The scan's one certify_patterns call takes the vocabulary as its
    base, the vocabulary's pair products as its supports, and masks that
    drop every two rows, omissions in lexicographic order; its result is
    README's table (the benchmark's SCAN_TABLE), and four receivers at
    most at K = 7."""
    seen = []

    def recorded(tilde, supports, keep):
        seen.append((tilde, supports, keep))
        return certify_patterns(tilde, supports, keep)
    monkeypatch.setattr(biakit.designspace, "certify_patterns", recorded)
    result = biakit.designspace.scan(K)
    vocab, masks = scan_masks(K)
    [(base, supports, keep)] = seen
    assert np.array_equal(base, vocab)
    assert np.array_equal(supports, product_matrix(vocab))
    assert keep.dtype == bool and np.array_equal(keep, masks)
    table = load("perfbench/workloads.py", "perfbench_workloads").SCAN_TABLE
    candidates, full, best = result
    assert (candidates, len(full), best) == table.get(K, (math.comb(len(vocab), 2), 0, 4))


@pytest.mark.parametrize("K", range(3, 8))
def test_scan_builds_no_candidate_stack(monkeypatch, K):
    """No pattern or support that product_matrix or generator_nonzeros
    sees during scan(K) has a leading candidate axis: both see the
    vocabulary, (m+2, K), and its pair products, and the candidates reach
    G_j's builder only as the (chunk, m+2) masks of the rows they keep.
    A single pattern's certificate takes no mask."""
    seen = {"product_matrix": [], "generator_nonzeros": []}

    def recorder(module, name):
        inner = getattr(module, name)

        def recorded(*args):
            seen[name].append(args)
            return inner(*args)
        monkeypatch.setattr(module, name, recorded)
    recorder(biakit.designspace, "product_matrix")
    recorder(biakit.scheme, "generator_nonzeros")
    candidates = biakit.designspace.scan(K)[0]
    vocab = scan_masks(K)[0]
    [(tilde,)] = seen["product_matrix"]
    assert np.array_equal(tilde, vocab)
    assert seen["generator_nonzeros"]
    for tilde, supports, keep in seen["generator_nonzeros"]:
        assert np.array_equal(tilde, vocab)
        assert np.array_equal(supports, product_matrix(vocab))
        assert keep.dtype == bool and keep.shape[1:] == (len(vocab),)
    assert sum(len(keep) for *_, keep in seen["generator_nonzeros"]) == candidates
    seen["generator_nonzeros"].clear()
    PatternMatrix(vocab[2:].astype(np.int64))
    [(tilde, supports, keep)] = seen["generator_nonzeros"]
    assert tilde.shape == (len(vocab) - 2, K) and keep is None


@pytest.mark.parametrize("K", [3, 4])
def test_pair_product_search_is_the_stacked_scan(monkeypatch, K):
    """make_pattern_matrix certifies every candidate in the scan's stacked
    calls (one chunk at K = 3 and at K = 4), then the returned pattern
    certifies itself once."""
    sizes = counting_peels(monkeypatch)
    make_pattern_matrix(make_config(K))
    candidates = math.comb(len(row_vocabulary(K)), 2)
    expect = [len(chunk) * K for chunk in chunks(candidates, K * largest_support(K))] + [K]
    assert [matrices for matrices, _ in sizes] == expect == [candidates * K, K]


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
