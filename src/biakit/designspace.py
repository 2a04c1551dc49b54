"""The pair-product reference family and its exhaustive design-space scan.

Every shared vector here is the full pair product. Rows with fewer than
K-2 ones zero every pair product and duplicate rows add no rank, so every
viable pattern is the (m+2)-row vocabulary minus two rows, and `scan`
certifies them all in one stacked certificate. Fully certified candidates
exist only for K = 3 and 4; from K = 5 on four receivers is the ceiling
(README "Known limitations"). build_scheme does not use this family (its
star family certifies every receiver for every K); it is the reference
for the tests, acceptance criterion 3 and scripts/certify_design_space.py.
"""
from __future__ import annotations

import itertools

import numpy as np

from .errors import ConstructionFailedError
from .scheme import (
    PatternMatrix, SchemeConfig, certify_patterns, certify_product_rank, pair_users, product_matrix,
    zero_at)


def row_vocabulary(K: int) -> list[tuple[int, ...]]:
    """All binary rows that can carry signal, heaviest first.

    Rows of weight < K-2 zero every beamformer product, so any useful
    pattern matrix draws its m rows from these m + 2: the all-ones row,
    the K weight-(K-1) rows, and the C(K,2) weight-(K-2) rows.
    """
    return ([zero_at(K)] + [zero_at(K, k) for k in range(K)]
            + [zero_at(K, a, b) for a, b in itertools.combinations(range(K), 2)])


def scan(K: int) -> tuple[int, list[list[tuple[int, ...]]], int]:
    """(candidates, rows of every fully certified one, most receivers any
    one certifies) over the vocabulary minus every two rows, omissions in
    lexicographic order, by one stacked `scheme.certify_patterns`. The
    candidates are row subsets of the vocabulary, and so are their
    generator matrices: `product_matrix` works row by row, so a
    candidate's pair products are the vocabulary's at its rows, and
    `certify_patterns` takes the vocabulary, its pair products and the
    mask of the rows each candidate keeps."""
    vocab = row_vocabulary(K)
    a, b = pair_users(len(vocab))  # every omitted pair a < b, lexicographic
    row = np.arange(len(vocab))
    keep = (row != a[:, None]) & (row != b[:, None])
    table = np.array(vocab, dtype=np.int8)
    cert = certify_patterns(table, product_matrix(table), keep)
    full = [[vocab[r] for r in row[kept]] for kept in keep[cert.all(axis=1)]]
    return len(keep), full, int(cert.sum(axis=1).max())


# first two disjoint weight-(K-2) rows; dropping them certifies 4 receivers,
# the maximum any pair-product family reaches for K >= 5
_FALLBACK_OMIT_PAIRS = ((0, 1), (2, 3))


def make_pattern_matrix(config: SchemeConfig) -> PatternMatrix:
    """Deterministic construction of the best pair-product pattern matrix.

    For K <= 4 this is the first fully certified candidate of `scan(K)`.
    Beyond that no candidate certifies every receiver (see README), so the
    constructor returns the known maximal family directly: all vocabulary
    rows except the weight-(K-2) rows with zeros at {0,1} and {2,3}, which
    certifies receivers 0..3 and still carries the full product rank
    certificate. Narrower supports certify every receiver for every K;
    build_scheme uses those (star_pattern_matrix).
    """
    K = config.users
    if K <= 4:
        _, full, _ = scan(K)
        if not full:
            raise ConstructionFailedError(
                "construction-failed: no fully certified pattern matrix for K=%d" % K)
        return PatternMatrix(np.array(full[0], dtype=np.int64))
    omitted = {zero_at(K, *pair) for pair in _FALLBACK_OMIT_PAIRS}
    tilde = np.array([r for r in row_vocabulary(K) if r not in omitted], dtype=np.int64)
    if not certify_product_rank(tilde):
        raise ConstructionFailedError(
            "construction-failed: product rank certificate failed for K=%d" % K)
    return PatternMatrix(tilde)
