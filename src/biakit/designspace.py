"""The pair-product reference family and its exhaustive design-space scan.

Every shared vector here is the full pair product. Rows with fewer than
K-2 ones zero every pair product and duplicate rows add no rank, so every
viable pattern is the (m+2)-row vocabulary, written with its pair
products in closed form (`vocabulary`), minus two rows, and `scan`
certifies them all from one left kernel per receiver of the vocabulary's
generator matrices (`certify_candidates`). Fully certified candidates
exist only for K = 3 and 4; from K = 5 on four receivers is the ceiling
(README "Known limitations"). build_scheme does not use this family (its
star family certifies every receiver for every K); it is the reference
for the tests, acceptance criterion 3 and scripts/certify_design_space.py.
"""
from __future__ import annotations


import numpy as np

from .errors import ConstructionFailedError
from .exactrank import chunks, peel, peeled_left_kernels
from .scheme import (
    PatternMatrix, SchemeConfig, certify_product_rank, generator_nonzeros, pair_users)


def row_vocabulary(K: int) -> list[tuple[int, ...]]:
    """The rows of vocabulary(K), as tuples."""
    return list(map(tuple, vocabulary(K)[0].tolist()))


def vocabulary(K: int) -> tuple[np.ndarray, np.ndarray]:
    """(vocab, products) in closed form: the (m+2, K) int8 rows that can
    carry signal (rows of weight < K-2 zero every pair product), heaviest
    first, the all-ones row, 1 - I and one row zero at each pair, and
    product_matrix(vocab): 1 where a row's zeros lie inside the pair, so
    the ones row, the user-pair incidence and the identity."""
    a, b = pair_users(K)
    pairs, users = np.arange(a.size), np.arange(K)
    vocab = np.ones((K + 1 + a.size, K), dtype=np.int8)
    vocab[users + 1, users] = vocab[pairs + K + 1, a] = vocab[pairs + K + 1, b] = 0
    products = np.zeros((len(vocab), a.size), dtype=np.int64)
    products[0] = products[a + 1, pairs] = products[b + 1, pairs] = products[pairs + K + 1, pairs] = 1
    return vocab, products


def certify_candidates(vocab: np.ndarray, products: np.ndarray) -> np.ndarray:
    """(C(m+2, 2), K) flags: certify_receivers of every scan candidate,
    vocabulary(K) less two rows {a, b}, omissions in lexicographic order.

    A candidate's G_j is the vocabulary's, (m+2) x m, less rows a and b
    (`generator_nonzeros`). The K vocabulary matrices, padded by two zero
    columns, are peeled once, and `exactrank.peeled_left_kernels` reads a
    basis N_j of each left kernel off the peel, by the inverses'
    substitution on the transposed peel at d = 0, and proves it by their
    proof at d = 0, N_j G_j = 0 (or raises ValueError naming receiver j as
    matrix j). Where N_j has two rows (rank m), the rows less {a, b}
    are independent iff det N_j[:, {a, b}] != 0: a dependence among them
    is a nonzero y N_j that vanishes at a and b. More rows prove rank
    below m: no candidate certifies j. The minors go in `exactrank.chunks`.
    """
    v, K = vocab.shape
    lines, basis = peeled_left_kernels(peel(v, *generator_nonzeros(vocab, *np.nonzero(products))))
    count = np.bincount(lines // v, minlength=K)
    rank_m = np.flatnonzero(count == 2)
    n0, n1 = basis[count[lines // v] == 2].reshape(-1, 2, v).transpose(1, 0, 2)
    a, b = pair_users(v)  # every omitted pair a < b, lexicographic
    out = np.zeros((a.size, K), dtype=bool)
    for chunk in chunks(a.size, K):
        at = slice(chunk.start, chunk.stop)
        out[at, rank_m] = (n0[:, a[at]] * n1[:, b[at]] != n0[:, b[at]] * n1[:, a[at]]).T
    return out


def scan(K: int) -> tuple[int, list[list[tuple[int, ...]]], int]:
    """(candidates, rows of every fully certified one, most receivers any
    one certifies), read off `certify_candidates` of vocabulary(K)."""
    vocab, products = vocabulary(K)
    flags = certify_candidates(vocab, products)
    a, b = pair_users(len(vocab))
    full = [list(map(tuple, np.delete(vocab, (a[i], b[i]), axis=0).tolist()))
            for i in np.flatnonzero(flags.all(axis=1)).tolist()]
    return len(flags), full, int(flags.sum(axis=1).max())


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
    certificate.
    """
    K = config.users
    if K <= 4:
        _, full, _ = scan(K)
        if not full:
            raise ConstructionFailedError(
                "construction-failed: no fully certified pattern matrix for K=%d" % K)
        return PatternMatrix(np.array(full[0], dtype=np.int64))
    vocab = vocabulary(K)[0].astype(np.int64)
    omitted = [vocab[:, a] + vocab[:, b] == 0 for a, b in _FALLBACK_OMIT_PAIRS]  # the rows zero at a and b
    tilde = vocab[~np.any(omitted, axis=0)]
    if not certify_product_rank(tilde):
        raise ConstructionFailedError("construction-failed: product rank certificate failed for K=%d" % K)
    return PatternMatrix(tilde)
