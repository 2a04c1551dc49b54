"""The pair-product reference family and its exhaustive design-space scan.

Every shared vector here is the full pair product. Rows with fewer than
K-2 ones zero every pair product and duplicate rows add no rank, so every
viable pattern is the (m+2)-row vocabulary minus two rows, and `scan`
certifies them all from one left kernel per receiver of the vocabulary's
generator matrices (`certify_candidates`). Fully certified candidates
exist only for K = 3 and 4; from K = 5 on four receivers is the ceiling
(README "Known limitations"). build_scheme does not use this family (its
star family certifies every receiver for every K); it is the reference
for the tests, acceptance criterion 3 and scripts/certify_design_space.py.
"""
from __future__ import annotations

import itertools

import numpy as np

from .errors import ConstructionFailedError
from .exactrank import chunks, peel, peeled_left_kernels
from .scheme import (
    PatternMatrix, SchemeConfig, certify_product_rank, generator_nonzeros, pair_users, product_matrix,
    zero_at)


def row_vocabulary(K: int) -> list[tuple[int, ...]]:
    """All binary rows that can carry signal, heaviest first.

    Rows of weight < K-2 zero every beamformer product, so any useful
    pattern matrix draws its m rows from these m + 2: the all-ones row,
    the K weight-(K-1) rows, and the C(K,2) weight-(K-2) rows.
    """
    return ([zero_at(K)] + [zero_at(K, k) for k in range(K)]
            + [zero_at(K, a, b) for a, b in itertools.combinations(range(K), 2)])


def certify_candidates(K: int) -> np.ndarray:
    """(C(m+2, 2), K) flags: certify_receivers of every scan candidate,
    the vocabulary less two rows {a, b}, omissions in lexicographic order.

    A candidate's G_j is the vocabulary's, (m+2) x m, less rows a and b
    (`generator_nonzeros`). The K vocabulary matrices, padded by two zero
    columns, are peeled once, and `exactrank.peeled_left_kernels` proves
    a basis N_j of each left kernel (or raises ValueError naming receiver
    j as matrix j). Where N_j has two rows (rank m), the rows less {a, b}
    are independent iff det N_j[:, {a, b}] != 0: a dependence among them
    is a nonzero y N_j that vanishes at a and b. More rows prove rank
    below m: no candidate certifies j. The minors go in `exactrank.chunks`.
    """
    vocab = np.array(row_vocabulary(K), dtype=np.int8)
    v = len(vocab)
    lines, basis = peeled_left_kernels(peel(v, *generator_nonzeros(vocab, product_matrix(vocab))))
    rank_m = np.flatnonzero(np.bincount(lines // v, minlength=K) == 2)
    n0, n1 = basis[np.isin(lines // v, rank_m)].reshape(-1, 2, v).transpose(1, 0, 2)
    a, b = pair_users(v)  # every omitted pair a < b, lexicographic
    out = np.zeros((a.size, K), dtype=bool)
    for chunk in chunks(a.size, K):
        at = slice(chunk.start, chunk.stop)
        out[at, rank_m] = (n0[:, a[at]] * n1[:, b[at]] != n0[:, b[at]] * n1[:, a[at]]).T
    return out


def scan(K: int) -> tuple[int, list[list[tuple[int, ...]]], int]:
    """(candidates, rows of every fully certified one, most receivers any
    one certifies), read off `certify_candidates`."""
    vocab, flags = row_vocabulary(K), certify_candidates(K)
    a, b = pair_users(len(vocab))
    full = [[row for r, row in enumerate(vocab) if r != a[i] and r != b[i]]
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
