"""Print one sha256 over the package's output bytes.

A change meant to keep every output byte-identical prints the same digest
as its parent. The script imports biakit from the src/ directory beside
it, so a copy of another checkout digests that checkout's code:

    python scripts/output_digest.py

The digest covers `generate` for K = 3..48; float and exact `verify` JSON
and CSV (6 draws, seeds 0, 3 and 7), the float bound, the zero-forcing
weights, `certified_receivers` and the four arrays of `generator_inverses`
(index, values, scale, ok) of build_scheme(3..12), of a reversed pair map
at K = 4 and 5 and of the pair-product family (make_pattern_matrix) at
K = 3..6, whose uncertified receivers are gathered and whose certified
G_j leave a 3 x 3 core; the three `simulate` outputs
(rates CSV, summary CSV, JSON) for K = 3, 4, 5 and 8 at seeds 0..2; and,
where the pair map meets the symbols, the `transmit` and `receive` blocks
and the noiseless `zf_decode` of every receiver of the reversed pair maps
at K = 4 and 5 (draws at seeds 0..2); for the design-space scan at
K = 3..7, the `certify_candidates` flags of every candidate (the
vocabulary minus two rows, omissions in lexicographic order; bool,
(candidates, K)) and `repr(scan(K))`; and
`make_pattern_matrix` at K = 3..6 (its rows, supports and certificate).
"""
import functools
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from biakit.channel import draw_channels, draw_symbols, receive, transmit
from biakit.designspace import certify_candidates, make_pattern_matrix, scan, vocabulary
from biakit.scheme import (
    Scheme, build_scheme, default_pair_dims, generator_inverses, make_config, scheme_to_json)
from biakit.sim import (
    SimConfig, estimate_dof, result_to_json, result_to_long_csv, result_to_summary_csv, zf_decode,
    zf_weights)
from biakit.verify import decompose_receiver, float_bound, report_to_csv, report_to_json, run_verification


def reversed_scheme(K: int) -> Scheme:
    """build_scheme(K) with every user's dimensions in reverse order."""
    dims = {pair: (K - 2 - di, K - 2 - dj) for pair, (di, dj) in default_pair_dims(K).items()}
    return build_scheme(K, dims)


def pair_product_scheme(K: int) -> Scheme:
    """The pair-product family at K: every pair shares its full pair product."""
    return Scheme(make_pattern_matrix(make_config(K)))


def generate_outputs(K: int) -> list:
    return [scheme_to_json(build_scheme(K))]


def scheme_outputs(make) -> list:
    """Verify reports, float bound, zero-forcing weights, certificate and
    exact generator inverses of make()."""
    scheme = make()
    out = []
    for exact in (False, True):
        for seed in (0, 3, 7):
            report = run_verification(scheme, 6, seed, exact)
            out += [report_to_json(report), report_to_csv(report)]
    bound = float_bound(scheme)
    out += [bound.inverse2, bound.counts, bound.aligned, zf_weights(scheme)]
    return out + [np.array(scheme.certified_receivers), *generator_inverses(scheme.pattern)[:4]]


def simulate_outputs(K: int, seed: int) -> list:
    result = estimate_dof(build_scheme(K), SimConfig(trials=20, seed=seed))
    return [result_to_long_csv(result), result_to_summary_csv(result), result_to_json(result)]


def signal_outputs(K: int) -> list:
    """transmit and receive blocks and the noiseless zf_decode of every
    receiver of reversed_scheme(K), over three channel and symbol draws."""
    scheme = reversed_scheme(K)
    out = []
    for seed in range(3):
        ch, sym = draw_channels(K, 2, seed=seed), draw_symbols(K, power=1.0, seed=seed + 10)
        out += [transmit(scheme, sym, i) for i in range(K)]
        for j in range(K):
            y = receive(ch, scheme, sym, j)
            out += [y, zf_decode(decompose_receiver(ch, scheme, j), y)]
    return out


def scan_outputs(K: int) -> list:
    """The certificate flags of every scan candidate, the vocabulary less
    two rows, and the scan's result."""
    return [certify_candidates(*vocabulary(K)), repr(scan(K))]


def pattern_outputs(K: int) -> list:
    pattern = make_pattern_matrix(make_config(K))
    return [pattern.tilde, pattern.supports, np.array(pattern.certified_receivers)]


def cases() -> list:
    """(name, outputs) of every case: outputs() returns its texts and arrays."""
    p = functools.partial
    out = [("generate %d" % K, p(generate_outputs, K)) for K in range(3, 49)]
    out += [("scheme %d" % K, p(scheme_outputs, p(build_scheme, K))) for K in range(3, 13)]
    out += [("reversed %d" % K, p(scheme_outputs, p(reversed_scheme, K))) for K in (4, 5)]
    out += [("pair-product %d" % K, p(scheme_outputs, p(pair_product_scheme, K))) for K in range(3, 7)]
    out += [("simulate %d %d" % (K, seed), p(simulate_outputs, K, seed))
            for K in (3, 4, 5, 8) for seed in range(3)]
    out += [("signals %d" % K, p(signal_outputs, K)) for K in (4, 5)]
    out += [("scan %d" % K, p(scan_outputs, K)) for K in range(3, 8)]
    return out + [("make_pattern_matrix %d" % K, p(pattern_outputs, K)) for K in range(3, 7)]


def _bytes(part) -> bytes:
    """A text as UTF-8; an array as its dtype, shape and raw bytes."""
    if isinstance(part, str):
        return part.encode()
    a = np.ascontiguousarray(part)
    return ("%s %s " % (a.dtype.str, a.shape)).encode() + a.tobytes()


def digest(cases) -> str:
    """sha256 hex digest of every case's name and outputs, each part
    prefixed by its length."""
    h = hashlib.sha256()
    for name, outputs in cases:
        for part in [name.encode()] + [_bytes(x) for x in outputs()]:
            h.update(b"%d:" % len(part) + part)
    return h.hexdigest()


if __name__ == "__main__":
    print(digest(cases()))
