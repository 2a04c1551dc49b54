"""Exhaustively certify every viable switching-pattern matrix.

Rows with fewer than K-2 ones zero every pair product and duplicates add
nothing, so every viable m-row matrix is the (m+2)-row vocabulary minus two
rows. For each K this prints how many such candidates there are, with
every shared vector the full pair product, how many certify every
receiver and the best receiver count any candidate reaches. Within this
pair-product subspace full per-receiver decodability exists only for
K = 3 and K = 4, and from K = 5 on the ceiling is four certified
receivers. Narrower supports lift it: the closed-form star family of
biakit.scheme.star_pattern_matrix certifies every receiver for every K.
The scan itself is biakit.designspace.scan, exported here as `scan`.

Usage:
    python scripts/certify_design_space.py --max-users 6
"""
import argparse
import sys

from biakit.designspace import scan
from biakit.scheme import make_config


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-users", type=int, default=6)
    ap.add_argument("--show-matrices", action="store_true",
                    help="print every fully certified matrix")
    args = ap.parse_args(argv)
    if args.max_users < 3:
        print("error: --max-users must be at least 3, got %d" % args.max_users, file=sys.stderr)
        return 1

    print("K   m  candidates  fully_certified  best_receivers")
    for K in range(3, args.max_users + 1):
        m = make_config(K).block_len
        candidates, full, best = scan(K)
        print("%-3d %-2d %-11d %-16d %d of %d"
              % (K, m, candidates, len(full), best, K))
        if args.show_matrices:
            for rows in full:
                for row in rows:
                    print("      ", " ".join(str(x) for x in row))
                print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
