"""Exact matrix rank over the integers and the Gaussian integers.

One kernel: fraction-free (Bareiss) elimination on Python ints in
`integer_rank`, with no floating tolerance and no external computer-algebra
dependency. `gaussian_rank` has no elimination of its own: it realifies a
matrix B + iC over Z[i] into [[B, -C], [C, B]] over Z, whose rank over Q is
twice the rank of B + iC over Q(i). Inputs are small dense matrices
(pattern-matrix products and exact-mode channel matrices), so the cubic
cost with big-int growth is acceptable here.
"""
from __future__ import annotations

from typing import Iterable, Sequence


def integer_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over Q of a matrix with integer entries.

    Bareiss elimination: every intermediate entry stays an exact integer
    (each 2x2 cross-multiplication is divisible by the previous pivot).
    Below the pivot row every column left of the pivot column is already
    zero, so each step updates only the columns to its right.
    """
    a = [[int(x) for x in row] for row in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    for row in a:
        if len(row) != nc:
            raise ValueError("ragged matrix")
    rank = 0
    prev = 1
    for c in range(nc):
        if rank == nr:
            break
        piv = next((r for r in range(rank, nr) if a[r][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pv = a[rank][c]
        right = a[rank][c + 1:]
        for r in range(rank + 1, nr):
            row = a[r]
            f = row[c]
            row[c + 1:] = [(x * pv - f * y) // prev for x, y in zip(row[c + 1:], right)]
        prev = pv
        rank += 1
    return rank


def gaussian_rank(rows: Sequence[Sequence[tuple[int, int]]]) -> int:
    """Rank over Q(i) of a matrix whose entries are Gaussian integers.

    Entries are (real, imag) pairs of ints. With B and C the real and
    imaginary parts, the rank of [[B, -C], [C, B]] over Q is twice the rank
    of B + iC over Q(i).
    """
    re = [[int(x) for x, _ in row] for row in rows]
    im = [[int(y) for _, y in row] for row in rows]
    top = [b + [-y for y in c] for b, c in zip(re, im)]
    bottom = [c + b for b, c in zip(re, im)]
    return integer_rank(top + bottom) // 2
