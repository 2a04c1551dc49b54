"""Exact degrees-of-freedom accounting.

Everything here is rational arithmetic; floats appear only when a caller
serializes. The bound below comes from counting shared dimensions when
groups of l transmitters align at the other K-l receivers; the pairwise
scheme this package constructs instantiates l = 2, and l = 2 is the unique
maximizer of the bound for every K >= 3.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .formats import render_csv, render_json


def bound(K: int, l: int) -> Fraction:
    """Sum-DoF bound K*l! / (K*l! - K + l) for alignment sets of size l."""
    if K < 3:
        raise ValueError("need K >= 3")
    if not 2 <= l <= K:
        raise ValueError("alignment set size must be in [2, K]")
    f = K * factorial(l)
    return Fraction(f, f - K + l)


def achieved(K: int) -> Fraction:
    """Sum DoF of the constructed scheme: K(K-1) symbols per m uses."""
    if K < 3:
        raise ValueError("need K >= 3")
    return Fraction(K * (K - 1), (K + 2) * (K - 1) // 2)


@dataclass(frozen=True)
class DofReport:
    users: int
    l_sweep: tuple[tuple[int, Fraction], ...]
    l_star: int
    achieved: Fraction
    baseline_tdma: Fraction = Fraction(1)


def sweep(K: int) -> DofReport:
    """Evaluate the bound for l = 2..K; ties break toward smaller l.

    The largest integer of the sweep is the numerator K! of the bound at
    l = K-1. A K whose K! has more decimal digits than Python converts to
    text (sys.get_int_max_str_digits(); 0 means no limit) raises
    ValueError before any bound is computed, so no emitter fails late.
    """
    limit = sys.get_int_max_str_digits()
    # K! has floor(log10 K!) + 1 digits, more than limit iff log10 K! >= limit
    if K >= 3 and limit and math.lgamma(K + 1) / math.log(10) >= limit:
        raise ValueError("users K=%d: the bound's numerator K! has more than %d digits, "
                         "the limit of integer string conversion" % (K, limit))
    values = tuple((l, bound(K, l)) for l in range(2, K + 1))
    best = max(v for _, v in values)
    l_star = next(l for l, v in values if v == best)
    return DofReport(users=K, l_sweep=values, l_star=l_star, achieved=achieved(K))


def sweep_to_csv(report: DofReport) -> str:
    rows = [(report.users, l, v.numerator, v.denominator) for l, v in report.l_sweep]
    return render_csv(["K", "l", "bound_numerator", "bound_denominator"], list(zip(*rows)))


def sweep_to_json(report: DofReport) -> str:
    return render_json({
        "K": report.users,
        "l_sweep": [{"l": l, "bound": v} for l, v in report.l_sweep],
        "l_star": report.l_star,
        "achieved": report.achieved,
        "baseline_tdma": report.baseline_tdma,
    })
