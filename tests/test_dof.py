"""Exact rational DoF bound, sweep, and serialization."""
import json
import math
import sys
from fractions import Fraction

import pytest

from biakit.dof import achieved, bound, sweep, sweep_to_csv, sweep_to_json


@pytest.mark.parametrize("K,l,value", [
    (3, 2, Fraction(6, 5)),
    (4, 2, Fraction(4, 3)),
    (5, 2, Fraction(10, 7)),
    (4, 3, Fraction(24, 23)),
    (3, 3, Fraction(1)),
    (1000, 2, Fraction(2000, 1002)),
])
def test_bound_values(K, l, value):
    assert bound(K, l) == value


@pytest.mark.parametrize("K", range(3, 51))
def test_pair_bound_closed_form(K):
    assert bound(K, 2) == Fraction(2 * K, K + 2)
    assert achieved(K) == bound(K, 2)


@pytest.mark.parametrize("K", range(3, 21))
def test_pair_alignment_is_unique_argmax(K):
    best = bound(K, 2)
    for l in range(3, K + 1):
        assert bound(K, l) < best


def test_bound_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bound(2, 2)
    with pytest.raises(ValueError):
        bound(5, 1)
    with pytest.raises(ValueError):
        bound(5, 6)
    with pytest.raises(ValueError):
        achieved(2)


def test_bound_approaches_two_from_below():
    for K in (10, 100, 1000):
        assert bound(K, 2) < 2
    # 2 - eps is exceeded once K > 4/eps - 2
    assert bound(399, 2) > Fraction(199, 100)
    assert bound(39999, 2) > Fraction(19999, 10000)


def test_sweep_structure():
    report = sweep(5)
    assert report.l_star == 2
    assert report.achieved == Fraction(10, 7)
    assert report.baseline_tdma == 1
    assert [l for l, _ in report.l_sweep] == [2, 3, 4, 5]
    assert report.l_sweep[0][1] == Fraction(10, 7)


def test_sweep_csv():
    text = sweep_to_csv(sweep(4))
    lines = text.strip().split("\n")
    assert lines[0] == "K,l,bound_numerator,bound_denominator"
    assert lines[1] == "4,2,4,3"
    assert lines[2] == "4,3,24,23"
    assert lines[3] == "4,4,1,1"


def test_sweep_json_uses_rational_strings():
    doc = json.loads(sweep_to_json(sweep(4)))
    assert doc["l_star"] == 2
    assert doc["achieved"] == "4/3"
    assert doc["baseline_tdma"] == "1/1"
    assert doc["l_sweep"][0] == {"l": 2, "bound": "4/3"}


@pytest.mark.parametrize("limit", [640, 1000])
def test_sweep_refuses_exactly_the_k_whose_bounds_do_not_print(limit):
    """Under a digit limit of integer string conversion, sweep refuses the
    first K whose largest numerator, K! at l = K-1, does not print, and
    the K before it still emits both formats."""
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        last = max(K for K in range(3, 500) if len(str(math.factorial(K))) <= limit)
        sys.set_int_max_str_digits(limit)
        report = sweep(last)
        sweep_to_csv(report)
        sweep_to_json(report)
        with pytest.raises(ValueError, match="Exceeds the limit"):
            str(bound(last + 1, last).numerator)
        with pytest.raises(ValueError, match="K=%d: .* more than %d digits" % (last + 1, limit)):
            sweep(last + 1)
    finally:
        sys.set_int_max_str_digits(old)
