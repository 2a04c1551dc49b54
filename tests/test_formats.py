"""The columnar CSV renderer against golden output, byte for byte.

The files under tests/golden were written by the row-wise renderer this
one replaced, through the command line:

- verify_4_trials6_seed3.csv: verify --users 4 --trials 6 --seed 3 --format csv
- verify_exact_5_trials2_seed3.csv: verify --users 5 --exact --trials 2 --seed 3 --format csv
- bound_9.csv, bound_25.csv: bound --users 9 / 25 (K = 25 has numerators past int64)
- simulate_3_trials4_seed15_{rates,summary}.csv:
  simulate --users 3 --trials 4 --seed 15 --snr 30 --snr 40

Simulation rates are a float computation that may move in its last digits
(biakit.sim), so the simulation CSVs are re-rendered from the rates the
golden long CSV holds: 17 significant digits round-trip every double.
"""
from pathlib import Path

import numpy as np
import pytest

import biakit as bk
import biakit.cli
from biakit.formats import render_csv
from biakit.sim import SimConfig, SimResult, estimate_dof, result_to_long_csv, result_to_summary_csv

GOLDEN = Path(__file__).resolve().parent / "golden"


def cli_stdout(capsys, *argv) -> str:
    biakit.cli.main(list(argv))
    return capsys.readouterr().out


@pytest.mark.parametrize("name,argv", [
    ("verify_4_trials6_seed3.csv",
     ["verify", "--users", "4", "--trials", "6", "--seed", "3", "--format", "csv"]),
    ("verify_exact_5_trials2_seed3.csv",
     ["verify", "--users", "5", "--exact", "--trials", "2", "--seed", "3", "--format", "csv"]),
    ("bound_9.csv", ["bound", "--users", "9"]),
    ("bound_25.csv", ["bound", "--users", "25"]),
])
def test_cli_csv_matches_golden(name, argv, capsys):
    assert cli_stdout(capsys, *argv) == (GOLDEN / name).read_text()


def golden_simulation() -> SimResult:
    """The K = 3 golden run, its rates read back from the long CSV."""
    lines = (GOLDEN / "simulate_3_trials4_seed15_rates.csv").read_text().splitlines()[1:]
    rates = np.array([float(line.rsplit(",", 1)[1]) for line in lines]).reshape(2, 4, 3)
    return SimResult(users=3, snr_points_db=(30.0, 40.0), trials=4, seed=15, rates=rates,
                     tdma_rates=np.zeros((2, 4)), excluded=0)


def test_simulation_csvs_match_golden():
    result = golden_simulation()
    assert result_to_long_csv(result) == (GOLDEN / "simulate_3_trials4_seed15_rates.csv").read_text()
    assert result_to_summary_csv(result) == (
        GOLDEN / "simulate_3_trials4_seed15_summary.csv").read_text()


def test_simulation_keeps_the_golden_rows_and_rates():
    """Today's run has the golden row structure and its rates within 1e-10."""
    expect = golden_simulation()
    got = estimate_dof(bk.build_scheme(3), SimConfig(snr_points_db=(30.0, 40.0), trials=4, seed=15))
    np.testing.assert_allclose(got.rates, expect.rates, rtol=1e-10, atol=0)

    def cut(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]
    assert cut(result_to_long_csv(got)) == cut(result_to_long_csv(expect))
    assert cut(result_to_summary_csv(got)) == cut(result_to_summary_csv(expect))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_cell_raises(bad):
    with pytest.raises(ValueError, match="non-finite value in output"):
        render_csv(["a", "b"], [[1, 2], [0.5, bad]])
    result = golden_simulation()
    result.rates[1, 2, 0] = bad
    with pytest.raises(ValueError, match="non-finite value in output"):
        result_to_long_csv(result)


def test_columns_render_by_kind():
    text = render_csv(["i", "x", "big"], [np.arange(2), np.array([30.0, 0.1]), [1, 2 ** 70]])
    assert text == "i,x,big\n0,30,1\n1,0.10000000000000001,1180591620717411303424\n"
    assert render_csv(["a"], [[]]) == "a\n"
    with pytest.raises(ValueError):
        render_csv(["a", "b"], [[1, 2], [3]])
