"""The columnar CSV renderer against golden output, byte for byte.

The files under tests/golden were written by the row-wise renderer this
one replaced, through the command line:

- verify_4_trials6_seed3.csv: verify --users 4 --trials 6 --seed 3 --format csv
- verify_exact_5_trials2_seed3.csv: verify --users 5 --exact --trials 2 --seed 3 --format csv
- bound_9.csv, bound_25.csv: bound --users 9 / 25 (K = 25 has numerators past int64)

The simulation CSVs were rewritten by the columnar renderer when every
run came to draw its trials from one channel stream, which moved every
rate, by the command

- simulate_3_trials4_seed15_{rates,summary}.csv:
  simulate --users 3 --trials 4 --seed 15 --snr 30 --snr 40

and their rates are checked against the one-draw `receiver_rate` on that
stream's draws.

The JSON files were written by the StringIO renderer that the list-based
`render_json` replaced (kept below as `oracle_render_json`):

- verify_exact_7_trials2_seed5.json: verify --users 7 --exact --trials 2 --seed 5
- generate_5.json: generate --users 5

Simulation rates are a float computation that may move in its last digits
(biakit.sim), so the simulation CSVs are re-rendered from the rates the
golden long CSV holds: 17 significant digits round-trip every double.
"""
import io
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import biakit as bk
import biakit.cli
from biakit.channel import CHANNEL_STREAM, draw_channels, stream_seed
from biakit.formats import Records, format_float, format_rational, render_csv, render_json
from biakit.sim import (
    SimConfig,
    SimResult,
    estimate_dof,
    receiver_rate,
    result_to_long_csv,
    result_to_summary_csv,
)
from biakit.verify import decompose_receiver

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


@pytest.mark.parametrize("name,argv", [
    ("verify_exact_7_trials2_seed5.json",
     ["verify", "--users", "7", "--exact", "--trials", "2", "--seed", "5"]),
    ("generate_5.json", ["generate", "--users", "5"]),
])
def test_cli_json_matches_golden(name, argv, capsys):
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


def test_golden_rates_are_the_one_draw_rates_of_the_stream():
    """Every golden rate is receiver_rate's, within 1e-10, on the first four
    draws of seed 15's channel stream, one draw_channels after another."""
    expect = golden_simulation()
    scheme = bk.build_scheme(3)
    rng = np.random.default_rng(stream_seed(15, CHANNEL_STREAM))
    for t in range(4):
        ch = draw_channels(3, 2, seed=rng)
        for j in range(3):
            dec = decompose_receiver(ch, scheme, j)
            for p, db in enumerate(expect.snr_points_db):
                np.testing.assert_allclose(expect.rates[p, t, j],
                                           receiver_rate(dec, 10.0 ** (db / 10.0)), rtol=1e-10, atol=0)


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


def test_float_columns_format_each_distinct_value_by_its_bits():
    text = render_csv(["x"], [np.array([0.0, -0.0, 0.1, 0.0, 0.1, -0.0])])
    assert text == "x\n0\n-0\n0.10000000000000001\n0\n0.10000000000000001\n-0\n"
    # the first non-finite value of the column is the one named
    with pytest.raises(ValueError, match=r"non-finite value in output: inf$"):
        render_csv(["x"], [[1.0, 2.0, float("inf"), float("nan")]])


def oracle_render_json(obj) -> str:
    """The StringIO renderer render_json replaced, one isinstance chain and
    one json.dumps per key."""
    def scalar(obj):
        if isinstance(obj, bool):
            return "true" if obj else "false"
        if obj is None:
            return "null"
        if isinstance(obj, Fraction):
            return json.dumps(format_rational(obj))
        if isinstance(obj, float):
            return format_float(obj)
        if isinstance(obj, int):
            return str(obj)
        if isinstance(obj, str):
            return json.dumps(obj)
        raise TypeError("unsupported JSON value: %r" % (obj,))

    def emit(obj, out, depth):
        pad, inner = "  " * depth, "  " * (depth + 1)
        if isinstance(obj, dict):
            if not obj:
                out.write("{}")
                return
            out.write("{\n")
            for n, (k, v) in enumerate(obj.items()):
                if not isinstance(k, str):
                    raise TypeError("non-string JSON key: %r" % (k,))
                out.write(inner + json.dumps(k) + ": ")
                emit(v, out, depth + 1)
                out.write(",\n" if n < len(obj) - 1 else "\n")
            out.write(pad + "}")
        elif isinstance(obj, (list, tuple)):
            seq = list(obj)
            if not seq:
                out.write("[]")
                return
            if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in seq):
                out.write("[" + ", ".join(scalar(v) for v in seq) + "]")
                return
            out.write("[\n")
            for n, v in enumerate(seq):
                out.write(inner)
                emit(v, out, depth + 1)
                out.write(",\n" if n < len(seq) - 1 else "\n")
            out.write(pad + "]")
        else:
            out.write(scalar(obj))

    out = io.StringIO()
    emit(obj, out, 0)
    out.write("\n")
    return out.getvalue()


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(), st.fractions(), st.floats(allow_nan=False, allow_infinity=False).map(np.float64))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=20)


@given(json_values)
def test_render_json_matches_the_stringio_renderer(obj):
    assert render_json(obj) == oracle_render_json(obj)


@pytest.mark.parametrize("bad,error", [
    ({"a": [1, {2: 3}]}, r"non-string JSON key: 2"),
    ({"a": np.int64(3)}, r"unsupported JSON value: np.int64\(3\)"),
    ([1, {"x": float("nan")}], r"non-finite value in output: nan"),
])
def test_render_json_refuses_what_the_stringio_renderer_refused(bad, error):
    for render in (render_json, oracle_render_json):
        with pytest.raises((TypeError, ValueError), match=error):
            render(bad)


bool_cells = st.booleans()
float_cells = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324]))


@st.composite
def records(draw):
    """(names, columns): up to five records of up to four named columns,
    each of ints, bools, floats (those two sometimes as numpy arrays) or
    any JSON scalars, with names that need escaping."""
    n = draw(st.integers(0, 5))
    names = draw(st.lists(st.text(alphabet=st.sampled_from('ab"\\%\n\u00e9\U0001f600'), max_size=4),
                          unique=True, max_size=4))
    columns = []
    for _ in names:
        cells = draw(st.sampled_from([st.integers(), bool_cells, float_cells, json_scalars]))
        column = draw(st.lists(cells, min_size=n, max_size=n))
        if cells in (bool_cells, float_cells) and draw(st.booleans()):
            column = np.array(column)
        columns.append(column)
    return names, columns


@given(records(), st.integers(0, 2))
def test_records_render_as_their_list_of_dicts(case, depth):
    """A Records value renders exactly as the list of dicts it stands for,
    at any indent; a numpy column stands for its tolist()."""
    names, columns = case
    dicts = [dict(zip(names, row)) for row in zip(*(
        c.tolist() if isinstance(c, np.ndarray) else c for c in columns))]
    wrap, expect = Records(names, columns), dicts
    for _ in range(depth):
        wrap, expect = {"x": wrap, "n": 1}, {"x": expect, "n": 1}
    assert render_json(wrap) == oracle_render_json(expect)
    assert render_json([Records(names, columns)]) == oracle_render_json([dicts])


@pytest.mark.parametrize("names,columns,error", [
    (["a", "b"], [[1.0, float("nan")], [float("inf"), 2.0]], r"non-finite value in output: inf"),
    (["a", "b"], [[1, 2], [0.5, np.int64(3)]], r"unsupported JSON value: np.int64\(3\)"),
    ([7], [[1]], r"non-string JSON key: 7"),
])
def test_records_refuse_what_their_list_of_dicts_refuses(names, columns, error):
    """The first value a record list refuses, in record order, is the one named."""
    dicts = [dict(zip(names, row)) for row in zip(*columns)]
    for render, value in ((render_json, Records(names, columns)), (oracle_render_json, dicts)):
        with pytest.raises((TypeError, ValueError), match=error):
            render({"k": value})


def test_records_need_distinct_names_and_equal_columns():
    with pytest.raises(ValueError, match="distinct"):
        Records(["a", "a"], [[1], [2]])
    with pytest.raises(ValueError, match="equal lengths"):
        Records(["a", "b"], [[1], [2, 3]])
    with pytest.raises(ValueError, match="2 record names for 1 columns"):
        Records(["a", "b"], [[1]])
