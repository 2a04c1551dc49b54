"""End-to-end command-line runs: exit codes, formats, reproducibility."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import biakit
import biakit.cli
import biakit.dof
import biakit.scheme

CMD = [sys.executable, "-m", "biakit"]

# the directory holding the imported biakit package (a src checkout or
# site-packages), absolute so that children started in another cwd find it
PACKAGE_ROOT = str(Path(biakit.__file__).resolve().parents[1])


def run_cli(*args, cwd=None):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=PACKAGE_ROOT + (os.pathsep + path if path else ""))
    return subprocess.run(CMD + list(args), capture_output=True, text=True, cwd=cwd, env=env)


def test_generate_emits_scheme_json(tmp_path):
    out = tmp_path / "scheme.json"
    res = run_cli("generate", "--users", "4", "--out", str(out))
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["K"] == 4 and doc["m"] == 9
    assert len(doc["tilde"]) == 9 and len(doc["pairs"]) == 6
    assert all(set(row) <= {0, 1} for row in doc["tilde"])


def test_generate_stdout_matches_file(tmp_path):
    out = tmp_path / "scheme.json"
    res = run_cli("generate", "--users", "3", "--out", str(out))
    piped = run_cli("generate", "--users", "3")
    assert res.returncode == piped.returncode == 0
    assert piped.stdout == out.read_text()


def test_generate_pair_map_override(tmp_path):
    override = tmp_path / "map.json"
    override.write_text(json.dumps([
        {"users": [3, 4], "dims": [1, 1]},
        {"users": [2, 4], "dims": [1, 2]},
        {"users": [2, 3], "dims": [2, 2]},
        {"users": [1, 4], "dims": [1, 3]},
        {"users": [1, 3], "dims": [2, 3]},
        {"users": [1, 2], "dims": [3, 3]},
    ]))
    res = run_cli("generate", "--users", "4", "--pair-map", str(override))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    by_pair = {tuple(p["users"]): tuple(p["dims"]) for p in doc["pairs"]}
    assert by_pair[(3, 4)] == (1, 1)
    assert by_pair[(1, 2)] == (3, 3)


@pytest.mark.parametrize("doc", [
    [{"users": [1, 2]}],
    {"pairs": 5},
    [{"users": [1, 2], "dims": [1, 1]}, {"users": [1, 3], "dims": [2, 1]},
     {"users": [2, 3], "dims": [2, 2]}, {"users": [2, 1], "dims": [1, 1]}],
], ids=["entry-without-dims", "pairs-not-a-list", "pair-repeated"])
def test_generate_rejects_malformed_pair_map(tmp_path, doc):
    override = tmp_path / "map.json"
    override.write_text(json.dumps(doc))
    res = run_cli("generate", "--users", "3", "--pair-map", str(override))
    assert res.returncode == 1
    assert res.stderr.startswith("error: pair map")
    assert "Traceback" not in res.stderr


def test_generate_rejects_a_pair_map_with_a_fractional_user(tmp_path):
    override = tmp_path / "map.json"
    override.write_text(json.dumps([
        {"users": [1.7, 2], "dims": [1, 1]},
        {"users": [1, 3], "dims": [2, 1]},
        {"users": [2, 3], "dims": [2, 2]},
    ]))
    res = run_cli("generate", "--users", "3", "--pair-map", str(override))
    assert res.returncode == 1
    assert res.stderr.startswith("error: pair map entry 1 must be")
    assert res.stdout == ""


def test_generate_rejects_degenerate_users():
    res = run_cli("generate", "--users", "2")
    assert res.returncode == 1
    assert "degenerate-scheme" in res.stderr


def test_verify_clean_scheme_exits_zero(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("verify", "--users", "4", "--trials", "50", "--seed", "7",
                  "--out", str(out))
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["failures"] == 0
    assert len(doc["checks"]) == 200


def test_verify_uncertified_scheme_exits_two(monkeypatch, capsys, fallback_scheme5):
    # build_scheme certifies every receiver, so verify the pair-product family
    uncertified = {j + 1 for j, ok in enumerate(fallback_scheme5.certified_receivers) if not ok}
    assert uncertified
    monkeypatch.setattr(biakit.cli, "build_scheme", lambda users, pair_dims=None: fallback_scheme5)
    assert biakit.cli.main(["verify", "--users", "5", "--trials", "3"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == 3 * len(uncertified)
    failing = {c["rx"] for c in doc["checks"] if not c["pass"]}
    assert failing == uncertified


def test_verify_exact_mode():
    res = run_cli("verify", "--users", "3", "--trials", "2", "--exact")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["exact"] is True and doc["failures"] == 0


def test_verify_exact_mode_at_13_users():
    res = run_cli("verify", "--users", "13", "--trials", "1", "--exact")
    assert res.returncode == 0
    assert json.loads(res.stdout)["failures"] == 0


def test_verify_csv_format():
    res = run_cli("verify", "--users", "3", "--trials", "2", "--format", "csv")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "draw,rx,rank_desired,rank_interference,rank_combined,pass"
    assert len(lines) == 7


def test_verify_rejects_zero_trials():
    res = run_cli("verify", "--users", "3", "--trials", "0")
    assert res.returncode == 1
    assert "trials" in res.stderr


def test_bound_csv_and_json():
    res = run_cli("bound", "--users", "4")
    assert res.returncode == 0
    assert res.stdout.splitlines()[1] == "4,2,4,3"
    res_json = run_cli("bound", "--users", "4", "--format", "json")
    doc = json.loads(res_json.stdout)
    assert doc["achieved"] == "4/3"


def test_simulate_writes_artifacts(tmp_path):
    res = run_cli("simulate", "--users", "3", "--trials", "10", "--seed", "3",
                  "--snr", "30", "--snr", "40", "--out", "run", cwd=tmp_path)
    assert res.returncode == 0
    rates = (tmp_path / "run_rates.csv").read_text()
    summary = (tmp_path / "run_summary.csv").read_text()
    plot = (tmp_path / "run_plot.py").read_text()
    assert rates.startswith("K,snr_db,trial,rx,rate")
    assert summary.startswith("K,snr_db,mean_sum_rate")
    assert len(summary.strip().split("\n")) == 3
    assert "run_summary.csv" in plot
    doc = json.loads(res.stdout)
    assert doc["K"] == 3 and doc["trials"] == 10
    assert doc["excluded"] == 0


def test_usage_errors_exit_one():
    assert run_cli().returncode == 1
    assert run_cli("frobnicate").returncode == 1
    assert run_cli("generate").returncode == 1
    assert run_cli("generate", "--users").returncode == 1
    assert run_cli("bound", "--users", "4", "--format", "xml").returncode == 1


def test_reruns_are_byte_identical(tmp_path):
    a = run_cli("verify", "--users", "3", "--trials", "20", "--seed", "9")
    b = run_cli("verify", "--users", "3", "--trials", "20", "--seed", "9")
    assert a.stdout == b.stdout
    d1, d2 = tmp_path / "one", tmp_path / "two"
    d1.mkdir(), d2.mkdir()
    for d in (d1, d2):
        res = run_cli("simulate", "--users", "3", "--trials", "8", "--seed", "5",
                      "--snr", "30", "--snr", "40", "--out", "sim", cwd=d)
        assert res.returncode == 0
    for name in ("sim_rates.csv", "sim_summary.csv", "sim_plot.py"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_simulate_takes_exponent_notation_snr_values(tmp_path):
    # argparse alone reads "-1e1" as an option, not as the value of --snr
    res = run_cli("simulate", "--users", "3", "--trials", "2", "--snr", "-1e1", "--snr", "1e1",
                  "--out", "run", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["snr_points_db"] == [-10, 10]


def test_simulate_binds_values_of_the_abbreviated_snr_flag(tmp_path, monkeypatch, capsys):
    # argparse takes --sn for --snr; --s stays ambiguous with --seed
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--users", "3", "--trials", "2", "--out", "run"]
    assert biakit.cli.main(argv + ["--sn", "-1e1", "--sn", "1e1"]) == 0
    assert json.loads(capsys.readouterr().out)["snr_points_db"] == [-10, 10]
    with pytest.raises(SystemExit) as exc:
        biakit.cli.main(argv + ["--s", "10"])
    assert exc.value.code == 1
    assert "ambiguous option: --s" in capsys.readouterr().err


@pytest.mark.parametrize("snr", ["nan", "inf", "1e308"])
def test_simulate_rejects_snr_without_a_finite_power(tmp_path, snr):
    res = run_cli("simulate", "--users", "3", "--trials", "2", "--snr", "30", "--snr", snr,
                  "--out", "run", cwd=tmp_path)
    assert res.returncode == 1
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("error: SNR point %r dB" % float(snr))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_negative_seed_is_named(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert biakit.cli.main([command, "--users", "3", "--trials", "2", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["generate", "verify", "simulate"])
def test_extreme_users_fail_fast(tmp_path, monkeypatch, capsys, command):
    """The size check comes before construction: with star_pattern_matrix
    raising, a missing check fails this test instead of allocating."""
    def unreached(config):
        raise AssertionError("star_pattern_matrix built K=%d" % config.users)
    monkeypatch.setattr(biakit.scheme, "star_pattern_matrix", unreached)
    monkeypatch.chdir(tmp_path)
    assert biakit.cli.main([command, "--users", "100000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: users K=100000 is too large") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.fixture
def default_digit_limit():
    """Python's default limit of integer string conversion, 4300 digits."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def test_bound_fails_fast_past_the_digit_limit(monkeypatch, capsys, default_digit_limit):
    def unreached(K, l):
        raise AssertionError("bound computed for K=%d" % K)
    with monkeypatch.context() as patch:
        patch.setattr(biakit.dof, "bound", unreached)
        assert biakit.cli.main(["bound", "--users", "1559"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: users K=1559:") and "more than 4300 digits" in err
    # 1558! has 4300 digits, so K = 1558 still prints every bound
    assert biakit.cli.main(["bound", "--users", "1558"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 1557
