"""The names the benchmark harness (perfbench/) reaches into biakit by.

The harness looks its traced functions up by name and calls the scheme
API from its construct check, so renaming or removing any of them breaks
`perfbench/run.py` without failing any other test. These tests only load
the harness's modules by path; they write nothing under perfbench/.
"""
import biakit.cli
import biakit.scheme

from conftest import load, scan_module


def test_tracer_resolves_every_target():
    layers = load("perfbench/layers.py", "perfbench_layers")
    targets = layers.targets(scan_module())
    assert len(targets) == 19
    assert len({name for name, _, _ in targets}) == 19
    assert all(callable(fn) for _, fn, _ in targets)


def test_scheme_and_cli_entry_points_exist():
    for name in ("certify_product_rank", "scheme_to_json", "build_scheme"):
        assert callable(getattr(biakit.scheme, name)), name
    assert callable(biakit.cli.main)


def test_construct_check_accepts_small_builds_and_scans():
    workloads = load("perfbench/workloads.py", "perfbench_workloads")
    scan = scan_module()
    construct = workloads.Construct("construct", scan)
    out = construct.check(construct.run((3, 4, 5), (3,)))
    assert out == construct.check(construct.run((3, 4, 5), (3,)))
