#!/usr/bin/env python3
"""biakit benchmark: one workload, one seed, one run.

Run from the root of a biakit checkout:

    python3 perfbench/run.py --workload verify-float --seed 1 --seconds 24 --trace 0

Workloads: verify-float, verify-exact, simulate, construct (see
perfbench/README.md). The package is imported from the checkout's `src/`;
nothing is installed.

--trace 0 times a fixed set of inputs in passes, each pass running every
input once, until --seconds have gone by (at least three passes). Between
calls it times a fixed reference kernel that uses no biakit code, and it
reports every time scaled by the reference's base time over its mean time
in the run: seconds at a fixed machine speed, so that other tenants of a
shared machine do not move the figures. The unscaled figures are printed
too. --trace 1 runs the workload's first few
inputs twice each, untraced and then traced, and reports the per-layer
metrics, the tracing overhead and the time no layer accounts for. Every
call's output is checked; a failed check counts the call as failed.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. Run details
and the traced spans are written under .bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3
REF_EVERY_S = 0.2     # one reference run per this much measured wall time
# reference_kernel's best time seen on the 2-CPU VM the benchmark was tuned
# on; times are reported at the machine speed this stands for (README)
REF_BASE_S = 0.0120
TAIL_BEYOND = 10
TRACE_CALLS = 6
MAX_ERRORS_SHOWN = 5

ROOT = Path.cwd()
SRC = ROOT / "src"
SCAN_PATH = ROOT / "scripts" / "certify_design_space.py"

# cold `import biakit` plus the workload's first build_scheme, timed inside
# a fresh interpreter so interpreter start-up is not counted
SETUP_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import biakit\n"
    "biakit.build_scheme(int(sys.argv[1]))\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Runner:
    """Runs and checks calls, counting attempts and failures."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._digests: dict[str, str] = {}

    def do(self, call, tracer=None):
        """Run one call and check it; wall seconds, or None if it failed."""
        self.attempted += 1
        gc.collect()  # start every call from the same heap state, outside its wall time
        try:
            t0 = time.perf_counter()
            if tracer is None:
                result = call.run()
            else:
                with tracer.call():
                    result = call.run()
            wall = time.perf_counter() - t0
            digest = hashlib.sha256(call.check(result)).hexdigest()
            if self._digests.setdefault(call.key, digest) != digest:
                raise RuntimeError("output differs from an earlier call with key %s" % call.key)
        except Exception as exc:  # a failing call is counted; the run goes on
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_SHOWN:
                self.errors.append("%s: %s" % (type(exc).__name__, exc))
            return None
        return wall

    def timed(self, calls, seconds: float, between):
        """Runs passes over `calls` until `seconds` have gone by, at least
        MIN_PASSES of them.

        Every pass runs every input once, in an order drawn from the seed,
        and starts with one `between()`, which returns its own wall time.
        After each call and each `between()`, the reference kernel runs
        once per REF_EVERY_S of that wall time, so the reference samples
        the machine's speed at the moments the program ran. Returns
        (items, wall) of every call of the inputs that never failed, the
        number of passes run and the reference wall times.
        """
        rng = random.Random(self.seed)
        timed: list[tuple[str, int, float]] = []
        failed_keys: set[str] = set()
        refs: list[float] = []
        done = 0
        start = time.perf_counter()
        while done < MIN_PASSES or time.perf_counter() - start < seconds:
            sample_reference(between(), refs)
            for call in rng.sample(calls, len(calls)):
                wall = self.do(call)
                if wall is None:
                    failed_keys.add(call.key)
                    continue
                timed.append((call.key, call.items, wall))
                sample_reference(wall, refs)
            done += 1
        return [(items, wall) for key, items, wall in timed if key not in failed_keys], done, refs


def _reference_inputs():
    rng = random.Random(20140825)
    ints = [[rng.randrange(-2 ** 40, 2 ** 40) for _ in range(26)] for _ in range(26)]
    floats = [[rng.gauss(0.0, 1.0) for _ in range(35)] for _ in range(35)]
    return ints, floats


REF_INTS, REF_FLOATS = _reference_inputs()


def reference_kernel() -> int:
    """Fixed work in the mix the workloads run: fraction-free elimination on
    growing big integers, Python-level tuple building, and small dense
    linear algebra. It uses no biakit code, so its time changes only with
    the machine's speed."""
    import numpy

    a = [row[:] for row in REF_INTS]
    n, prev = len(a), 1
    for k in range(n - 1):
        pivot, ak = a[k][k], a[k]
        for i in range(k + 1, n):
            ai, aik = a[i], a[i][k]
            for j in range(k + 1, n):
                ai[j] = (pivot * ai[j] - aik * ak[j]) // prev
        prev = pivot
    cols = [tuple((i * t) % 11 for i in range(35)) for t in range(60)]
    f = numpy.array(REF_FLOATS)
    for _ in range(24):
        m = numpy.column_stack([f[:, j] * (1 + j) for j in range(35)])
        numpy.linalg.svd(m, compute_uv=False)
        numpy.linalg.qr(m)
    return a[n - 1][n - 1] + len(cols)


def sample_reference(wall: float, refs: list[float]) -> None:
    for _ in range(max(1, round(wall / REF_EVERY_S))):
        t0 = time.perf_counter()
        reference_kernel()
        refs.append(time.perf_counter() - t0)


def setup_time(src: Path, users: int) -> float:
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(users)],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def tail(walls: list[float]):
    """Highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, samples beyond). Falls back to the maximum."""
    s = sorted(walls)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def git_commit(root: Path):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_metadata(root: Path, nproc: int, args, workload) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.sizes(),
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(root),
    }


def measure_end_to_end(runner, workload, src: Path, seconds: float):
    calls = workload.inputs(runner.seed, seconds)
    runner.do(calls[0])  # warm-up; its output is compared with the timed calls
    reference_kernel()
    setup: list[float] = []

    def between() -> float:
        setup.append(setup_time(src, workload.setup_users))
        return setup[-1]

    timed, done, refs = runner.timed(calls, seconds, between)
    if not timed:
        raise RuntimeError("no input succeeded: %s" % runner.errors)
    items = sum(i for i, _ in timed)
    walls = [w for _, w in timed]
    tail_value, tail_pct, beyond = tail(walls)
    raw = {
        "items_per_s": items / sum(walls),
        "wall_p50_s": statistics.median(walls),
        "wall_tail_s": tail_value,
        "setup_s": statistics.median(setup),
    }
    # measured seconds -> seconds at the speed REF_BASE_S stands for
    scale = REF_BASE_S / statistics.fmean(refs)
    metrics = {
        "items_per_s": (raw["items_per_s"] / scale, "1/s"),
        "wall_p50_s": (raw["wall_p50_s"] * scale, "s"),
        "wall_tail_s": (raw["wall_tail_s"] * scale, "s"),
        "setup_s": (raw["setup_s"] * scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "success_rate": (1.0 - runner.failed / runner.attempted, "ratio"),
    }
    details = {
        "inputs": len(calls),
        "passes": done,
        "calls_timed": len(walls),
        "items_timed": items,
        "call_walls_s": walls,
        "setup_runs_s": setup,
        "unscaled": raw,
        "reference_runs": len(refs),
        "reference_mean_s": statistics.fmean(refs),
        "reference_base_s": REF_BASE_S,
        "wall_tail_percentile": tail_pct,
        "wall_tail_samples": len(walls),
        "wall_tail_samples_beyond": beyond,
        "error_rate": runner.failed / runner.attempted,
    }
    return metrics, details


def measure_layers(runner, workload, scan_module, seconds: float, out_dir: Path):
    import layers
    import tracing

    calls = workload.inputs(runner.seed, seconds)[:TRACE_CALLS]
    runner.do(calls[0])  # warm-up
    tracer = tracing.Tracer()
    untraced = 0.0
    for call in calls:
        untraced += runner.do(call) or 0.0
        tracer.install(layers.targets(scan_module), layers.sites(scan_module))
        try:
            runner.do(call, tracer)
        finally:
            tracer.uninstall()
    agg = tracing.aggregate(tracer.spans)
    metrics = layers.layer_metrics(agg, tracer.counters)
    traced = agg[tracing.CALL_SPAN][1]
    accounted = sum(metrics[layer + ".self_s"][0] for layer in layers.LAYERS)
    metrics.update({
        "trace.calls": (agg[tracing.CALL_SPAN][0], "count"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.wall_s": (traced, "s"),
        "trace.untraced_wall_s": (untraced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.unaccounted_s": (traced - accounted, "s"),
    })
    spans_path = out_dir / ("%s.spans.tsv" % workload.name)  # latest traced run only
    tracing.write_spans(tracer.spans, spans_path)
    details = {
        "layer_self_share": {layer: metrics[layer + ".self_s"][0] / traced for layer in layers.LAYERS},
        "unaccounted_share": (traced - accounted) / traced,
        "overhead_share": (traced - untraced) / untraced if untraced else None,
        "spans_file": str(spans_path.relative_to(out_dir.parent)),
    }
    return metrics, details


def select(metrics: dict, declared: list[dict]) -> dict:
    """The metrics BENCHMARK.json declares for this mode, in its order."""
    out = {}
    for spec in declared:
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError("metric %s has unit %s, declared %s" % (spec["name"], unit, spec["unit"]))
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def print_report(meta, metrics, details, runner) -> None:
    print("biakit benchmark: workload=%s seed=%d trace=%d"
          % (meta["workload"], meta["seed"], meta["trace"]))
    print("run metadata: " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print("  %-32s %18.6f %s" % (name, value, unit))
    print("  %-32s %18.6f ratio  (%d failed of %d attempted)"
          % ("error_rate", runner.failed / runner.attempted, runner.failed, runner.attempted))
    if "wall_tail_percentile" in details:
        print("  %d inputs x %d passes, %d calls timed; times are scaled by the reference"
              % (details["inputs"], details["passes"], details["calls_timed"]))
        print("  kernel's base time %.6f s over its mean time %.6f s in this run (%d runs)"
              % (details["reference_base_s"], details["reference_mean_s"], details["reference_runs"]))
        print("  wall_tail_s is p%.1f of %d call wall times, %d of them beyond it"
              % (details["wall_tail_percentile"], details["wall_tail_samples"],
                 details["wall_tail_samples_beyond"]))
        for name, value in details["unscaled"].items():
            print("  %-32s %18.6f  (unscaled)" % (name, value))
    if "layer_self_share" in details:
        print("  layer self time as a share of traced wall time:")
        for layer, share in details["layer_self_share"].items():
            print("    %-10s %6.1f%%" % (layer, 100 * share))
        print("    %-10s %6.1f%%" % ("unaccounted", 100 * details["unaccounted_share"]))
        if details["overhead_share"] is not None:
            print("  tracing overhead: %.1f%% of untraced wall time" % (100 * details["overhead_share"]))
    for err in runner.errors:
        print("  failure: " + err)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    missing = [str(p) for p in (SRC / "biakit" / "__init__.py", SCAN_PATH, spec_path) if not p.is_file()]
    if missing:
        sys.stderr.write("error: not the root of a biakit checkout; missing %s\n" % ", ".join(missing))
        return 1
    spec = json.loads(spec_path.read_text())

    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(nproc))
    sys.path.insert(0, str(SRC))
    import biakit

    if SRC.resolve() not in Path(biakit.__file__).resolve().parents:
        sys.stderr.write("error: biakit imported from %s, not %s\n" % (biakit.__file__, SRC))
        return 1
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write("error: unknown workload %r; choose from %s\n"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 1

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        scan_module = workloads.load_scan_module(SCAN_PATH)
        workload = workloads.make(args.workload, work_dir, scan_module)
        runner = Runner(args.seed)
        if args.trace:
            metrics, details = measure_layers(runner, workload, scan_module, args.seconds, out_dir)
            declared = spec["per_layer"]
        else:
            metrics, details = measure_end_to_end(runner, workload, SRC, args.seconds)
            declared = spec["end_to_end"]
        meta = run_metadata(ROOT, nproc, args, workload)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print_report(meta, metrics, details, runner)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": select(metrics, declared),
    }
    record = dict(meta=meta, details=details, errors=runner.errors, **result)
    (out_dir / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
