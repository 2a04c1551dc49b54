"""The benchmark's workloads: seeded calls through biakit's public entry
points, each with a check of its output.

Every call goes through what a user runs: `biakit.cli.main(argv)`,
`biakit.scheme.build_scheme(K)` or `scan(K)` from
`scripts/certify_design_space.py`, each looked up at call time so that the
traced run's wrappers and any later change behind these entry points show
up end to end. A check raises `CallFailed`; otherwise it returns the call's
output bytes, which must be identical for calls with equal keys.

`inputs(seed, seconds)` returns the run's fixed set of inputs; the runner
times them in passes until `seconds` have gone by. The number of CLI inputs
follows from `seconds` and the parent code's call cost (`call_s` in `make`),
so two commits timed with the same settings see the same inputs.
"""
from __future__ import annotations

import contextlib
import functools
import importlib.util
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import biakit.cli
import biakit.scheme


class CallFailed(Exception):
    pass


@dataclass
class Call:
    key: str                        # equal keys must give byte-identical output
    items: int                      # units of work done by the call
    run: Callable[[], Any]          # the timed public call
    check: Callable[[Any], bytes]   # raises CallFailed, else returns output bytes


def load_scan_module(path: Path):
    spec = importlib.util.spec_from_file_location("certify_design_space", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = biakit.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


# passes over the inputs of a CLI workload that fit in a run on an idle machine
PASSES = 10


def _call_seeds(seed: int, seconds: float, call_s: float) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2 ** 31) for _ in range(math.ceil(seconds / (PASSES * call_s)))]


def _expect_exit(rc, want: int, err: str) -> None:
    if rc != want:
        raise CallFailed("exit code %r, expected %d: %s" % (rc, want, err.strip()[-300:]))


class Verify:
    """`biakit verify --users K --trials D [--exact]`, JSON to stdout.

    The expected failures come from the scheme's channel-free certificate:
    every draw fails at exactly the receivers it leaves uncertified, so the
    check holds whatever K the constructor learns to certify.
    """

    def __init__(self, name: str, users: int, draws: int, exact: bool, call_s: float):
        self.name = name
        self.users = users
        self.draws = draws
        self.exact = exact
        self.call_s = call_s
        self.setup_users = users
        scheme = biakit.scheme.build_scheme(users)
        self.block_len = scheme.config.block_len
        self.uncertified = tuple(j + 1 for j, ok in enumerate(scheme.certified_receivers) if not ok)
        self.good_ranks = (users - 1, users * (users - 1) // 2, self.block_len)

    def sizes(self) -> dict:
        return {"K": self.users, "m": self.block_len, "draws_per_call": self.draws,
                "exact": self.exact, "uncertified_receivers": list(self.uncertified)}

    def inputs(self, seed: int, seconds: float) -> list[Call]:
        calls = []
        for s in _call_seeds(seed, seconds, self.call_s):
            argv = ["verify", "--users", str(self.users), "--trials", str(self.draws),
                    "--seed", str(s)] + (["--exact"] if self.exact else [])
            calls.append(Call(str(s), self.draws, functools.partial(run_cli, argv),
                              functools.partial(self.check, s)))
        return calls

    def check(self, seed: int, result) -> bytes:
        rc, text, err = result
        _expect_exit(rc, 2 if self.uncertified else 0, err)
        doc = json.loads(text)
        header = (doc["K"], doc["draws"], doc["seed"], doc["exact"])
        if header != (self.users, self.draws, seed, self.exact):
            raise CallFailed("report header %r" % (header,))
        if len(doc["checks"]) != self.draws * self.users:
            raise CallFailed("%d checks, expected %d" % (len(doc["checks"]), self.draws * self.users))
        failing = set()
        for c in doc["checks"]:
            ranks = (c["rank_desired"], c["rank_interference"], c["rank_combined"])
            if c["pass"] != (ranks == self.good_ranks):
                raise CallFailed("draw %d rx %d: pass flag disagrees with ranks %r"
                                 % (c["draw"], c["rx"], ranks))
            if not c["pass"]:
                failing.add((c["draw"], c["rx"]))
        expected = {(d, rx) for d in range(self.draws) for rx in self.uncertified}
        if failing != expected or doc["failures"] != len(expected):
            raise CallFailed("failing (draw, rx) set differs from the certificate: %d vs %d"
                             % (len(failing), len(expected)))
        return text.encode()


class Simulate:
    """`biakit simulate --users K --trials T --out DIR/sim` at 30/40/50 dB."""

    SNR_DB = (30.0, 40.0, 50.0)

    def __init__(self, name: str, users: int, trials: int, out_dir: Path, call_s: float):
        self.name = name
        self.users = users
        self.trials = trials
        self.call_s = call_s
        self.prefix = out_dir / "sim"
        self.setup_users = users
        self.target = 2 * users / (users + 2)

    def sizes(self) -> dict:
        return {"K": self.users, "m": (self.users + 2) * (self.users - 1) // 2,
                "trials_per_call": self.trials, "snr_db": list(self.SNR_DB),
                "csv_rows_per_call": len(self.SNR_DB) * self.trials * self.users}

    def inputs(self, seed: int, seconds: float) -> list[Call]:
        calls = []
        for s in _call_seeds(seed, seconds, self.call_s):
            argv = ["simulate", "--users", str(self.users), "--trials", str(self.trials),
                    "--seed", str(s), "--out", str(self.prefix)]
            calls.append(Call(str(s), self.trials, functools.partial(run_cli, argv),
                              functools.partial(self.check, s)))
        return calls

    def check(self, seed: int, result) -> bytes:
        rc, text, err = result
        _expect_exit(rc, 0, err)
        doc = json.loads(text)
        if (doc["K"], doc["trials"], doc["seed"]) != (self.users, self.trials, seed):
            raise CallFailed("summary header %r" % ((doc["K"], doc["trials"], doc["seed"]),))
        if doc["excluded"] != 0:
            raise CallFailed("%d excluded receivers" % doc["excluded"])
        deviation = abs(doc["fitted_slope"] - self.target) / self.target
        if deviation > 0.05:
            raise CallFailed("slope %r deviates %.3f from %r" % (doc["fitted_slope"], deviation, self.target))
        files = [self.prefix.with_name(self.prefix.name + suffix).read_bytes()
                 for suffix in ("_rates.csv", "_summary.csv", "_plot.py")]
        rows = len(self.SNR_DB) * self.trials * self.users
        if files[0].count(b"\n") != rows + 1 or files[1].count(b"\n") != len(self.SNR_DB) + 1:
            raise CallFailed("CSV row counts differ from %d rates and %d summary rows"
                             % (rows, len(self.SNR_DB)))
        return b"\0".join([text.encode()] + files)


# README "Known limitations": K -> (candidates, fully certified, best receivers)
SCAN_TABLE = {3: (21, 3, 3), 4: (55, 3, 4), 5: (120, 0, 4), 6: (231, 0, 4)}

# One call per group. The groups cut one pass (build_scheme for K=3..14,
# scan for K=3..6) into four calls of similar cost on the parent code
# (0.5-0.7 s each), so the per-call median compares like with like.
CONSTRUCT_GROUPS = (
    ((14,), ()),
    ((), (6,)),
    ((13, 3, 4, 5, 6, 7, 8, 9, 10), ()),
    ((12, 11), (3, 4, 5)),
)


class Construct:
    """`build_scheme(K)` for K=3..14 and the design-space `scan(K)` for
    K=3..6, as four calls. The inputs are the same for every seed."""

    def __init__(self, name: str, scan_module):
        self.name = name
        self.scan_module = scan_module
        self.setup_users = 3
        self._product_rank_ok: dict[int, bool] = {}

    def sizes(self) -> dict:
        return {"build_users": list(range(3, 15)), "scan_users": sorted(SCAN_TABLE),
                "scan_candidates": sum(c for c, _, _ in SCAN_TABLE.values()),
                "calls_per_pass": len(CONSTRUCT_GROUPS)}

    def inputs(self, seed: int, seconds: float) -> list[Call]:
        calls = []
        for g, (builds, scans) in enumerate(CONSTRUCT_GROUPS):
            items = len(builds) + sum(SCAN_TABLE[K][0] for K in scans)
            calls.append(Call("group%d" % g, items, functools.partial(self.run, builds, scans),
                              self.check))
        return calls

    def run(self, builds, scans):
        schemes = [biakit.scheme.build_scheme(K) for K in builds]
        scanned = [(K, self.scan_module.scan(K)) for K in scans]
        return schemes, scanned

    def check(self, result) -> bytes:
        schemes, scanned = result
        out = []
        for scheme in schemes:
            K = scheme.config.users
            if K <= 4 and not all(scheme.certified_receivers):
                raise CallFailed("build_scheme(%d) is not fully certified" % K)
            if K not in self._product_rank_ok:
                self._product_rank_ok[K] = biakit.scheme.certify_product_rank(scheme.pattern.tilde)
            if not self._product_rank_ok[K]:
                raise CallFailed("build_scheme(%d) fails the product rank certificate" % K)
            out.append(biakit.scheme.scheme_to_json(scheme).encode())
            out.append(repr(scheme.certified_receivers).encode())
        for K, (candidates, full, best) in scanned:
            if (candidates, len(full), best) != SCAN_TABLE[K]:
                raise CallFailed("scan(%d) gave %r, expected %r"
                                 % (K, (candidates, len(full), best), SCAN_TABLE[K]))
            out.append(repr((K, candidates, full, best)).encode())
        return b"\0".join(out)


def make(name: str, out_dir: Path, scan_module):
    """The workload's configuration. `call_s` is the parent code's cost of
    one call on an idle 2-CPU machine; it fixes how many inputs a run of a
    given length uses."""
    if name == "verify-float":
        return Verify(name, users=8, draws=32, exact=False, call_s=0.16)
    if name == "verify-exact":
        return Verify(name, users=7, draws=2, exact=True, call_s=0.28)
    if name == "simulate":
        return Simulate(name, users=4, trials=100, out_dir=out_dir, call_s=0.14)
    if name == "construct":
        return Construct(name, scan_module)
    raise ValueError("unknown workload %r" % name)


WORKLOADS = ("verify-float", "verify-exact", "simulate", "construct")
