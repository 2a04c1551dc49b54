"""Command-line front end: generate / verify / bound / simulate.

Exit codes: 0 success, 1 usage or configuration error, 2 verification ran
and reported failures.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .dof import sweep, sweep_to_csv, sweep_to_json
from .errors import BiaError
from .scheme import build_scheme, pair_dims_from_json, scheme_to_json
from .sim import SimConfig, estimate_dof, plot_script, result_to_json, result_to_long_csv, result_to_summary_csv
from .verify import report_to_csv, report_to_json, run_verification

USAGE_EXIT = 1
VERIFY_FAIL_EXIT = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the documented usage exit code is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(USAGE_EXIT)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process: parse_args keeps no state between
    calls (each returns a fresh namespace), so building it once serves
    every call of main."""
    p = _Parser(prog="biakit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="construct a scheme and emit its JSON")
    gen.add_argument("--users", type=int, required=True)
    gen.add_argument("--pair-map", type=Path, default=None,
                     help="JSON file overriding the pair->dimension labeling")
    gen.add_argument("--out", type=Path, default=None)

    ver = sub.add_parser("verify", help="rank-verify a generated scheme over channel draws")
    ver.add_argument("--users", type=int, required=True)
    ver.add_argument("--trials", type=int, default=100)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--exact", action="store_true",
                     help="integer channels + fraction-free elimination (no float tolerance)")
    ver.add_argument("--pair-map", type=Path, default=None)
    ver.add_argument("--format", choices=["json", "csv"], default="json")
    ver.add_argument("--out", type=Path, default=None)

    bnd = sub.add_parser("bound", help="exact DoF bound sweep over alignment-set sizes")
    bnd.add_argument("--users", type=int, required=True)
    bnd.add_argument("--format", choices=["csv", "json"], default="csv")
    bnd.add_argument("--out", type=Path, default=None)

    sim = sub.add_parser("simulate", help="Monte Carlo sum-rate sweep and DoF slope fit")
    sim.add_argument("--users", type=int, required=True)
    sim.add_argument("--trials", type=int, default=500)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--snr", type=float, action="append", default=None,
                     help="SNR point in dB; repeat for several (default 30 40 50)")
    sim.add_argument("--out", type=Path, default=Path("sim"),
                     help="output prefix for <prefix>_rates.csv, <prefix>_summary.csv, <prefix>_plot.py")
    return p


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _load_pair_dims(path: Path | None):
    if path is None:
        return None
    return pair_dims_from_json(path.read_text())


# every abbreviation argparse takes for --snr; "--s" is ambiguous with --seed
_SNR_FLAGS = ("--sn", "--snr")


def _bind_snr_values(argv: list[str]) -> list[str]:
    """Rewrite each `--snr VALUE` as `--snr=VALUE`, and `--sn VALUE` as
    `--sn=VALUE`, so that argparse takes any VALUE, -1e1 or -inf too, as
    the value rather than as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _SNR_FLAGS:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(_bind_snr_values(sys.argv[1:] if argv is None else argv))
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError("seed must be >= 0")
        if args.command == "generate":
            scheme = build_scheme(args.users, _load_pair_dims(args.pair_map))
            _emit(scheme_to_json(scheme), args.out)
            return 0

        if args.command == "verify":
            scheme = build_scheme(args.users, _load_pair_dims(args.pair_map))
            report = run_verification(scheme, draws=args.trials, seed=args.seed,
                                      exact=args.exact)
            text = report_to_json(report) if args.format == "json" else report_to_csv(report)
            _emit(text, args.out)
            return 0 if report.all_passed else VERIFY_FAIL_EXIT

        if args.command == "bound":
            report = sweep(args.users)
            text = sweep_to_csv(report) if args.format == "csv" else sweep_to_json(report)
            _emit(text, args.out)
            return 0

        if args.command == "simulate":
            snr = tuple(args.snr) if args.snr else (30.0, 40.0, 50.0)
            scheme = build_scheme(args.users)
            cfg = SimConfig(snr_points_db=snr, trials=args.trials, seed=args.seed)
            result = estimate_dof(scheme, cfg)
            prefix = args.out
            summary_name = prefix.name + "_summary.csv"
            prefix.with_name(prefix.name + "_rates.csv").write_text(result_to_long_csv(result))
            prefix.with_name(summary_name).write_text(result_to_summary_csv(result))
            prefix.with_name(prefix.name + "_plot.py").write_text(plot_script(summary_name))
            sys.stdout.write(result_to_json(result))
            return 0
    except (BiaError, ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return USAGE_EXIT
    raise AssertionError("unhandled subcommand")


if __name__ == "__main__":
    raise SystemExit(main())
