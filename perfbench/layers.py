"""Which biakit functions the traced run wraps, and the per-layer metrics
computed from their spans and counters.

Layers are biakit's modules (`cli`, `formats`, `scheme`, `exactrank`,
`channel`, `verify`, `sim`) plus `scan`, the design-space scan in
`scripts/certify_design_space.py`. `dof` is not traced: `bound` runs in
microseconds and no workload spends time in it.

Metric suffixes: `_calls` counts spans, `_s` is total span time, `_self_s`
is span time minus child spans, `_ratio` is useful outcomes over attempts
(0 when there were no attempts; the attempts are reported alongside).
"""
from __future__ import annotations

import biakit
import biakit.channel
import biakit.cli
import biakit.dof
import biakit.exactrank
import biakit.formats
import biakit.scheme
import biakit.sim
import biakit.verify

LAYERS = ("cli", "formats", "scheme", "exactrank", "channel", "verify", "sim", "scan")


def _elimination_ops(key):
    """Multiplications done by fraction-free elimination, computed from the
    matrix shape and the returned rank: each of the `rank` pivot steps
    updates every column of every row below the pivot with two ring
    multiplications."""
    def hook(counters, args, rank):
        rows = args[0]
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        counters[key] += 2 * nc * (rank * (nr - 1) - rank * (rank - 1) // 2)
    return hook


def _certified(counters, args, flags):
    counters["scheme.receivers"] += len(flags)
    counters["scheme.certified"] += sum(flags)


def _checks(counters, args, report):
    counters["verify.checks"] += len(report.checks)
    counters["verify.passed"] += sum(c.passed for c in report.checks)


def _excluded(counters, args, result):
    counters["sim.slots"] += int(result.rates.size)
    counters["sim.excluded"] += result.excluded


def _bytes_out(counters, args, text):
    counters["formats.bytes_out"] += len(text.encode())


def targets(scan_module):
    """(span name, function, counter hook) for every traced function."""
    spec = [
        ("cli", biakit.cli, "main", None),
        ("scheme", biakit.scheme, "build_scheme", None),
        ("scheme", biakit.scheme, "certify_receivers", _certified),
        ("scheme", biakit.scheme, "certify_product_rank", None),
        ("exactrank", biakit.exactrank, "integer_rank", _elimination_ops("exactrank.integer_rank_ops")),
        ("exactrank", biakit.exactrank, "gaussian_rank", _elimination_ops("exactrank.gaussian_rank_ops")),
        ("channel", biakit.channel, "draw_channels", None),
        ("channel", biakit.channel, "effective_channel", None),
        ("verify", biakit.verify, "run_verification", _checks),
        ("verify", biakit.verify, "verify_decodability", None),
        ("verify", biakit.verify, "verify_decodability_exact", None),
        ("verify", biakit.verify, "decompose_receiver", None),
        ("verify", biakit.verify, "rank_of", None),
        ("sim", biakit.sim, "estimate_dof", _excluded),
        ("sim", biakit.sim, "receiver_rate", None),
        ("sim", biakit.sim, "tdma_sum_rate", None),
        ("formats", biakit.formats, "render_json", _bytes_out),
        ("formats", biakit.formats, "render_csv", _bytes_out),
        ("scan", scan_module, "scan", None),
    ]
    return [("%s.%s" % (layer, name), getattr(module, name), hook)
            for layer, module, name, hook in spec]


def sites(scan_module):
    """Every module namespace a traced function is looked up through."""
    return [biakit, biakit.cli, biakit.scheme, biakit.exactrank, biakit.channel,
            biakit.verify, biakit.sim, biakit.formats, biakit.dof, scan_module]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(agg, counters) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) from `tracing.aggregate` output and counters."""
    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return agg.get(name, (0, 0.0, 0.0))[2]

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        names = [n for n in agg if n.split(".", 1)[0] == layer]
        out[layer + ".calls"] = (sum(calls(n) for n in names), "count")
        out[layer + ".self_s"] = (sum(self_s(n) for n in names), "s")
    out.update({
        "verify.decompose_calls": (calls("verify.decompose_receiver"), "count"),
        "verify.decompose_self_s": (self_s("verify.decompose_receiver"), "s"),
        "verify.rank_calls": (calls("verify.rank_of"), "count"),
        "verify.rank_s": (total("verify.rank_of"), "s"),
        "verify.exact_self_s": (self_s("verify.verify_decodability_exact"), "s"),
        "verify.checks": (counters["verify.checks"], "count"),
        "verify.pass_ratio": (_ratio(counters["verify.passed"], counters["verify.checks"]), "ratio"),
        "channel.draw_calls": (calls("channel.draw_channels"), "count"),
        "channel.draw_s": (total("channel.draw_channels"), "s"),
        "channel.effective_calls": (calls("channel.effective_channel"), "count"),
        "channel.effective_s": (total("channel.effective_channel"), "s"),
        "exactrank.gaussian_rank_calls": (calls("exactrank.gaussian_rank"), "count"),
        "exactrank.gaussian_rank_s": (total("exactrank.gaussian_rank"), "s"),
        "exactrank.gaussian_rank_ops": (counters["exactrank.gaussian_rank_ops"], "count"),
        "exactrank.integer_rank_calls": (calls("exactrank.integer_rank"), "count"),
        "exactrank.integer_rank_s": (total("exactrank.integer_rank"), "s"),
        "exactrank.integer_rank_ops": (counters["exactrank.integer_rank_ops"], "count"),
        "scheme.build_calls": (calls("scheme.build_scheme"), "count"),
        "scheme.build_s": (total("scheme.build_scheme"), "s"),
        "scheme.certify_calls": (calls("scheme.certify_receivers"), "count"),
        "scheme.certify_self_s": (self_s("scheme.certify_receivers"), "s"),
        "scheme.certified_ratio": (_ratio(counters["scheme.certified"], counters["scheme.receivers"]), "ratio"),
        "sim.rate_calls": (calls("sim.receiver_rate"), "count"),
        "sim.rate_s": (total("sim.receiver_rate"), "s"),
        "sim.tdma_calls": (calls("sim.tdma_sum_rate"), "count"),
        "sim.tdma_s": (total("sim.tdma_sum_rate"), "s"),
        "sim.excluded_ratio": (_ratio(counters["sim.excluded"], counters["sim.slots"]), "ratio"),
        "formats.emit_calls": (calls("formats.render_json") + calls("formats.render_csv"), "count"),
        "formats.emit_s": (total("formats.render_json") + total("formats.render_csv"), "s"),
        "formats.bytes_out": (counters["formats.bytes_out"], "bytes"),
    })
    return out
