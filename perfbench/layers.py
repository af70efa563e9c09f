"""Per-layer metrics from one traced pass.

A layer a workload never calls reports 0 calls and 0 ms. Per-item bound
lookups are not spanned; `bounds.quantile_per_lookup` derives their number
as estimate_bounds calls x m.
"""

from __future__ import annotations

import spans as sp

CLI_COMMANDS = ("ingest", "train", "certify", "oracle")

# (metric, unit) in report order; "<fn>.<stat>" is read from the span summary
SPAN_METRICS = (
    ("ratings.load_split.ms", "ms"),
    ("ratings.save_split.ms", "ms"),
    ("ratings.split_train_test.ms", "ms"),
    ("base_rec.train_base.calls", "count"),
    ("base_rec.train_base.ms_p50", "ms"),
    ("base_rec.train_base.ms_p95", "ms"),
    ("base_rec.train_base.self_ms", "ms"),
    ("base_rec.train_ir.self_ms", "ms"),
    ("base_rec.recommend.calls", "count"),
    ("base_rec.recommend.self_ms", "ms"),
    ("ensemble.accumulate_votes.self_ms", "ms"),
    ("ensemble.sample_submatrix.self_ms", "ms"),
    ("ensemble.save_votes.ms", "ms"),
    ("ensemble.save_votes.calls", "count"),
    ("ensemble.load_votes.ms", "ms"),
    ("ensemble.ensemble_recommend.self_ms", "ms"),
    ("bounds.estimate_bounds.calls", "count"),
    ("bounds.estimate_bounds.self_ms", "ms"),
    ("bounds.estimate_bounds.ms_p50", "ms"),
    ("bounds.estimate_bounds.ms_p98", "ms"),
    ("bounds.beta_quantile.calls", "count"),
    ("bounds.beta_quantile.self_ms", "ms"),
    ("bounds.make_context.calls", "count"),
    ("bounds.make_context.self_ms", "ms"),
    ("certify.certify_sweep.self_ms", "ms"),
    ("certify.bagging_sweep.self_ms", "ms"),
    ("certify.binary_search_r.calls", "count"),
    ("certify.verify_constraint.calls", "count"),
    ("oracle.exact_item_probs.calls", "count"),
    ("oracle.exact_item_probs.ms_p50", "ms"),
    ("oracle.exact_item_probs.ms_p95", "ms"),
    ("oracle.append_fake_users.self_ms", "ms"),
    ("oracle.exhaustive_two_level_check.self_ms", "ms"),
)

FILE_METRICS = (("ensemble.save_votes.bytes", "bytes"),
                ("ensemble.load_votes.bytes", "bytes"))


def _stat(agg: dict, stat: str) -> float:
    if agg is None:
        return 0 if stat == "calls" else 0.0
    if stat.startswith("ms_p"):
        return sp.percentile(agg["durations_ms"], float(stat[4:]))
    return agg[stat]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: sp.Tracer, state: dict, n_items: int,
                  traced_s: float, span_cost_ns: float) -> dict:
    """Every per-layer metric of the benchmark, as {name: {value, unit}}.

    traced_s is the wall of the traced pass; span_cost_ns is the measured
    extra cost of one traced call.
    """
    spans = tracer.spans()
    summary = sp.summarize(spans)
    out = {}
    for name, unit in SPAN_METRICS:
        fn, stat = name.rsplit(".", 1)
        out[name] = {"value": _stat(summary.get(fn), stat), "unit": unit}
    for name, unit in FILE_METRICS:
        out[name] = {"value": tracer.file_bytes.get(name.rsplit(".", 1)[0], 0),
                     "unit": unit}

    def value(name):
        return out[name]["value"]

    out["bounds.quantile_per_lookup"] = {"value": _ratio(
        value("bounds.beta_quantile.calls"),
        value("bounds.estimate_bounds.calls") * n_items), "unit": "ratio"}
    out["certify.verify_per_search"] = {"value": _ratio(
        value("certify.verify_constraint.calls"),
        value("certify.binary_search_r.calls")), "unit": "ratio"}
    out["certify.r_pos_frac"] = {"value": state.get("r_pos_frac", 0.0), "unit": "frac"}
    out["certify.r_pos_frac_e0"] = {"value": state.get("r_pos_frac_e0", 0.0),
                                    "unit": "frac"}
    out["metrics.self_ms"] = {"value": sum(
        agg["self_ms"] for fn, agg in summary.items() if fn.startswith("metrics.")),
        "unit": "ms"}
    for cmd in CLI_COMMANDS:
        agg = summary.get(f"cli.cmd_{cmd}")
        out[f"cli.{cmd}.self_ms"] = {"value": agg["self_ms"] if agg else 0.0,
                                     "unit": "ms"}
    # added time over untraced time, with the added time taken as spans x the
    # cost of one span: the wall of a second, untraced pass would differ from
    # the traced one more by the machine's drift (+-20% within minutes on a
    # shared 2-core box) than by the tracing itself
    added_s = len(spans) * span_cost_ns / 1e9
    out["tracing.overhead_frac"] = {"value": added_s / (traced_s - added_s),
                                    "unit": "frac"}
    out["tracing.spans"] = {"value": len(spans), "unit": "count"}
    return out

