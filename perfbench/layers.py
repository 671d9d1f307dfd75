"""Per-layer metrics from the spans of one traced repetition."""

from __future__ import annotations

from reference import GENERATOR_ORDER as GENERATORS

# per-layer metric -> span whose durations it sums
SPAN_TIMES = {
    "cli.resolve_s": "cli.resolve",
    "cli.run_s": "cli.run",
    "cli.write_csv_s": "cli.write_csv",
    "channel.average_s": "channel.average",
    "channel.embed_s": "channel.embed",
    "channel.dilation_s": "channel.dilation",
    "linops.herm_eig_s": "linops.herm_eig",
    "mastereq.problem_s": "mastereq.problem",
    "analysis.compare_s": "analysis.compare",
}
# per-layer metric -> span whose calls it counts
SPAN_COUNTS = {
    "linops.herm_eig_calls": "linops.herm_eig",
    "linops.trace_distance_calls": "linops.trace_distance",
}


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict], name: str) -> tuple[float, list[str]]:
    """Summed self time of the spans called `name`, and any nesting problems.

    Self time is a span's duration minus that of its direct children. That
    is the uncovered part of the span only if the children lie inside it and
    do not overlap, which is checked here.
    """
    total, problems = 0.0, []
    for index, span in enumerate(spans):
        if span["name"] != name:
            continue
        children = sorted(
            (s for s in spans if s["parent"] == index), key=lambda s: s["start"]
        )
        edge = span["start"]
        for child in children:
            if child["start"] < edge or child["end"] > span["end"]:
                problems.append(f"{child['run']}: {child['name']} is not nested in {name}")
            edge = child["end"]
        covered = sum(_duration(c) for c in children)
        total += _duration(span) - covered
    return total, problems


def layer_metrics(spans: list[dict], steps: dict[str, int]) -> tuple[dict[str, float], list[str]]:
    """Metrics of one repetition; `steps` counts RK4 steps run per generator."""
    out = {metric: 0.0 for metric in SPAN_TIMES}
    out.update({metric: 0 for metric in SPAN_COUNTS})
    integrate = {g: 0.0 for g in GENERATORS}
    peak_mb = 0.0
    for span in spans:
        for metric, name in SPAN_TIMES.items():
            if span["name"] == name:
                out[metric] += _duration(span)
        for metric, name in SPAN_COUNTS.items():
            if span["name"] == name:
                out[metric] += 1
        if span["name"] == "mastereq.integrate":
            integrate[span["kind"]] += _duration(span)
        peak_mb = max(peak_mb, span.get("peak_mb", 0.0))
    out["cli.run_self_s"], problems = self_times(spans, "cli.run")
    out["channel.dilation_peak_mb"] = peak_mb
    for g in GENERATORS:
        out[f"mastereq.integrate_s.{g}"] = integrate[g]
        out[f"mastereq.step_us.{g}"] = 1e6 * integrate[g] / steps[g] if steps.get(g) else 0.0
    return out, problems
