"""ASCII rendering of experiment results in the paper's table shapes."""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from .experiments import (
    ModelRow,
    ReductionCounts,
    ReferenceCountRow,
    TemplateScaleRow,
    TransferRow,
)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a padded ASCII table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths, strict=True)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def render_serving_report(
    throughput: Sequence[Tuple[str, float, float]],
    stages: Sequence[Tuple[str, int, float, float]],
    caches: Sequence[Tuple[str, int, int, float]],
    adaptation: Sequence[Tuple[str, object]] = (),
    persist: Sequence[Tuple[str, object]] = (),
) -> str:
    """Serving metrics in the repo's table style.

    ``throughput`` rows are (mode, plans/sec, mean ms/plan); ``stages``
    rows are (stage, calls, total seconds, mean ms) as produced by
    :meth:`repro.serving.ServiceStats.stage_rows`; ``caches`` rows are
    (cache, hits, misses, hit rate); ``adaptation`` rows are
    (counter, value) as produced by
    :meth:`repro.serving.AdaptationStats.rows`; ``persist`` rows are
    (counter, value) warm-boot/restore counters.
    """
    sections = []
    if throughput:
        sections.append(
            format_table(
                ["mode", "plans/sec", "mean ms/plan"],
                [
                    (mode, f"{rate:.1f}", f"{mean_ms:.3f}")
                    for mode, rate, mean_ms in throughput
                ],
            )
        )
    if stages:
        sections.append(
            format_table(
                ["stage", "calls", "total s", "mean ms"],
                [
                    (stage, count, f"{total:.3f}", f"{mean_ms:.3f}")
                    for stage, count, total, mean_ms in stages
                ],
            )
        )
    if caches:
        sections.append(_cache_table(caches))
    if adaptation:
        sections.append(
            format_table(["adaptation", "value"], list(adaptation))
        )
    if persist:
        sections.append(format_table(["persist", "value"], list(persist)))
    return "\n\n".join(sections)


def render_persist_report(
    checkpoints: Sequence[Tuple[str, int, int, str]],
    counters: Dict[str, object],
) -> str:
    """Checkpoint/restore state in the repo's table style.

    ``checkpoints`` rows are (file, seq, bytes, schema) — typically
    built from :func:`repro.persist.list_checkpoints` +
    :func:`repro.persist.read_manifest`; ``counters`` maps
    checkpointer/restore counters (writes, skipped_clean, errors,
    bundles/snapshots restored) to values.
    """
    sections = []
    if checkpoints:
        sections.append(
            format_table(
                ["checkpoint", "seq", "bytes", "schema"], list(checkpoints)
            )
        )
    if counters:
        sections.append(
            format_table(
                ["persist", "value"],
                [(key, value) for key, value in sorted(counters.items())],
            )
        )
    return "\n\n".join(sections)


#: (counters section, report label) of every cache a CostService counts.
_CACHE_SECTIONS = (
    ("feature_cache", "feature-cache"),
    ("template_cache", "template-cache"),
    ("plan_cache", "plan-cache"),
    ("snapshot_store", "snapshot-store"),
)


def cache_rows(
    snapshots: Iterable[Dict[str, object]]
) -> List[Tuple[str, int, int, float]]:
    """(cache, hits, misses, hit rate) rows summed over
    :meth:`~repro.serving.CostService.counters` snapshots (one per
    service, replica or worker).

    Coalesced waits (and approximate snapshot-store hits) count as hits
    in both columns and rate, so the displayed counts and percentage
    agree.  A cache absent from every snapshot gets no row.
    """
    totals: Dict[str, List[int]] = {}
    for snapshot in snapshots:
        for section, label in _CACHE_SECTIONS:
            counters = snapshot.get(section)
            if not counters:
                continue
            total = totals.setdefault(label, [0, 0])
            total[0] += (
                counters["hits"]
                + counters["coalesced"]
                + counters.get("approx_hits", 0)
            )
            total[1] += counters["misses"]
    return [
        (label, hits, misses, hits / (hits + misses) if hits + misses else 0.0)
        for label, (hits, misses) in totals.items()
    ]


def _cache_table(caches: Sequence[Tuple[str, int, int, float]]) -> str:
    """Render (cache, hits, misses, hit rate) rows as one table."""
    return format_table(
        ["cache", "hits", "misses", "hit rate"],
        [
            (name, hits, misses, f"{rate:.1%}")
            for name, hits, misses, rate in caches
        ],
    )


def render_cluster_report(
    cluster: Dict[str, object],
    services: Iterable[Dict[str, object]] = (),
) -> str:
    """A serving tier's health/routing report in the repo's table style.

    *cluster* is the tier's ``cluster`` counters section (the thread
    and process tiers share its shape): one row per shard (status,
    routed, failures, shed, peak in-flight) plus the cluster-level
    totals.  *services* are the replicas' (or workers')
    :meth:`~repro.serving.CostService.counters` snapshots, whose cache
    counters are summed into one table.
    """
    per_shard = cluster["per_shard"]
    sections = [
        format_table(
            ["shard", "status", "routed", "failures", "shed", "peak inflight"],
            [
                (
                    shard_id,
                    "up" if info["alive"] else "down",
                    info["routed"],
                    info["failures"],
                    info["admission"]["shed"],
                    info["admission"]["peak_inflight"],
                )
                for shard_id, info in sorted(per_shard.items())
            ],
        ),
        format_table(
            ["cluster", "value"],
            [
                (key, cluster[key])
                for key in ("ejections", "exhausted", "reroutes")
            ],
        ),
    ]
    caches = cache_rows(services)
    if caches:
        sections.append(_cache_table(caches))
    return "\n\n".join(sections)


def _waterfall_rows(
    nodes: Sequence[Dict], depth: int = 0, rows: List[Tuple] = None
) -> List[Tuple]:
    """Flatten a :func:`repro.obs.span_tree` forest into indented
    (span, duration, status, annotations) table rows."""
    if rows is None:
        rows = []
    for node in nodes:
        annotations = {
            key: value
            for key, value in node.get("annotations", {}).items()
            if key not in ("links",)  # link lists are too wide for a cell
        }
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(annotations.items()))
        rows.append(
            (
                "  " * depth + str(node.get("name", "?")),
                f"{node.get('duration_ms', 0.0):.3f}",
                node.get("status", "?"),
                rendered,
            )
        )
        _waterfall_rows(node.get("children", []), depth + 1, rows)
    return rows


def render_obs_report(
    tracer=None,
    events=None,
    traces: int = 3,
    slow: int = 5,
) -> str:
    """The observability report: trace waterfalls, the slow-query log
    and the structured event history, in the repo's table style.

    *tracer* is a :class:`repro.obs.Tracer` (or None to skip the trace
    sections); *events* an :class:`repro.obs.EventLog` (or None).
    ``traces`` bounds how many retained traces render as waterfalls
    (newest first), ``slow`` how many slow-log entries list.
    """
    from ..obs import span_tree

    sections: List[str] = []
    if tracer is not None:
        for trace in reversed(tracer.traces()[-traces:]):
            rows = _waterfall_rows(span_tree(trace["spans"]))
            sections.append(
                f"trace {trace['trace_id']} "
                f"(sampled: {trace['sampled_by']}, "
                f"{trace['duration_ms']:.3f} ms)\n"
                + format_table(
                    ["span", "ms", "status", "annotations"], rows
                )
            )
        entries = tracer.slow_queries()[:slow]
        if entries:
            sections.append(
                "slow-query log (slowest first)\n"
                + format_table(
                    ["trace", "root", "ms", "status", "fingerprint"],
                    [
                        (
                            entry["trace_id"],
                            entry["root"],
                            f"{entry['duration_ms']:.3f}",
                            entry["status"],
                            str(entry.get("fingerprint"))[:40],
                        )
                        for entry in entries
                    ],
                )
            )
    if events is not None and len(events):
        sections.append(
            "events\n"
            + format_table(
                ["type", "unix ts", "fields"],
                [
                    (
                        event.type,
                        f"{event.unix_ts:.3f}",
                        ", ".join(
                            f"{k}={v}" for k, v in sorted(event.data.items())
                        ),
                    )
                    for event in events.events()
                ],
            )
        )
    return "\n\n".join(sections) if sections else "(no observability data)"


def load_bench_trajectory(directory: Union[str, pathlib.Path]) -> List[Dict]:
    """Every ``BENCH_*.json`` perf-trajectory envelope under
    *directory* (see :mod:`repro.bench.runner`), scenario-sorted."""
    results = [
        json.loads(path.read_text())
        for path in sorted(pathlib.Path(directory).glob("BENCH_*.json"))
    ]
    return sorted(results, key=lambda r: str(r.get("scenario", "")))


def render_bench_trajectory(
    results: Union[Sequence[Dict], str, pathlib.Path]
) -> str:
    """Markdown table over perf-trajectory results.

    *results* is a list of ``BENCH_*.json`` envelopes, or a directory
    to load them from.  Missing metrics render as ``-`` so partial or
    older-schema files degrade readably instead of raising.
    """
    if isinstance(results, (str, pathlib.Path)):
        results = load_bench_trajectory(results)

    def dig(mapping: object, *keys: str) -> object:
        for key in keys:
            if not isinstance(mapping, dict) or key not in mapping:
                return None
            mapping = mapping[key]
        return mapping

    def fmt(value: object, spec: str = "{:.2f}") -> str:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return "-"
        return spec.format(int(value) if spec == "{:d}" else value)

    header = (
        "| scenario | reqs | p50 ms | p95 ms | p99 ms | max ms | req/s "
        "| cache hit | errors | sha | mode |"
    )
    divider = "|" + " --- |" * 11
    lines = [header, divider]
    for result in results:
        metrics = result.get("metrics", {})
        lines.append(
            "| {scenario} | {reqs} | {p50} | {p95} | {p99} | {max} "
            "| {rps} | {hit} | {errors} | {sha} | {mode} |".format(
                scenario=result.get("scenario", "?"),
                reqs=fmt(dig(metrics, "completed"), "{:d}"),
                p50=fmt(dig(metrics, "latency_ms", "p50"), "{:.3f}"),
                p95=fmt(dig(metrics, "latency_ms", "p95"), "{:.3f}"),
                p99=fmt(dig(metrics, "latency_ms", "p99"), "{:.3f}"),
                max=fmt(dig(metrics, "latency_ms", "max"), "{:.3f}"),
                rps=fmt(dig(metrics, "throughput_rps"), "{:.1f}"),
                hit=fmt(
                    dig(metrics, "counters", "feature_cache", "hit_rate"),
                    "{:.1%}",
                ),
                errors=fmt(dig(metrics, "errors"), "{:d}"),
                sha=result.get("git_sha", "-"),
                mode="quick" if result.get("quick") else "full",
            )
        )
    return "\n".join(lines)


def render_figure1(result: Dict[str, Dict[str, float]]) -> str:
    rows = []
    for benchmark, per_env in result.items():
        values = list(per_env.values())
        spread = max(values) / max(min(values), 1e-9)
        for env_name, mean_ms in per_env.items():
            rows.append((benchmark, env_name, f"{mean_ms:.2f}", f"{spread:.2f}x"))
    return format_table(["benchmark", "environment", "avg cost (ms)", "spread"], rows)


def render_table4(rows: List[ModelRow]) -> str:
    data = [
        (
            row.benchmark,
            row.model,
            row.scale,
            f"{row.pearson:.3f}",
            f"{row.mean_q_error:.3f}",
            f"{row.train_seconds:.2f}",
        )
        for row in rows
    ]
    return format_table(
        ["dataset", "model", "scale", "pearson", "mean q-error", "time (s)"], data
    )


def render_figure5(boxes: Dict[Tuple[str, str, int], Dict[str, float]]) -> str:
    data = [
        (
            benchmark,
            model,
            scale,
            f"{box['q25']:.3f}",
            f"{box['q50']:.3f}",
            f"{box['q75']:.3f}",
        )
        for (benchmark, model, scale), box in sorted(boxes.items())
    ]
    return format_table(["dataset", "model", "scale", "q25", "q50", "q75"], data)


def render_figure6(results) -> str:
    data = [
        (benchmark, variant, f"{summary.mean:.3f}", f"{summary.median:.3f}",
         f"{summary.percentiles[90]:.3f}")
        for (benchmark, variant), summary in sorted(results.items())
    ]
    return format_table(
        ["dataset", "variant", "mean q-error", "median", "q90"], data
    )


def render_figure7(counts: List[ReductionCounts]) -> str:
    rows = []
    for entry in counts:
        for op, kept in sorted(entry.kept.items()):
            rows.append(
                (
                    entry.method,
                    op,
                    entry.total_features,
                    kept,
                    entry.total_features - kept,
                )
            )
        rows.append(
            (entry.method, "TOTAL", entry.total_features, "",
             f"{entry.reduction_ratio:.1%}")
        )
    return format_table(
        ["method", "operator", "features", "kept", "reduced"], rows
    )


def render_table5(rows: List[TemplateScaleRow]) -> str:
    data = [
        (
            row.benchmark,
            row.label,
            f"{row.mean_q_error:.3f}",
            f"{row.collection_ms / 1000.0:.1f}s",
        )
        for row in rows
    ]
    return format_table(
        ["dataset", "snapshot", "mean q-error", "collection (simulated)"], data
    )


def render_table6(rows: List[ReferenceCountRow]) -> str:
    data = [
        (
            row.n_references,
            f"{row.mean_q_error:.3f}",
            f"{row.q95:.3f}",
            f"{row.q90:.3f}",
            f"{row.fr_runtime_seconds:.2f}",
            f"{row.reduction_ratio:.1%}",
        )
        for row in rows
    ]
    return format_table(
        ["references", "mean", "q95", "q90", "FR runtime (s)", "reduction"], data
    )


def render_table7(rows: List[TransferRow]) -> str:
    data = [
        (
            row.benchmark,
            row.model,
            f"{row.pearson:.3f}",
            f"{row.mean_q_error:.3f}",
            f"{row.train_seconds:.2f}",
        )
        for row in rows
    ]
    return format_table(["dataset", "model", "pearson", "mean", "time (s)"], data)


def render_figure8(curves: Dict[str, List[Tuple[int, float]]]) -> str:
    rows = []
    for variant, points in curves.items():
        for epoch, q_error in points:
            rows.append((variant, epoch, f"{q_error:.3f}"))
    return format_table(["variant", "epochs", "mean q-error"], rows)
