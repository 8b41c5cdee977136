"""Streaming metrics for the load-testing harness.

Two concerns live here:

- :class:`LatencyHistogram` — a fixed-memory, log-bucketed latency
  histogram.  Load workers record per-request latencies concurrently;
  quantiles (p50/p95/p99), mean and max come out at the end without
  ever holding per-request samples (a sustained run would otherwise
  accumulate millions of floats).
- counter arithmetic over :meth:`repro.serving.CostService.counters`
  snapshots — :func:`counters_delta` subtracts a "before" snapshot
  from an "after" one and re-derives the rate metrics (hit rates, mean
  batch occupancy, per-stage mean latency) from the *delta* counts, so
  a scenario reports what happened during its measured window, not
  since service start.

Everything is JSON-serializable plain data on the way out; the
trajectory files (``BENCH_<scenario>.json``) are built from these
dicts.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..obs import histogram as _buckets
from ..obs.lockwatch import make_lock

#: The bucketing scheme is shared with the metrics registry's
#: histograms — one implementation in :mod:`repro.obs.histogram`
#: (1 microsecond .. 1000 seconds, 20 buckets/decade).  The old
#: module-private names stay as aliases.
_LOW_MS = _buckets.LOW_MS
_HIGH_MS = _buckets.HIGH_MS
_PER_DECADE = _buckets.PER_DECADE
_DECADES = _buckets.DECADES
_BUCKETS = _buckets.BUCKETS


class LatencyHistogram:
    """Thread-safe streaming histogram of latencies in milliseconds.

    Values are binned into log-spaced buckets; quantiles are read back
    as the geometric midpoint of the covering bucket, so they carry the
    bucket's ~12% relative resolution.  Exact ``min``/``max``/``sum``
    are tracked alongside the buckets.
    """

    def __init__(self) -> None:
        self._lock = make_lock("bench.histogram")
        self._counts = [0] * _BUCKETS
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = 0.0

    # ------------------------------------------------------------------
    #: Bucket math delegates to the shared scheme so this histogram
    #: and the registry's (:class:`repro.obs.LogHistogram`) always
    #: agree on bucket boundaries.
    _bucket = staticmethod(_buckets.bucket_index)
    _bucket_mid_ms = staticmethod(_buckets.bucket_mid_ms)

    # ------------------------------------------------------------------
    def record(self, value_ms: float) -> None:
        """Record one latency (milliseconds)."""
        if value_ms < 0 or not math.isfinite(value_ms):
            raise ValueError(f"latency must be finite and >= 0, got {value_ms}")
        index = self._bucket(value_ms)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value_ms
            self._min = min(self._min, value_ms)
            self._max = max(self._max, value_ms)

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold *other*'s observations into this histogram."""
        with other._lock:
            counts = list(other._counts)
            count, total = other._count, other._sum
            low, high = other._min, other._max
        with self._lock:
            for index, n in enumerate(counts):
                self._counts[index] += n
            self._count += count
            self._sum += total
            self._min = min(self._min, low)
            self._max = max(self._max, high)

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Observations recorded so far."""
        with self._lock:
            return self._count

    def quantile(self, q: float) -> float:
        """The latency (ms) at quantile ``q`` in [0, 1]; 0.0 if empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            # Rank of the target observation (1-based), then scan the
            # cumulative counts for the covering bucket.
            rank = max(1, math.ceil(q * self._count))
            seen = 0
            for index, n in enumerate(self._counts):
                seen += n
                if seen >= rank:
                    mid = self._bucket_mid_ms(index)
                    # Clamp to the exact extremes so p0/p100 (and any
                    # quantile landing in the edge buckets) never lie
                    # outside the observed range.
                    return min(max(mid, self._min), self._max)
            return self._max  # pragma: no cover - unreachable

    def summary(self) -> Dict[str, float]:
        """JSON-ready summary: count, mean, p50/p95/p99, max (ms)."""
        with self._lock:
            count, total, high = self._count, self._sum, self._max
        return {
            "count": count,
            "mean": (total / count) if count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": high,
        }


# ----------------------------------------------------------------------
# counter snapshot arithmetic
# ----------------------------------------------------------------------
def _numeric(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def counters_delta(
    before: Dict[str, object], after: Dict[str, object]
) -> Dict[str, object]:
    """``after - before`` over nested counter snapshots.

    Numeric leaves are subtracted (keys only present in *after* — e.g.
    a batcher created mid-run — are taken as-is); dicts recurse;
    anything else is dropped.  Derived rates from the snapshots
    (``hit_rate``, ``mean_batch_size``) are *recomputed from the delta
    counts* afterwards, since rates cannot be subtracted.  The fix-up
    is applied at every nesting depth, so a
    :meth:`repro.cluster.ClusterService.counters` snapshot — which
    nests one full per-service section under ``shards.<shard-id>`` —
    comes out with real per-shard rates too.
    """
    delta = _subtract(before, after)
    _fix_rates(delta)
    return delta


def _fix_rates(delta: Dict[str, object]) -> None:
    """Recompute derived rates (and drop gauges) in a subtracted
    snapshot, recursing into nested sections (cluster per-shard
    counters carry the same shapes one level down)."""
    for key, value in delta.items():
        if not isinstance(value, dict):
            continue
        if key in (
            "feature_cache", "template_cache", "plan_cache", "snapshot_store"
        ):
            hits = value.get("hits", 0) + value.get("coalesced", 0)
            hits += value.get("approx_hits", 0)
            requests = hits + value.get("misses", 0)
            value["requests"] = requests
            value["hit_rate"] = hits / requests if requests else 0.0
            value.pop("size", None)  # a gauge, not a counter
        elif key == "admission":
            # Admission gauges: in-flight is instantaneous, the peak a
            # high-water mark, the limit a config constant — none
            # subtract meaningfully.  `admitted`/`shed` are counters
            # and stay.
            for gauge in ("inflight", "peak_inflight", "max_inflight"):
                value.pop(gauge, None)
        elif key == "batchers":
            for counters in value.values():
                if isinstance(counters, dict):
                    batches = counters.get("batches", 0)
                    counters["mean_batch_size"] = (
                        counters.get("submitted", 0) / batches
                        if batches
                        else 0.0
                    )
                    counters.pop("largest_batch", None)  # high-water gauge
        elif key == "service" and isinstance(value.get("stages"), dict):
            for stage in value["stages"].values():
                calls = stage.get("calls", 0)
                stage["mean_ms"] = (
                    stage.get("seconds", 0.0) / calls * 1000.0
                    if calls
                    else 0.0
                )
            _fix_rates(value)
        else:
            _fix_rates(value)


def _subtract(before: Dict[str, object], after: Dict[str, object]) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for key, value in after.items():
        base = before.get(key)
        if isinstance(value, dict):
            out[key] = _subtract(base if isinstance(base, dict) else {}, value)
        elif _numeric(value):
            out[key] = value - (base if _numeric(base) else 0)
    return out


def load_metrics(
    latency: LatencyHistogram,
    elapsed_s: float,
    issued: int,
    errors: int,
    counters: Optional[Dict[str, object]] = None,
    per_tenant: Optional[Dict[str, LatencyHistogram]] = None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the canonical scenario metrics dict.

    Every scenario emits this shape, so the tolerance-band comparator
    and the trajectory renderer address metrics by one set of dotted
    paths (``latency_ms.p50``, ``throughput_rps``,
    ``counters.feature_cache.hit_rate``, ...).
    """
    completed = latency.count
    metrics: Dict[str, object] = {
        "latency_ms": latency.summary(),
        "throughput_rps": (completed / elapsed_s) if elapsed_s > 0 else 0.0,
        "elapsed_s": elapsed_s,
        "issued": issued,
        "completed": completed,
        "errors": errors,
    }
    if counters is not None:
        metrics["counters"] = counters
    if per_tenant:
        metrics["per_tenant"] = {
            name: hist.summary() for name, hist in sorted(per_tenant.items())
        }
    if extra:
        metrics["extra"] = dict(extra)
    return metrics


def flatten_metrics(
    metrics: Dict[str, object], prefix: str = ""
) -> Dict[str, float]:
    """Nested metrics -> {dotted path: numeric value} (non-numeric
    leaves are dropped).  The comparator and its tolerance maps key on
    these paths."""
    out: Dict[str, float] = {}
    for key, value in metrics.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            out.update(flatten_metrics(value, path))
        elif _numeric(value):
            out[path] = float(value)
    return out


__all__: List[str] = [
    "LatencyHistogram",
    "counters_delta",
    "flatten_metrics",
    "load_metrics",
]
