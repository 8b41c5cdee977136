"""The four workloads: ``oltp-sql``, ``olap-plans``, ``proc-mixed`` and
``fit``.

Every workload drives the program only through its public entry points
(``ClusterService``, ``ProcClusterService``, ``CostService``, ``QCFE``,
``parse_sql``, ``PlanBuilder.build``, the bundle's ``prepare_*`` /
``predict_prepared*``, ``cluster.proc.protocol`` and ``counters()``).
Inputs come from ``--seed`` alone; the served models are trained from a
fixed seed, because they are the system under test, not its input.

An untraced run reports the end-to-end metrics.  A traced run measures
an untraced window, the same loop with one span per call (the
difference is the tracing overhead), then replays the inputs through
the layer functions with a span around each call.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends import get_backend
from repro.cluster import ClusterService
from repro.cluster.proc import ProcClusterService, ProcConfig, protocol
from repro.cluster.router import ShardRouter
from repro.core import QCFE, QCFEConfig
from repro.engine.environment import random_environments
from repro.engine.executor import LabeledPlan
from repro.engine.optimizer import PlanBuilder
from repro.featurization.fingerprint import template_fingerprint
from repro.nn.loss import numpy_q_error
from repro.obs import current_tracer
from repro.serving import CostService
from repro.sql import parse_sql
from repro.workload.collect import collect_labeled_plans, get_benchmark

from .harness import (
    LoopResult,
    SpanRecorder,
    closed_loop,
    cpu_seconds,
    pct,
    peak_rss_mb,
    proc_hygiene,
    usable_cores,
    warm_until_steady,
)

#: Seed of the served models and the simulated environments.
MODEL_SEED = 0
ENV_SEED = 3

#: Units of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = {
    "plans_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "qerror_p50": "ratio",
    "qerror_p95": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Units of the per-layer metrics of the traced run.
PER_LAYER = {
    "latency_p99_ms": "ms",
    "sql.parse_ms.p50": "ms",
    "sql.parse_ms.p99": "ms",
    "engine.plan_ms.p50": "ms",
    "engine.plan_ms.p99": "ms",
    "featurize.key_us.p50": "us",
    "featurize.patch_ms.p50": "ms",
    "featurize.full_ms.p50": "ms",
    "featurize.full_ms.p99": "ms",
    "serving.template_cache.hit_ratio": "ratio",
    "serving.feature_cache.hit_ratio": "ratio",
    "models.predict_scalar_ms.p50": "ms",
    "models.predict_batch_per_plan_us": "us",
    "serving.estimate_ms.p50": "ms",
    "serving.overhead_ms": "ms",
    "cluster.tier_tax_ms.p50": "ms",
    "proc.ipc_tax_ms.p50": "ms",
    "proc.ipc_tax_ms.p99": "ms",
    "proc.frame_encode_us": "us",
    "proc.frame_decode_us": "us",
    "proc.feedback_ms.p50": "ms",
    "proc.parent_cpu_s": "s",
    "proc.worker_cpu_s": "s",
    "proc.parent_cpu_util": "ratio",
    "proc.worker_cpu_util": "ratio",
    "backends.postgres.qerror_p50": "ratio",
    "backends.aurora.qerror_p50": "ratio",
    "core.fit_s": "s",
    "engine.collect_s": "s",
    "core.snapshot_s": "s",
    "core.scoring_s": "s",
    "models.base_train_s": "s",
    "models.retrain_s": "s",
    "core.reduction_ratio": "ratio",
    "sql.parse.cpu_share": "ratio",
    "engine.plan.cpu_share": "ratio",
    "featurize.patch.cpu_share": "ratio",
    "featurize.full.cpu_share": "ratio",
    "models.predict_scalar.cpu_share": "ratio",
    "models.predict_batch.cpu_share": "ratio",
    "serving.estimate.cpu_share": "ratio",
    "cluster.estimate.cpu_share": "ratio",
    "proc.estimate.cpu_share": "ratio",
    "warmup.steady_s": "s",
    "trace.overhead_ms.p50": "ms",
    "trace.request_self_us.p50": "us",
    "trace.spans": "count",
    "host.calib_ms": "ms",
}


def sub_seed(seed: int, purpose: str) -> int:
    """A 31-bit seed for one purpose, derived from the workload seed."""
    digest = hashlib.blake2b(f"{seed}:{purpose}".encode(), digest_size=4)
    return int.from_bytes(digest.digest(), "big") & 0x7FFFFFFF


def digest_of(items: Sequence[object]) -> str:
    """Stable digest of an input stream (its items' reprs)."""
    digest = hashlib.blake2b(digest_size=16)
    for item in items:
        digest.update(repr(item).encode())
    return digest.hexdigest()


@dataclass
class Size:
    """How big a run is; ``tiny`` keeps the benchmark's tests fast."""

    train_plans: int
    epochs: int
    setup_reps: int
    eval_plans: int
    probe: int
    sample_checks: int
    stream: int
    olap_queries: int
    hot_pool: int
    fit_train: int
    fit_heldout: int
    fit_epochs: int
    warm_window_s: float


SIZES = {
    "full": Size(
        train_plans=96, epochs=4, setup_reps=3, eval_plans=1024, probe=16,
        sample_checks=256, stream=8192, olap_queries=3072, hot_pool=192,
        fit_train=160, fit_heldout=120, fit_epochs=8, warm_window_s=0.5,
    ),
    "tiny": Size(
        train_plans=32, epochs=2, setup_reps=2, eval_plans=24, probe=6,
        sample_checks=12, stream=256, olap_queries=192, hot_pool=24,
        fit_train=40, fit_heldout=16, fit_epochs=2, warm_window_s=0.2,
    ),
}


@dataclass
class Result:
    """One run's metrics, operation tallies and correctness checks."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def check(self, name: str, attempted: int, failed: int) -> None:
        """Count a correctness check: each mismatch is a failure."""
        prev = self.checks.get(name, (0, 0))
        self.checks[name] = (prev[0] + attempted, prev[1] + failed)
        self.attempted += attempted
        self.failed += failed

    def calls(self, loop: LoopResult) -> None:
        """Count a measured window's calls."""
        self.attempted += loop.issued
        self.failed += loop.failed
        if loop.first_error:
            self.errors.append(loop.first_error)


def _ms(values: Sequence[float], q: float) -> float:
    return pct(values, q) * 1e3


def _equal_count(a: Sequence[float], b: Sequence[float]) -> int:
    """Positions where two estimate vectors differ in any bit."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return max(len(a), len(b))
    return int(np.sum(a.view(np.int64) != b.view(np.int64)))


def _bad_values(values: Sequence[object]) -> int:
    """Estimates that are not finite positive numbers."""
    arr = np.concatenate([np.ravel(np.asarray(v, dtype=np.float64))
                          for v in values]) if values else np.zeros(0)
    return int(np.sum(~np.isfinite(arr) | (arr <= 0.0)))


def _proc_config() -> ProcConfig:
    return ProcConfig(
        request_timeout_s=60.0,
        boot_timeout_s=120.0,
        sync_timeout_s=120.0,
        heartbeat_interval_s=1.0,
        heartbeat_miss_limit=60,
    )


def _cache_ratio(before: Dict, after: Dict, section: str) -> float:
    """Hit ratio of a cache section over a window, summed over shards
    (a plain service's section, or each ``shards`` entry's)."""
    def totals(counters: Dict) -> Tuple[int, int]:
        parts = [counters]
        if "shards" in counters:
            parts = list(dict(counters["shards"]).values())
        hits = misses = 0
        for part in parts:
            stats = dict(part).get(section) or {}
            hits += int(stats.get("hits", 0))
            misses += int(stats.get("misses", 0))
        return hits, misses

    h0, m0 = totals(before)
    h1, m1 = totals(after)
    total = (h1 - h0) + (m1 - m0)
    return (h1 - h0) / total if total else 0.0


def balanced_tenants(shard_ids: Sequence[str], per_shard: int = 2) -> List[str]:
    """Tenant names that rendezvous-hash evenly onto *shard_ids*, so a
    closed loop over them loads every replica alike."""
    router = ShardRouter(shard_ids)
    taken: Dict[str, int] = {shard: 0 for shard in shard_ids}
    names: List[str] = []
    index = 0
    while len(names) < per_shard * len(shard_ids):
        name = f"tenant-{index}"
        shard = router.shard_for(name)
        if taken[shard] < per_shard:
            taken[shard] += 1
            names.append(name)
        index += 1
    return names


@dataclass
class Training:
    """A served bundle and how long its making took."""

    bundle: object
    collect_s: float
    fit_s: float
    #: The ``QCFEResult`` of the fit (its own stage timers).
    result: object


def train_bundle(benchmark, envs, size: Size) -> Training:
    """Collect labels and fit the QCFE (QPPNet) bundle a tier serves."""
    start = time.perf_counter()
    labeled = collect_labeled_plans(
        benchmark, envs, size.train_plans, seed=MODEL_SEED + 1
    )
    collect_s = time.perf_counter() - start
    pipeline = QCFE(
        benchmark, envs,
        QCFEConfig(model="qppnet", epochs=size.epochs, template_scale=4,
                   seed=MODEL_SEED),
    )
    start = time.perf_counter()
    result = pipeline.fit(labeled)
    fit_s = time.perf_counter() - start
    return Training(pipeline.export_bundle(), collect_s, fit_s, result)


def fit_layers(fit_s: float, collect_s: float, result) -> Dict[str, float]:
    """The per-layer metrics of one QCFE fit: wall times taken around
    the calls, stage times from the fit's own ``QCFEResult``."""
    return {
        "core.fit_s": fit_s,
        "engine.collect_s": collect_s,
        "core.snapshot_s": result.snapshot_seconds,
        "core.scoring_s": result.scoring_seconds,
        "models.base_train_s": result.base_train_stats.train_seconds,
        "models.retrain_s": result.train_stats.train_seconds,
        "core.reduction_ratio": result.reduction_ratio,
    }


class Workload:
    """State every workload shares: its seed, size and result, and the
    proc tiers it boots and must leave clean."""

    name = ""
    why = ""

    def __init__(self, seed: int, seconds: float, size: Size):
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.result = Result()
        self.trace = False
        #: Where the traced run writes its spans (None: not written).
        self.spans_path: Optional[str] = None
        #: Peak RSS (MiB) of every proc-tier worker this run booted.
        self.worker_rss: List[float] = []

    def close_proc(self, proc: ProcClusterService) -> None:
        """Close a proc tier, then check it left no segment or pid."""
        pids = [proc.worker(w).pid for w in proc.router.shard_ids()]
        self.worker_rss.extend(peak_rss_mb(pid) for pid in pids)
        proc.close()
        leaked, survivors = proc_hygiene(pids)
        self.result.check(
            "proc_hygiene", 1 + len(pids), len(leaked) + len(survivors))
        if leaked or survivors:
            self.result.errors.append(
                f"proc hygiene: leaked segments {leaked}, "
                f"surviving pids {survivors}"
            )

    def boot_probe_tier(self, bundle, names: Sequence[str]):
        """A 1-worker proc tier serving *bundle* under *names*."""
        proc = ProcClusterService(worker_count=1, config=_proc_config())
        try:
            for name in names:
                proc.deploy(bundle, name=name)
        except BaseException:
            self.close_proc(proc)
            raise
        return proc

    def run(self) -> Result:
        raise NotImplementedError


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------
class ServingWorkload(Workload):
    """Set up, warm, measure a closed loop, check, and (traced) replay.

    Subclasses provide the inputs, one set-up, the measured call, the
    reference path for the correctness sample, the cross-path probe,
    the labelled q-error set and the per-input layer replay.
    """

    benchmark_name = "sysbench"
    #: Closed-loop client threads.  One: two threads of one process
    #: contend for the GIL, and on a 2-vCPU host the runs then split
    #: into a convoy mode (p50 ~0.9 ms, p90 ~4 ms) and a fair one
    #: (p50 ~1.4 ms, p90 ~2.6 ms) with the same code.
    clients = 1
    #: Plans one measured call estimates (sizes the correctness sample).
    plans_per_call = 1
    #: Calls each client keeps in flight (1: one blocking call at a time).
    depth = 1
    #: QCFE.fit timings behind ``core.fit_s`` (set-ups, then extra fits).
    fit_samples = 7
    #: Replica ids of the tier under test (tenants spread evenly).
    shard_ids = ["shard-0", "shard-1"]

    def __init__(self, seed: int, seconds: float, size: Size):
        super().__init__(seed, seconds, size)
        self.tenants = balanced_tenants(self.shard_ids)
        self.benchmark = get_benchmark(self.benchmark_name)
        self.envs = random_environments(2, seed=ENV_SEED)

    # -- hooks ----------------------------------------------------------
    def make_inputs(self, purpose: str, count: int) -> List[object]:
        raise NotImplementedError

    def setup(self) -> Dict[str, object]:
        raise NotImplementedError

    def call(self, rig, item) -> Tuple[object, int]:
        raise NotImplementedError

    def reference(self, rig, item) -> object:
        raise NotImplementedError

    def probe(self, rig) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def qerrors(self, rig) -> Tuple[np.ndarray, np.ndarray, Dict[str, float]]:
        raise NotImplementedError

    def replay(self, rig, item, spans: SpanRecorder) -> Tuple[int, int]:
        """Replay one input through the layer functions, one span per
        call; returns (estimates compared, mismatches with the tier)."""
        raise NotImplementedError

    def counters(self, rig) -> Dict:
        return rig["tier"].counters()

    def stream_length(self) -> int:
        """Inputs in the measured stream (it cycles if a run outlasts it)."""
        return self.size.stream

    def eval_count(self) -> int:
        """Labelled records in the q-error set."""
        return self.size.eval_plans

    def eval_query(self, record: LabeledPlan) -> object:
        """What the q-error set sends for a labelled record."""
        return record.query_sql

    def layer_metrics(self, rig, spans: SpanRecorder) -> Dict[str, float]:
        return {}

    def cpu_pids(self, rig) -> Tuple[int, List[int]]:
        return os.getpid(), []

    def reference_service(self, rig) -> CostService:
        """The in-process reference (the tier's bundle under the same
        names) and the layer replay, made on first use."""
        if "ref" not in rig:
            rig["ref"] = CostService()
            for name in self.tenants:
                rig["ref"].deploy(rig["bundle"], name=name)
            rig["replay"] = _PlanReplay(self.benchmark, self.envs)
        return rig["ref"]

    def close(self, rig) -> None:
        tier = rig["tier"]
        if isinstance(tier, ProcClusterService):
            self.close_proc(tier)
        else:
            tier.close()
        if "ref" in rig:
            rig["ref"].close()

    # -- shared machinery -----------------------------------------------
    def window(self, rig, inputs, seconds, start=0, call=None) -> LoopResult:
        """A closed-loop window over *inputs* (``self.depth`` in flight
        per client, unless a synchronous *call* is given)."""
        depth = self.depth if call is None else 1
        if call is None:
            call = self.submit if depth > 1 else self.call
        count = len(inputs)
        return closed_loop(
            lambda i: call(rig, inputs[i % count]), self.clients, seconds,
            start, depth,
        )

    def run(self) -> Result:
        res = self.result
        size = self.size
        trace = self.trace
        inputs = self.make_inputs("measure", self.stream_length())
        warm_inputs = self.make_inputs("warm", size.stream)
        again = self.make_inputs("measure", self.stream_length())
        res.check("inputs_deterministic", 1, int(digest_of(inputs) != digest_of(again)))
        res.info["inputs_digest"] = digest_of(inputs)
        del again

        setup_s: List[float] = []
        fits: List[Training] = []
        rig = None
        for _ in range(1 if trace else size.setup_reps):
            if rig is not None:
                self.close(rig)
            start = time.perf_counter()
            rig = self.setup()
            setup_s.append(time.perf_counter() - start)
            fits.append(rig["training"])
        try:
            while len(fits) < self.fit_samples:
                fits.append(train_bundle(self.benchmark, self.envs, size))
            fit_s = [t.fit_s for t in fits]
            res.info["fit_s_samples"] = [round(x, 4) for x in fit_s]
            if trace:
                res.metrics.update(fit_layers(
                    statistics.median(fit_s),
                    statistics.median([t.collect_s for t in fits]),
                    rig["training"].result,
                ))
            warm_s, rates = warm_until_steady(
                lambda s: self.window(rig, warm_inputs, s),
                window_s=size.warm_window_s,
            )
            res.info["warmup_rates"] = [round(r, 1) for r in rates]
            if trace:
                self._traced(rig, inputs, warm_s)
            else:
                self._measured(rig, inputs, setup_s)
            self._correctness(rig, inputs)
        finally:
            self.close(rig)
        if not trace:
            res.metrics["peak_rss_mb"] = peak_rss_mb() + sum(self.worker_rss)
        return res

    def _measured(self, rig, inputs, setup_s) -> None:
        res = self.result
        before = self.counters(rig)
        parent, workers = self.cpu_pids(rig)
        cpu0 = [cpu_seconds(p) for p in [parent] + workers]
        loop = self.window(rig, inputs, self.seconds)
        cpu1 = [cpu_seconds(p) for p in [parent] + workers]
        after = self.counters(rig)
        res.calls(loop)
        self.loop = loop
        latencies = loop.latencies_s
        res.metrics.update({
            "plans_per_s": loop.median_rate(),
            "latency_p50_ms": loop.median_latency(50) * 1e3,
            "latency_p90_ms": loop.median_latency(90) * 1e3,
            "setup_s": statistics.median(setup_s),
        })
        res.info["window"] = {
            "seconds": round(loop.elapsed_s, 3),
            "calls": loop.issued,
            "plans": loop.units,
            "latency_samples": len(latencies),
            "setup_s_samples": [round(s, 4) for s in setup_s],
            "feature_cache_hit_ratio": round(
                _cache_ratio(before, after, "feature_cache"), 4),
            "template_cache_hit_ratio": round(
                _cache_ratio(before, after, "template_cache"), 4),
        }
        if workers:
            res.info["window"]["parent_cpu_s"] = round(cpu1[0] - cpu0[0], 3)
            res.info["window"]["worker_cpu_s"] = [
                round(b - a, 3) for a, b in zip(cpu0[1:], cpu1[1:], strict=True)
            ]

    def _correctness(self, rig, inputs) -> None:
        """Sample the measured outputs against the in-process reference,
        probe bit-identity across paths, and score q-error twice."""
        res = self.result
        loop: LoopResult = self.loop
        outputs = [o for o in loop.outputs if o[3]]
        res.check("finite_positive", len(outputs), _bad_values([o[1] for o in outputs]))
        count = max(1, self.size.sample_checks // self.plans_per_call)
        step = max(1, len(outputs) // count)
        sample = outputs[::step][:count]
        mismatched = sum(
            _equal_count(np.ravel(value), np.ravel(
                self.reference(rig, inputs[index % len(inputs)])))
            > 0
            for index, value, *_ in sample
        )
        res.check("sample_vs_reference", len(sample), mismatched)

        paths = self.probe(rig)
        base_name = "CostService.estimate"
        base = paths.pop(base_name)
        for path, values in paths.items():
            bad = _equal_count(base, values)
            res.check(f"bit_identical[{path}]", len(base), bad)
            if bad:
                res.errors.append(f"{path} differs from {base_name} at {bad} probes")

        q_main, q_again, per_backend = self.qerrors(rig)
        res.check("qerror_two_paths", len(q_main), _equal_count(q_main, q_again))
        res.info["qerror_digest"] = digest_of([q_main.tobytes()])
        res.info["qerror_samples"] = len(q_main)
        if self.trace:
            res.metrics.update(per_backend)
        else:
            res.metrics["qerror_p50"] = float(np.percentile(q_main, 50))
            res.metrics["qerror_p95"] = float(np.percentile(q_main, 95))

    def _traced(self, rig, inputs, warm_s) -> None:
        res = self.result
        third = self.seconds / 3.0
        before = self.counters(rig)
        parent, workers = self.cpu_pids(rig)
        cpu0 = [cpu_seconds(p) for p in [parent] + workers]
        plain = self.window(rig, inputs, third)
        cpu1 = [cpu_seconds(p) for p in [parent] + workers]
        after = self.counters(rig)
        res.calls(plain)
        self.loop = plain

        # One span per call: around its submission when pipelined.
        spans = SpanRecorder()
        inner = self.submit if self.depth > 1 else self.call

        def traced_call(i):
            with spans.span("request"):
                with spans.span("e2e"):
                    return inner(rig, inputs[i % len(inputs)])

        traced = closed_loop(traced_call, self.clients, third, 0, self.depth)
        res.calls(traced)
        e2e_plain = plain.latencies_s
        e2e_traced = traced.latencies_s

        replay_spans = SpanRecorder()
        mismatches = [0, 0]

        def replay_call(rig_, item):
            checked, bad = self.replay(rig_, item, replay_spans)
            mismatches[0] += checked
            mismatches[1] += bad
            return None, 0

        replayed = self.window(rig, inputs, third, call=replay_call)
        res.calls(replayed)
        res.check("replay_matches_service", mismatches[0], mismatches[1])

        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(res.metrics)
        metrics["latency_p99_ms"] = _ms(e2e_plain, 99)
        metrics["warmup.steady_s"] = warm_s
        metrics["trace.overhead_ms.p50"] = _ms(e2e_traced, 50) - _ms(e2e_plain, 50)
        metrics["trace.request_self_us.p50"] = (
            pct(replay_spans.self_times("request"), 50) * 1e6
        )
        metrics["trace.spans"] = float(len(spans.spans) + len(replay_spans.spans))
        metrics["serving.feature_cache.hit_ratio"] = _cache_ratio(
            before, after, "feature_cache")
        metrics["serving.template_cache.hit_ratio"] = _cache_ratio(
            before, after, "template_cache")
        if workers:
            parent_cpu = cpu1[0] - cpu0[0]
            worker_cpu = sum(cpu1[1:]) - sum(cpu0[1:])
            metrics["proc.parent_cpu_s"] = parent_cpu
            metrics["proc.worker_cpu_s"] = worker_cpu
            metrics["proc.parent_cpu_util"] = parent_cpu / plain.elapsed_s
            metrics["proc.worker_cpu_util"] = worker_cpu / plain.elapsed_s
        for layer, name in (
            ("sql.parse", "sql.parse_ms"),
            ("engine.plan", "engine.plan_ms"),
            ("featurize.full", "featurize.full_ms"),
        ):
            values = replay_spans.durations(layer)
            if values:
                metrics[f"{name}.p50"] = _ms(values, 50)
                if f"{name}.p99" in metrics:
                    metrics[f"{name}.p99"] = _ms(values, 99)
        for layer, name, scale in (
            ("featurize.key", "featurize.key_us.p50", 1e6),
            ("featurize.patch", "featurize.patch_ms.p50", 1e3),
            ("models.predict_scalar", "models.predict_scalar_ms.p50", 1e3),
            ("serving.estimate", "serving.estimate_ms.p50", 1e3),
            ("proc.frame_encode", "proc.frame_encode_us", 1e6),
            ("proc.frame_decode", "proc.frame_decode_us", 1e6),
            ("proc.feedback", "proc.feedback_ms.p50", 1e3),
        ):
            values = replay_spans.durations(layer)
            if values:
                metrics[name] = pct(values, 50) * scale
        for layer in (
            "sql.parse", "engine.plan", "featurize.patch", "featurize.full",
            "models.predict_scalar", "models.predict_batch",
            "serving.estimate", "cluster.estimate", "proc.estimate",
        ):
            metrics[f"{layer}.cpu_share"] = replay_spans.cpu_share(layer)
        metrics.update(self.layer_metrics(rig, replay_spans))
        res.metrics.update(metrics)
        res.info["trace_window"] = {
            "untraced_calls": plain.issued,
            "traced_calls": traced.issued,
            "replayed": replayed.issued,
        }
        if self.spans_path:
            spans.spans.extend(replay_spans.spans)
            spans.write(self.spans_path)


def _request_deltas(spans: SpanRecorder, minuend: str, parts: Sequence[str]):
    """Per request: *minuend*'s duration minus the sum of *parts*
    (requests missing *minuend* or any part are skipped)."""
    out = []
    for children in spans.by_request().values():
        if minuend in children and all(p in children for p in parts):
            out.append(children[minuend] - sum(children[p] for p in parts))
    return out


class _PlanReplay:
    """The service's SQL path, one layer function per span:
    parse → plan → template key → patch (or full encode) → scalar
    predict."""

    #: Replayed (record, features) pairs kept for the batch-predict probe.
    keep = 1024

    def __init__(self, benchmark, envs):
        self.benchmark = benchmark
        self.builders = [
            PlanBuilder(benchmark.catalog, benchmark.stats, env) for env in envs
        ]
        self.templates: Dict[Tuple[str, str], object] = {}
        self.prepared: List[Tuple[LabeledPlan, object]] = []

    def sql(self, bundle, sql: str, env_index: int, env, spans: SpanRecorder,
            patch: bool = True) -> float:
        with spans.span("sql.parse"):
            query = parse_sql(sql, self.benchmark.catalog)
        with spans.span("engine.plan"):
            plan = self.builders[env_index].build(query)
        record = LabeledPlan(plan=plan, latency_ms=0.0, env_name=env.name,
                             query_sql=sql)
        return self.plan(bundle, record, env, spans, patch)

    def patch(self, bundle, record, env, spans):
        """Template-memo features: key, look up (a memo miss builds the
        skeleton, untimed, as the service does once per template), patch."""
        with spans.span("featurize.key"):
            key = (template_fingerprint(record.plan, bundle.name,
                                        bundle.backend), env.name)
            template = self.templates.get(key)
        if template is None:
            template = self.templates.setdefault(
                key, bundle.prepare_template(record))
        with spans.span("featurize.patch"):
            return bundle.prepare_from_template(record, template)

    def plan(self, bundle, record, env, spans, patch=True) -> float:
        if patch:
            prepared = self.patch(bundle, record, env, spans)
            with spans.span("featurize.full"):
                bundle.prepare_one(record)
        else:
            prepared = bundle.prepare_one(record)
        if len(self.prepared) < self.keep:
            self.prepared.append((record, prepared))
        with spans.span("models.predict_scalar"):
            return float(bundle.predict_prepared([record], [prepared])[0])

    def predict_batches(self, bundle, spans, batch: int = 64) -> List[float]:
        """Fused predicts over the kept pairs in batches of *batch*;
        returns the per-plan seconds of each batch."""
        pairs = list(self.prepared)
        per_plan = []
        for lo in range(0, len(pairs) - batch + 1, batch):
            records = [r for r, _ in pairs[lo:lo + batch]]
            prepared = [p for _, p in pairs[lo:lo + batch]]
            with spans.span("models.predict_batch"):
                start = time.perf_counter()
                bundle.predict_prepared_batch(records, prepared)
                per_plan.append((time.perf_counter() - start) / batch)
        return per_plan


class OltpSql(ServingWorkload):
    """Sysbench SQL text with fresh literals on the thread tier."""

    name = "oltp-sql"
    why = (
        "1 closed-loop client sends sysbench SQL with fresh literals to the "
        "thread tier (2 shards, 4 tenants): parse, plan, template patch, "
        "scalar predict"
    )

    def make_inputs(self, purpose: str, count: int) -> List[object]:
        rng = np.random.default_rng(sub_seed(self.seed, purpose + ":route"))
        queries = self.benchmark.generate_queries(
            count, seed=sub_seed(self.seed, purpose))
        return [
            (query.sql(), int(rng.integers(len(self.envs))),
             self.tenants[int(rng.integers(len(self.tenants)))])
            for _, query in queries
        ]

    def stream_length(self) -> int:
        # Fresh literals on every request of a run.  Past its end the
        # stream cycles, which still misses every LRU feature cache: a
        # cycle of 8192 distinct plans is larger than a shard's 2048.
        if self.size.stream < SIZES["full"].stream:
            return self.size.stream
        return max(self.size.stream, int(self.seconds * 2500))

    def setup(self):
        training = train_bundle(self.benchmark, self.envs, self.size)
        bundle = training.bundle
        cluster = ClusterService(shard_ids=self.shard_ids)
        for tenant in self.tenants:
            cluster.deploy(bundle, name=tenant)
        for sql, env_index, tenant in self.make_inputs("setup", 64):
            cluster.estimate(sql, self.envs[env_index], bundle=tenant)
        return {"training": training, "bundle": bundle, "tier": cluster}

    def call(self, rig, item):
        sql, env_index, tenant = item
        return rig["tier"].estimate(sql, self.envs[env_index], bundle=tenant), 1

    def reference(self, rig, item):
        sql, env_index, tenant = item
        return self.reference_service(rig).estimate(
            sql, self.envs[env_index], bundle=tenant)

    def probe(self, rig):
        ref = self.reference_service(rig)
        env = self.envs[0]
        tenant = self.tenants[0]
        sqls = [s for s, _, _ in self.make_inputs("probe", self.size.probe)]
        proc = self.boot_probe_tier(rig["bundle"], [tenant])
        try:
            proc_values = proc.estimate_many(sqls, env, bundle=tenant)
        finally:
            self.close_proc(proc)
        return {
            "CostService.estimate": np.array(
                [ref.estimate(s, env, bundle=tenant) for s in sqls]),
            "CostService.estimate_many": ref.estimate_many(sqls, env, bundle=tenant),
            "ClusterService.estimate": np.array(
                [rig["tier"].estimate(s, env, bundle=tenant) for s in sqls]),
            "ClusterService.estimate_many": rig["tier"].estimate_many(
                sqls, env, bundle=tenant),
            "ProcClusterService.estimate_many": proc_values,
        }

    def qerrors(self, rig):
        return _labelled_qerrors(
            self, rig["tier"], self.reference_service(rig), self.tenants[0])

    def replay(self, rig, item, spans):
        sql, env_index, tenant = item
        env = self.envs[env_index]
        ref = self.reference_service(rig)
        with spans.span("request"):
            with spans.span("cluster.estimate"):
                served = rig["tier"].estimate(sql, env, bundle=tenant)
            with spans.span("serving.estimate"):
                ref.estimate(sql, env, bundle=tenant)
            value = rig["replay"].sql(rig["bundle"], sql, env_index, env, spans)
        return 1, int(value != served)

    def layer_metrics(self, rig, spans):
        # The fused batch path is off this workload's request path; it
        # is timed here on the replayed plans' features, batch 64.
        per_plan = rig["replay"].predict_batches(rig["bundle"], spans)
        layers = ["sql.parse", "engine.plan", "featurize.key",
                  "featurize.patch", "featurize.full", "models.predict_scalar"]
        return {
            "models.predict_batch_per_plan_us": pct(per_plan, 50) * 1e6,
            "models.predict_batch.cpu_share": spans.cpu_share(
                "models.predict_batch"),
            "serving.overhead_ms": pct(
                _request_deltas(spans, "serving.estimate", layers), 50) * 1e3,
            "cluster.tier_tax_ms.p50": pct(
                _request_deltas(spans, "cluster.estimate", ["serving.estimate"]),
                50) * 1e3,
        }


def _labelled_qerrors(workload, tier, ref, bundle):
    """Q-error of *tier* (batched, per environment) against simulator
    labels, and again through the reference service one by one."""
    records = collect_labeled_plans(
        workload.benchmark, workload.envs, workload.eval_count(),
        seed=sub_seed(workload.seed, "eval"),
    )
    env_by_name = {env.name: env for env in workload.envs}
    preds = np.zeros(len(records))
    for env in workload.envs:
        picked = [i for i, r in enumerate(records) if r.env_name == env.name]
        if picked:
            preds[picked] = tier.estimate_many(
                [workload.eval_query(records[i]) for i in picked], env,
                bundle=bundle)
    again = np.array([
        ref.estimate(workload.eval_query(r), env_by_name[r.env_name], bundle=bundle)
        for r in records
    ])
    actual = np.array([r.latency_ms for r in records])
    return numpy_q_error(preds, actual), numpy_q_error(again, actual), {}


class OlapPlans(ServingWorkload):
    """Prebuilt TPC-H plans costed in batches of 64 by one client."""

    name = "olap-plans"
    benchmark_name = "tpch"
    batch = plans_per_call = 64
    fit_samples = 5
    #: Zipf exponent of the plan draws: hot plans hit the feature
    #: cache, the tail evicts, so the hit ratio stays inside (0, 1).
    skew = 0.7
    why = (
        "1 closed-loop client costs prebuilt TPC-H plans with estimate_many "
        "at batch 64; a skewed pool larger than the feature cache: full "
        "encode, cache, fused predict"
    )

    def eval_query(self, record: LabeledPlan) -> object:
        return record.plan

    def __init__(self, seed, seconds, size):
        super().__init__(seed, seconds, size)
        self.tenants = ["olap"]
        self.pool = self._plan_pool()

    def eval_count(self) -> int:
        # TPC-H labels cost ~20x sysbench's to simulate.
        return self.size.eval_plans // 2

    def _plan_pool(self) -> List[List[object]]:
        """The seeded queries with distinct SQL, planned under every
        environment (one pool per environment)."""
        queries = {}
        for _, query in self.benchmark.generate_queries(
                self.size.olap_queries, seed=sub_seed(self.seed, "pool")):
            queries.setdefault(query.sql(), query)
        return [
            [builder.build(query) for query in queries.values()]
            for builder in (
                PlanBuilder(self.benchmark.catalog, self.benchmark.stats, env)
                for env in self.envs
            )
        ]

    def make_inputs(self, purpose: str, count: int) -> List[object]:
        # Which plans are hot is fixed by the seed, not the purpose, so
        # warm-up and measurement share one popularity ranking.
        ranking = np.random.default_rng(sub_seed(self.seed, "rank"))
        orders = [ranking.permutation(len(pool)) for pool in self.pool]
        weights = []
        for pool in self.pool:
            w = 1.0 / np.arange(1, len(pool) + 1) ** self.skew
            weights.append(w / w.sum())
        rng = np.random.default_rng(sub_seed(self.seed, purpose))
        batches = []
        for index in range(max(1, count // 4)):
            env_index = index % len(self.envs)
            picks = rng.choice(len(orders[env_index]), size=self.batch,
                               p=weights[env_index])
            batches.append(
                (env_index, tuple(int(orders[env_index][p]) for p in picks)))
        return batches

    def _plans(self, item):
        env_index, picks = item
        return [self.pool[env_index][p] for p in picks], self.envs[env_index]

    def setup(self):
        training = train_bundle(self.benchmark, self.envs, self.size)
        bundle = training.bundle
        service = CostService()
        service.deploy(bundle, name="olap")
        for item in self.make_inputs("setup", 16):
            plans, env = self._plans(item)
            service.estimate_many(plans, env, bundle="olap", batch_size=self.batch)
        return {"training": training, "bundle": bundle, "tier": service}

    def call(self, rig, item):
        plans, env = self._plans(item)
        values = rig["tier"].estimate_many(
            plans, env, bundle="olap", batch_size=self.batch)
        return values, len(plans)

    def reference(self, rig, item):
        plans, env = self._plans(item)
        ref = self.reference_service(rig)
        return np.array([ref.estimate(p, env, bundle="olap") for p in plans])

    def probe(self, rig):
        ref = self.reference_service(rig)
        env = self.envs[0]
        plans = self.pool[0][: self.size.probe]
        cluster = ClusterService(shard_count=2)
        try:
            cluster.deploy(rig["bundle"], name="olap")
            cluster_values = cluster.estimate_many(plans, env, bundle="olap")
        finally:
            cluster.close()
        proc = self.boot_probe_tier(rig["bundle"], ["olap"])
        try:
            proc_values = proc.estimate_many(plans, env, bundle="olap")
        finally:
            self.close_proc(proc)
        return {
            "CostService.estimate": np.array(
                [ref.estimate(p, env, bundle="olap") for p in plans]),
            "CostService.estimate_many": rig["tier"].estimate_many(
                plans, env, bundle="olap"),
            "ClusterService.estimate_many": cluster_values,
            "ProcClusterService.estimate_many": proc_values,
        }

    def qerrors(self, rig):
        return _labelled_qerrors(self, rig["tier"], self.reference_service(rig), "olap")

    def replay(self, rig, item, spans):
        plans, env = self._plans(item)
        bundle = rig["bundle"]
        records = [LabeledPlan(plan=p, latency_ms=0.0, env_name=env.name)
                   for p in plans]
        self.reference_service(rig)
        with spans.span("request"):
            with spans.span("serving.estimate_many"):
                served = rig["tier"].estimate_many(
                    plans, env, bundle="olap", batch_size=self.batch)
            prepared = []
            for record in records:
                with spans.span("featurize.full"):
                    prepared.append(bundle.prepare_one(record))
            for record in records:
                rig["replay"].patch(bundle, record, env, spans)
            with spans.span("models.predict_batch"):
                values = bundle.predict_prepared_batch(records, prepared)
        return len(plans), _equal_count(served, values)

    def layer_metrics(self, rig, spans):
        per_plan = [d / self.batch for d in spans.durations("models.predict_batch")]
        return {"models.predict_batch_per_plan_us": pct(per_plan, 50) * 1e6}


class ProcMixed(ServingWorkload):
    """Hot repeated sysbench SQL plus native aurora plans and feedback
    writes on the proc tier."""

    name = "proc-mixed"
    why = (
        "1 closed-loop client with 8 calls in flight on the proc tier "
        "(nproc workers): cached hot SQL tagged postgres, native plans tagged "
        "aurora, 10% feedback; IPC dominates"
    )
    #: Share of calls per operation: postgres estimate, aurora
    #: estimate, feedback write.
    mix = (0.6, 0.3, 0.1)
    second = "aurora"
    #: Requests the client keeps in flight.  One blocking call at a
    #: time leaves every process idle between wakeups, and on a shared
    #: host the wakeup latency swings run to run; a few in flight keep
    #: the workers and the parent busy.
    depth = 8

    def __init__(self, seed, seconds, size):
        self.shard_ids = [f"worker-{i}" for i in range(usable_cores())]
        super().__init__(seed, seconds, size)
        self.profile = get_backend(self.second)
        self.hot = collect_labeled_plans(
            self.benchmark, self.envs, size.hot_pool,
            seed=sub_seed(seed, "hot"))
        self.native = [self.profile.native_plan(r.plan) for r in self.hot]
        self.env_index = {env.name: i for i, env in enumerate(self.envs)}

    def make_inputs(self, purpose: str, count: int) -> List[object]:
        rng = np.random.default_rng(sub_seed(self.seed, purpose))
        kinds = rng.choice(3, size=count, p=self.mix)
        picks = rng.integers(len(self.hot), size=count)
        tenants = rng.integers(len(self.tenants), size=count)
        feedback_backend = rng.random(count) < self.mix[1] / sum(self.mix[:2])
        return [
            (int(k), int(p), self.tenants[int(t)], bool(b))
            for k, p, t, b in zip(kinds, picks, tenants, feedback_backend, strict=True)
        ]

    def eval_count(self) -> int:
        # The aurora tail sets qerror_p95; twice the records steady it.
        return 2 * self.size.eval_plans

    def _request(self, item):
        """(query, env, bundle, backend) of an estimate or feedback op."""
        kind, pick, tenant, aurora_feedback = item
        record = self.hot[pick]
        env = self.envs[self.env_index[record.env_name]]
        aurora = kind == 1 or (kind == 2 and aurora_feedback)
        if aurora:
            return self.native[pick], env, None, self.second
        return record.query_sql, env, tenant, "postgres"

    def setup(self):
        training = train_bundle(self.benchmark, self.envs, self.size)
        bundle = training.bundle
        proc = ProcClusterService(worker_ids=self.shard_ids, config=_proc_config())
        try:
            for tenant in self.tenants:
                proc.deploy(bundle, name=tenant)
            for item in self.make_inputs("setup", 4 * len(self.hot)):
                if item[0] != 2:
                    self.call({"tier": proc}, item)
        except BaseException:
            self.close_proc(proc)
            raise
        return {"training": training, "bundle": bundle, "tier": proc}

    def call(self, rig, item):
        query, env, bundle, backend = self._request(item)
        tenant = item[2]
        if item[0] == 2:
            rig["tier"].record_feedback(
                query, env, actual_ms=self.hot[item[1]].latency_ms,
                bundle=bundle, tenant=tenant, backend=backend)
            return None, 0
        value = rig["tier"].estimate(
            query, env, bundle=bundle, tenant=tenant, backend=backend)
        return value, 1

    def submit(self, rig, item):
        """Pipelined form of :meth:`call`: estimates go out with
        ``estimate_async``; a feedback write blocks, as its API does."""
        if item[0] == 2:
            result = self.call(rig, item)
            return lambda: result
        query, env, bundle, backend = self._request(item)
        future = rig["tier"].estimate_async(
            query, env, bundle=bundle, tenant=item[2], backend=backend)
        return lambda: (future.result(timeout=60.0), 1)

    def reference(self, rig, item):
        query, env, bundle, backend = self._request(item)
        return self.reference_service(rig).estimate(
            query, env, bundle=bundle, backend=backend)

    def cpu_pids(self, rig):
        proc = rig["tier"]
        return os.getpid(), [proc.worker(w).pid for w in proc.router.shard_ids()]

    def probe(self, rig):
        ref = self.reference_service(rig)
        paths: Dict[str, List[np.ndarray]] = {}
        cluster = ClusterService(shard_count=2)
        try:
            for tenant in self.tenants:
                cluster.deploy(rig["bundle"], name=tenant)
            picks = [i for i, r in enumerate(self.hot)
                     if r.env_name == self.envs[0].name][: self.size.probe]
            for backend in ("postgres", self.second):
                if backend == "postgres":
                    queries = [self.hot[i].query_sql for i in picks]
                    bundle = self.tenants[0]
                else:
                    queries = [self.native[i] for i in picks]
                    bundle = None
                env = self.envs[0]
                kwargs = dict(bundle=bundle, backend=backend)
                got = {
                    "CostService.estimate": np.array(
                        [ref.estimate(q, env, **kwargs) for q in queries]),
                    "CostService.estimate_many": ref.estimate_many(
                        queries, env, **kwargs),
                    "ClusterService.estimate_many": cluster.estimate_many(
                        queries, env, tenant=self.tenants[0], **kwargs),
                    "ProcClusterService.estimate_many": rig["tier"].estimate_many(
                        queries, env, tenant=self.tenants[0], **kwargs),
                }
                for path, values in got.items():
                    paths.setdefault(path, []).append(np.asarray(values))
        finally:
            cluster.close()
        return {path: np.concatenate(values) for path, values in paths.items()}

    def qerrors(self, rig):
        records = collect_labeled_plans(
            self.benchmark, self.envs, self.eval_count(),
            seed=sub_seed(self.seed, "eval"))
        # An exact aurora share (the traffic's), on seeded records.
        rng = np.random.default_rng(sub_seed(self.seed, "eval:backend"))
        aurora = np.zeros(len(records), dtype=bool)
        share = round(len(records) * self.mix[1] / sum(self.mix[:2]))
        aurora[rng.permutation(len(records))[:share]] = True
        ref = self.reference_service(rig)
        preds = np.zeros(len(records))
        again = np.zeros(len(records))
        for env in self.envs:
            for is_aurora in (False, True):
                picked = [i for i, r in enumerate(records)
                          if r.env_name == env.name and aurora[i] == is_aurora]
                if not picked:
                    continue
                if is_aurora:
                    queries = [self.profile.native_plan(records[i].plan)
                               for i in picked]
                    kwargs = dict(bundle=None, backend=self.second)
                else:
                    queries = [records[i].query_sql for i in picked]
                    kwargs = dict(bundle=self.tenants[0], backend="postgres")
                preds[picked] = rig["tier"].estimate_many(
                    queries, env, tenant=self.tenants[0], **kwargs)
                again[picked] = [ref.estimate(q, env, **kwargs) for q in queries]
        actual = np.array([r.latency_ms for r in records])
        q = numpy_q_error(preds, actual)
        per_backend = {
            "backends.postgres.qerror_p50": float(np.median(q[~aurora])),
            "backends.aurora.qerror_p50": float(np.median(q[aurora])),
        }
        self.result.info["qerror_by_backend"] = {
            k: round(v, 4) for k, v in per_backend.items()}
        return q, numpy_q_error(again, actual), per_backend

    def replay(self, rig, item, spans):
        query, env, bundle, backend = self._request(item)
        tenant = item[2]
        proc = rig["tier"]
        ref = self.reference_service(rig)
        if item[0] == 2:
            with spans.span("request"):
                with spans.span("proc.feedback"):
                    proc.record_feedback(
                        query, env, actual_ms=self.hot[item[1]].latency_ms,
                        bundle=bundle, tenant=tenant, backend=backend)
            return 0, 0
        with spans.span("request"):
            with spans.span("proc.estimate"):
                served = proc.estimate(
                    query, env, bundle=bundle, tenant=tenant, backend=backend)
            with spans.span("serving.estimate"):
                local = ref.estimate(query, env, bundle=bundle, backend=backend)
            with spans.span("proc.frame_encode"):
                frame = protocol.encode_frame({
                    "id": 1, "kind": "estimate", "bundle": bundle,
                    "backend": backend, "query": protocol.query_to_wire(query),
                    "env": protocol.env_to_wire(env),
                })
            with spans.span("proc.frame_decode"):
                header, _ = protocol.decode_frame(frame)
                protocol.query_from_wire(header["query"])
                protocol.env_from_wire(header["env"])
            if backend == "postgres":
                replayed = rig["replay"].sql(
                    rig["bundle"], query, self.env_index[env.name], env, spans,
                    patch=False)
                return 2, int(served != local) + int(replayed != served)
        return 1, int(served != local)

    def layer_metrics(self, rig, spans):
        tax = _request_deltas(spans, "proc.estimate", ["serving.estimate"])
        return {
            "proc.ipc_tax_ms.p50": pct(tax, 50) * 1e3,
            "proc.ipc_tax_ms.p99": pct(tax, 99) * 1e3,
        }


# ----------------------------------------------------------------------
# the offline fit
# ----------------------------------------------------------------------
class Fit(Workload):
    """QCFE.fit (MSCN, difference reduction) on joblight, scored on a
    held-out set through the serving path."""

    name = "fit"
    why = (
        "1 client: QCFE.fit (MSCN, difference reduction) on joblight labels, "
        "then held-out plans scored through CostService; the paper's offline "
        "pipeline"
    )
    clients = 1

    def __init__(self, seed: int, seconds: float, size: Size):
        super().__init__(seed, seconds, size)
        self.benchmark = get_benchmark("joblight")
        self.envs = random_environments(2, seed=ENV_SEED)

    def collect(self):
        """(train, held-out) labelled plans from the seed."""
        total = self.size.fit_train + self.size.fit_heldout
        records = collect_labeled_plans(
            self.benchmark, self.envs, total, seed=sub_seed(self.seed, "fit"))
        every = max(2, total // self.size.fit_heldout)
        held = records[::every][: self.size.fit_heldout]
        held_ids = {id(r) for r in held}
        return [r for r in records if id(r) not in held_ids], held

    def pipeline(self) -> QCFE:
        return QCFE(self.benchmark, self.envs, QCFEConfig(
            model="mscn", reduction="diff", epochs=self.size.fit_epochs,
            template_scale=4, seed=MODEL_SEED))

    def score(self, bundle, held, spans: Optional[SpanRecorder] = None,
              replay: bool = False):
        """Estimate each held-out plan on a fresh service (cold caches):
        returns (predictions, per-call latencies, replay mismatches)."""
        env_by_name = {env.name: env for env in self.envs}
        preds = np.zeros(len(held))
        latencies = []
        mismatches = 0
        with CostService() as service:
            service.deploy(bundle, name="fit")
            for i, record in enumerate(held):
                env = env_by_name[record.env_name]
                start = time.perf_counter()
                if spans is None:
                    preds[i] = service.estimate(record.plan, env, bundle="fit")
                else:
                    with spans.span("request"):
                        with spans.span("serving.estimate"):
                            preds[i] = service.estimate(
                                record.plan, env, bundle="fit")
                        if replay:
                            probe = LabeledPlan(plan=record.plan, latency_ms=0.0,
                                                env_name=env.name)
                            with spans.span("featurize.full"):
                                prepared = bundle.prepare_one(probe)
                            with spans.span("models.predict_scalar"):
                                value = bundle.predict_prepared([probe], [prepared])
                            mismatches += int(float(value[0]) != preds[i])
                latencies.append(time.perf_counter() - start)
        return preds, latencies, mismatches

    def run(self) -> Result:
        res = self.result
        train, held = self.collect()
        train2, held2 = self.collect()
        same = digest_of([(r.query_sql, r.latency_ms) for r in train + held]) == \
            digest_of([(r.query_sql, r.latency_ms) for r in train2 + held2])
        res.check("inputs_deterministic", 1, int(not same))
        res.info["inputs_digest"] = digest_of([r.query_sql for r in train + held])
        actual = np.array([r.latency_ms for r in held])
        if self.trace:
            self._traced(actual)
        else:
            self._measured(train, held, actual)
        return res

    def _measured(self, train, held, actual) -> None:
        res = self.result
        setup_s = []
        for _ in range(self.size.setup_reps):
            start = time.perf_counter()
            self.collect()
            setup_s.append(time.perf_counter() - start)
        fit_s: List[float] = []
        rates: List[float] = []
        p50s: List[float] = []
        p90s: List[float] = []
        latencies: List[float] = []
        first_q = None
        deadline = time.perf_counter() + self.seconds
        while len(fit_s) < 2 or time.perf_counter() < deadline:
            pipeline = self.pipeline()
            start = time.perf_counter()
            pipeline.fit(train)
            fit_s.append(time.perf_counter() - start)
            bundle = pipeline.export_bundle()
            start = time.perf_counter()
            preds, lat, _ = self.score(bundle, held)
            rates.append(len(held) / (time.perf_counter() - start))
            p50s.append(pct(lat, 50))
            p90s.append(pct(lat, 90))
            latencies.extend(lat)
            res.attempted += len(held)
            q = numpy_q_error(preds, actual)
            if first_q is None:
                first_q = q
                res.check("finite_positive", len(preds), _bad_values([preds]))
            else:
                res.check("fit_deterministic", len(q), _equal_count(first_q, q))
        res.metrics.update({
            "plans_per_s": statistics.median(rates),
            "latency_p50_ms": statistics.median(p50s) * 1e3,
            "latency_p90_ms": statistics.median(p90s) * 1e3,
            "qerror_p50": float(np.percentile(first_q, 50)),
            "qerror_p95": float(np.percentile(first_q, 95)),
            "setup_s": statistics.median(setup_s),
        })
        res.info["window"] = {
            "fit_s": statistics.median(fit_s),
            "fits": len(fit_s),
            "fit_s_samples": [round(s, 4) for s in fit_s],
            "latency_samples": len(latencies),
            "setup_s_samples": [round(s, 4) for s in setup_s],
        }
        self._correctness(bundle, held, actual, first_q)
        res.metrics["peak_rss_mb"] = peak_rss_mb() + sum(self.worker_rss)

    def _correctness(self, bundle, held, actual, q_main) -> None:
        res = self.result
        probe = [r for r in held if r.env_name == self.envs[0].name][: self.size.probe]
        plans = [r.plan for r in probe]
        env = self.envs[0]
        with CostService() as service, ClusterService(shard_count=2) as cluster:
            service.deploy(bundle, name="fit")
            cluster.deploy(bundle, name="fit")
            paths = {
                "CostService.estimate_many": service.estimate_many(
                    plans, env, bundle="fit"),
                "ClusterService.estimate_many": cluster.estimate_many(
                    plans, env, bundle="fit"),
            }
            proc = self.boot_probe_tier(bundle, ["fit"])
            try:
                paths["ProcClusterService.estimate_many"] = proc.estimate_many(
                    plans, env, bundle="fit")
            finally:
                self.close_proc(proc)
            base = np.array([service.estimate(p, env, bundle="fit") for p in plans])
            for path, values in paths.items():
                res.check(f"bit_identical[{path}]", len(base),
                          _equal_count(base, values))
            again = np.zeros(len(held))
            for env_ in self.envs:
                picked = [i for i, r in enumerate(held) if r.env_name == env_.name]
                if picked:
                    again[picked] = service.estimate_many(
                        [held[i].plan for i in picked], env_, bundle="fit")
        q_again = numpy_q_error(again, actual)
        res.check("qerror_two_paths", len(q_main), _equal_count(q_main, q_again))
        res.info["qerror_digest"] = digest_of([q_main.tobytes()])
        res.info["qerror_samples"] = len(q_main)

    def _traced(self, actual) -> None:
        res = self.result
        spans = SpanRecorder()
        with spans.span("engine.collect"):
            train, held = self.collect()
        with spans.span("core.snapshot"):
            self.pipeline().fit_snapshot()
        pipeline = self.pipeline()
        start = time.perf_counter()
        fitted = pipeline.fit(train)
        fit_s = time.perf_counter() - start
        bundle = pipeline.export_bundle()
        plain_preds, plain_lat, _ = self.score(bundle, held)
        traced_preds, traced_lat, _ = self.score(bundle, held, spans)
        replay = SpanRecorder()
        replay_preds, _, mismatches = self.score(bundle, held, replay, replay=True)
        res.attempted += 3 * len(held)
        res.check("replay_matches_service", len(held), mismatches)
        res.check("fit_deterministic", 2 * len(held),
                  _equal_count(plain_preds, traced_preds)
                  + _equal_count(plain_preds, replay_preds))
        q = numpy_q_error(plain_preds, actual)
        self._correctness(bundle, held, actual, q)

        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(fit_layers(
            fit_s, spans.durations("engine.collect")[0], fitted))
        full = replay.durations("featurize.full")
        metrics.update({
            "latency_p99_ms": _ms(plain_lat, 99),
            # From outside: a span around a separate fit_snapshot() call.
            "core.snapshot_s": spans.durations("core.snapshot")[0],
            "featurize.full_ms.p50": _ms(full, 50),
            "featurize.full_ms.p99": _ms(full, 99),
            "models.predict_scalar_ms.p50": _ms(
                replay.durations("models.predict_scalar"), 50),
            "serving.estimate_ms.p50": _ms(replay.durations("serving.estimate"), 50),
            "serving.overhead_ms": pct(_request_deltas(
                replay, "serving.estimate",
                ["featurize.full", "models.predict_scalar"]), 50) * 1e3,
            "serving.feature_cache.hit_ratio": 0.0,
            "trace.overhead_ms.p50": _ms(traced_lat, 50) - _ms(plain_lat, 50),
            "trace.request_self_us.p50": pct(replay.self_times("request"), 50) * 1e6,
            "trace.spans": float(len(spans.spans) + len(replay.spans)),
        })
        for layer in ("featurize.full", "models.predict_scalar", "serving.estimate"):
            metrics[f"{layer}.cpu_share"] = replay.cpu_share(layer)
        res.metrics.update(metrics)
        if self.spans_path:
            spans.spans.extend(replay.spans)
            spans.write(self.spans_path)


WORKLOADS = {cls.name: cls for cls in (OltpSql, OlapPlans, ProcMixed, Fit)}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", spans_path: Optional[str] = None) -> Result:
    """Run one workload; the program's own tracer must be off."""
    if current_tracer() is not None:
        raise RuntimeError("the program's tracer must be off while measuring")
    workload = WORKLOADS[name](seed, seconds, SIZES[size])
    workload.trace = trace
    workload.spans_path = spans_path
    return workload.run()
