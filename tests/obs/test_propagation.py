"""Trace propagation under concurrency + the null-tracer overhead guard.

The ISSUE-mandated stampede: 16 threads fire async estimates through
the MicroBatcher at once; every flush must produce exactly one batch
span whose links cover exactly the coalesced request spans — no
orphans, no cross-links — and slow/error requests must survive
sampling even at rate 0.
"""

from __future__ import annotations

import concurrent.futures
import threading
from unittest import mock

import pytest

from repro.core import QCFE, QCFEConfig
from repro.errors import ReproError
from repro.engine.environment import random_environments
from repro.obs import Tracer
from repro.obs import trace as trace_mod
from repro.serving import CostService, SnapshotStore
from repro.workload.collect import collect_labeled_plans


@pytest.fixture(scope="module")
def serving_envs():
    return random_environments(2, seed=3)


@pytest.fixture(scope="module")
def trained_bundle(sysbench, serving_envs):
    labeled = collect_labeled_plans(sysbench, serving_envs, 40, seed=1)
    pipeline = QCFE(
        sysbench,
        serving_envs,
        QCFEConfig(model="qppnet", epochs=2, template_scale=4),
    )
    pipeline.fit(labeled)
    return pipeline.export_bundle(), labeled


def _traced_service(trained_bundle, tracer, **kwargs):
    bundle, _ = trained_bundle
    service = CostService(
        snapshot_store=SnapshotStore(), tracer=tracer, **kwargs
    )
    service.deploy(bundle)
    return service


def test_sixteen_thread_stampede_links_stay_intact(
    trained_bundle, serving_envs
):
    tracer = Tracer(sample_rate=1.0, seed=5)
    _, labeled = trained_bundle
    env = serving_envs[0]
    service = _traced_service(trained_bundle, tracer, batch_window_s=0.05)
    try:
        barrier = threading.Barrier(16)

        def fire(index):
            barrier.wait()
            sql = labeled[index % len(labeled)].query_sql
            return service.estimate_async(sql, env)

        with concurrent.futures.ThreadPoolExecutor(16) as pool:
            futures = list(pool.map(fire, range(16)))
        results = [f.result(timeout=30) for f in futures]
        assert all(value > 0 for value in results)
    finally:
        service.close()

    request_traces = tracer.traces(kind="request")
    async_roots = {
        t["spans"][-1]["span_id"]: t
        for t in request_traces
        if t["spans"][-1]["annotations"].get("path") == "async"
    }
    assert len(async_roots) == 16

    batch_traces = tracer.traces(kind="batch")
    assert batch_traces, "the stampede must have flushed at least once"

    # Every batch span links only real request roots, and every linked
    # root points back at exactly that batch span (no cross-links).
    linked_roots = []
    for batch in batch_traces:
        batch_span = batch["spans"][-1]
        links = batch_span["annotations"]["links"]
        assert batch_span["annotations"]["batch_size"] == len(links)
        for link in links:
            root = async_roots[link["span_id"]]
            root_span = root["spans"][-1]
            assert link["trace_id"] == root["trace_id"]
            assert root_span["annotations"]["batch_trace"] == batch["trace_id"]
            assert (
                root_span["annotations"]["batch_span"]
                == batch_span["span_id"]
            )
            linked_roots.append(link["span_id"])

    # Exactly one batch span per flush: the 16 requests partition over
    # the flushes with no orphan and no double-service.
    assert sorted(linked_roots) == sorted(async_roots)

    # Each retained async trace is internally consistent: one root,
    # every child chained back to it.
    for trace in async_roots.values():
        spans = trace["spans"]
        roots = [s for s in spans if s["parent_id"] is None]
        assert len(roots) == 1
        ids = {s["span_id"] for s in spans}
        for span in spans:
            if span["parent_id"] is not None:
                assert span["parent_id"] in ids


def test_slow_requests_always_sampled(trained_bundle, serving_envs):
    tracer = Tracer(sample_rate=0.0, slow_ms=0.0, seed=5)
    _, labeled = trained_bundle
    service = _traced_service(trained_bundle, tracer)
    try:
        service.estimate(labeled[0].query_sql, serving_envs[0])
    finally:
        service.close()
    retained = tracer.traces(kind="request")
    assert retained and retained[-1]["sampled_by"] == "slow"
    assert tracer.slow_queries()


def test_error_requests_always_sampled(trained_bundle, serving_envs):
    tracer = Tracer(sample_rate=0.0, slow_ms=1e9, seed=5)
    service = _traced_service(trained_bundle, tracer)
    try:
        with pytest.raises(ReproError):
            service.estimate("THIS IS NOT SQL !!", serving_envs[0])
    finally:
        service.close()
    retained = tracer.traces(kind="request")
    assert retained and retained[-1]["sampled_by"] == "error"
    assert retained[-1]["spans"][-1]["status"] == "error"


def test_null_tracer_allocates_no_spans(trained_bundle, serving_envs):
    """Overhead guard: with no tracer attached, the hot path must not
    construct a single Span object."""
    _, labeled = trained_bundle
    service = _traced_service(trained_bundle, tracer=None)
    constructed = []
    original = trace_mod.Span.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(1)
        return original(self, *args, **kwargs)

    try:
        with mock.patch.object(trace_mod.Span, "__init__", counting_init):
            service.estimate(labeled[0].query_sql, serving_envs[0])
            service.estimate_many(
                [r.query_sql for r in labeled[:4]], serving_envs[0]
            )
            future = service.estimate_async(
                labeled[1].query_sql, serving_envs[1]
            )
            assert future.result(timeout=30) > 0
    finally:
        service.close()
    assert constructed == []
    assert service.tracer is None


def test_plan_span_annotates_memo_hit_and_miss(trained_bundle, serving_envs):
    """A memo miss parses under its ``plan`` span (``cache=miss``); a
    repeat opens a ``plan`` span (``cache=hit``) and no ``parse``."""
    tracer = Tracer(sample_rate=1.0, seed=5)
    _, labeled = trained_bundle
    service = _traced_service(trained_bundle, tracer)
    try:
        for _ in range(2):
            service.estimate(labeled[0].query_sql, serving_envs[0])
    finally:
        service.close()
    miss, hit = [
        {span["name"]: span for span in trace["spans"]}
        for trace in tracer.traces(kind="request")[-2:]
    ]
    assert miss["plan"]["annotations"]["cache"] == "miss"
    assert miss["parse"]["parent_id"] == miss["plan"]["span_id"]
    assert hit["plan"]["annotations"]["cache"] == "hit"
    assert "parse" not in hit
    assert hit["plan"]["parent_id"] == hit["request"]["span_id"]


def test_predict_span_annotates_estimate_memo_hit_and_miss(
    trained_bundle, serving_envs
):
    """The scalar path's ``predict`` span says whether the estimate
    memo answered (``cache=hit``) or the model ran (``cache=miss``)."""
    tracer = Tracer(sample_rate=1.0, seed=7)
    _, labeled = trained_bundle
    service = _traced_service(trained_bundle, tracer)
    try:
        values = [
            service.estimate(labeled[0].plan, serving_envs[0])
            for _ in range(2)
        ]
    finally:
        service.close()
    assert values[0] == values[1]
    miss, hit = [
        {span["name"]: span for span in trace["spans"]}
        for trace in tracer.traces(kind="request")[-2:]
    ]
    assert miss["predict"]["annotations"]["cache"] == "miss"
    assert hit["predict"]["annotations"]["cache"] == "hit"
    assert hit["featurize"]["annotations"]["cache"] == "hit"
    assert hit["predict"]["parent_id"] == hit["request"]["span_id"]
