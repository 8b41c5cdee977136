"""The process tier is *bit-identical* to the thread tier.

Exact equality, not closeness: the parent template's state crosses
the worker boundary through the byte-exact persist codec (weights via
shared memory, predictions back as raw float64), so a worker process
must produce the same 64 bits as an in-process service holding the
same bundles.  Any tolerance here would hide a codec bug.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

from repro.cluster import ClusterService
from repro.engine.optimizer import PlanBuilder
from repro.serving import CostService, SnapshotStore


@pytest.fixture(scope="module")
def thread_tier(cluster_bundle):
    """The existing thread tier over the same bundle, for comparison."""
    bundle, _ = cluster_bundle
    tier = ClusterService(
        shard_count=2,
        service_factory=lambda sid: CostService(
            snapshot_store=SnapshotStore()
        ),
    )
    tier.deploy(bundle)
    yield tier
    tier.close()


def test_estimates_bit_identical_to_thread_tier(
    proc_service, thread_tier, cluster_bundle, cluster_envs
):
    _, labeled = cluster_bundle
    for env in cluster_envs:
        for record in labeled[:8]:
            assert proc_service.estimate(
                record.query_sql, env
            ) == thread_tier.estimate(record.query_sql, env)


def test_batched_estimates_bit_identical_to_thread_tier(
    proc_service, thread_tier, cluster_bundle, cluster_envs
):
    _, labeled = cluster_bundle
    queries = [record.query_sql for record in labeled[:12]]
    for env in cluster_envs:
        np.testing.assert_array_equal(
            proc_service.estimate_many(queries, env, batch_size=4),
            thread_tier.estimate_many(queries, env, batch_size=4),
        )


def test_plan_shipped_queries_bit_identical(
    proc_service, thread_tier, cluster_bundle, cluster_envs
):
    """Plan trees cross the boundary through the persist plan codec;
    the re-hydrated plan must estimate to the same 64 bits."""
    bundle, labeled = cluster_bundle
    env = cluster_envs[0]
    for record in labeled[:5]:
        assert proc_service.estimate(
            record.plan, env, bundle=bundle.name
        ) == thread_tier.estimate(record.plan, env, bundle=bundle.name)


def test_bit_identical_to_a_single_inprocess_service(
    proc_service, cluster_bundle, cluster_envs
):
    """Ground truth: a plain CostService in this very process."""
    bundle, labeled = cluster_bundle
    queries = [record.query_sql for record in labeled[:10]]
    with CostService(snapshot_store=SnapshotStore()) as single:
        single.deploy(bundle)
        for env in cluster_envs:
            np.testing.assert_array_equal(
                proc_service.estimate_many(queries, env, batch_size=4),
                single.estimate_many(queries, env, batch_size=4),
            )
            assert proc_service.estimate(
                queries[0], env
            ) == single.estimate(queries[0], env)


def test_async_path_bit_identical_to_sync(
    proc_service, cluster_bundle, cluster_envs
):
    _, labeled = cluster_bundle
    env = cluster_envs[1]
    sql = labeled[0].query_sql
    sync = proc_service.estimate(sql, env)
    assert proc_service.estimate_async(sql, env).result(timeout=30.0) == sync


def _fresh_estimates(bundle, queries, env):
    """Every query's estimate from its own brand-new service (a plan
    memo miss by construction)."""
    values = []
    for sql in queries:
        with CostService(snapshot_store=SnapshotStore()) as fresh:
            fresh.deploy(bundle)
            values.append(fresh.estimate(sql, env))
    return np.array(values)


def test_plan_memo_hits_equal_misses_and_fresh_services(
    proc_service, thread_tier, cluster_bundle, cluster_envs
):
    """Repeated SQL: the memo hit on every path and both tiers returns
    the same 64 bits as the miss and as a fresh service."""
    bundle, labeled = cluster_bundle
    env = cluster_envs[0]
    queries = list(dict.fromkeys(r.query_sql for r in labeled[:6]))
    expected = _fresh_estimates(bundle, queries, env)
    with CostService(snapshot_store=SnapshotStore()) as service:
        service.deploy(bundle)
        misses = np.array([service.estimate(sql, env) for sql in queries])
        assert service.counters()["plan_cache"]["hits"] == 0
        hits = np.array([service.estimate(sql, env) for sql in queries])
        many = service.estimate_many(queries * 2, env, batch_size=4)
        futures = [service.estimate_async(sql, env) for sql in queries]
        async_hits = np.array([f.result(timeout=30.0) for f in futures])
        memo = service.counters()["plan_cache"]
        assert memo["misses"] == len(queries)
        assert memo["hits"] == 4 * len(queries)
    for got in (misses, hits, async_hits, many[: len(queries)],
                many[len(queries):]):
        assert np.array_equal(got, expected)
    for tier in (thread_tier, proc_service):
        for _ in range(2):
            assert np.array_equal(
                [tier.estimate(sql, env) for sql in queries], expected
            )
            assert np.array_equal(
                tier.estimate_many(queries, env, batch_size=4), expected
            )
        assert np.array_equal(
            [tier.estimate_async(sql, env).result(timeout=30.0)
             for sql in queries],
            expected,
        )


def test_sql_stampede_builds_its_plan_once(cluster_bundle, cluster_envs):
    """16 threads miss on one statement at once: one parse-and-build,
    the other callers coalesce onto it, and all get the same bits."""
    bundle, labeled = cluster_bundle
    sql, env = labeled[0].query_sql, cluster_envs[0]
    builds = []
    build = PlanBuilder.build

    def slow_build(self, query):
        builds.append(query)
        time.sleep(0.1)  # hold the miss open so the others pile up
        return build(self, query)

    barrier = threading.Barrier(16)
    with CostService(snapshot_store=SnapshotStore()) as service:
        service.deploy(bundle)

        def call(_):
            barrier.wait(timeout=30.0)
            return service.estimate(sql, env)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads harder
        try:
            with mock.patch.object(PlanBuilder, "build", slow_build):
                with ThreadPoolExecutor(16) as pool:
                    values = list(pool.map(call, range(16), timeout=60.0))
        finally:
            sys.setswitchinterval(interval)
        memo = service.counters()["plan_cache"]
        parses = service.counters()["service"]["stages"]["parse"]["calls"]
    assert len(builds) == 1 and parses == 1
    assert memo["misses"] == 1 and memo["coalesced"] >= 1
    assert memo["hits"] + memo["coalesced"] == 15
    expected = _fresh_estimates(bundle, [sql], env)
    assert np.array_equal(values, np.repeat(expected, 16))
