"""CostService end-to-end: parse -> plan -> featurize -> predict.

Uses a tiny QCFE(qpp) pipeline on Sysbench (the cheapest benchmark) so
the whole module stays fast; the trained bundle is session-scoped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import QCFE, QCFEConfig
from repro.engine.environment import random_environments
from repro.errors import ServingError
from repro.serving import CostService, EstimatorRegistry, SnapshotStore
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


@pytest.fixture()
def service(trained_bundle):
    bundle, _ = trained_bundle
    svc = CostService(snapshot_store=SnapshotStore(), batch_window_s=0.01)
    svc.deploy(bundle)
    yield svc
    svc.close()


def test_bundle_export_carries_pipeline_state(trained_bundle):
    bundle, _ = trained_bundle
    assert bundle.name == "sysbench:qppnet"
    assert bundle.benchmark is not None
    assert bundle.snapshot_set is not None
    assert bundle.metadata["model"] == "qppnet"
    assert bundle.metadata["trained"] is True
    assert len(bundle.env_names) == 2


def test_estimate_from_sql_and_cache_hit(service, trained_bundle, serving_envs):
    _, labeled = trained_bundle
    sql = labeled[0].query_sql
    env = serving_envs[0]
    first = service.estimate(sql, env)
    assert np.isfinite(first) and first > 0
    second = service.estimate(sql, env)
    assert second == first
    assert service.cache.stats.hits >= 1
    assert service.stats.requests == 2
    # Every stage of the online path ran and was timed.
    for stage, count, _, _ in service.stats.stage_rows():
        assert count >= 1, stage


def test_estimate_many_matches_single_path(service, trained_bundle, serving_envs):
    _, labeled = trained_bundle
    queries = [record.query_sql for record in labeled[:10]]
    env = serving_envs[1]
    batched = service.estimate_many(queries, env, batch_size=4)
    singles = np.array([service.estimate(sql, env) for sql in queries])
    assert batched.shape == (10,)
    assert np.allclose(batched, singles)


def test_estimate_accepts_prebuilt_plans(service, trained_bundle, serving_envs):
    _, labeled = trained_bundle
    env = serving_envs[0]
    record = labeled[0]
    via_plan = service.estimate(record.plan, env)
    assert np.isfinite(via_plan) and via_plan > 0


def test_async_estimates_match_sync(service, trained_bundle, serving_envs):
    _, labeled = trained_bundle
    env = serving_envs[0]
    queries = [record.query_sql for record in labeled[:6]]
    futures = [service.estimate_async(sql, env) for sql in queries]
    sync = [service.estimate(sql, env) for sql in queries]
    async_values = [future.result(timeout=10.0) for future in futures]
    assert np.allclose(async_values, sync)
    stats = service.batcher_stats()["sysbench:qppnet"]
    assert stats.submitted == 6


def test_unknown_environment_triggers_snapshot_fit_and_hot_swap(
    service, trained_bundle, serving_envs
):
    bundle, labeled = trained_bundle
    version_before = service.registry.get(bundle.name).version
    new_env = random_environments(1, seed=99)[0]
    value = service.estimate(labeled[0].query_sql, new_env)
    assert np.isfinite(value) and value > 0
    swapped = service.registry.get(bundle.name)
    assert swapped.version == version_before + 1
    assert new_env.name in swapped.env_names
    assert service.snapshot_store.stats.misses == 1
    # Same knobs again: served from the store, no second fit.
    renamed = random_environments(1, seed=99)[0]
    object.__setattr__(renamed, "name", "same-knobs-new-name")
    service.estimate(labeled[0].query_sql, renamed)
    assert service.snapshot_store.stats.hits == 1


def test_unknown_environment_without_store_is_an_error(trained_bundle, serving_envs):
    bundle, labeled = trained_bundle
    with CostService(registry=EstimatorRegistry()) as svc:
        svc.deploy(bundle)
        with pytest.raises(ServingError, match="no SnapshotStore"):
            svc.estimate(labeled[0].query_sql, random_environments(1, seed=77)[0])


def test_report_renders(service, trained_bundle, serving_envs):
    _, labeled = trained_bundle
    service.estimate(labeled[0].query_sql, serving_envs[0])
    text = service.report()
    assert "stage" in text
    assert "feature-cache" in text
    assert "snapshot-store" in text


def test_counters_snapshot_is_consistent_and_detached(
    service, trained_bundle, serving_envs
):
    _, labeled = trained_bundle
    env = serving_envs[0]
    sql = labeled[0].query_sql
    service.estimate(sql, env)
    service.estimate(sql, env)
    service.estimate_async(sql, env).result(timeout=10.0)
    counters = service.counters()

    # Internally consistent: totals derived from the same atomic copy.
    cache = counters["feature_cache"]
    assert cache["requests"] == (
        cache["hits"] + cache["misses"] + cache["coalesced"]
    )
    assert counters["service"]["requests"] == 3
    stages = counters["service"]["stages"]
    assert set(stages) == {"parse", "plan", "featurize", "predict"}
    assert stages["predict"]["calls"] >= 3
    batcher = counters["batchers"]["sysbench:qppnet"]
    assert batcher["submitted"] == 1

    # Detached: a snapshot is a copy, later traffic cannot mutate it.
    service.estimate(sql, env)
    assert counters["service"]["requests"] == 3
    assert cache["requests"] == service.counters()["feature_cache"]["requests"] - 1


def test_stats_snapshots_are_copies(service, trained_bundle, serving_envs):
    _, labeled = trained_bundle
    service.estimate(labeled[0].query_sql, serving_envs[0])
    cache_before = service.cache.stats_snapshot()
    store_before = service.snapshot_store.stats_snapshot()
    service.estimate(labeled[0].query_sql, serving_envs[0])
    assert service.cache.stats_snapshot().requests == cache_before.requests + 1
    assert cache_before is not service.cache.stats
    assert store_before is not service.snapshot_store.stats


def test_redeploying_a_name_onto_another_benchmark_replans(
    trained_bundle, serving_envs, tpch
):
    """Regression: plan builders were keyed by bundle name, so a name
    redeployed onto another benchmark kept the old catalog's builder
    and TPC-H SQL failed with a sysbench ``SchemaError``."""
    bundle, labeled = trained_bundle
    tpch_labeled = collect_labeled_plans(tpch, serving_envs, 40, seed=1)
    pipeline = QCFE(
        tpch,
        serving_envs,
        QCFEConfig(model="qppnet", epochs=2, template_scale=4),
    )
    pipeline.fit(tpch_labeled)
    tpch_bundle = pipeline.export_bundle()
    sql, env = tpch_labeled[0].query_sql, serving_envs[0]
    with CostService() as service, CostService() as fresh:
        service.deploy(bundle, name="x")
        service.estimate(labeled[0].query_sql, env, bundle="x")
        service.deploy(tpch_bundle, name="x")
        fresh.deploy(tpch_bundle, name="x")
        assert service.estimate(sql, env, bundle="x") == fresh.estimate(
            sql, env, bundle="x"
        )


def test_plan_memo_skips_parse_and_plan_on_repeats(
    service, trained_bundle, serving_envs
):
    _, labeled = trained_bundle
    sql, env = labeled[0].query_sql, serving_envs[0]
    first = service.estimate(sql, env)
    assert service.estimate(sql, env) == first
    memo = service.counters()["plan_cache"]
    assert (memo["misses"], memo["hits"], memo["size"]) == (1, 1, 1)
    stages = service.counters()["service"]["stages"]
    assert stages["parse"]["calls"] == 1  # the hit never parsed
    assert stages["plan"]["calls"] == 2  # ... but both timed the plan
    # Tenants serving one bundle under different names share entries.
    service.deploy(trained_bundle[0], name="tenant-b")
    assert service.estimate(sql, env, bundle="tenant-b") == first
    assert service.counters()["plan_cache"]["hits"] == 2
    # The same statement under another environment is another plan.
    service.estimate(sql, serving_envs[1], bundle="tenant-b")
    assert service.counters()["plan_cache"]["misses"] == 2
    assert "plan-cache" in service.report()
