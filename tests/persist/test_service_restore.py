"""Warm-boot paths: whole CostService and per-replica ClusterService."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterService
from repro.engine.environment import random_environments
from repro.persist import list_checkpoints
from repro.serving import (
    AdaptationConfig,
    CostService,
    SnapshotStore,
)
from tests.persist.conftest import ENV_SEED


def _fresh_service(adaptation: bool = True) -> CostService:
    return CostService(
        snapshot_store=SnapshotStore(),
        snapshot_scale=2,
        adaptation=AdaptationConfig(background=False) if adaptation else None,
    )


@pytest.fixture()
def loaded_service(qppnet_setup):
    """A service with a deployed bundle, a grafted unseen env, warm
    caches and a part-filled adaptation window."""
    envs, labeled = qppnet_setup["envs"], qppnet_setup["labeled"]
    extra_env = random_environments(3, seed=ENV_SEED)[2]
    service = _fresh_service()
    service.deploy(qppnet_setup["bundle"])
    service.estimate(labeled[0].plan, extra_env)  # graft via the store
    service.estimate_many([r.plan for r in labeled], envs[0], batch_size=16)
    env_by_name = {env.name: env for env in envs}
    for record in labeled[:12]:
        service.record_feedback(record, env_by_name[record.env_name])
    try:
        yield service, extra_env
    finally:
        service.close()


def test_service_restore_is_bit_identical_and_warm(
    tmp_path, loaded_service, qppnet_setup
):
    service, extra_env = loaded_service
    envs, labeled = qppnet_setup["envs"], qppnet_setup["labeled"]
    plans = [record.plan for record in labeled]
    reference = service.estimate_many(plans, envs[0], batch_size=16)
    reference_extra = service.estimate(plans[0], extra_env)
    service.save(tmp_path)

    restored = _fresh_service()
    try:
        assert restored.restore(tmp_path) is True
        # Bit-identical predictions on the shared query set.
        assert np.array_equal(
            restored.estimate_many(plans, envs[0], batch_size=16), reference
        )
        # The grafted environment came back with the bundle: no fit.
        assert restored.estimate(plans[0], extra_env) == reference_extra
        store_stats = restored.snapshot_store.stats_snapshot()
        assert store_stats.misses == 0
        assert store_stats.restored_from_checkpoint == 1
        # Cache warmth: the estimates above were all prepared-cache hits.
        cache_stats = restored.cache.stats_snapshot()
        assert cache_stats.misses == 0
        assert cache_stats.hits >= len(plans)
        # Versions survive (the graft bumped to 2 pre-checkpoint).
        name = qppnet_setup["bundle"].name
        assert restored.registry.get(name).version == service.registry.get(
            name
        ).version
    finally:
        restored.close()


def test_restored_counters_surface_in_counters_and_report(
    tmp_path, loaded_service
):
    service, _ = loaded_service
    service.save(tmp_path)
    restored = _fresh_service()
    try:
        restored.restore(tmp_path)
        counters = restored.counters()
        assert counters["registry"]["restored_from_checkpoint"] == 1
        assert counters["snapshot_store"]["restored_from_checkpoint"] == 1
        report = restored.report()
        assert "bundles restored" in report
        assert "snapshots restored" in report
    finally:
        restored.close()


def test_adaptation_window_and_drift_state_survive(tmp_path, loaded_service):
    service, _ = loaded_service
    name = service.registry.names()[0]
    watcher = service.adaptation.watcher(name)
    watcher.drift_pending = True
    window_before = [r.latency_ms for r in watcher.window_records()]
    assert window_before  # feedback landed pre-checkpoint
    service.save(tmp_path)

    restored = _fresh_service()
    try:
        assert restored.restore(tmp_path)
        watcher_after = restored.adaptation.watcher(name)
        assert watcher_after is not None
        assert [
            r.latency_ms for r in watcher_after.window_records()
        ] == window_before
        assert watcher_after.drift_pending is True
        for op, mask in watcher.recall.masks.items():
            assert np.array_equal(watcher_after.recall.masks[op], mask)
    finally:
        restored.close()


def test_restore_into_leaner_service_degrades_gracefully(
    tmp_path, loaded_service, qppnet_setup
):
    service, _ = loaded_service
    envs, labeled = qppnet_setup["envs"], qppnet_setup["labeled"]
    service.save(tmp_path)
    # No snapshot store, no adaptation: those checkpoint sections are
    # simply skipped; the registry and cache still warm-boot.
    lean = CostService(adaptation=None)
    try:
        assert lean.restore(tmp_path) is True
        want = service.estimate_many([r.plan for r in labeled], envs[0])
        got = lean.estimate_many([r.plan for r in labeled], envs[0])
        assert np.array_equal(want, got)
    finally:
        lean.close()


@pytest.mark.parametrize("entry", ["restore", "load_state"])
def test_restoring_a_served_name_drops_its_derived_caches(
    tmp_path, qppnet_setup, qppnet_rescaled_setup, entry
):
    """Regression: a service that had served ``t`` kept its feature,
    template and estimate caches across a restore of a *different*
    bundle under the same (name, version), then fed them to the
    restored bundle (a numpy ``ValueError`` on mismatched widths).
    It must answer exactly like a fresh service restored from the same
    checkpoint."""
    served = qppnet_rescaled_setup["bundle"]
    restored_bundle = qppnet_setup["bundle"]
    envs, labeled = qppnet_setup["envs"], qppnet_setup["labeled"]
    # A plan through an operator whose keep-mask differs between the
    # two bundles, so stale features cannot fit the restored net.
    differs = {
        op for op, mask in served.masks.items()
        if int(mask.sum()) != int(restored_bundle.masks[op].sum())
    }
    record = next(
        r for r in labeled if any(node.op in differs for node in r.plan.walk())
    )
    env = next(e for e in envs if e.name == record.env_name)
    with CostService() as other:
        other.deploy(restored_bundle, name="t")
        other.save(tmp_path)
        state = other.state_dict()
    with CostService() as fresh:
        assert fresh.restore(tmp_path) is True
        want = fresh.estimate(record.query_sql, env, bundle="t")
    with CostService() as service:
        service.deploy(served, name="t")
        service.estimate(record.query_sql, env, bundle="t")
        if entry == "restore":
            assert service.restore(tmp_path) is True
        else:
            service.load_state(state)
        assert service.registry.get("t").version == 1
        assert service.estimate(record.query_sql, env, bundle="t") == want


def test_restore_with_no_checkpoint_is_a_cold_start(tmp_path):
    service = _fresh_service(adaptation=False)
    try:
        assert service.restore(tmp_path / "empty") is False
        assert len(service.registry) == 0
    finally:
        service.close()


def test_restore_fails_over_corrupt_newest_then_cold(
    tmp_path, loaded_service, qppnet_setup
):
    service, _ = loaded_service
    envs, labeled = qppnet_setup["envs"], qppnet_setup["labeled"]
    service.save(tmp_path)
    second = service.save(tmp_path)
    second.write_bytes(second.read_bytes()[: second.stat().st_size // 2])

    restored = _fresh_service(adaptation=False)
    try:
        # Newest is truncated: the older retained checkpoint restores.
        assert restored.restore(tmp_path) is True
        assert np.array_equal(
            service.estimate_many([r.plan for r in labeled], envs[0]),
            restored.estimate_many([r.plan for r in labeled], envs[0]),
        )
    finally:
        restored.close()

    for _, path in list_checkpoints(tmp_path):
        path.write_bytes(b"garbage")
    cold = _fresh_service(adaptation=False)
    try:
        assert cold.restore(tmp_path) is False
        assert len(cold.registry) == 0
    finally:
        cold.close()


# ----------------------------------------------------------------------
# the cluster tier
# ----------------------------------------------------------------------
def _cluster() -> ClusterService:
    return ClusterService(
        shard_count=2,
        service_factory=lambda sid: CostService(
            snapshot_store=SnapshotStore(), snapshot_scale=2
        ),
    )


def test_cluster_save_restore_per_replica(tmp_path, qppnet_setup):
    envs, labeled = qppnet_setup["envs"], qppnet_setup["labeled"]
    cluster = _cluster()
    try:
        cluster.deploy(qppnet_setup["bundle"], name="t0")
        cluster.deploy(qppnet_setup["bundle"], name="t1")
        for record in labeled[:8]:
            cluster.estimate(record.plan, envs[0], bundle="t0")
        paths = cluster.save(tmp_path)
        assert set(paths) == {"shard-0", "shard-1"}

        fresh = _cluster()
        try:
            warm = fresh.restore(tmp_path)
            assert warm == {"shard-0": True, "shard-1": True}
            want = cluster.shard("shard-0").service.estimate_many(
                [r.plan for r in labeled], envs[0], bundle="t0"
            )
            got = fresh.shard("shard-0").service.estimate_many(
                [r.plan for r in labeled], envs[0], bundle="t0"
            )
            assert np.array_equal(want, got)
        finally:
            fresh.close()
    finally:
        cluster.close()


def test_cluster_partial_restore_backfills_cold_replicas(
    tmp_path, qppnet_setup
):
    """A fresh process restoring with one dead checkpoint: the cold
    replica is backfilled from the warm one's restored bundles, the
    routing bookkeeping is rebuilt, and every tenant stays servable
    on every shard (the failover invariant)."""
    envs, labeled = qppnet_setup["envs"], qppnet_setup["labeled"]
    cluster = _cluster()
    try:
        cluster.deploy(qppnet_setup["bundle"], name="t0")
        cluster.deploy(qppnet_setup["bundle"], name="t1")
        cluster.save(tmp_path)
    finally:
        cluster.close()
    for _, path in list_checkpoints(tmp_path / "shard-1"):
        path.write_bytes(b"rotten")

    fresh = _cluster()  # a brand-new process: no retained bundles
    try:
        warm = fresh.restore(tmp_path)
        assert warm == {"shard-0": True, "shard-1": False}
        assert set(fresh.deployed_names()) == {"t0", "t1"}
        for shard_id in ("shard-0", "shard-1"):
            for name in ("t0", "t1"):
                value = fresh.shard(shard_id).service.estimate(
                    labeled[0].plan, envs[0], bundle=name
                )
                assert np.isfinite(value)
        # The warm replica's restored registry was left untouched.
        assert (
            fresh.shard("shard-0").service.counters()["registry"][
                "restored_from_checkpoint"
            ]
            == 2
        )
    finally:
        fresh.close()


def test_restart_shard_cold_redeploys_and_revives(qppnet_setup):
    envs, labeled = qppnet_setup["envs"], qppnet_setup["labeled"]
    cluster = _cluster()
    try:
        cluster.deploy(qppnet_setup["bundle"], name="t0")
        victim = cluster.shard_of("t0")
        cluster.kill_shard(victim)
        assert cluster.restart_shard(victim) is False  # cold
        assert cluster.shard_of("t0") == victim  # back in routing
        value = cluster.estimate(labeled[0].plan, envs[0], bundle="t0")
        assert np.isfinite(value)
        counters = cluster.shard(victim).service.counters()
        assert counters["registry"]["restored_from_checkpoint"] == 0
    finally:
        cluster.close()


def test_restart_shard_warm_restores_the_replica(tmp_path, qppnet_setup):
    envs, labeled = qppnet_setup["envs"], qppnet_setup["labeled"]
    plans = [record.plan for record in labeled]
    cluster = _cluster()
    try:
        cluster.deploy(qppnet_setup["bundle"], name="t0")
        victim = cluster.shard_of("t0")
        victim_service = cluster.shard(victim).service
        reference = victim_service.estimate_many(plans, envs[0], bundle="t0")
        ckpt_dir = tmp_path / victim
        victim_service.save(ckpt_dir)

        cluster.kill_shard(victim)
        assert cluster.restart_shard(victim, checkpoint_dir=ckpt_dir) is True
        restored = cluster.shard(victim).service
        assert restored is not victim_service
        assert np.array_equal(
            restored.estimate_many(plans, envs[0], bundle="t0"), reference
        )
        assert (
            restored.counters()["registry"]["restored_from_checkpoint"] == 1
        )
    finally:
        cluster.close()


def test_restart_shard_with_dead_checkpoint_falls_back_cold(
    tmp_path, qppnet_setup
):
    envs, labeled = qppnet_setup["envs"], qppnet_setup["labeled"]
    cluster = _cluster()
    try:
        cluster.deploy(qppnet_setup["bundle"], name="t0")
        victim = cluster.shard_of("t0")
        ckpt_dir = tmp_path / victim
        path = cluster.shard(victim).service.save(ckpt_dir)
        path.write_bytes(b"not a checkpoint")
        cluster.kill_shard(victim)
        assert cluster.restart_shard(victim, checkpoint_dir=ckpt_dir) is False
        # Cold but serving: the retained bundle was re-deployed.
        value = cluster.estimate(labeled[0].plan, envs[0], bundle="t0")
        assert np.isfinite(value)
    finally:
        cluster.close()
