"""ClusterService: API parity, tenant affinity, failover, admission."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.cluster import ClusterService
from repro.errors import (
    ClusterError,
    ParseError,
    ServingError,
    ShardOverloadError,
)
from repro.serving import CostService, SnapshotStore


def make_cluster(shard_count=3, **kwargs) -> ClusterService:
    return ClusterService(
        shard_count=shard_count,
        service_factory=lambda sid: CostService(snapshot_store=SnapshotStore()),
        **kwargs,
    )


@pytest.fixture()
def cluster(cluster_bundle):
    bundle, _ = cluster_bundle
    tier = make_cluster()
    tier.deploy(bundle)
    yield tier
    tier.close()


# ----------------------------------------------------------------------
# API parity with a single CostService
# ----------------------------------------------------------------------
def test_estimates_match_a_single_service(cluster, cluster_bundle, cluster_envs):
    bundle, labeled = cluster_bundle
    env = cluster_envs[0]
    with CostService(snapshot_store=SnapshotStore()) as single:
        single.deploy(bundle)
        for record in labeled[:8]:
            assert cluster.estimate(record.query_sql, env) == single.estimate(
                record.query_sql, env
            )
        queries = [record.query_sql for record in labeled[:10]]
        np.testing.assert_allclose(
            cluster.estimate_many(queries, env, batch_size=4),
            single.estimate_many(queries, env, batch_size=4),
        )


def test_async_path_matches_sync(cluster, cluster_bundle, cluster_envs):
    _, labeled = cluster_bundle
    env = cluster_envs[1]
    sql = labeled[0].query_sql
    sync = cluster.estimate(sql, env)
    future = cluster.estimate_async(sql, env)
    assert future.result(timeout=10.0) == sync


def test_prebuilt_plans_and_explicit_bundle_name(
    cluster, cluster_bundle, cluster_envs
):
    bundle, labeled = cluster_bundle
    env = cluster_envs[0]
    value = cluster.estimate(labeled[0].plan, env, bundle=bundle.name)
    assert np.isfinite(value) and value > 0


def test_multi_bundle_requires_a_name(cluster_bundle, cluster_envs):
    bundle, labeled = cluster_bundle
    with make_cluster() as tier:
        tier.deploy(bundle, name="tenant-a")
        tier.deploy(bundle, name="tenant-b")
        assert tier.deployed_names() == ["tenant-a", "tenant-b"]
        with pytest.raises(ClusterError):
            tier.estimate(labeled[0].query_sql, cluster_envs[0])
        value = tier.estimate(
            labeled[0].query_sql, cluster_envs[0], bundle="tenant-a"
        )
        assert np.isfinite(value)


# ----------------------------------------------------------------------
# tenant affinity
# ----------------------------------------------------------------------
def test_concurrent_estimates_never_cross_shards(
    cluster, cluster_bundle, cluster_envs
):
    """Stampede: 16 threads hammering one tenant stay on one shard."""
    _, labeled = cluster_bundle
    env = cluster_envs[0]
    sql = labeled[0].query_sql
    home = cluster.shard_of(cluster.deployed_names()[0])
    barrier = threading.Barrier(16)
    errors = []

    def worker() -> None:
        barrier.wait()
        try:
            for _ in range(12):
                cluster.estimate(sql, env)
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(16)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    routed = cluster.stats.snapshot()["routed"]
    assert routed[home] == 16 * 12
    assert all(count == 0 for shard, count in routed.items() if shard != home)
    # The other replicas never even saw a request.
    for shard_id in cluster.router.shard_ids():
        requests = cluster.shard(shard_id).service.stats.snapshot()["requests"]
        assert (requests > 0) == (shard_id == home)


def test_tenants_route_independently(cluster_bundle, cluster_envs):
    bundle, _ = cluster_bundle
    with make_cluster(shard_count=4) as tier:
        names = [f"tenant-{i}" for i in range(12)]
        for name in names:
            tier.deploy(bundle, name=name)
        placement = {name: tier.shard_of(name) for name in names}
        assert len(set(placement.values())) > 1  # non-degenerate spread
        # Stable across repeated asks.
        assert placement == {name: tier.shard_of(name) for name in names}


# ----------------------------------------------------------------------
# failover + health
# ----------------------------------------------------------------------
def test_killed_shard_fails_over_with_zero_errors(
    cluster, cluster_bundle, cluster_envs
):
    _, labeled = cluster_bundle
    env = cluster_envs[0]
    tenant = cluster.deployed_names()[0]
    sql = labeled[0].query_sql
    expected = cluster.estimate(sql, env)
    victim = cluster.shard_of(tenant)
    preference = cluster.router.preference(tenant)

    cluster.kill_shard(victim)
    values = [cluster.estimate(sql, env) for _ in range(8)]
    assert values == [expected] * 8  # every request succeeded, re-routed
    # After threshold failures, the shard is ejected: traffic now goes
    # straight to the second-choice replica without a retry hop.
    assert not cluster.router.is_alive(victim)
    assert cluster.shard_of(tenant) == preference[1]
    counters = cluster.counters()["cluster"]
    assert counters["ejections"] == 1
    assert counters["reroutes"] >= 1
    assert counters["exhausted"] == 0


def test_revive_returns_the_tenant_home(cluster, cluster_bundle, cluster_envs):
    _, labeled = cluster_bundle
    env = cluster_envs[0]
    tenant = cluster.deployed_names()[0]
    home = cluster.shard_of(tenant)
    cluster.kill_shard(home)
    for _ in range(4):
        cluster.estimate(labeled[0].query_sql, env)
    assert cluster.shard_of(tenant) != home
    cluster.revive_shard(home)
    assert cluster.shard_of(tenant) == home
    assert cluster.estimate(labeled[0].query_sql, env) > 0


def test_all_shards_down_raises_cluster_error(
    cluster, cluster_bundle, cluster_envs
):
    _, labeled = cluster_bundle
    for shard_id in cluster.router.shard_ids():
        cluster.kill_shard(shard_id)
    with pytest.raises(ClusterError):
        cluster.estimate(labeled[0].query_sql, cluster_envs[0])
    assert cluster.counters()["cluster"]["exhausted"] == 1


def test_request_errors_do_not_charge_shard_health(
    cluster, cluster_bundle, cluster_envs
):
    """A bad client request must not eject healthy replicas — neither
    a ServingError (unknown bundle) nor any other library ReproError
    (malformed SQL raises ParseError)."""
    for _ in range(6):  # 2x the failure threshold
        with pytest.raises(ServingError):
            cluster.estimate(
                "SELECT 1", cluster_envs[0], bundle="no-such-bundle"
            )
        with pytest.raises(ParseError):
            cluster.estimate("SELEC oops FORM nowhere", cluster_envs[0])
    health = cluster.router.health()
    assert all(state.alive for state in health.values())
    assert all(state.failures == 0 for state in health.values())


def test_async_post_submit_failures_classified_like_sync(
    cluster, cluster_bundle, cluster_envs
):
    """Only an unambiguous replica death (ShardDownError) resolving an
    async Future charges shard health; request-shaped errors — which
    the batcher fans out to a whole batch — must not."""
    from concurrent.futures import Future

    from repro.errors import ShardDownError

    _, labeled = cluster_bundle
    sql, env = labeled[0].query_sql, cluster_envs[0]
    home = cluster.shard_of(cluster.deployed_names()[0])
    shard = cluster.shard(home)
    real = shard.service.estimate_async

    def failed_future(exc):
        def fake(query, env, bundle=None, backend=None):
            future = Future()
            future.set_exception(exc)
            return future
        return fake

    try:
        for poison in (ServingError("poisoned"), RuntimeError("bad input")):
            shard.service.estimate_async = failed_future(poison)
            with pytest.raises(type(poison)):
                cluster.estimate_async(sql, env).result(timeout=1.0)
        assert cluster.router.health()[home].failures == 0

        shard.service.estimate_async = failed_future(ShardDownError("dead"))
        with pytest.raises(ShardDownError):
            cluster.estimate_async(sql, env).result(timeout=1.0)
        assert cluster.router.health()[home].failures == 1
        # Submissions between resolutions must not reset the streak: a
        # replica whose futures keep dying accumulates to ejection.
        for _ in range(2):
            with pytest.raises(ShardDownError):
                cluster.estimate_async(sql, env).result(timeout=1.0)
        assert not cluster.router.is_alive(home)
    finally:
        shard.service.estimate_async = real


def test_poison_requests_cannot_eject_the_cluster(
    cluster, cluster_bundle, cluster_envs
):
    """A deterministic non-ReproError request (here a malformed env
    object raising AttributeError inside the service) retries across
    shards but must never eject any of them."""
    class BogusEnv:
        pass  # no .name: the service trips an AttributeError

    _, labeled = cluster_bundle
    for _ in range(6):  # 2x failure threshold, each hitting every shard
        with pytest.raises(ClusterError):
            cluster.estimate(labeled[0].query_sql, BogusEnv())
    health = cluster.router.health()
    assert all(state.alive for state in health.values())
    assert all(state.failures == 0 for state in health.values())
    # And the tier still serves real traffic afterwards.
    assert cluster.estimate(labeled[0].query_sql, cluster_envs[0]) > 0


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
def test_async_requests_hold_their_admission_slot_until_resolved(
    cluster_bundle, cluster_envs
):
    """The async path must bound the batcher backlog: the slot is
    released when the Future resolves, not when submission returns."""
    from concurrent.futures import Future

    bundle, labeled = cluster_bundle
    with make_cluster(max_inflight_per_shard=1) as tier:
        tenant = tier.deploy(bundle)
        home = tier.shard_of(tenant)
        shard = tier.shard(home)
        real = shard.service.estimate_async
        pending: Future = Future()
        shard.service.estimate_async = (
            lambda query, env, bundle=None, backend=None: pending
        )
        try:
            future = tier.estimate_async(labeled[0].query_sql, cluster_envs[0])
            assert future is pending
            assert shard.admission.inflight == 1
            # The sole slot rides with the unresolved future: further
            # traffic sheds instead of growing the batcher queue.
            with pytest.raises(ShardOverloadError):
                tier.estimate_async(labeled[1].query_sql, cluster_envs[0])
            pending.set_result(1.0)
            assert shard.admission.inflight == 0
        finally:
            shard.service.estimate_async = real
        assert tier.estimate_async(
            labeled[0].query_sql, cluster_envs[0]
        ).result(timeout=10.0) > 0


def test_full_shard_sheds_instead_of_queueing(
    cluster_bundle, cluster_envs
):
    bundle, labeled = cluster_bundle
    with make_cluster(max_inflight_per_shard=1) as tier:
        tenant = tier.deploy(bundle)
        home = tier.shard_of(tenant)
        # Occupy the single slot from outside, as a stuck request would.
        assert tier.shard(home).admission.try_acquire()
        with pytest.raises(ShardOverloadError):
            tier.estimate(labeled[0].query_sql, cluster_envs[0])
        # Shedding is deliberate: no failover, no health damage.
        assert tier.router.is_alive(home)
        assert tier.counters()["cluster"]["shed"] == 1
        assert tier.stats.snapshot()["reroutes"] == 0
        tier.shard(home).admission.release()
        assert tier.estimate(labeled[0].query_sql, cluster_envs[0]) > 0


def test_counters_and_report_shape(cluster, cluster_bundle, cluster_envs):
    _, labeled = cluster_bundle
    cluster.estimate(labeled[0].query_sql, cluster_envs[0])
    counters = cluster.counters()
    # "tracer" joins the set only when a tracer is attached.
    assert set(counters) == {"cluster", "shards", "events"}
    tier = counters["cluster"]
    assert set(tier) >= {"routed", "reroutes", "shed", "ejections", "per_shard"}
    for shard_id in cluster.router.shard_ids():
        assert "service" in counters["shards"][shard_id]
        assert "admission" in tier["per_shard"][shard_id]
        assert tier["per_shard"][shard_id]["alive"] is True
    report = cluster.report()
    assert "shard" in report and "routed" in report and "reroutes" in report
    # The replicas' cache counters, plan memo included, fold into both.
    home = counters["shards"][cluster.shard_of(cluster.deployed_names()[0])]
    assert set(home["plan_cache"]) == set(home["template_cache"])
    assert home["plan_cache"]["requests"] >= 1
    assert "plan-cache" in report and "feature-cache" in report


# ----------------------------------------------------------------------
# backend routing across the tier
# ----------------------------------------------------------------------
def test_unknown_backend_is_typed_and_charges_no_health(
    cluster, cluster_bundle, cluster_envs
):
    """An unknown backend tag is a caller bug surfaced by the serving
    replica's router: typed error back to the caller, zero replica
    health damage, zero failover — same discipline as an unknown
    bundle name."""
    from repro.errors import UnknownBackendError

    _, labeled = cluster_bundle
    sql = labeled[0].query_sql
    for _ in range(6):  # 2x the failure threshold
        with pytest.raises(UnknownBackendError):
            cluster.estimate(sql, cluster_envs[0], backend="oracle")
    health = cluster.router.health()
    assert all(state.alive for state in health.values())
    assert all(state.failures == 0 for state in health.values())
    assert cluster.counters()["cluster"]["reroutes"] == 0


def test_tagged_estimates_match_untagged_and_count_per_shard(
    cluster, cluster_bundle, cluster_envs
):
    """Backend-tagged traffic resolves to the same learned bundle the
    untagged path serves — bit-identical — and the serving shard's
    ``backends`` counter section appears."""
    from repro.backends import DEFAULT_BACKEND

    _, labeled = cluster_bundle
    sql, env = labeled[0].query_sql, cluster_envs[0]
    untagged = cluster.estimate(sql, env)
    assert cluster.estimate(sql, env, backend=DEFAULT_BACKEND) == untagged
    routed = [
        shard["backends"]["routed"]
        for shard in cluster.counters()["shards"].values()
        if "backends" in shard
    ]
    assert sum(section.get(DEFAULT_BACKEND, 0) for section in routed) == 1


def test_unserved_backend_falls_back_to_native_on_the_shard(
    cluster, cluster_bundle, cluster_envs
):
    """A tagged request for a backend with no learned bundle is served
    by an auto-deployed native fallback on whichever replica answers."""
    _, labeled = cluster_bundle
    value = cluster.estimate(
        labeled[0].query_sql, cluster_envs[0], backend="aurora"
    )
    assert np.isfinite(value) and value >= 0
    fallbacks = [
        shard_id
        for shard_id in cluster.router.shard_ids()
        if "native-aurora" in cluster.shard(shard_id).service.registry
    ]
    assert len(fallbacks) == 1  # deployed lazily, only where routed


# ----------------------------------------------------------------------
# aliased deploys
# ----------------------------------------------------------------------
def test_aliased_deploy_survives_replica_restart(
    cluster_bundle, cluster_envs
):
    """Regression: the tier retained aliased bundles under their
    original ``bundle.name``, so a replica restart re-deployed the
    tenant under the wrong key and the tenant 404'd post-restart."""
    bundle, labeled = cluster_bundle
    sql, env = labeled[0].query_sql, cluster_envs[0]
    with make_cluster() as tier:
        tier.deploy(bundle, name="tenant-alias")
        expected = tier.estimate(sql, env, bundle="tenant-alias")
        victim = tier.shard_of("tenant-alias")
        tier.kill_shard(victim)
        assert tier.restart_shard(victim) is False  # cold boot, re-deploy
        restarted = tier.shard(victim).service
        assert "tenant-alias" in restarted.registry
        assert restarted.registry.get("tenant-alias").name == "tenant-alias"
        assert tier.estimate(sql, env, bundle="tenant-alias") == expected
