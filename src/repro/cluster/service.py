"""The sharded, multi-replica serving tier behind one service API.

A single :class:`~repro.serving.CostService` owns every tenant: one
hot tenant saturates the batcher, the caches and the refit worker for
all of them.  :class:`ClusterService` is the horizontal answer — N
independent ``CostService`` replicas (each with its own registry,
caches, micro-batchers and adaptation loop), a
:class:`~repro.cluster.router.ShardRouter` consistent-hashing tenants
across them, and per-shard :class:`~repro.cluster.admission.AdmissionController`
gates so overload sheds at the door instead of collapsing the replica.

The facade speaks the same ``estimate`` / ``estimate_many`` /
``estimate_async`` / ``record_feedback`` / ``report`` API as a single
service, so the load generator, the bench scenarios and application
code cannot tell one replica from eight.  What they *can* observe:

- **Tenant affinity.** A tenant (its bundle name by default) always
  lands on the same shard, keeping that shard's feature cache and
  snapshot store warm for it.
- **Failover.** A request that fails on its shard is retried on the
  tenant's next-preferred replica; repeated failures eject the shard
  from routing, and by the rendezvous property only the ejected
  shard's tenants move.
- **Predictable overload.** A full shard sheds new requests
  immediately (:class:`~repro.errors.ShardOverloadError`, counted),
  rather than queueing them into a latency cliff — and never spills
  a hot tenant's overload onto other tenants' replicas.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import (
    ClusterError,
    ReproError,
    ShardDownError,
    ShardOverloadError,
)
from ..obs import EventLog, MetricsRegistry
from ..obs.lockwatch import make_lock
from ..obs.trace import Tracer, current_tracer
from ..serving import CostService, EstimatorBundle
from .admission import AdmissionController
from .router import ShardRouter

#: Builds one replica; receives the shard id (for naming/logging).
ServiceFactory = Callable[[str], CostService]


class ClusterShard:
    """One replica: a shard id, its service, and its admission gate."""

    def __init__(
        self, shard_id: str, service: CostService, max_inflight: int
    ):
        """Wrap *service* as shard *shard_id* admitting *max_inflight*."""
        self.shard_id = shard_id
        self.service = service
        self.admission = AdmissionController(max_inflight)
        #: Simulates (or records) a crashed replica: requests fail at
        #: the shard boundary without touching the service.
        self.killed = False

    def check_up(self) -> None:
        """Raise :class:`ShardDownError` when the replica is killed."""
        if self.killed:
            raise ShardDownError(f"shard {self.shard_id!r} is down")


class ClusterStats:
    """Cluster-level routing counters (shard-local counts live on the
    shards' own admission controllers and services)."""

    def __init__(self, shard_ids: Sequence[str]):
        """Zeroed counters over *shard_ids*."""
        self._lock = make_lock("cluster.stats")
        self._routed: Dict[str, int] = {shard_id: 0 for shard_id in shard_ids}
        self.reroutes = 0
        self.exhausted = 0

    def count_routed(self, shard_id: str) -> None:
        """One request routed to *shard_id* (sync: served to
        completion; async: successfully submitted — its outcome
        resolves later on the Future)."""
        with self._lock:
            self._routed[shard_id] = self._routed.get(shard_id, 0) + 1

    def count_reroute(self) -> None:
        """One request retried on a different shard after a failure."""
        with self._lock:
            self.reroutes += 1

    def count_exhausted(self) -> None:
        """One request that failed on every alive shard."""
        with self._lock:
            self.exhausted += 1

    def snapshot(self) -> Dict[str, object]:
        """Atomic plain-dict copy of the routing counters."""
        with self._lock:
            return {
                "routed": dict(self._routed),
                "reroutes": self.reroutes,
                "exhausted": self.exhausted,
            }


class ClusterService:
    """N ``CostService`` replicas behind the single-service API."""

    def __init__(
        self,
        shard_count: int = 2,
        shard_ids: Optional[Sequence[str]] = None,
        service_factory: Optional[ServiceFactory] = None,
        failure_threshold: int = 3,
        max_inflight_per_shard: int = 512,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        events: Optional[EventLog] = None,
        **service_kwargs,
    ):
        """Build the tier.

        *service_factory* creates each replica (default: a plain
        ``CostService(**service_kwargs)``).  Pass a factory when each
        shard needs its own ``SnapshotStore`` or adaptation config —
        anything passed through *service_kwargs* directly is shared by
        every replica.  *failure_threshold* consecutive failures eject
        a shard from routing; *max_inflight_per_shard* bounds each
        replica's concurrent admissions (excess is shed).

        The tier owns one :class:`~repro.obs.MetricsRegistry` (its
        ``cluster``/``shards`` sections back :meth:`counters` and
        :meth:`report`), one :class:`~repro.obs.EventLog` (shard
        kills/ejections/revivals/restarts, admission sheds) and —
        when tracing — one :class:`~repro.obs.Tracer` shared with every
        replica, so a routing hop span and the shard-side request span
        land in the same trace.
        """
        if shard_ids is None:
            if shard_count < 1:
                raise ClusterError(
                    f"shard_count must be >= 1, got {shard_count}"
                )
            shard_ids = [f"shard-{i}" for i in range(shard_count)]
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events if events is not None else EventLog()
        self.tracer = tracer if tracer is not None else current_tracer()
        base_factory: ServiceFactory = service_factory or (
            lambda shard_id: CostService(**service_kwargs)
        )

        def factory(shard_id: str) -> CostService:
            """Build a replica tracing into the cluster's tracer
            (unless the custom factory wired one up itself), so
            routing spans parent the shard-side request spans."""
            service = base_factory(shard_id)
            if service.tracer is None and self.tracer is not None:
                service.tracer = self.tracer
            return service

        self.router = ShardRouter(shard_ids, failure_threshold=failure_threshold)
        #: Kept for replica replacement: :meth:`restart_shard` builds
        #: the replacement service exactly like the original.
        self._factory = factory
        self._max_inflight = max_inflight_per_shard
        self._shards: Dict[str, ClusterShard] = {
            shard_id: ClusterShard(
                shard_id, factory(shard_id), max_inflight_per_shard
            )
            for shard_id in self.router.shard_ids()
        }
        self.stats = ClusterStats(self.router.shard_ids())
        self._lock = make_lock("cluster.service")
        self._deployed: List[str] = []
        #: Last-deployed bundle object per name: a cold replica restart
        #: re-deploys these when no checkpoint (or a dead one) is
        #: available.
        self._bundle_objects: Dict[str, EstimatorBundle] = {}
        self._register_collectors()

    def _register_collectors(self) -> None:
        """Register the tier's sections into :attr:`metrics`:
        ``cluster`` (routing/health/admission), ``shards`` (each
        replica's full :meth:`~repro.serving.CostService.counters`),
        ``events`` and — when tracing — ``tracer``."""
        register = self.metrics.register_collector
        register("cluster", self._cluster_section)
        register(
            "shards",
            lambda: {
                shard_id: shard.service.counters()
                for shard_id, shard in sorted(self._shards.items())
            },
        )
        register("events", self.events.counters)
        register(
            "tracer",
            lambda: None if self.tracer is None else self.tracer.counters(),
        )

    def _cluster_section(self) -> Dict[str, object]:
        """The ``cluster`` collector: routing totals plus per-shard
        health/admission/liveness (the data :meth:`report` renders)."""
        health = self.router.health()
        routing = self.stats.snapshot()
        routed: Dict[str, int] = routing["routed"]
        per_shard: Dict[str, object] = {}
        shed_total = 0
        for shard_id, shard in sorted(self._shards.items()):
            admission = shard.admission.counters()
            shed_total += int(admission["shed"])
            per_shard[shard_id] = {
                "admission": admission,
                "failures": health[shard_id].failures,
                "ejections": health[shard_id].ejections,
                "alive": health[shard_id].alive,
                "routed": routed.get(shard_id, 0),
            }
        return {
            "routed": routed,
            "reroutes": routing["reroutes"],
            "exhausted": routing["exhausted"],
            "shed": shed_total,
            "ejections": sum(h.ejections for h in health.values()),
            "per_shard": per_shard,
        }

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------
    def deploy(
        self, bundle: EstimatorBundle, name: Optional[str] = None
    ) -> str:
        """Deploy *bundle* to **every** shard under *name*.

        Full replication is what makes failover trivial: any shard can
        serve any tenant, so a re-routed request needs no state
        transfer — it just pays a cold cache on the new replica.
        Returns the deployed name (the routing key for this tenant).
        """
        key = name or bundle.name
        for shard in self._shards.values():
            shard.service.deploy(bundle, name=key)
        with self._lock:
            if key not in self._deployed:
                self._deployed.append(key)
            # Retain the bundle normalized to its routing key: an
            # aliased deploy (name != bundle.name) must not leave a
            # stale name on the retained copy, or a replica restart
            # would re-deploy it under cache/event/persist identities
            # that diverge from the key every live replica serves.
            self._bundle_objects[key] = (
                bundle if bundle.name == key else replace(bundle, name=key)
            )
        return key

    def deployed_names(self) -> List[str]:
        """Every deployed bundle name, in deployment order."""
        with self._lock:
            return list(self._deployed)

    def _resolve_key(
        self,
        bundle: Optional[str],
        tenant: Optional[str],
        backend: Optional[str] = None,
    ) -> Tuple[str, Optional[str]]:
        """(routing key, bundle name) for a request.

        The routing key defaults to the bundle name — tenants are
        bundles unless the caller says otherwise — and a missing
        bundle name falls back to the sole deployment, mirroring
        ``CostService`` semantics.

        A backend-tagged request with no explicit bundle leaves bundle
        selection to the shard service's
        :class:`~repro.serving.routing.BackendRouter` (every replica
        resolves identically) and keys shard affinity on the tenant,
        falling back to the backend tag itself — so one backend's
        traffic stays on one warm replica by default.
        """
        if backend is not None and bundle is None:
            return (tenant or f"backend:{backend}"), None
        with self._lock:
            deployed = list(self._deployed)
        if bundle is None:
            if len(deployed) != 1:
                raise ClusterError(
                    "bundle name required when "
                    f"{len(deployed)} bundles are deployed"
                )
            bundle = deployed[0]
        return (tenant or bundle), bundle

    # ------------------------------------------------------------------
    # routing core
    # ------------------------------------------------------------------
    def shard_of(self, tenant: str) -> str:
        """The shard currently serving *tenant* (health-aware)."""
        return self.router.shard_for(tenant)

    def _with_failover(self, key: str, call, release_on_success: bool = True):
        """Run ``call(shard)`` on *key*'s shard, failing over down the
        tenant's rendezvous preference chain.

        ``release_on_success=False`` transfers ownership of the
        admission slot *and* of success/failure health recording to the
        successful ``call`` (the async path holds the slot, and judges
        health, at Future resolution — recording a submission as a
        success here would reset the failure streak before the
        previous future's verdict arrived, and a sick replica would
        never accumulate enough consecutive failures to be ejected).
        Every failure path still releases and records here.

        Failures are classified, because retrying the wrong ones is
        worse than not retrying:

        - **Replica failures** (:class:`ShardDownError`) record a
          health failure — ejecting the shard at the threshold — and
          retry on the next alive replica: a mid-run crash costs
          re-routed requests a cache warm-up, not an error.
        - **Unexpected exceptions** (a ``TypeError`` from a malformed
          query object, a numpy shape error) also retry on the next
          replica — cheap, bounded, and it rescues transient
          replica-local corruption — but do *not* charge shard
          health: they may be deterministic request poison, and a
          poison request must never eject replicas (only
          :class:`ShardDownError`, which the cluster itself raises
          for a dead replica, is unambiguous evidence).  If every
          replica fails, the last error is chained into the raised
          :class:`ClusterError`.
        - **Request errors** (any :class:`~repro.errors.ReproError`:
          unparseable SQL is a ``ParseError``, an unknown bundle or
          missing snapshot a ``ServingError``, a bad plan a
          ``PlanError`` — the library raises its hierarchy for
          everything deterministic) propagate untouched.  Replicas are
          identical, so these would fail the same way everywhere, and
          a single bad client must not be able to eject healthy
          replicas three requests at a time.
        - **Overload** (:class:`ShardOverloadError`) does not fail
          over: shedding is deliberate degradation, and spilling a
          saturated tenant onto other tenants' replicas would defeat
          the isolation the shards exist to provide.

        With a tracer attached, the whole attempt chain runs under one
        ``route`` span (which, via the shared tracer's thread-local
        stack, parents the shard service's request span) annotated with
        the tenant, the serving shard and whether failover rerouted it.
        """
        tracer = self.tracer
        if tracer is None:
            return self._failover_loop(key, call, release_on_success, None)
        with tracer.start_span("route", kind="route") as span:
            span.annotate(tenant=key)
            return self._failover_loop(key, call, release_on_success, span)

    def _failover_loop(
        self,
        key: str,
        call,
        release_on_success: bool,
        span,
    ):
        """The retry chain of :meth:`_with_failover` (*span* is the
        open route span, or None when tracing is off)."""
        excluded: Set[str] = set()
        rerouted = False
        last_error: Optional[Exception] = None
        while True:
            try:
                shard_id = self.router.shard_for(key, exclude=excluded)
            except ClusterError:
                self.stats.count_exhausted()
                raise ClusterError(
                    f"request for tenant {key!r} failed on every alive shard"
                ) from last_error
            shard = self._shards[shard_id]
            if not shard.admission.try_acquire():
                self.events.emit("admission_shed", shard=shard_id, tenant=key)
                raise ShardOverloadError(
                    f"shard {shard_id!r} is at its admission limit "
                    f"({shard.admission.max_inflight} in flight); request shed"
                )
            try:
                shard.check_up()
                value = call(shard)
            except ShardDownError as exc:
                shard.admission.release()
                if self.router.record_failure(shard_id):
                    self.events.emit(
                        "shard_ejected", shard=shard_id, reason="health"
                    )
                last_error = exc
                excluded.add(shard_id)
                rerouted = True
                continue
            except ReproError:
                # A request-shaped failure fails the same way on every
                # replica; surface it without charging the shard.
                shard.admission.release()
                raise
            except Exception as exc:
                # Unexpected: retry elsewhere, but no health charge —
                # this may be request poison, not a sick replica.
                shard.admission.release()
                last_error = exc
                excluded.add(shard_id)
                rerouted = True
                continue
            if release_on_success:
                shard.admission.release()
                self.router.record_success(shard_id)
            self.stats.count_routed(shard_id)
            if rerouted:
                self.stats.count_reroute()
            if span is not None:
                span.annotate(shard=shard_id, rerouted=rerouted)
            return value

    # ------------------------------------------------------------------
    # public estimation API (CostService-shaped)
    # ------------------------------------------------------------------
    def estimate(
        self,
        query,
        env,
        bundle: Optional[str] = None,
        tenant: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> float:
        """Estimated latency (ms) of *query* under *env*, served by the
        tenant's shard (with failover).  ``backend`` tags the request
        with its engine family; the shard service routes it (unknown
        tags raise :class:`~repro.errors.UnknownBackendError`, which —
        being request-shaped — never charges health or fails over)."""
        key, name = self._resolve_key(bundle, tenant, backend)
        return self._with_failover(
            key,
            lambda shard: shard.service.estimate(
                query, env, bundle=name, backend=backend
            ),
        )

    def estimate_many(
        self,
        queries: Sequence,
        env,
        bundle: Optional[str] = None,
        batch_size: int = 64,
        tenant: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> np.ndarray:
        """Batched estimates, routed as one unit to the tenant's shard."""
        key, name = self._resolve_key(bundle, tenant, backend)
        return self._with_failover(
            key,
            lambda shard: shard.service.estimate_many(
                queries, env, bundle=name, batch_size=batch_size,
                backend=backend,
            ),
        )

    def estimate_async(
        self,
        query,
        env,
        bundle: Optional[str] = None,
        tenant: Optional[str] = None,
        backend: Optional[str] = None,
    ):
        """Queue *query* on the tenant shard's micro-batcher; returns a
        Future.  Submission (parse/plan/featurize) fails over like
        :meth:`estimate`; a failure *after* submission resolves the
        Future with the error and counts against the shard's health.

        The admission slot is held until the Future resolves — that is
        what bounds the batcher queue on the async path, so a flood of
        submissions sheds at the door instead of growing an unbounded
        backlog of pending futures."""
        key, name = self._resolve_key(bundle, tenant, backend)

        def _submit(shard: ClusterShard):
            future = shard.service.estimate_async(
                query, env, bundle=name, backend=backend
            )

            def _record(done) -> None:
                # The slot rides with the request through the batcher
                # queue; releasing here (success, failure or cancel) is
                # what makes max_inflight bound the async backlog.
                shard.admission.release()
                # Same failure classification as _with_failover: only
                # an unambiguous replica death (ShardDownError) charges
                # shard health.  A request-shaped error — which the
                # batcher fans out to every waiter in the batch — or a
                # cancellation at close() must not eject replicas.
                if done.cancelled():
                    return
                exc = done.exception()
                if exc is None:
                    self.router.record_success(shard.shard_id)
                elif isinstance(exc, ShardDownError):
                    if self.router.record_failure(shard.shard_id):
                        self.events.emit(
                            "shard_ejected",
                            shard=shard.shard_id,
                            reason="health",
                        )

            future.add_done_callback(_record)
            return future

        return self._with_failover(key, _submit, release_on_success=False)

    def record_feedback(
        self,
        query,
        env,
        actual_ms: Optional[float] = None,
        bundle: Optional[str] = None,
        tenant: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> None:
        """Report an actual runtime to the tenant shard's adaptation
        loop (no-op there when adaptation is disabled)."""
        key, name = self._resolve_key(bundle, tenant, backend)
        self._with_failover(
            key,
            lambda shard: shard.service.record_feedback(
                query, env, actual_ms=actual_ms, bundle=name, backend=backend
            ),
        )

    # ------------------------------------------------------------------
    # shard lifecycle (failure injection + operations)
    # ------------------------------------------------------------------
    def kill_shard(self, shard_id: str) -> None:
        """Simulate a replica crash: requests reaching *shard_id* fail
        (and fail over) until the router's threshold ejects it."""
        self._shard(shard_id).killed = True
        self.events.emit("shard_killed", shard=shard_id)

    def revive_shard(self, shard_id: str) -> None:
        """Bring a killed/ejected replica back into routing; exactly
        its rendezvous tenants move back to it."""
        self._shard(shard_id).killed = False
        self.router.recover(shard_id)
        self.events.emit("shard_revived", shard=shard_id)

    def eject(self, shard_id: str) -> None:
        """Remove *shard_id* from routing immediately (no failures
        needed — an operator or external health probe decision)."""
        self.router.eject(shard_id)
        self.events.emit("shard_ejected", shard=shard_id, reason="operator")

    def restart_shard(
        self, shard_id: str, checkpoint_dir=None
    ) -> bool:
        """Replace *shard_id*'s replica with a fresh service and bring
        it back into routing — the per-replica warm-restart path.

        With *checkpoint_dir*, the fresh replica first tries a warm
        boot (:meth:`~repro.serving.CostService.restore`); a corrupt or
        version-mismatched checkpoint fails over to a cold start, never
        an error.  Either way, any deployed bundle the boot did not
        restore is re-deployed from the cluster's retained copies, so
        the replica always serves every tenant.  Returns True on a warm
        boot.  Intended for a killed/ejected replica: in-flight
        requests on a live replica are not drained first.
        """
        shard = self._shard(shard_id)
        old = shard.service
        fresh = self._factory(shard_id)
        warm = False
        if checkpoint_dir is not None:
            warm = fresh.restore(checkpoint_dir)
        with self._lock:
            retained = dict(self._bundle_objects)
        for name, bundle in retained.items():
            if name not in fresh.registry:
                fresh.deploy(bundle, name=name)
        shard.service = fresh
        shard.killed = False
        self.router.recover(shard_id)
        old.close()
        self.events.emit("shard_restarted", shard=shard_id, warm=warm)
        return warm

    # ------------------------------------------------------------------
    # durability (repro.persist)
    # ------------------------------------------------------------------
    def save(self, directory, retain: int = 3) -> Dict[str, object]:
        """Checkpoint every replica under ``directory/<shard_id>/``;
        returns {shard_id: new checkpoint path}."""
        import pathlib

        base = pathlib.Path(directory)
        return {
            shard_id: shard.service.save(base / shard_id, retain=retain)
            for shard_id, shard in sorted(self._shards.items())
        }

    def restore(self, directory) -> Dict[str, bool]:
        """Warm-boot every replica from ``directory/<shard_id>/``;
        returns {shard_id: warm?}.

        Replicas whose checkpoints are missing or unloadable stay cold
        (False) — but never empty: each bundle any warm replica
        restored is re-deployed onto the replicas that lack it (its
        newest restored copy), so every tenant is servable everywhere
        and the failover invariant holds after a partial restore.
        Warm replicas are untouched — their restored versions (and the
        version-keyed caches behind them) stay intact.  The cluster's
        deployment bookkeeping (routing keys, retained bundle copies)
        is rebuilt from the restored registries.
        """
        import pathlib

        base = pathlib.Path(directory)
        warm = {
            shard_id: shard.service.restore(base / shard_id)
            for shard_id, shard in sorted(self._shards.items())
        }
        donors: Dict[str, EstimatorBundle] = {}
        for _shard_id, shard in sorted(self._shards.items()):
            for bundle in shard.service.registry.export_bundles():
                best = donors.get(bundle.name)
                if best is None or bundle.version > best.version:
                    donors[bundle.name] = bundle
        for _shard_id, shard in sorted(self._shards.items()):
            for name, bundle in donors.items():
                if name not in shard.service.registry:
                    shard.service.deploy(bundle, name=name)
        with self._lock:
            for name, bundle in donors.items():
                if name not in self._deployed:
                    self._deployed.append(name)
                self._bundle_objects.setdefault(name, bundle)
        return warm

    def _shard(self, shard_id: str) -> ClusterShard:
        try:
            return self._shards[shard_id]
        except KeyError:
            raise ClusterError(
                f"unknown shard {shard_id!r} "
                f"(shards: {sorted(self._shards)})"
            ) from None

    def shard(self, shard_id: str) -> ClusterShard:
        """The :class:`ClusterShard` for *shard_id* (introspection)."""
        return self._shard(shard_id)

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, object]:
        """Machine-readable counter snapshot for the whole tier.

        A thin view over :attr:`metrics`: ``cluster`` carries
        routing/admission/health totals, ``shards`` nests each
        replica's own :meth:`~repro.serving.CostService.counters`
        snapshot untouched (so existing per-service tooling can point
        one level down), ``events`` and — when tracing — ``tracer``
        follow.  The same registry renders the Prometheus exposition.
        """
        return self.metrics.sections_snapshot()

    def report(self) -> str:
        """Human-readable per-shard routing/health/admission report,
        plus the replicas' summed cache counters, rendered from the
        same registry snapshot :meth:`counters` serves."""
        from ..eval.reporting import render_cluster_report

        snapshot = self.metrics.sections_snapshot()
        return render_cluster_report(
            snapshot["cluster"], snapshot["shards"].values()
        )

    def close(self) -> None:
        """Shut down every replica (adaptation loops, micro-batchers)."""
        for shard in self._shards.values():
            shard.service.close()

    def __enter__(self) -> "ClusterService":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: :meth:`close` the tier."""
        self.close()


__all__ = [
    "ClusterService",
    "ClusterShard",
    "ClusterStats",
    "ServiceFactory",
]
