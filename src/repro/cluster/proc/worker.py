"""The worker process: one ``CostService`` behind an IPC socket.

Launched by the supervisor as ``python -m repro.cluster.proc.worker``
with three pieces of argv state:

- ``--conn-fd`` — the worker end of a ``socketpair`` (inherited fd)
  carrying the frame protocol of :mod:`.protocol`;
- ``--sentinel-fd`` — the write end of a pipe the worker merely holds
  open; the parent polls the read end and sees EOF the instant this
  process dies, however it dies (the classic sentinel-fd trick —
  SIGKILL cannot dodge fd cleanup);
- ``--config`` — a JSON :class:`dict` of service knobs, the optional
  ``checkpoint_dir`` to warm-boot from, and fault-injection hooks
  (``boot_delay_s``) used by the crash tests to freeze a worker in a
  chosen lifecycle phase.

Boot sequence: build the service → warm-boot from the newest loadable
``repro.persist`` checkpoint if a spool directory was given → send a
``hello`` frame (carrying pid and warm/cold verdict) → serve frames
until EOF or a ``shutdown`` frame.  The loop is single-threaded on
purpose: a worker process is one CPU lane, and in-order replies keep
the parent's correlation logic trivial.

Every request is answered — with a ``result`` frame, or with a typed
``error`` frame naming a ``repro.errors`` class.  A framing violation
from the parent is unrecoverable by definition (the stream is out of
sync), so the worker replies with a best-effort protocol error and
exits; the parent's sentinel sees the death and handles it like any
other crash.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import time
from typing import Dict, Optional, Tuple

import numpy as np

from ...errors import ProtocolError, ReproError, ServingError
from ...obs import MetricsRegistry
from ...persist import restore_service_checkpoint
from ...serving.service import CostService
from ...serving.snapshot_store import SnapshotStore
from . import protocol
from .shm import AttachedBlobs, open_state


class WorkerRuntime:
    """Per-process serving state: the service plus IPC bookkeeping."""

    def __init__(self, config: Dict[str, object]):
        """Build the service from *config* (no I/O yet)."""
        self.config = config
        self.worker_id = str(config.get("worker_id", "?"))
        self.metrics = MetricsRegistry()
        self.service = CostService(
            snapshot_store=(
                SnapshotStore() if config.get("snapshot_store", True) else None
            ),
            cache_capacity=int(config.get("cache_capacity", 2048)),
            batch_max=int(config.get("batch_max", 64)),
            batch_window_s=float(config.get("batch_window_s", 0.002)),
            snapshot_scale=int(config.get("snapshot_scale", 8)),
            metrics=self.metrics,
            tracer=None,
        )
        self.started = time.monotonic()
        self.requests = 0
        self.errors = 0
        self.warm_booted = False
        self.sync_generation = -1
        #: The registry's per-name deployment counters right after the
        #: last state install; any difference later means this worker
        #: made versions of its own (a snapshot graft) since.
        self._installed_versions: Dict[str, int] = {}
        self._attached: Optional[AttachedBlobs] = None

    # ------------------------------------------------------------------
    # boot
    # ------------------------------------------------------------------
    def warm_boot(self) -> None:
        """Restore from the spool checkpoint directory, if configured.

        Never raises: a damaged spool means a cold start (the parent
        re-syncs state over the wire anyway), not a crash loop.
        """
        directory = self.config.get("checkpoint_dir")
        if not directory:
            return
        delay = float(self.config.get("boot_delay_s", 0.0) or 0.0)
        if delay > 0:
            # Fault-injection hook: hold the worker inside the restore
            # phase so crash tests can SIGKILL it mid-restore.
            time.sleep(delay)
        restored, _ = restore_service_checkpoint(self.service, str(directory))
        self.warm_booted = restored
        self._installed_versions = self.service.registry.versions_snapshot()

    # ------------------------------------------------------------------
    # request handlers
    # ------------------------------------------------------------------
    def handle(
        self, header: Dict[str, object], tail: bytes
    ) -> Tuple[Dict[str, object], bytes]:
        """Dispatch one request frame; returns the reply frame parts."""
        kind = str(header["kind"])
        handler = getattr(self, f"_on_{kind}", None)
        if handler is None:
            raise ProtocolError(f"unknown request kind {kind!r}")
        return handler(header, tail)

    def _on_ping(self, header, tail):
        """Liveness probe; replies with uptime and request totals."""
        return {
            "value": "pong",
            "pid": os.getpid(),
            "uptime_s": time.monotonic() - self.started,
            "requests": self.requests,
        }, b""

    def _on_delay(self, header, tail):
        """Fault-injection hook: occupy the worker for ``seconds`` so
        tests can SIGKILL it mid-flight or exercise timeouts."""
        time.sleep(float(header.get("seconds", 0.0)))
        return {"value": "delayed"}, b""

    def _on_sync(self, header, tail):
        """Install a full service state published by the parent."""
        tree, store, attached = open_state(header, tail)
        from ...persist import decode_state, restore_service

        state = decode_state(tree, store)
        # The parent's deploys only move versions forward, so a sync
        # reuses no (name, version) whose cached features or estimates
        # came from another bundle — unless the parent restored a
        # checkpoint (``drop_caches``), or this worker made a version
        # of its own since the last install, which the parent may yet
        # assign to another bundle.
        diverged = (
            self.service.registry.versions_snapshot()
            != self._installed_versions
        )
        restore_service(
            self.service,
            state,
            drop_shadowed_caches=diverged or bool(header.get("drop_caches")),
        )
        self._installed_versions = self.service.registry.versions_snapshot()
        # Hold the new mapping for the service's lifetime (the arrays
        # alias it); release the previous generation's mapping.
        previous, self._attached = self._attached, attached
        if previous is not None:
            previous.close()
        self.sync_generation = int(header.get("generation", -1))
        return {
            "value": "synced",
            "generation": self.sync_generation,
            "bundles": self.service.registry.names(),
        }, b""

    def _on_estimate(self, header, tail):
        """One synchronous estimate through the full serving path."""
        env = protocol.env_from_wire(header["env"])
        query = protocol.query_from_wire(header["query"])
        bundle = header.get("bundle")
        backend = header.get("backend")
        value = self.service.estimate(
            query,
            env,
            bundle=str(bundle) if bundle is not None else None,
            backend=str(backend) if backend is not None else None,
        )
        return {"value": value}, b""

    def _on_estimate_many(self, header, tail):
        """A batched estimate; predictions return as raw float64."""
        env = protocol.env_from_wire(header["env"])
        queries = [protocol.query_from_wire(q) for q in header["queries"]]
        bundle = header.get("bundle")
        backend = header.get("backend")
        values = self.service.estimate_many(
            queries,
            env,
            bundle=str(bundle) if bundle is not None else None,
            batch_size=int(header.get("batch_size", 64)),
            backend=str(backend) if backend is not None else None,
        )
        fragment, blob = protocol.floats_to_tail(np.asarray(values))
        return {"values": fragment}, blob

    def _on_record_feedback(self, header, tail):
        """Stream one feedback record into the adaptation loop."""
        env = protocol.env_from_wire(header["env"])
        query = protocol.query_from_wire(header["query"])
        bundle = header.get("bundle")
        backend = header.get("backend")
        actual = header.get("actual_ms")
        self.service.record_feedback(
            query,
            env,
            actual_ms=float(actual) if actual is not None else None,
            bundle=str(bundle) if bundle is not None else None,
            backend=str(backend) if backend is not None else None,
        )
        return {"value": "recorded"}, b""

    def _on_counters(self, header, tail):
        """The worker's full metrics snapshot for parent-side folding."""
        sections = _json_safe(self.service.counters())
        return {
            "value": {
                "pid": os.getpid(),
                "worker_id": self.worker_id,
                "uptime_s": time.monotonic() - self.started,
                "requests": self.requests,
                "errors": self.errors,
                "warm_booted": self.warm_booted,
                "generation": self.sync_generation,
                "sections": sections,
            }
        }, b""

    def _on_shutdown(self, header, tail):
        """Acknowledge; the serve loop exits after this reply."""
        return {"value": "bye"}, b""

    def close(self) -> None:
        """Release the service and any attached shared mapping."""
        self.service.close()
        if self._attached is not None:
            self._attached.close()
            self._attached = None


def _json_safe(value: object) -> object:
    """Counters snapshots may hold numpy scalars; fold to JSON types."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def serve(conn: socket.socket, runtime: WorkerRuntime) -> int:
    """The frame loop: recv → handle → reply, until EOF/shutdown.

    Returns the process exit code.  ``ReproError`` from a handler
    becomes a typed error frame and the loop continues; an unexpected
    exception becomes an error frame too but is considered fatal — the
    worker's internal state is suspect, so it exits and lets the
    supervisor decide between revive and eject.
    """
    while True:
        try:
            frame = protocol.recv_frame(conn)
        except ReproError:
            # Out-of-sync stream: unrecoverable by definition.  Tell
            # the parent (best effort) and die; the sentinel fd turns
            # this into a normal death for the supervisor.
            runtime.errors += 1
            _send_error(conn, 0, ProtocolError("worker lost frame sync"))
            return 2
        if frame is None:
            return 0  # parent closed the connection: clean retirement
        header, tail = frame
        request_id = int(header["id"])
        runtime.requests += 1
        try:
            payload, blob = runtime.handle(header, tail)
        except ReproError as exc:
            runtime.errors += 1
            _send_error(conn, request_id, exc)
            continue
        except Exception as exc:  # noqa: BLE001 — fatal, reported typed
            runtime.errors += 1
            _send_error(
                conn,
                request_id,
                ServingError(f"worker failed unexpectedly: {exc!r}"),
            )
            return 3
        reply = {"id": request_id, "kind": "result", **payload}
        try:
            protocol.send_frame(conn, reply, blob)
        except ReproError:
            return 0  # parent went away; nothing left to serve
        if header.get("kind") == "shutdown":
            return 0


def _send_error(conn: socket.socket, request_id: int, exc: ReproError) -> None:
    """Best-effort typed error reply (send failures are moot here)."""
    try:
        protocol.send_frame(
            conn,
            {
                "id": request_id,
                "kind": "error",
                "error": protocol.error_to_wire(exc),
            },
        )
    except ReproError:
        pass  # connection already gone; the error dies with it


def main(argv=None) -> int:
    """Entry point for ``python -m repro.cluster.proc.worker``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--conn-fd", type=int, required=True)
    parser.add_argument("--sentinel-fd", type=int, required=True)
    parser.add_argument("--config", type=str, default="{}")
    args = parser.parse_args(argv)

    # The sentinel fd is never written: the parent detects EOF on its
    # read end when this process exits.  Keeping the integer alive in
    # a local is all that is required.
    sentinel_fd = args.sentinel_fd
    try:
        config = json.loads(args.config)
    except json.JSONDecodeError:
        return 2
    conn = socket.socket(fileno=args.conn_fd)
    runtime = WorkerRuntime(config)
    runtime.warm_boot()
    protocol.send_frame(
        conn,
        {
            "id": 0,
            "kind": "hello",
            "pid": os.getpid(),
            "sentinel_fd": sentinel_fd,
            "warm": runtime.warm_booted,
        },
    )
    try:
        return serve(conn, runtime)
    finally:
        runtime.close()
        try:
            conn.close()
        except OSError:
            pass


if __name__ == "__main__":  # pragma: no cover - exercised via Popen
    sys.exit(main())
