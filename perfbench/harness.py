"""Measurement plumbing shared by the workloads.

Closed-loop clients, in-memory span recording with self times, the host
fingerprint and calibration probe, per-process CPU and peak-RSS readers
(from ``/proc``), and the proc-tier hygiene check.  Everything here
observes the program from outside: no span or counter is added to
``src/``.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import resource
import signal
import threading
import time
import traceback
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Prefix of the proc tier's POSIX shared-memory segments in /dev/shm.
SHM_PREFIX = "qcfe-shm-"
DEV_SHM = "/dev/shm"


#: Width of the slices a measured window is cut into.
SLICE_S = 0.5


def pct(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (linear interpolation); 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# ----------------------------------------------------------------------
# closed-loop clients
# ----------------------------------------------------------------------
@dataclass
class LoopResult:
    """What one closed-loop window measured."""

    #: (input index, returned value, latency s, plans, end s) per
    #: successful call, in input order; end is relative to the start.
    outputs: List[Tuple[int, object, float, int, float]]
    issued: int
    failed: int
    #: Plans estimated by the successful calls.
    units: int
    elapsed_s: float
    first_error: Optional[str] = None

    @property
    def latencies_s(self) -> List[float]:
        """Latency of every successful call that estimated plans."""
        return [o[2] for o in self.outputs if o[3]]

    @property
    def rate(self) -> float:
        """Plans per second over the whole window."""
        return self.units / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def _slices(self, width_s: float) -> List[List[Tuple]]:
        """The estimating calls of each whole *width_s* slice, by end
        time (empty when fewer than three slices fit)."""
        count = int(self.elapsed_s // width_s)
        if count < 3:
            return []
        slices: List[List[Tuple]] = [[] for _ in range(count)]
        for output in self.outputs:
            slot = int(output[4] // width_s)
            if slot < count and output[3]:
                slices[slot].append(output)
        return slices

    def median_rate(self, width_s: float = SLICE_S) -> float:
        """Plans per second: the median of the *width_s* slices' rates
        (the whole-window rate when fewer than three fit), so a burst
        of host noise moves a slice, not the result."""
        slices = self._slices(width_s)
        if not slices:
            return self.rate
        return float(np.median([sum(o[3] for o in s) for s in slices])) / width_s

    def median_latency(self, q: float, width_s: float = SLICE_S) -> float:
        """The *q*-th latency percentile in seconds: the median of the
        slices' own *q*-th percentiles (over the whole window when fewer
        than three slices fit)."""
        slices = [s for s in self._slices(width_s) if s]
        if not slices:
            return pct(self.latencies_s, q)
        return float(np.median([pct([o[2] for o in s], q) for s in slices]))


def closed_loop(
    call: Callable[[int], Tuple[object, int]],
    clients: int,
    seconds: float,
    start_index: int = 0,
    depth: int = 1,
) -> LoopResult:
    """Run *clients* threads, each calling ``call(index)`` back to back
    until *seconds* have passed; indices are handed out in order from
    *start_index*, so the input stream is the same whatever the thread
    interleaving.  ``call`` returns ``(value, plans_estimated)``.

    With *depth* > 1, ``call(index)`` submits and returns a waiter (a
    zero-argument callable giving the result), and each client keeps up
    to *depth* calls in flight, waiting on its oldest first: still a
    closed loop, but one that keeps the served processes busy.  A
    call's latency runs from its submission to its result.

    A call that raises counts as failed (the first traceback is kept);
    the window keeps running, as a load generator must.
    """
    counter = itertools.count(start_index)
    per_thread = [([], [0, 0, 0]) for _ in range(clients)]
    errors: List[str] = []
    barrier = threading.Barrier(clients + 1)
    window = {"deadline": 0.0, "start": 0.0}

    def client(slot: int) -> None:
        outputs, tally = per_thread[slot]
        barrier.wait()
        deadline = window["deadline"]
        clock = time.perf_counter
        origin = window["start"]
        pending: deque = deque()
        while True:
            if len(pending) < depth and clock() < deadline:
                index = next(counter)
                tally[0] += 1
                pending.append((index, clock()))
                try:
                    pending[-1] += (call(index),)
                except Exception:  # noqa: BLE001 - a load generator keeps going
                    pending.pop()
                    tally[1] += 1
                    if not errors:
                        errors.append(traceback.format_exc())
                    continue
                if len(pending) < depth:
                    continue
            if not pending:
                break
            index, start, handle = pending.popleft()
            try:
                value, units = handle() if depth > 1 else handle
            except Exception:  # noqa: BLE001 - a load generator keeps going
                tally[1] += 1
                if not errors:
                    errors.append(traceback.format_exc())
                continue
            end = clock()
            outputs.append((index, value, end - start, units, end - origin))
            tally[2] += units

    threads = [
        threading.Thread(target=client, args=(slot,), daemon=True)
        for slot in range(clients)
    ]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    window["start"] = start
    window["deadline"] = start + seconds
    barrier.wait()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    outputs = sorted(
        (o for outs, _ in per_thread for o in outs), key=lambda o: o[0]
    )
    issued = sum(t[0] for _, t in per_thread)
    failed = sum(t[1] for _, t in per_thread)
    units = sum(t[2] for _, t in per_thread)
    return LoopResult(
        outputs, issued, failed, units, elapsed, errors[0] if errors else None
    )


def warm_until_steady(
    run_window: Callable[[float], LoopResult],
    window_s: float = 1.0,
    tolerance: float = 0.1,
    max_windows: int = 8,
    min_windows: int = 3,
) -> Tuple[float, List[float]]:
    """Run warm-up windows until the rate of two consecutive windows
    differs by less than *tolerance*; returns (seconds spent, rates)."""
    start = time.perf_counter()
    rates: List[float] = []
    for _ in range(max_windows):
        rates.append(run_window(window_s).rate)
        if len(rates) >= min_windows:
            prev, last = rates[-2], rates[-1]
            if prev > 0 and abs(last - prev) / prev < tolerance:
                break
    return time.perf_counter() - start, rates


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class SpanRecorder:
    """Spans from the benchmark's own code, kept in memory.

    Each span is ``(id, parent id, name, start, end, thread cpu s)``;
    the parent is the innermost open span of the same thread, so one
    request's spans form a tree under its ``request`` span.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, float, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        cpu0 = time.thread_time()
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu0
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, cpu))

    def durations(self, name: str) -> List[float]:
        """Wall seconds of every span called *name*."""
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def cpu_share(self, name: str) -> float:
        """Thread CPU time over wall time, summed over *name*'s spans."""
        wall = cpu = 0.0
        for span in self.spans:
            if span[2] == name:
                wall += span[4] - span[3]
                cpu += span[5]
        return cpu / wall if wall > 0 else 0.0

    def self_times(self, name: str) -> List[float]:
        """Each *name* span's duration minus the part its children
        cover (children run on the span's own thread, one at a time,
        so they never overlap)."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span[1]:
                covered[span[1]] = covered.get(span[1], 0.0) + span[4] - span[3]
        return [
            (s[4] - s[3]) - covered.get(s[0], 0.0)
            for s in self.spans
            if s[2] == name
        ]

    def by_request(self) -> Dict[int, Dict[str, float]]:
        """Per request span: the summed duration of each child name."""
        roots = {s[0] for s in self.spans if s[2] == "request"}
        out: Dict[int, Dict[str, float]] = {root: {} for root in roots}
        for span in self.spans:
            if span[1] in out:
                child = out[span[1]]
                child[span[2]] = child.get(span[2], 0.0) + span[4] - span[3]
        return out

    def write(self, path: str) -> None:
        """Write every span as JSON (times relative to the first)."""
        origin = min((s[3] for s in self.spans), default=0.0)
        rows = [
            [sid, parent, name, start - origin, end - origin, cpu]
            for sid, parent, name, start, end, cpu in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["id", "parent", "name", "start_s", "end_s",
                            "thread_cpu_s"], "spans": rows},
                handle,
            )


# ----------------------------------------------------------------------
# host context
# ----------------------------------------------------------------------
def host_fingerprint() -> Dict[str, object]:
    """Cores, Python, numpy/BLAS and the load average at start."""
    try:
        usable = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        usable = os.cpu_count() or 1
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": usable,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "loadavg_1m": round(os.getloadavg()[0], 2),
    }


def calibration_ms(loops: int = 200, repeats: int = 7) -> float:
    """Median ms of a pinned ``blocked_matmul`` loop (64x64 @ 64x64,
    fixed inputs): a host-speed yardstick to read the timings against."""
    from repro.nn.batched import blocked_matmul

    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 64))
    weight = rng.standard_normal((64, 64))
    bias = rng.standard_normal(64)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            blocked_matmul(x, weight, bias)
        samples.append((time.perf_counter() - start) * 1e3)
    return float(np.median(samples))


def usable_cores() -> int:
    """Cores this process may run on (the proc-mixed worker count)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# process readers
# ----------------------------------------------------------------------
_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of *pid* so far (all its threads)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # fields[0] is the state (stat field 3); utime/stime are 14 and 15.
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set of *pid* (default: this process) in MiB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _alive(pid: int) -> bool:
    """True while *pid* exists and is not a reaped-or-zombie exit."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def proc_hygiene(
    worker_pids: Iterable[int], timeout_s: float = 5.0
) -> Tuple[List[str], List[int]]:
    """After a proc tier closed: (leaked shm segments, surviving pids).

    Survivors are waited for up to *timeout_s*, then killed and reaped,
    and leaked segments owned by this process are unlinked, so a failed
    check still leaves the host clean.
    """
    pids = [pid for pid in worker_pids if pid]
    deadline = time.monotonic() + timeout_s
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = [pid for pid in pids if _alive(pid)]
    for pid in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    prefix = f"{SHM_PREFIX}{os.getpid()}-"
    try:
        leaked = sorted(n for n in os.listdir(DEV_SHM) if n.startswith(prefix))
    except OSError:
        leaked = []
    for name in leaked:
        try:
            os.unlink(os.path.join(DEV_SHM, name))
        except OSError:
            pass
    return leaked, survivors


def stop_children(timeout_s: float = 10.0) -> List[int]:
    """Stop every child process of this one and wait for each to end;
    returns the pids that had to be killed.

    The proc tier's parent publishes its weights through
    ``multiprocessing.shared_memory``, which starts the resource
    tracker: a child that only exits once this process has, and then
    stays behind unreaped.  It is stopped and reaped here, and any other
    child is given *timeout_s* to exit before it is killed and reaped.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            children.append(int(entry))
    killed = []
    deadline = time.monotonic() + timeout_s
    for pid in children:
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            if time.monotonic() >= deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
                killed.append(pid)
                break
            time.sleep(0.05)
    return killed
