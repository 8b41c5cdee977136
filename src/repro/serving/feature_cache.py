"""LRU cache for per-plan encoded features.

Featurization is a real fraction of online estimation cost (building
the per-node one-hot/numeric vectors walks the plan and the catalog),
and production traffic repeats plans heavily — the same prepared
statement arrives thousands of times with identical plans.  The cache
memoises :meth:`CostEstimator.prepare_one` results keyed by plan
fingerprint (see :mod:`repro.featurization.fingerprint`), so a repeated
plan goes straight to the predictor.

Thread-safe; eviction is least-recently-used.  Concurrent misses on
the same key are coalesced: exactly one caller runs ``compute()``
while the rest block on its in-flight result (no stampede), and a
computed value of ``None`` (or any falsy value) is cached like any
other — "no cacheable form" is a result, not a miss.
"""

from __future__ import annotations

import copy
import dataclasses
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterator, Optional, Tuple

from ..errors import ServingError
from ..obs.lockwatch import make_lock

#: Internal marker distinguishing "key absent" from "None was cached".
_MISSING = object()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters, exposed on service reports.

    ``coalesced`` counts callers that neither hit nor computed: they
    arrived while another thread's ``compute()`` for the same key was
    in flight and waited for its result.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    coalesced: int = 0

    @property
    def requests(self) -> int:
        """Total lookups: hits + misses + coalesced waits."""
        return self.hits + self.misses + self.coalesced

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that avoided a fresh compute."""
        total = self.requests
        return (self.hits + self.coalesced) / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view (counters plus derived rates).  Enumerated
        from the dataclass fields so a newly added counter can never
        silently go missing from reports and bench deltas."""
        out: Dict[str, object] = {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
        }
        out["requests"] = self.requests
        out["hit_rate"] = self.hit_rate
        return out


class FeatureCache:
    """Bounded LRU mapping a hashable key -> computed value: plan
    fingerprint -> prepared features, or the service's plan memo."""

    def __init__(self, capacity: int = 2048):
        if capacity < 1:
            raise ServingError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        #: Keys being computed -> the Future their waiters block on
        #: (None until the first waiter arrives).
        self._inflight: Dict[Hashable, "Optional[Future[object]]"] = {}
        self._lock = make_lock("serving.feature_cache")

    # ------------------------------------------------------------------
    def get(self, key: Hashable):
        """The cached value, or None on miss (counts either way).

        Cannot distinguish a cached ``None`` from a miss; callers that
        cache falsy values should use :meth:`lookup` or
        :meth:`get_or_compute`.
        """
        found, value = self.lookup(key)
        return value if found else None

    def lookup(self, key: Hashable) -> Tuple[bool, object]:
        """(found, value) — unambiguous even for cached ``None``."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return True, value
            self.stats.misses += 1
            return False, None

    def put(self, key: Hashable, value: object) -> None:
        """Insert *value* under *key*, evicting past capacity."""
        with self._lock:
            self._store(key, value)

    def _store(self, key: Hashable, value: object) -> None:
        """Insert under the held lock, evicting past capacity."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def get_or_compute(self, key: Hashable, compute: Callable[[], object]):
        """Cached value, computing and inserting on miss.

        Stampede-safe: concurrent misses on the same key run
        ``compute()`` exactly once — the first caller computes while
        the rest wait on the in-flight result.  If the leader's
        ``compute()`` raises, the waiters see the same exception and
        the key is left uncached (the next caller retries).
        """
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return value
            inflight = self._inflight.get(key, _MISSING)
            if inflight is _MISSING:
                self.stats.misses += 1
                # No waiter yet, so no Future: the first waiter makes
                # it, and an uncontended miss never allocates one.
                self._inflight[key] = None
            else:
                if inflight is None:
                    inflight = self._inflight[key] = Future()
                self.stats.coalesced += 1
        if inflight is not _MISSING:
            return inflight.result()
        try:
            value = compute()
        except BaseException as exc:
            with self._lock:
                waiters = self._inflight.pop(key, None)
            if waiters is not None:
                waiters.set_exception(exc)
            raise
        with self._lock:
            self._store(key, value)
            waiters = self._inflight.pop(key, None)
        if waiters is not None:
            waiters.set_result(value)
        return value

    # ------------------------------------------------------------------
    # checkpoint support (repro.persist)
    # ------------------------------------------------------------------
    def export_entries(self) -> "list[Tuple[str, object]]":
        """``(key, prepared value)`` pairs, LRU → MRU order (a restore
        replaying them in order reproduces the eviction order)."""
        with self._lock:
            return list(self._entries.items())

    def restore_entries(self, entries: "list[Tuple[str, object]]") -> int:
        """Install checkpoint-restored *entries* in the given LRU
        order, respecting capacity; returns how many were installed."""
        installed = 0
        with self._lock:
            for key, value in entries:
                self._store(str(key), value)
                installed += 1
        return installed

    def stats_snapshot(self) -> CacheStats:
        """A consistent copy of the counters.

        Counters mutate under the cache lock, so reading the live
        :attr:`stats` fields one by one from another thread can observe
        torn totals (a hit counted but its request not yet visible).
        The snapshot is taken under the same lock and never mutates.
        """
        with self._lock:
            return copy.copy(self.stats)

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> Iterator[str]:
        """The cached keys, LRU-ordered (a point-in-time copy)."""
        with self._lock:
            return iter(list(self._entries))
