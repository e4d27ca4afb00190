"""Process-level interpretation-result cache.

Interpretation execution is deterministic per (store content, structured
query, limit): the same candidate network over the same rows always returns
the same joining tuple networks.  :class:`ResultCache` exploits that with one
**process-level store**, shared by every cache instance and keyed on
``(StorageBackend.content_fingerprint(), StructuredQuery.cache_key(),
limit)``: repeated queries within one process (a server, a benchmark suite,
an experiment sweep) skip ``execute_path`` entirely, even across engine
instances and reopens of an unchanged file.  Nothing is written to the
store, so a new process starts cold.

Invalidation is structural: every mutation of a store changes its content
fingerprint, so stale entries are simply unreachable.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.db.table import Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.query import StructuredQuery
    from repro.db.backends.base import StorageBackend

#: One cached result: a list of joining networks of tuples.
Rows = list[tuple[Tuple, ...]]

#: Process-wide store shared by all ResultCache instances (LRU, bounded).
_PROCESS_CACHE: "OrderedDict[tuple[str, str, str], Rows]" = OrderedDict()

#: Guards the process-wide store: the query server fans concurrent queries
#: over one shared cache, and an unguarded ``move_to_end`` can race an LRU
#: eviction (KeyError) or corrupt the recency order.
_PROCESS_CACHE_LOCK = threading.RLock()

#: Default upper bound on process-level entries; small queries dominate, so
#: this is generous without risking unbounded growth in long sweeps.
#: Per-instance overrides (``ResultCache(capacity=...)``, fed by
#: ``EngineConfig.result_cache_size`` / the CLI's ``--cache-size``) bound the
#: shared store at write time instead.
_PROCESS_CACHE_CAPACITY = 4096


@dataclass
class CacheStatistics:
    """Hit/miss accounting, surfaced through ``EngineContext`` / --explain."""

    hits: int = 0
    misses: int = 0
    stores: int = 0


@dataclass
class ResultCache:
    """Deterministic result reuse for one storage backend.

    ``capacity`` bounds the process-level LRU (``None`` keeps the module
    default): the store itself is process-wide, so the bound is enforced on
    every write this instance makes — the smallest active capacity wins,
    which keeps memory predictable when several engines configure different
    sizes.
    """

    backend: "StorageBackend"
    capacity: int | None = None
    statistics: CacheStatistics = field(default_factory=CacheStatistics)

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity < 1:
            raise ValueError("result-cache capacity must be positive")
        # The tokenizer is immutable for the backend's lifetime: digest it
        # once, not per lookup.
        self._tokenizer_digest = hashlib.sha256(
            self.backend.tokenizer.signature().encode("utf-8")
        ).hexdigest()[:8]
        if self.capacity is not None:
            # A mid-run capacity shrink (an engine reconfigured with a smaller
            # ``result_cache_size``) takes effect immediately and
            # deterministically — oldest entries first — rather than waiting
            # for this instance's next write.
            _enforce_capacity(self.capacity)

    # -- keys ---------------------------------------------------------------

    def _store_key(self) -> str:
        """Store identity: the content fingerprint coupled with the
        tokenizer signature.  Keyword selections resolve through the
        tokenizer, so the same rows under a different tokenizer are a
        *different* result set (the persisted-index layer guards on the
        same pair)."""
        return f"{self.backend.content_fingerprint()}-{self._tokenizer_digest}"

    def key(self, query: "StructuredQuery", limit: int | None) -> tuple[str, str, str]:
        """(store identity, canonical query, limit) — the reuse precondition."""
        return (
            self._store_key(),
            query.cache_key(),
            "none" if limit is None else str(limit),
        )

    # -- access -------------------------------------------------------------

    def get(self, query: "StructuredQuery", limit: int | None) -> Rows | None:
        """Cached rows for (store content, query, limit), or None; a hit
        becomes the most recently used entry."""
        key = self.key(query, limit)
        with _PROCESS_CACHE_LOCK:
            rows = _PROCESS_CACHE.get(key)
            if rows is not None:
                _PROCESS_CACHE.move_to_end(key)
        if rows is None:
            self.statistics.misses += 1
            return None
        self.statistics.hits += 1
        return list(rows)

    def put(self, query: "StructuredQuery", limit: int | None, rows: Rows) -> None:
        """Record freshly executed rows under the current fingerprint."""
        key = self.key(query, limit)
        with _PROCESS_CACHE_LOCK:
            _PROCESS_CACHE[key] = list(rows)
            _PROCESS_CACHE.move_to_end(key)
            _enforce_capacity(self.capacity)
        self.statistics.stores += 1

    def flush(self) -> None:
        """Nothing to do: the cache writes nothing outside the process.

        Kept only because ``benchmarks/layered/tracing.py`` wraps ``get``,
        ``put`` and ``flush`` by name; nothing under ``src/`` calls it.
        """

    # -- maintenance --------------------------------------------------------

    @staticmethod
    def resident_entries() -> int:
        """Entries the process-level store holds right now."""
        with _PROCESS_CACHE_LOCK:
            return len(_PROCESS_CACHE)

    @staticmethod
    def clear_process_cache() -> None:
        """Drop the process-level store (tests use this to start cold)."""
        with _PROCESS_CACHE_LOCK:
            _PROCESS_CACHE.clear()


def _enforce_capacity(capacity: int | None) -> None:
    """Bound the shared LRU, evicting least-recently-used entries first.

    The eviction order is the ``OrderedDict``'s recency order, so repeated
    shrinks are deterministic regardless of which instance triggers them.
    """
    if capacity is None:
        capacity = _PROCESS_CACHE_CAPACITY
    with _PROCESS_CACHE_LOCK:
        while len(_PROCESS_CACHE) > capacity:
            _PROCESS_CACHE.popitem(last=False)
