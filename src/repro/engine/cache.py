"""Cross-session interpretation-result cache.

Interpretation execution is deterministic per (store content, structured
query, limit): the same candidate network over the same rows always returns
the same joining tuple networks.  :class:`ResultCache` exploits that with two
layers keyed on ``(StorageBackend.content_fingerprint(),
StructuredQuery.cache_key(), limit)``:

* a **process-level store** shared by every cache instance — repeated queries
  within one process (a benchmark suite, an experiment sweep) skip
  ``execute_path`` entirely, even across engine instances, and
* a **persistent layer** delegated to the backend's
  ``cached_result_get``/``cached_result_put`` hooks — the SQLite backend
  keeps payloads in a ``_repro_result_cache`` side table, so a *new process*
  (the next CLI run) starts warm.

Persistence is something an entry **earns**.  ``put`` only stores the rows
in the process layer and marks the key *unsaved*; the entry is encoded and
handed to the backend at one of two durability points:

* its **first reuse** (the *second sight*: the first process-layer hit on an
  unsaved key) — committed by that run's ``flush()``, and
* its **store's close** — the backend runs the cache's drain first thing in
  ``close()``, which saves whatever is still resident and unsaved.

An entry evicted before either is never written, so the side table is
bounded by the LRU plus what was actually reused.  The costs: a process
killed with ``-9`` loses entries it never reused; a forked sibling worker
sees an entry after its first reuse or the owner's close, not after every
run; and the LRU is no longer backed by an unbounded second tier for
once-seen entries.

Invalidation is structural: every mutation of a store changes its content
fingerprint, so stale entries are simply unreachable; the persistent layer
additionally purges entries of superseded fingerprints on write.
"""

from __future__ import annotations

import hashlib
import json
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

#: Resident keys whose rows no persistent layer holds yet (see the module
#: docstring).  Lives beside the store under its lock and is always a subset
#: of its keys — eviction drops the mark with the entry — so the LRU's own
#: bound is the only bound it needs.  Whoever removes a mark does the save.
_UNSAVED: "set[tuple[str, str, str]]" = set()

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

    ``persist`` defaults to the backend's persistence: on durable stores an
    entry reaches the backend's cached-result side storage at its first
    reuse or when the store closes (never at :meth:`put`), in-memory stores
    use only the process-level layer.  ``capacity`` bounds the process-level
    LRU (``None`` keeps the module default): the store itself is
    process-wide, so the bound is enforced on every write this instance
    makes — the smallest active capacity wins, which keeps memory
    predictable when several engines configure different sizes.
    """

    backend: "StorageBackend"
    persist: bool | None = None
    capacity: int | None = None
    statistics: CacheStatistics = field(default_factory=CacheStatistics)

    def __post_init__(self) -> None:
        if self.persist is None:
            self.persist = self.backend.is_persistent
        if self.capacity is not None and self.capacity < 1:
            raise ValueError("result-cache capacity must be positive")
        # The tokenizer is immutable for the backend's lifetime: digest it
        # once, not per lookup.
        self._tokenizer_digest = hashlib.sha256(
            self.backend.tokenizer.signature().encode("utf-8")
        ).hexdigest()[:8]
        if self.persist:
            self.backend.drain_on_close(self._save_unsaved)
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
        """Cached rows for (store content, query, limit), or None.

        Checks the process layer first (promoting the entry), then the
        persistent layer (re-remembering a decoded payload).  A process-layer
        hit on an unsaved key is the entry's *second sight*: it has earned
        persistence and is saved here, once.
        """
        key = self.key(query, limit)
        second_sight = False
        with _PROCESS_CACHE_LOCK:
            rows = _PROCESS_CACHE.get(key)
            if rows is not None:
                _PROCESS_CACHE.move_to_end(key)
                if self.persist and key in _UNSAVED:
                    _UNSAVED.discard(key)
                    second_sight = True
        if second_sight:
            self._save(key, rows)  # outside the lock: a backend call
        elif rows is None and self.persist:
            payload = self.backend.cached_result_get(key[0], f"{key[1]}#{key[2]}")
            if payload is not None:
                rows = _decode_rows(payload)
                if rows is not None:
                    _remember(key, rows, self.capacity)
        if rows is None:
            self.statistics.misses += 1
            return None
        self.statistics.hits += 1
        return list(rows)

    def put(self, query: "StructuredQuery", limit: int | None, rows: Rows) -> None:
        """Record freshly executed rows under the current fingerprint.

        Process layer only: the entry is marked unsaved and reaches the
        persistent layer at its first reuse or at the store's close.
        """
        _remember(self.key(query, limit), list(rows), self.capacity, unsaved=True)
        self.statistics.stores += 1

    def _save(self, key: tuple[str, str, str], rows: Rows) -> None:
        """Encode one entry and hand it to the backend's put buffer; skipped
        when the rows are not serializable (the process layer still works).
        The caller has removed the key's unsaved mark."""
        payload = _encode_rows(rows)
        if payload is not None:
            self.backend.cached_result_put(key[0], f"{key[1]}#{key[2]}", payload)

    def _save_unsaved(self) -> None:
        """The backend's close drain: save what is still resident and
        unsaved under this store's identity (least recently used first).
        The backend's own final flush commits it."""
        store_key = self._store_key()
        with _PROCESS_CACHE_LOCK:
            entries = [
                (key, rows)
                for key, rows in _PROCESS_CACHE.items()
                if key[0] == store_key and key in _UNSAVED
            ]
            _UNSAVED.difference_update(key for key, _rows in entries)
        for key, rows in entries:
            self._save(key, rows)

    def fetch(self, query: "StructuredQuery", limit: int | None) -> Rows:
        """Get-or-execute: the one-call form of :meth:`get` + :meth:`put`."""
        rows = self.get(query, limit)
        if rows is None:
            rows = query.execute(self.backend, limit=limit)
            self.put(query, limit, rows)
            self.flush()
        return rows

    def flush(self) -> None:
        """Make the entries this run saved durable (one commit, many saves).

        ``ExecuteStage`` calls this once per pipeline run; a run that reused
        no unsaved entry has nothing buffered and the backend returns at
        once.
        """
        if self.persist:
            self.backend.cached_result_flush()

    # -- maintenance --------------------------------------------------------

    @staticmethod
    def clear_process_cache() -> None:
        """Drop the process-level layer (tests use this to simulate a fresh
        process; persistent side tables are untouched)."""
        with _PROCESS_CACHE_LOCK:
            _PROCESS_CACHE.clear()
            _UNSAVED.clear()


def _remember(
    key: tuple[str, str, str],
    rows: Rows,
    capacity: int | None = None,
    *,
    unsaved: bool = False,
) -> None:
    """Store ``rows`` as the most recent entry.  ``unsaved`` marks a fresh
    execution no persistent layer holds; a key that is already resident keeps
    its state (its rows are the same rows, saved or waiting to be)."""
    with _PROCESS_CACHE_LOCK:
        if unsaved and key not in _PROCESS_CACHE:
            _UNSAVED.add(key)
        _PROCESS_CACHE[key] = rows
        _PROCESS_CACHE.move_to_end(key)
        _enforce_capacity(capacity)


def _enforce_capacity(capacity: int | None) -> None:
    """Bound the shared LRU, evicting least-recently-used entries first.

    The eviction order is the ``OrderedDict``'s recency order, so repeated
    shrinks are deterministic regardless of which instance triggers them.
    """
    if capacity is None:
        capacity = _PROCESS_CACHE_CAPACITY
    with _PROCESS_CACHE_LOCK:
        while len(_PROCESS_CACHE) > capacity:
            key, _rows = _PROCESS_CACHE.popitem(last=False)
            _UNSAVED.discard(key)  # evicted before it was reused: never written


def _encode_rows(rows: Rows) -> str | None:
    """JSON payload for the persistent layer (None when not serializable).

    Values must survive a JSON round trip unchanged; anything beyond
    int/str/float/None (or a bool, which JSON would preserve but SQLite
    storage normalizes to int) skips persistence — the process layer still
    works.
    """

    def safe(value: object) -> bool:
        return value is None or (
            isinstance(value, (int, str, float)) and not isinstance(value, bool)
        )

    for network in rows:
        for tup in network:
            if not safe(tup.key) or not all(safe(v) for _n, v in tup.values):
                return None
    return json.dumps(
        [
            [[tup.table, tup.key, [list(pair) for pair in tup.values]] for tup in network]
            for network in rows
        ]
    )


def _decode_rows(payload: str) -> Rows | None:
    """Rows back from a persistent payload (None on corrupt data)."""
    try:
        decoded = json.loads(payload)
        return [
            tuple(
                Tuple(table, key, tuple((name, value) for name, value in values))
                for table, key, values in network
            )
            for network in decoded
        ]
    except (ValueError, TypeError):
        return None
