"""Subsumption-aware semantic result cache + workload-driven warming.

Both exact cache layers key on the canonical query, so a *near-miss* variant
of a hot query — the common case under Zipfian keyword traffic — pays full
execution.  :class:`SemanticResultCache` closes that gap: alongside every
cached entry it records the :class:`~repro.db.backends.sql.PathPlan` the
entry was executed under, and on an exact-key miss it searches those plans
for one that *subsumes* the new query's plan:

* same join network (``path`` and ``edges`` equal),
* same ORDER BY shape (``PathPlan.order_signature``; slot 0 flips between
  insertion order and key-``repr()`` order with its filter, so a
  filtered-vs-unfiltered base slot must not reuse the other's rows),
* key filters a superset (or equal, or absent) at every position, and
* enough cached rows to be *complete* for the new request's LIMIT.

A subsuming entry answers in Python — drop the networks the new query's
tighter key filters exclude (exactly ``PathPlan.keeps`` semantics), truncate
to the new limit — touching zero backend statements.  Because the order
signatures match, filtering preserves the exact row order uncached execution
would produce; the parity suite pins byte-identical rows across backends.

Plan metadata persists beside the cached rows (a ``...#plan`` sibling key in
the backend's result-cache side table), so subsumption survives process
restarts on persistent stores.  It is handed to the backend at the same
moment as the rows payload — the entry's first reuse or its store's close —
so a restart never scans a plan whose rows were not written.

The module also hosts the **workload warmer**: given a recorded query log
(see :func:`repro.datasets.workload.recorded_query_log`), it replays the
top-N hottest queries through the engine on open — *coldest first*, so the
LRU recency order protects the hottest entries if warming overflows the
configured capacity, and N is clamped to that capacity so warming can never
evict hotter entries than it adds.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.db.backends.sql import PathPlan, plan_path
from repro.db.schema import ForeignKey
from repro.engine.cache import (
    _PROCESS_CACHE_CAPACITY,
    _remember,
    ResultCache,
    Rows,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.query import StructuredQuery
    from repro.engine.engine import QueryEngine

#: Plan metadata persists under ``<cache_key>#<limit>#plan`` — right beside
#: the rows entry ``<cache_key>#<limit>``.  The suffix is unambiguous: the
#: limit segment is ``none`` or digits, so it never contains ``#``.
PLAN_KEY_SUFFIX = "#plan"


@dataclass
class SemanticCacheStatistics:
    """Subsumption accounting, surfaced through ``--explain``.

    Exact hits and misses stay on the base ``CacheStatistics``; a
    subsumption hit is counted in *both* ``CacheStatistics.hits`` (it is a
    hit — no execution happened) and ``subsumption_hits`` here, so
    ``hits - subsumption_hits`` is the exact-hit count.
    """

    subsumption_hits: int = 0
    #: Rows a subsuming entry held that the narrower query filtered out.
    rows_filtered: int = 0
    #: Rows surviving the filter that the new, lower LIMIT truncated.
    rows_truncated: int = 0
    #: Plan metadata entries recorded (puts + derived answers).
    plans_recorded: int = 0


@dataclass(frozen=True)
class CachedPlanEntry:
    """One cached entry's plan metadata, as the subsumption catalog holds it."""

    #: The persistent rows key, ``<cache_key>#<limit>`` (catalog identity).
    entry_key: str
    cache_key: str
    limit: int | None
    plan: PathPlan


@dataclass
class SemanticResultCache(ResultCache):
    """A :class:`ResultCache` that answers near-misses by plan subsumption.

    Drop-in compatible: exact gets/puts behave identically (same keys, same
    persistence, same statistics), and every subsumption answer is also
    remembered in the process layer under the new query's exact key, so
    repeats of the variant are plain exact hits.  The plan catalog is
    per-instance and lazily hydrated from the backend's persisted metadata
    (``cached_result_scan``) per store fingerprint.
    """

    semantic_statistics: SemanticCacheStatistics = field(
        default_factory=SemanticCacheStatistics
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        #: store key -> entry key -> plan metadata.
        self._catalog: dict[str, dict[str, CachedPlanEntry]] = {}
        self._catalog_loaded: set[str] = set()
        self._catalog_lock = threading.RLock()

    # -- recording ----------------------------------------------------------

    def put(self, query: "StructuredQuery", limit: int | None, rows: Rows) -> None:
        # Catalog first: once the entry is resident another thread's hit may
        # save it, and :meth:`_save` looks its plan up here.
        plan = self._plan_for(query, limit)
        if plan is not None:
            self._record_plan(self.key(query, limit), plan)
        super().put(query, limit, rows)

    def _save(self, key: tuple[str, str, str], rows: Rows) -> bool:
        """The rows payload, then — only beside it — the entry's plan."""
        if not super()._save(key, rows):
            return False
        entry_key = f"{key[1]}#{key[2]}"
        with self._catalog_lock:
            entry = self._catalog.get(key[0], {}).get(entry_key)
        payload = _encode_plan(entry.plan) if entry is not None else None
        if payload is not None:
            self.backend.cached_result_put(
                key[0], entry_key + PLAN_KEY_SUFFIX, payload
            )
        return True

    def _plan_for(self, query: "StructuredQuery", limit: int | None) -> PathPlan | None:
        """The plan ``query`` executes under, or None (provably empty, or the
        backend cannot plan it — the cache must never break execution)."""
        try:
            path, edges, selections = query.path_spec()
            return self.backend.plan_path_spec(path, edges, selections, limit)
        except Exception:
            return None

    def _record_plan(self, key: tuple[str, str, str], plan: PathPlan) -> None:
        """Catalog one entry's plan (in-process; :meth:`_save` persists it)."""
        store_key, cache_key, limit_str = key
        entry = CachedPlanEntry(
            entry_key=f"{cache_key}#{limit_str}",
            cache_key=cache_key,
            limit=None if limit_str == "none" else int(limit_str),
            plan=plan,
        )
        self._load_catalog(store_key)
        with self._catalog_lock:
            self._catalog.setdefault(store_key, {})[entry.entry_key] = entry
        self.semantic_statistics.plans_recorded += 1

    def _load_catalog(self, store_key: str) -> None:
        """Hydrate one store's catalog from persisted plan metadata, once."""
        with self._catalog_lock:
            if store_key in self._catalog_loaded:
                return
            self._catalog_loaded.add(store_key)
            entries = self._catalog.setdefault(store_key, {})
        if not self.persist:
            return
        scanned = self.backend.cached_result_scan(store_key, "%" + PLAN_KEY_SUFFIX)
        for stored_key, payload in scanned:
            entry = _decode_plan_entry(stored_key, payload)
            if entry is not None:
                with self._catalog_lock:
                    entries.setdefault(entry.entry_key, entry)

    # -- answering ----------------------------------------------------------

    def _miss(self, query: "StructuredQuery", limit: int | None) -> Rows | None:
        """Exact key missed: try to answer from a subsuming cached entry."""
        new_plan = self._plan_for(query, limit)
        if new_plan is None:
            # Provably empty (costs no SQL anyway) or unplannable: a normal
            # miss keeps behavior and counters unchanged.
            return None
        key = self.key(query, limit)
        store_key = key[0]
        own_entry_key = f"{key[1]}#{key[2]}"
        self._load_catalog(store_key)
        with self._catalog_lock:
            candidates = sorted(
                self._catalog.get(store_key, {}).values(),
                key=lambda entry: entry.entry_key,
            )
        for entry in candidates:
            if entry.entry_key == own_entry_key:
                continue  # our own (missed) key cannot answer us
            answered = self._answer_from(entry, new_plan, limit, store_key)
            if answered is not None:
                # The derived rows are the exact answer for (query, limit):
                # remember them process-side (no duplicate persisted payload)
                # so repeats — and further narrowings — hit directly.
                _remember(key, answered, self.capacity)
                self._record_plan(key, new_plan)
                return answered
        return None

    def _answer_from(
        self,
        entry: CachedPlanEntry,
        new_plan: PathPlan,
        limit: int | None,
        store_key: str,
    ) -> Rows | None:
        """Rows for ``new_plan``/``limit`` out of one cached entry, or None."""
        residual = entry.plan.residual_filters(new_plan)
        if residual is None:
            return None
        rows = self._fetch_entry((store_key, entry.cache_key, _limit_str(entry.limit)))
        if rows is None:
            return None  # evicted from both layers; catalog entry is stale
        # Completeness: a cached entry that filled its own LIMIT may have
        # been truncated, so rows the narrower query needs could be missing
        # past the cut.  A pure prefix request (no residual, lower-or-equal
        # limit) is the one safe use of a truncated entry.
        complete = entry.limit is None or len(rows) < entry.limit
        if residual:
            if not complete:
                return None
            kept = [
                network
                for network in rows
                if all(
                    network[position].key in keys
                    for position, keys in residual.items()
                )
            ]
        else:
            if not complete and (limit is None or entry.limit is None or limit > entry.limit):
                return None
            kept = list(rows)
        answered = kept if limit is None else kept[:limit]
        self.semantic_statistics.subsumption_hits += 1
        self.semantic_statistics.rows_filtered += len(rows) - len(kept)
        self.semantic_statistics.rows_truncated += len(kept) - len(answered)
        return answered


def _limit_str(limit: int | None) -> str:
    return "none" if limit is None else str(limit)


# -- plan metadata (de)serialization ------------------------------------------


def _encode_plan(plan: PathPlan) -> str | None:
    """JSON payload of one plan's subsumption-relevant parts (None when the
    filter keys would not survive a JSON round trip — same rule as row
    payloads; the in-process catalog still works)."""

    def safe(value: object) -> bool:
        return value is None or (
            isinstance(value, (int, str, float)) and not isinstance(value, bool)
        )

    filters = plan.key_filter_map()
    for keys in filters.values():
        if not all(safe(key) for key in keys):
            return None
    return json.dumps(
        {
            "path": list(plan.path),
            "edges": [
                [e.source, e.source_attr, e.target, e.target_attr]
                for e in plan.edges
            ],
            "filters": {
                str(position): sorted(keys, key=repr)
                for position, keys in filters.items()
            },
        },
        sort_keys=True,
    )


def _decode_plan_entry(stored_key: str, payload: str) -> CachedPlanEntry | None:
    """One catalog entry back from its persisted form (None on corrupt data)."""
    if not stored_key.endswith(PLAN_KEY_SUFFIX):
        return None
    entry_key = stored_key[: -len(PLAN_KEY_SUFFIX)]
    try:
        cache_key, limit_str = entry_key.rsplit("#", 1)
        limit = None if limit_str == "none" else int(limit_str)
        decoded = json.loads(payload)
        plan = plan_path(
            tuple(decoded["path"]),
            tuple(ForeignKey(*edge) for edge in decoded["edges"]),
            {int(position): set(keys) for position, keys in decoded["filters"].items()},
            limit,
        )
    except (ValueError, TypeError, KeyError):
        return None
    return CachedPlanEntry(
        entry_key=entry_key, cache_key=cache_key, limit=limit, plan=plan
    )


# -- workload-driven warming ---------------------------------------------------


@dataclass(frozen=True)
class WarmingReport:
    """What one :func:`warm_engine` pass did (surfaced by ``--explain``)."""

    #: Distinct queries replayed through the engine.
    queries_replayed: int
    #: Cache entries the replays stored (several interpretations per query).
    entries_stored: int
    #: The cache capacity the replay count was clamped against.
    capacity: int
    #: Events in the recorded log the top-N was ranked over.
    log_events: int
    #: Distinct query texts in the log.
    distinct_queries: int


def top_workload_queries(log: Iterable[str], n: int) -> list[str]:
    """The ``n`` hottest query texts of a recorded log, hottest first.

    Frequency-ranked; ties break by first appearance in the log, so the
    result is deterministic for a deterministic log.
    """
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    for position, text in enumerate(log):
        counts[text] = counts.get(text, 0) + 1
        first_seen.setdefault(text, position)
    ranked = sorted(counts, key=lambda text: (-counts[text], first_seen[text]))
    return ranked[: max(0, n)]


def warm_engine(
    engine: "QueryEngine", log: Sequence[str], top_n: int
) -> WarmingReport:
    """Replay the log's top-``top_n`` queries through ``engine``.

    Sized against the cache capacity (``top_n`` is clamped to it) and
    replayed **coldest first**: the hottest query runs last and is therefore
    the most recent LRU entry, so if the replayed entries overflow the
    capacity the evictions hit the coldest warmed entries — warming never
    evicts a hotter entry in favor of a colder one.  The report lands on
    ``engine.warming`` for ``--explain``.
    """
    log = [str(text) for text in log]
    cache = engine.cache
    capacity = (
        cache.capacity
        if cache is not None and cache.capacity is not None
        else _PROCESS_CACHE_CAPACITY
    )
    hottest_first = (
        top_workload_queries(log, min(top_n, capacity)) if cache is not None else []
    )
    stores_before = cache.statistics.stores if cache is not None else 0
    for text in reversed(hottest_first):
        engine.run(text)
    report = WarmingReport(
        queries_replayed=len(hottest_first),
        entries_stored=(cache.statistics.stores if cache is not None else 0)
        - stores_before,
        capacity=capacity,
        log_events=len(log),
        distinct_queries=len(set(log)),
    )
    engine.warming = report
    return report
