"""Top-k query processing with early stopping (Section 2.2.5).

Given a relevance-ranked list of query interpretations, the naive strategy
executes every interpretation, unions the results and sorts — wasteful when
only the best k results are wanted.  DISCOVER2's optimization (in the spirit
of Fagin's Threshold Algorithm) executes interpretations in rank order and
stops as soon as k results have scores no lower than the best possible score
of any unexecuted interpretation.

Here the score of a result row is the (normalized) probability of the
interpretation that produced it, so the upper bound for interpretation i+1..n
is simply P(Q_{i+1}) — monotonicity holds by construction.  The executor
reports how many interpretations it actually ran, which the ablation bench
compares against the naive execute-everything strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.interpretation import Interpretation
from repro.db.backends.base import StorageBackend, StreamedExecution

if TYPE_CHECKING:  # pragma: no cover - avoids a core <-> engine import cycle
    from repro.core.query import StructuredQuery
    from repro.engine.cache import ResultCache

#: "No lookahead row pulled yet" marker of the stream consumer (``None``
#: means the stream is exhausted, so it cannot double as the marker).
_PENDING = object()

#: Interpretations per execution batch on backends that serve several join
#: paths per statement (``supports_batched_execution``).
BATCH_WIDTH = 16


def batch_width(backend: StorageBackend) -> int:
    """Interpretations one backend stream should cover.

    Derived, not configured: a backend that batches specs into one statement
    gets :data:`BATCH_WIDTH` of them per stream; everywhere else a stream
    executes spec by spec, so width 1 keeps the TA bound checked before every
    single execution — no interpretation past the stopping point ever runs.
    """
    return BATCH_WIDTH if backend.supports_batched_execution else 1


@dataclass(frozen=True)
class TopKResult:
    """One emitted result row with its provenance."""

    score: float
    interpretation_rank: int  # 1-based rank of the producing interpretation
    row: tuple

    def row_uids(self) -> tuple[tuple[str, Any], ...]:
        return tuple(t.uid for t in self.row)


@dataclass
class TopKStatistics:
    """Work accounting for the early-stopping and batching comparisons.

    ``interpretations_executed`` counts *actual* interpretation executions: an
    interpretation whose rows come out of the result cache costs no execution
    and shows up in ``cache_hits`` instead.  ``sql_statements`` counts the
    physical statements those executions needed, as reported by the backend
    (a provably-empty selection costs none) — at most one per interpretation,
    (much) smaller when the backend batches several interpretations per
    ``UNION ALL`` statement.
    """

    interpretations_executed: int = 0
    rows_materialized: int = 0
    stopped_early: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    #: Physical query statements issued against the backend.
    sql_statements: int = 0
    #: Number of backend streams opened (fully cache-served batches open none).
    batches: int = 0
    #: Rows consumed from backend streams.
    rows_streamed: int = 0
    #: Rows the backend had already produced (materialized by a fallback,
    #: prefetched into a cursor chunk) that the TA bound never consumed — a
    #: lower bound of the work streaming avoided, since rows a closed cursor
    #: never computed cannot be counted at all.
    rows_short_circuited: int = 0
    #: Size of the first execution batch (None when nothing ran, i.e. k = 0)
    #: — shrunk below min(batch, k) when observed selectivity says fewer
    #: interpretations will satisfy the TA bound.
    first_batch_size: int | None = None
    #: Rows contributed per 1-based interpretation rank (execution only —
    #: cache hits do not appear here), for ``--explain`` attribution.
    attribution: dict[int, int] = field(default_factory=dict)
    #: Why an interpretation could not share its batch's ``UNION ALL``
    #: statement (1-based rank -> backend-reported reason, e.g. the
    #: parameter budget overflowed), for ``--explain``.
    fallback_reasons: dict[int, str] = field(default_factory=dict)
    #: Rows contributed per storage shard (sharded backends only).
    shard_rows: dict[int, int] = field(default_factory=dict)
    #: The scatter slot each executed interpretation partitioned on (1-based
    #: rank -> backend-reported label; sharded backends only).
    scatter_slots: dict[int, str] = field(default_factory=dict)
    #: The cost model's estimated result rows per executed interpretation
    #: (1-based rank -> estimate; only ranks the planner could estimate).
    #: The engine compares these against ``attribution`` to calibrate the
    #: estimator and to render estimated-vs-actual in ``--explain``.
    estimated_rows: dict[int, float] = field(default_factory=dict)
    #: What the cost pass changed about each executed interpretation's plan
    #: (1-based rank -> backend-reported label, e.g. a join reorder), for
    #: the chosen-vs-default lines in ``--explain``.
    plan_choices: dict[int, str] = field(default_factory=dict)
    #: True when the executor's cache is subsumption-aware (the semantic
    #: layer); gates the exact-vs-subsumption split in ``--explain``.
    semantic_cache: bool = False
    #: Cache hits answered by plan subsumption (filter/truncate of a
    #: subsuming cached entry, zero backend statements) during this query.
    #: ``cache_hits - cache_subsumption_hits`` is the exact-hit count.
    #: Delta-sampled from the shared cache around execution, so concurrent
    #: queries on one cache may blur attribution — never totals.
    cache_subsumption_hits: int = 0
    #: Rows subsuming entries held that this query's filters excluded.
    cache_rows_filtered: int = 0
    #: Rows this query's lower LIMIT cut from subsumption answers.
    cache_rows_truncated: int = 0
    #: Workload queries the engine's warmer replayed on open (constant per
    #: engine; repeated here so ``--explain`` can render it per query).
    warmed_queries: int = 0
    #: Read-connection-pool activity during this query on backends that pool
    #: readers (``leases``/``waits`` are deltas across this execution;
    #: ``peak_concurrency``/``size`` are the backend-lifetime peak and the
    #: configured cap).  Empty when the backend has no pool (memory, or
    #: ``read_pool_size=1``).  Concurrent queries on one backend may blur the
    #: delta attribution — never totals.
    read_pool: dict[str, int] = field(default_factory=dict)

    def rows_per_interpretation(self) -> float | None:
        """Observed execution selectivity: rows per executed interpretation.

        ``None`` when nothing executed (fully cache-served queries carry no
        signal).  The engine folds this observation into the estimate that
        sizes the next query's first streaming batch.
        """
        if not self.interpretations_executed:
            return None
        return sum(self.attribution.values()) / self.interpretations_executed

    def _merge_execution(
        self,
        executed: StreamedExecution,
        rank_of: dict[int, int],
        last_consumed: int,
    ) -> None:
        """Fold one closed stream's bookkeeping into the statistics.

        ``rank_of`` maps the execution's spec positions to 1-based
        interpretation ranks.  Specs past ``last_consumed`` were planned but
        never consumed: like the executed/missed counters, their per-spec
        explain entries must not report work that never happened
        (statements are already counted lazily).
        """
        self.sql_statements += executed.statements
        self.rows_short_circuited += executed.rows_short_circuited
        for per_spec, per_rank in (
            (executed.fallbacks, self.fallback_reasons),
            (executed.scatter_slots, self.scatter_slots),
            (executed.estimated_rows, self.estimated_rows),
            (executed.plan_labels, self.plan_choices),
        ):
            for index, value in per_spec.items():
                if index <= last_consumed:
                    per_rank[rank_of[index]] = value
        for shard, rows in executed.shard_rows.items():
            self.shard_rows[shard] = self.shard_rows.get(shard, 0) + rows


@dataclass
class TopKExecutor:
    """Executes a ranked interpretation list with TA-style early stopping.

    One loop serves every backend: the ranked list is worked through in
    batches of :func:`batch_width` interpretations, each batch's cache misses
    travel together through the backend's ``execute_paths_streamed`` — one
    ``UNION ALL`` cursor on backends with native batching, one lazy
    ``execute_path`` per interpretation elsewhere — and the early-stopping
    bound is checked before every interpretation, so it stops *consuming*
    the stream instead of discarding fetched rows.
    """

    database: StorageBackend
    #: Per-interpretation execution cap (guards pathological fan-out).
    per_query_limit: int | None = 5_000
    #: Optional cross-session result cache (see ``repro.engine.cache``):
    #: interpretations whose rows are cached are never re-executed.
    cache: "ResultCache | None" = None
    #: Observed rows-per-interpretation selectivity from earlier queries on
    #: this store (fed by the engine); sizes the first batch.
    expected_rows_per_interpretation: float | None = None
    statistics: TopKStatistics = field(default_factory=TopKStatistics)

    def execute(
        self,
        ranked: list[tuple[Interpretation, float]],
        k: int,
    ) -> list[TopKResult]:
        """Top-``k`` result rows across the ranked interpretations.

        ``ranked`` must be sorted by decreasing probability (the output of
        ``rank_interpretations``); rows inherit their interpretation's score,
        and execution stops once ``k`` rows beat every remaining upper bound.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        return self._run(ranked, k, bounded=True)

    def execute_naive(
        self,
        ranked: list[tuple[Interpretation, float]],
        k: int,
    ) -> list[TopKResult]:
        """The baseline: run every interpretation, union, sort, cut at k."""
        return self._run(ranked, k, bounded=False)

    def _semantic_baseline(self) -> tuple[int, int, int] | None:
        """Snapshot of the cache's subsumption counters before this query.

        ``None`` when the cache is not subsumption-aware.  The counters live
        on the (possibly shared) cache; the delta around one ``execute`` call
        attributes them per query, with the same concurrent-blur caveat as
        the engine's selectivity EWMA — attribution may blur, totals cannot.
        """
        stats = getattr(self.cache, "semantic_statistics", None)
        if stats is None:
            return None
        return (stats.subsumption_hits, stats.rows_filtered, stats.rows_truncated)

    def _settle_semantic(self, baseline: tuple[int, int, int] | None) -> None:
        """Record this query's subsumption deltas into the statistics."""
        if baseline is None:
            return
        stats = self.cache.semantic_statistics  # type: ignore[union-attr]
        self.statistics.semantic_cache = True
        self.statistics.cache_subsumption_hits = stats.subsumption_hits - baseline[0]
        self.statistics.cache_rows_filtered = stats.rows_filtered - baseline[1]
        self.statistics.cache_rows_truncated = stats.rows_truncated - baseline[2]

    def _merge_rows(
        self,
        results: list[TopKResult],
        seen_rows: set[tuple],
        rows: list[tuple],
        score: float,
        rank: int,
    ) -> None:
        """Union-merge one interpretation's rows into the result pool.

        The single definition of the result order — dedup on row identity
        across interpretations, then the ``(-score, rank, row identity)``
        total order.
        """
        self.statistics.rows_materialized += len(rows)
        for row in rows:
            uids = tuple(t.uid for t in row)
            if uids in seen_rows:
                continue  # union semantics across interpretations
            seen_rows.add(uids)
            results.append(
                TopKResult(score=score, interpretation_rank=rank, row=row)
            )
        results.sort(key=lambda r: (-r.score, r.interpretation_rank, r.row_uids()))

    def _first_batch_size(
        self,
        k: int,
        ranked: "list[tuple[Interpretation, float]]",
        width: int,
    ) -> int:
        """Interpretations the first execution batch covers.

        The legacy bound — min(width, k) interpretations, enough for a
        worst-case top-k where every interpretation yields one row — shrinks
        further when observed selectivity says fewer will do: with ~r rows
        per executed interpretation, ceil(k / r) of them are expected to
        satisfy the TA bound, and under-shooting costs only one more
        (smaller) statement because a batch's unconsumed rows were never
        fetched anyway.  The backend's per-interpretation cardinality
        estimates refine the global EWMA the same direction: walk the ranked
        prefix until the estimates cumulatively cover ``k``.  At width 1
        there is nothing to size, and no estimate is asked for.
        """
        if width == 1:
            return 1
        base = max(2, min(width, k))
        size = base
        estimate = self.expected_rows_per_interpretation
        if estimate and estimate > 0:
            size = min(size, math.ceil(k / estimate))
        cost_size = self._cost_batch_size(ranked, k, base)
        if cost_size is not None:
            size = min(size, cost_size)
        return max(1, size)

    def _cost_batch_size(
        self,
        ranked: "list[tuple[Interpretation, float]]",
        k: int,
        base: int,
    ) -> int | None:
        """Ranked prefix length whose estimated rows cumulatively cover ``k``.

        Asks the backend's cost model for each interpretation's estimated
        cardinality (never executing anything); ``None`` — on any estimator
        gap, or when even the legacy-bound prefix is not expected to reach
        ``k`` — means the estimates cannot justify a smaller first batch.
        """
        total = 0.0
        walked = 0
        for interpretation, _score in ranked[:base]:
            spec = interpretation.to_structured_query().path_spec()
            estimate = self.database.estimated_path_rows(
                *spec, limit=self.per_query_limit
            )
            if estimate is None:
                return None
            walked += 1
            total += estimate
            if total >= k:
                return walked
        return None

    def _run(
        self,
        ranked: list[tuple[Interpretation, float]],
        k: int,
        bounded: bool,
    ) -> list[TopKResult]:
        """Fresh statistics, then :meth:`_consume` (``bounded=False``: the
        naive baseline — every interpretation runs)."""
        self.statistics = TopKStatistics()
        baseline = self._semantic_baseline()
        try:
            if k == 0:
                return []
            return self._consume(ranked, k, bounded)
        finally:
            self._settle_semantic(baseline)

    def _consume(
        self,
        ranked: list[tuple[Interpretation, float]],
        k: int,
        bounded: bool,
    ) -> list[TopKResult]:
        """The one execution loop: the TA bound stops *consuming* the stream.

        Rows arrive through one backend stream per batch, in rank order, and
        the threshold is checked before every interpretation — at batch
        boundaries and *inside* the batch: once k results beat the next
        interpretation's upper bound, the stream closes and the remaining
        interpretations' rows are never fetched, decoded or deduplicated —
        they count as neither executed nor missed.  An interpretation, once
        started, is always drained completely (its own rows tie-break among
        themselves by row identity, so a partial drain could change the
        top-k), and interpretations past the stopping point can only
        contribute rows sorting after the confirmed top-k — so the returned
        rows do not depend on the batch width.  ``bounded=False`` disables
        the threshold: every interpretation runs (the naive baseline).
        """
        width = batch_width(self.database)
        self.statistics.first_batch_size = batch_size = self._first_batch_size(
            k, ranked, width
        )
        results: list[TopKResult] = []
        seen_rows: set[tuple] = set()

        def satisfied(score: float) -> bool:
            """k results already score no lower than anything still to come."""
            return bounded and len(results) >= k and results[k - 1].score >= score

        position = 0
        stopped = False
        while position < len(ranked) and not stopped:
            if satisfied(ranked[position][1]):
                self.statistics.stopped_early = True
                break
            batch = ranked[position : position + batch_size]
            batch_size = width
            # Cache peek: hits resolve without touching the backend; the
            # rest stay pending and are only booked as misses if the TA
            # bound actually reaches them — an interpretation whose rows
            # were never consumed was not executed, so on the next run it
            # must look exactly as cold as it is now.
            cached: dict[int, list[tuple]] = {}
            pending: list[tuple[int, "StructuredQuery"]] = []
            for offset, (interpretation, _score) in enumerate(batch):
                query = interpretation.to_structured_query()
                if self.cache is not None:
                    rows = self.cache.get(query, self.per_query_limit)
                    if rows is not None:
                        cached[offset] = rows
                        continue
                pending.append((offset, query))
            spec_of_offset = {offset: i for i, (offset, _q) in enumerate(pending)}
            rank_of_spec = {
                i: position + offset + 1 for i, (offset, _q) in enumerate(pending)
            }
            execution = None
            lookahead: Any = _PENDING
            last_spec_consumed = -1
            try:
                for offset, (_interpretation, score) in enumerate(batch):
                    rank = position + offset + 1
                    if satisfied(score):
                        self.statistics.stopped_early = True
                        stopped = True
                        break
                    if offset in cached:
                        rows = cached[offset]
                        self.statistics.cache_hits += 1
                    else:
                        if execution is None:
                            # The stream opens at the first pending
                            # interpretation the bound lets through (never,
                            # on a fully cache-served batch) and covers the
                            # batch's misses; statements execute lazily as
                            # the stream reaches them.
                            execution = self.database.execute_paths_streamed(
                                [query.path_spec() for _o, query in pending],
                                limit=self.per_query_limit,
                            )
                            self.statistics.batches += 1
                        spec = spec_of_offset[offset]
                        last_spec_consumed = spec
                        rows = []
                        while True:
                            if lookahead is _PENDING:
                                lookahead = next(execution.stream, None)
                            if lookahead is None or lookahead[0] != spec:
                                break  # this interpretation is drained
                            rows.append(lookahead[1])
                            lookahead = _PENDING
                        self.statistics.interpretations_executed += 1
                        self.statistics.rows_streamed += len(rows)
                        self.statistics.attribution[rank] = len(rows)
                        if self.cache is not None:
                            self.statistics.cache_misses += 1
                            self.cache.put(
                                pending[spec][1], self.per_query_limit, rows
                            )
                    self._merge_rows(results, seen_rows, rows, score, rank=rank)
            finally:
                if execution is not None:
                    execution.stream.close()
                    # Statements, shard attribution and short-circuit counts
                    # settle only once the stream is closed.
                    self.statistics._merge_execution(
                        execution, rank_of_spec, last_spec_consumed
                    )
                    if lookahead is not _PENDING and lookahead is not None:
                        # The row pulled to detect the previous
                        # interpretation's boundary belongs to one the bound
                        # then stopped: delivered by the backend (it appears
                        # in shard_rows), never merged into results.
                        self.statistics.rows_short_circuited += 1
            position += len(batch)
        return results[:k]
