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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.interpretation import Interpretation
from repro.db.backends.base import StorageBackend, StreamedExecution

if TYPE_CHECKING:  # pragma: no cover - avoids a core <-> engine import cycle
    from repro.core.query import StructuredQuery
    from repro.engine.cache import ResultCache


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
    """Work accounting for the early-stopping comparisons.

    ``interpretations_executed`` counts *actual* interpretation executions: an
    interpretation whose rows come out of the result cache costs no execution
    and shows up in ``cache_hits`` instead.  ``sql_statements`` counts the
    physical statements those executions needed, as reported by the backend,
    and ``proved_empty`` the executions the backend proved empty before
    planning them: on every backend every executed interpretation is
    exactly one of the two, so ``sql_statements == interpretations_executed
    - proved_empty``.  A selection matching no key is proved empty
    everywhere; only the SQL backends also prove joins empty.
    """

    interpretations_executed: int = 0
    rows_materialized: int = 0
    stopped_early: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    #: Physical query statements issued against the backend.
    sql_statements: int = 0
    #: Executed interpretations the backend proved empty: no plan, no SQL.
    proved_empty: int = 0
    #: Rows consumed from backend streams.
    rows_streamed: int = 0
    #: Rows the backend had already produced (prefetched into a cursor chunk
    #: or a shard queue) when a stream closed at its interpretation's row cap.
    rows_short_circuited: int = 0
    #: Rows contributed per 1-based interpretation rank (execution only —
    #: cache hits do not appear here), for ``--explain`` attribution.
    attribution: dict[int, int] = field(default_factory=dict)
    #: Why an interpretation ran as a post-filtering solo plan (1-based rank
    #: -> backend-reported reason, e.g. a selection key set over the inline
    #: cap), for ``--explain``.
    fallback_reasons: dict[int, str] = field(default_factory=dict)
    #: Rows contributed per storage shard (sharded backends only).
    shard_rows: dict[int, int] = field(default_factory=dict)
    #: The scatter slot each executed interpretation partitioned on (1-based
    #: rank -> backend-reported label; sharded backends only).
    scatter_slots: dict[int, str] = field(default_factory=dict)
    #: Read-connection-pool activity during this query on backends that pool
    #: readers (``leases``/``waits`` are deltas across this execution;
    #: ``peak_concurrency``/``size`` are the backend-lifetime peak and the
    #: configured cap).  Empty when the store has no pool (memory, or a
    #: ``":memory:"`` SQLite).  Concurrent queries on one backend may blur the
    #: delta attribution — never totals.
    read_pool: dict[str, int] = field(default_factory=dict)

    def _merge_execution(self, executed: StreamedExecution, rank: int) -> None:
        """Fold one closed single-spec stream's bookkeeping into the statistics.

        Statements, shard attribution and short-circuit counts settle only
        once the stream is closed; the per-spec explain entries sit at spec
        position 0 and move to the interpretation's 1-based ``rank``.
        """
        self.sql_statements += executed.statements
        self.proved_empty += executed.proved_empty
        self.rows_short_circuited += executed.rows_short_circuited
        for per_spec, per_rank in (
            (executed.fallbacks, self.fallback_reasons),
            (executed.scatter_slots, self.scatter_slots),
        ):
            if 0 in per_spec:
                per_rank[rank] = per_spec[0]
        for shard, rows in executed.shard_rows.items():
            self.shard_rows[shard] = self.shard_rows.get(shard, 0) + rows


@dataclass
class TopKExecutor:
    """Executes a ranked interpretation list with TA-style early stopping.

    One loop serves every backend, and its unit of execution is the
    interpretation: the early-stopping bound is checked before each one, a
    cache miss opens a single-spec ``execute_paths_streamed`` stream, drains
    it and closes it.  Nothing — no statement, reader lease or shard thread —
    is ever prepared for an interpretation past the stopping point.
    """

    database: StorageBackend
    #: Per-interpretation execution cap (guards pathological fan-out).
    per_query_limit: int | None = 5_000
    #: Optional process-level result cache (see ``repro.engine.cache``):
    #: interpretations whose rows are cached are never re-executed.
    cache: "ResultCache | None" = None
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
        total order.  Only this interpretation's fresh rows are sorted: when
        they all order after the pool's last result (a lower score, or an
        equal score and a higher rank) appending them keeps the pool sorted;
        otherwise (an out-of-order ranked list) the whole pool is re-sorted.
        """
        self.statistics.rows_materialized += len(rows)
        fresh: list[tuple[tuple, tuple]] = []
        for row in rows:
            uids = tuple(t.uid for t in row)
            if uids in seen_rows:
                continue  # union semantics across interpretations
            seen_rows.add(uids)
            fresh.append((uids, row))
        fresh.sort(key=lambda pair: pair[0])
        in_order = not results or score < results[-1].score or (
            score == results[-1].score and rank > results[-1].interpretation_rank
        )
        results.extend(
            TopKResult(score=score, interpretation_rank=rank, row=row)
            for _uids, row in fresh
        )
        if not in_order:
            results.sort(
                key=lambda r: (-r.score, r.interpretation_rank, r.row_uids())
            )

    def _run(
        self,
        ranked: list[tuple[Interpretation, float]],
        k: int,
        bounded: bool,
    ) -> list[TopKResult]:
        """Fresh statistics, then :meth:`_consume` (``bounded=False``: the
        naive baseline — every interpretation runs)."""
        self.statistics = TopKStatistics()
        if k == 0:
            return []
        return self._consume(ranked, k, bounded)

    def _consume(
        self,
        ranked: list[tuple[Interpretation, float]],
        k: int,
        bounded: bool,
    ) -> list[TopKResult]:
        """The one execution loop: bound check, cache, execute, merge.

        The threshold is checked before every interpretation: once k results
        beat the next interpretation's upper bound the loop ends, and the
        remaining interpretations are neither looked up, planned nor executed
        — they count as neither executed nor missed, so on the next run they
        look exactly as cold as they are now.  An interpretation, once
        started, is always drained completely (its own rows tie-break among
        themselves by row identity, so a partial drain could change the
        top-k).  ``bounded=False`` disables the threshold: every
        interpretation runs (the naive baseline).
        """
        results: list[TopKResult] = []
        seen_rows: set[tuple] = set()
        for rank, (interpretation, score) in enumerate(ranked, start=1):
            if bounded and len(results) >= k and results[k - 1].score >= score:
                self.statistics.stopped_early = True
                break
            query = interpretation.to_structured_query()
            rows = None
            if self.cache is not None:
                rows = self.cache.get(query, self.per_query_limit)
            if rows is not None:
                self.statistics.cache_hits += 1
            else:
                rows = self._execute(query, rank)
                if self.cache is not None:
                    self.statistics.cache_misses += 1
                    self.cache.put(query, self.per_query_limit, rows)
            self._merge_rows(results, seen_rows, rows, score, rank=rank)
        return results[:k]

    def _execute(self, query: "StructuredQuery", rank: int) -> list[tuple]:
        """Run one interpretation through its own backend stream."""
        execution = self.database.execute_paths_streamed(
            [query.path_spec()], limit=self.per_query_limit
        )
        try:
            rows = [network for _index, network in execution.stream]
        finally:
            execution.stream.close()
        self.statistics._merge_execution(execution, rank)
        self.statistics.interpretations_executed += 1
        self.statistics.rows_streamed += len(rows)
        self.statistics.attribution[rank] = len(rows)
        return rows
