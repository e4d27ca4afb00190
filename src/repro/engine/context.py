"""Engine configuration and the per-query pipeline context.

:class:`EngineContext` is the single object a query carries through the
pipeline: each stage reads its inputs from the context and writes its outputs
(plus its wall-clock timing) back, so observability — per-stage timings,
cache hit/miss counters, rendered SQL — falls out of the data flow instead of
being bolted onto each caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.interpretation import Interpretation
from repro.core.keywords import KeywordQuery
from repro.core.topk import TopKResult, TopKStatistics

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.backends.base import StorageBackend


@dataclass(frozen=True)
class EngineConfig:
    """Engine-level knobs (generator/model knobs stay on their objects)."""

    #: Default number of results ``run()``/``search()`` return.
    k: int = 5
    #: Use the process-level result cache for interpretation execution
    #: (nothing is written to the store: a new process starts cold).
    cache_results: bool = True
    #: Capacity of the process-level result-cache LRU (entries).  The store
    #: is process-wide and shared across engines; each engine enforces its
    #: own configured bound when it writes (CLI: ``--cache-size``).
    result_cache_size: int = 4096
    #: Reader connections the storage backend may lease for concurrent
    #: read-only execution (CLI: ``--read-pool-size``).  ``None`` keeps the
    #: backend's default; ``1`` is a pool of one reader — on a sharded store
    #: too, each reader with every partition attached — on the same code
    #: path as any other size.  Ignored by backends without
    #: ``supports_read_pool`` (memory).  Rows are byte-identical at every
    #: size; only in-process read concurrency changes.
    read_pool_size: int | None = None


@dataclass
class EngineContext:
    """Everything one query accumulates while flowing through the stages."""

    backend: "StorageBackend"
    config: EngineConfig
    query_text: str
    k: int
    explain: bool = False

    # Stage outputs, in pipeline order.
    query: KeywordQuery | None = None
    interpretations: list[Interpretation] = field(default_factory=list)
    ranked: list[tuple[Interpretation, float]] = field(default_factory=list)
    results: list[TopKResult] = field(default_factory=list)
    #: ``GenerateStage``'s memo lookup: the token it used (None: the engine has
    #: no memo) and the ``(interpretations, ranked)`` entry it found, if any.
    memo_token: tuple | None = None
    memo_entry: tuple[tuple, tuple] | None = None
    #: The memo's (hits, misses, resident, budget) once ``RankStage`` is done.
    memo_counters: tuple[int, int, int, int] | None = None

    # Observability.
    stage_timings: dict[str, float] = field(default_factory=dict)
    executor_statistics: TopKStatistics = field(default_factory=TopKStatistics)
    #: Rendered SQL of the top-ranked interpretations (``explain`` only).
    sql: list[str] = field(default_factory=list)

    @property
    def cache_hits(self) -> int:
        return self.executor_statistics.cache_hits

    @property
    def cache_misses(self) -> int:
        return self.executor_statistics.cache_misses

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_timings.values())

    def explain_lines(self) -> list[str]:
        """Human-readable explain block (the CLI's ``--explain`` body)."""
        lines = ["-- stage timings --"]
        for stage, seconds in self.stage_timings.items():
            lines.append(f"  {stage:<10} {seconds * 1000.0:8.2f} ms")
        lines.append(f"  {'total':<10} {self.total_seconds * 1000.0:8.2f} ms")
        stats = self.executor_statistics
        lines.append("-- execution --")
        lines.append(
            f"  interpretations: {len(self.ranked)} ranked, "
            f"{stats.interpretations_executed} executed"
            + (", stopped early" if stats.stopped_early else "")
        )
        lines.append(
            f"  sql statements: {stats.sql_statements}, "
            f"{stats.proved_empty} proved empty (no SQL)"
        )
        lines.append(
            f"  streaming: {stats.rows_streamed} row(s) streamed, "
            f"{stats.rows_short_circuited} short-circuited"
        )
        if stats.attribution:
            contributions = ", ".join(
                f"#{rank}:{rows}" for rank, rows in sorted(stats.attribution.items())
            )
            lines.append(f"  rows per executed interpretation: {contributions}")
        for rank, reason in sorted(stats.fallback_reasons.items()):
            lines.append(f"  fallback #{rank}: {reason}")
        for rank, label in sorted(stats.scatter_slots.items()):
            lines.append(f"  scatter slot #{rank}: {label}")
        if stats.shard_rows:
            per_shard = ", ".join(
                f"shard{shard}:{rows}"
                for shard, rows in sorted(stats.shard_rows.items())
            )
            lines.append(f"  rows per shard: {per_shard}")
        if stats.read_pool:
            pool = stats.read_pool
            lines.append(
                f"  read pool: {pool.get('leases', 0)} lease(s), "
                f"{pool.get('waits', 0)} wait(s), "
                f"peak {pool.get('peak_concurrency', 0)} concurrent "
                f"(size {pool.get('size', 0)})"
            )
        lines.append(f"  rows materialized: {stats.rows_materialized}")
        if self.memo_counters is not None:
            outcome = "miss" if self.memo_entry is None else "hit"
            lines.append(
                "  plan memo: %s (%d hit(s), %d miss(es), %d/%d interpretations resident)"
                % (outcome, *self.memo_counters)
            )
        lines.append(
            f"  result cache: {stats.cache_hits} hit(s), {stats.cache_misses} miss(es)"
        )
        if self.sql:
            lines.append("-- sql (top interpretations) --")
            for statement in self.sql:
                lines.append("  " + statement.replace("\n", "\n  "))
        return lines
