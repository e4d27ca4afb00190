"""The pipeline stages of the query engine.

The paper's keyword-query flow decomposes into four explicit steps —
segmentation, interpretation generation, probabilistic ranking, top-k
execution — each a :class:`Stage` here.  Stages are stateless objects
operating on an :class:`~repro.engine.context.EngineContext`; the engine
times every ``run`` call, so a custom stage (a query rewriter, a
result post-processor, a different ranker) plugs in by implementing the same
two-member surface and being handed to ``QueryEngine(stages=[...])``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.core.keywords import KeywordQuery
from repro.core.probability import rank_interpretations
from repro.core.topk import TopKExecutor

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import EngineContext
    from repro.engine.engine import QueryEngine

#: How many top-ranked interpretations ``--explain`` renders as SQL.
EXPLAIN_SQL_LIMIT = 5


@runtime_checkable
class Stage(Protocol):
    """One pipeline step: reads/writes the context, never returns data."""

    name: str

    def run(self, engine: "QueryEngine", context: "EngineContext") -> None: ...


class SegmentStage:
    """Keyword segmentation: raw query text -> :class:`KeywordQuery`.

    Respects a pre-parsed query already on the context, so callers holding a
    :class:`KeywordQuery` (the construction session, the workloads) skip
    re-parsing.
    """

    name = "segment"

    def run(self, engine: "QueryEngine", context: "EngineContext") -> None:
        if context.query is None:
            context.query = KeywordQuery.parse(context.query_text)


class GenerateStage:
    """Interpretation-space enumeration (Def. 3.5.5) via the generator.

    A keyword tuple the engine's memo holds is not enumerated again; callers
    get their own lists, so nothing they do reaches the next request.
    """

    name = "generate"

    def run(self, engine: "QueryEngine", context: "EngineContext") -> None:
        assert context.query is not None, "SegmentStage must run first"
        if engine.memo is not None:
            # Taken before enumeration: a store mutated meanwhile voids the token.
            context.memo_token = token = engine.memo_token()
            context.memo_entry = engine.memo.lookup(token, context.query.keywords)
            if context.memo_entry is not None:
                context.interpretations = list(context.memo_entry[0])
                return
        context.interpretations = engine.generator.interpretations(context.query)


class RankStage:
    """Probabilistic ranking by the engine's model (Eq. 3.5).

    Served from ``GenerateStage``'s memo hit; after a miss it fills the memo.
    """

    name = "rank"

    def run(self, engine: "QueryEngine", context: "EngineContext") -> None:
        memo, token, query = engine.memo, context.memo_token, context.query
        if context.memo_entry is not None:
            context.ranked = list(context.memo_entry[1])
        else:
            context.ranked = rank_interpretations(context.interpretations, engine.model)
            if token is not None:
                memo.store(token, query.keywords, context.interpretations, context.ranked)
        if memo is not None:
            context.memo_counters = (memo.hits, memo.misses, memo.resident, memo.budget)


class ExecuteStage:
    """TA-style top-k execution, optionally through the result cache.

    Every cache-missing interpretation the TA bound reaches executes
    through its own single-spec backend row stream — one statement, on
    one SQLite file or over a sharded store's partitions alike — so nothing
    is planned or prepared past the stopping point.
    """

    name = "execute"

    def run(self, engine: "QueryEngine", context: "EngineContext") -> None:
        executor = TopKExecutor(context.backend, cache=engine.cache)
        pool_before = context.backend.read_pool_stats()
        context.results = executor.execute(context.ranked, k=context.k)
        context.executor_statistics = executor.statistics
        pool_after = context.backend.read_pool_stats()
        if pool_after is not None:
            # leases/waits delta-sampled around this execution (concurrent
            # queries on one backend may blur attribution — never totals);
            # peak/size are backend-lifetime values.
            before = pool_before or {}
            context.executor_statistics.read_pool = {
                "size": pool_after["size"],
                "leases": pool_after["leases"] - before.get("leases", 0),
                "waits": pool_after["waits"] - before.get("waits", 0),
                "peak_concurrency": pool_after["peak_concurrency"],
            }
        if context.explain:
            head = context.ranked[:EXPLAIN_SQL_LIMIT]
            context.sql = [interp.to_structured_query().to_sql() for interp, _p in head]


#: The paper's pipeline, in order.
DEFAULT_STAGES: tuple[Stage, ...] = (
    SegmentStage(),
    GenerateStage(),
    RankStage(),
    ExecuteStage(),
)
