"""Batched (UNION ALL) execution parity with per-interpretation execution.

The contract under test: for any list of path specs, a direct
``execute_paths_batched`` call returns *exactly* the rows and order of
per-spec ``execute_path`` while the SQLite path issues a single SQL
statement for the batch; and the executor — which hands the backend one
interpretation per stream — returns exactly the rows of a cache-free
``MemoryBackend`` engine at one statement per executed interpretation.
"""

from __future__ import annotations

import pytest

from repro.core.topk import TopKExecutor
from repro.db.backends.base import BatchedExecution
from repro.engine import EngineConfig, QueryEngine, ResultCache
from tests.conftest import build_mini_db

QUERIES = ["hanks 2001", "london", "hanks", "2001", "stone hill", "summer"]


@pytest.fixture(autouse=True)
def fresh_process_cache():
    ResultCache.clear_process_cache()
    yield
    ResultCache.clear_process_cache()


def _result_rows(context):
    return [(r.score, r.interpretation_rank, r.row_uids()) for r in context.results]


def _specs(db, query_text, n=None):
    """Path specs of the ranked interpretations of ``query_text`` on ``db``."""
    engine = QueryEngine(db, config=EngineConfig(cache_results=False))
    ranked = engine.rank(query_text)
    queries = [interp.to_structured_query() for interp, _p in ranked[:n]]
    return [query.path_spec() for query in queries], queries


class TestBackendBatchedContract:
    """execute_paths_batched parity at the storage layer."""

    @pytest.mark.parametrize("limit", [None, 1, 3, 0])
    def test_sqlite_union_matches_sequential(self, limit):
        db = build_mini_db("sqlite")
        specs, queries = _specs(db, "hanks 2001")
        assert len(specs) >= 2
        batched = db.execute_paths_batched(specs, limit=limit)
        assert isinstance(batched, BatchedExecution)
        for rows, query in zip(batched.rows, queries):
            assert rows == query.execute(db, limit=limit)

    def test_sqlite_issues_one_statement(self):
        db = build_mini_db("sqlite")
        specs, _queries = _specs(db, "hanks 2001")
        batched = db.execute_paths_batched(specs, limit=10)
        assert batched.statements == 1
        assert batched.batched_indexes == list(range(len(specs)))

    def test_provably_empty_spec_costs_no_statement(self):
        db = build_mini_db("sqlite")
        specs, _queries = _specs(db, "hanks")
        # A selection no tuple satisfies: empty key set, no SQL needed.
        path, edges, _selections = specs[0]
        empty_spec = (path, edges, {0: [("name", ("notaterm",))]})
        batched = db.execute_paths_batched([empty_spec], limit=10)
        assert batched.rows == [[]]
        assert batched.statements == 0
        assert batched.batched_indexes == []

    def test_single_member_skips_union_overhead(self):
        db = build_mini_db("sqlite")
        specs, queries = _specs(db, "london", n=1)
        batched = db.execute_paths_batched(specs, limit=10)
        assert batched.statements == 1
        assert batched.batched_indexes == []  # plain execute_path, no tagging
        assert batched.rows[0] == queries[0].execute(db, limit=10)

    def test_oversized_key_set_falls_back_per_path(self, monkeypatch):
        """Members beyond the inline-parameter budget run sequentially."""
        from repro.db.backends import sql as sql_module

        monkeypatch.setattr(sql_module, "MAX_INLINE_KEYS", 1)
        db = build_mini_db("sqlite")
        specs, queries = _specs(db, "hanks 2001")
        batched = db.execute_paths_batched(specs, limit=10)
        # "hanks" matches 3 tuples somewhere, so every member overflows the
        # patched budget — but results must still be exactly sequential.
        for rows, query in zip(batched.rows, queries):
            assert rows == query.execute(db, limit=10)
        assert batched.statements == len(specs)
        assert batched.batched_indexes == []
        # Every excluded spec reports why it left the shared statement (the
        # spec whose only key set fits the patched cap runs solo instead —
        # a single-member batch, not a fallback).
        assert batched.fallbacks
        assert all("inline cap" in reason for reason in batched.fallbacks.values())

    def test_parameter_budget_overflow_reports_reason(self, monkeypatch):
        """A spec whose total key footprint blows the statement-wide budget
        (each set individually inlinable) falls back with the budget cause."""
        from repro.db.backends import sql as sql_module

        monkeypatch.setattr(sql_module, "MAX_TOTAL_INLINE_KEYS", 3)
        db = build_mini_db("sqlite")
        specs, queries = _specs(db, "hanks 2001")
        assert len(specs) >= 2
        batched = db.execute_paths_batched(specs, limit=10)
        for rows, query in zip(batched.rows, queries):
            assert rows == query.execute(db, limit=10)
        assert batched.fallbacks  # at least one spec left the batch
        assert all(
            "parameter budget exhausted" in reason
            for reason in batched.fallbacks.values()
        )
        # Specs that stayed inside the budget still shared one statement.
        surviving = [i for i in range(len(specs)) if i not in batched.fallbacks]
        assert batched.batched_indexes == (
            surviving if len(surviving) > 1 else []
        )

    def test_memory_backend_inherits_per_path_fallback(self):
        db = build_mini_db("memory")
        specs, queries = _specs(db, "hanks 2001")
        batched = db.execute_paths_batched(specs, limit=10)
        assert batched.statements == len(specs)
        for rows, query in zip(batched.rows, queries):
            assert rows == query.execute(db, limit=10)

    def test_duplicate_specs_attribute_independently(self):
        db = build_mini_db("sqlite")
        specs, queries = _specs(db, "london", n=2)
        doubled = [specs[0], specs[0], *specs[1:]]
        batched = db.execute_paths_batched(doubled, limit=10)
        expected = queries[0].execute(db, limit=10)
        assert batched.rows[0] == expected
        assert batched.rows[1] == expected


class TestExecutorStatements:
    """TopKExecutor on SQLite: one statement per executed interpretation (row
    parity against the memory reference: ``tests/test_streaming.py``; the
    one-spec-per-stream spy: ``tests/test_topk_per_interpretation.py``)."""

    def test_naive_runs_every_interpretation_through_the_same_loop(self):
        for backend in ("memory", "sqlite"):
            db = build_mini_db(backend)
            engine = QueryEngine(db, config=EngineConfig(cache_results=False))
            ranked = engine.rank("hanks 2001")
            executor = TopKExecutor(db, per_query_limit=100)
            bounded = executor.execute(ranked, k=1)
            assert executor.statistics.stopped_early
            naive = executor.execute_naive(ranked, k=1)
            assert executor.statistics.interpretations_executed == len(ranked)
            assert not executor.statistics.stopped_early
            assert [r.row_uids() for r in naive] == [r.row_uids() for r in bounded]

    def test_sqlite_runs_one_statement_per_executed_interpretation(self):
        db = build_mini_db("sqlite")
        engine = QueryEngine(db, config=EngineConfig(cache_results=False))
        ranked = engine.rank("hanks 2001")
        assert len(ranked) >= 2
        executor = TopKExecutor(db, per_query_limit=100)
        executor.execute(ranked, k=5)
        stats = executor.statistics
        assert stats.interpretations_executed >= 2
        assert stats.sql_statements == stats.interpretations_executed
        assert set(stats.attribution) == set(
            range(1, stats.interpretations_executed + 1)
        )

    def test_cache_hits_cost_no_statement(self):
        db = build_mini_db("sqlite")
        cache = ResultCache(db)
        engine = QueryEngine(db, cache=cache)
        ranked = engine.rank("hanks 2001")
        warm = ranked[0][0].to_structured_query()
        cache.put(warm, 100, warm.execute(db, limit=100))
        executor = TopKExecutor(db, per_query_limit=100, cache=cache)
        executor.execute(ranked, k=5)
        stats = executor.statistics
        assert stats.cache_hits == 1
        assert stats.interpretations_executed >= 1
        assert stats.sql_statements == stats.interpretations_executed
        assert 1 not in stats.attribution  # the warm rank executed nothing


class TestEnginePipelineParity:
    """End-to-end: SQLite engines answer exactly like the memory reference."""

    @pytest.mark.parametrize("dataset", ["imdb", "lyrics"])
    def test_sqlite_engine_matches_memory_engine(self, dataset):
        reference = QueryEngine.for_dataset(
            dataset, backend="memory", config=EngineConfig(cache_results=False)
        )
        batched = QueryEngine.for_dataset(
            dataset, backend="sqlite", config=EngineConfig(cache_results=False)
        )
        for query_text in QUERIES:
            expected = reference.run(query_text, k=5)
            actual = batched.run(query_text, k=5)
            assert _result_rows(actual) == _result_rows(expected), (
                dataset,
                query_text,
            )

    def test_acceptance_one_statement_per_executed_interpretation(self):
        """The headline criterion: statements == interpretations the TA bound
        let through, and nothing fetched that was not merged."""
        engine = QueryEngine.for_dataset(
            "imdb", backend="sqlite", config=EngineConfig(cache_results=False)
        )
        context = engine.run("london", k=10)
        stats = context.executor_statistics
        assert 2 <= stats.interpretations_executed < len(context.ranked)
        assert stats.sql_statements == stats.interpretations_executed
        assert stats.rows_short_circuited == 0
        assert sum(stats.attribution.values()) == stats.rows_materialized

    def test_memory_engine_executes_one_spec_per_stream(self):
        """The memory backend: one plan, one statement per executed
        interpretation it cannot prove empty — and no ``plan_path_spec``
        call."""
        engine = QueryEngine.for_dataset(
            "imdb", backend="memory", config=EngineConfig(cache_results=False)
        )
        planned = []
        engine.backend.plan_path_spec = lambda *a, **kw: planned.append(a)
        context = engine.run("hanks 2001", k=5)
        stats = context.executor_statistics
        assert stats.proved_empty == 1  # no 2001 movie has "hanks" in its plot
        assert stats.sql_statements == stats.interpretations_executed - 1 > 1
        assert stats.rows_short_circuited == 0
        assert planned == []

    def test_explain_counts_statements_without_a_batch_suffix(self):
        engine = QueryEngine.for_dataset(
            "imdb", backend="sqlite", config=EngineConfig(cache_results=False)
        )
        context = engine.run("london", k=10, explain=True)
        lines = context.explain_lines()
        executed = context.executor_statistics.interpretations_executed
        assert executed >= 2
        # One keyword, one filtered slot: nothing to prove empty.
        assert f"  sql statements: {executed}, 0 proved empty (no SQL)" in lines
        text = "\n".join(lines)
        assert "rows per executed interpretation" in text
        assert "batch" not in text
        assert "fallback #" not in text  # nothing overflowed

    def test_explain_shows_fallback_causes(self, monkeypatch):
        """When a key set overflows the inline cap, --explain names the
        ranks that fell back to post-filtering and why."""
        from repro.db.backends import sql as sql_module

        monkeypatch.setattr(sql_module, "MAX_INLINE_KEYS", 1)
        engine = QueryEngine.for_dataset(
            "imdb", backend="sqlite", config=EngineConfig(cache_results=False)
        )
        context = engine.run("london", k=5, explain=True)
        stats = context.executor_statistics
        assert stats.fallback_reasons
        # Reasons key on the 1-based interpretation rank used everywhere
        # else in the explain block.
        assert set(stats.fallback_reasons) <= set(
            range(1, len(context.ranked) + 1)
        )
        text = "\n".join(context.explain_lines())
        for rank, reason in stats.fallback_reasons.items():
            assert f"fallback #{rank}: {reason}" in text
