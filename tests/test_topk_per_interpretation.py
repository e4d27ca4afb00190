"""The executor's unit of execution is the interpretation.

``TopKExecutor`` checks the TA bound, then the cache, and only then opens a
backend stream — for that one interpretation.  Pinned here, on every backend
and both bundled datasets:

* every ``execute_paths_streamed`` call the engine makes carries exactly one
  spec, and there are exactly ``interpretations_executed`` of them — so no
  statement, reader lease or shard thread exists for anything past the stop;
* rows and ``interpretations_executed`` equal a cache-free ``MemoryBackend``
  executor's, whatever ``k``;
* a warm run looks up exactly the interpretations the bound reaches;
* ``execute_naive`` is the sorted union of every interpretation, through the
  same loop.
"""

from __future__ import annotations

import pytest

from repro.core.topk import TopKExecutor
from repro.engine import EngineConfig, QueryEngine, ResultCache

QUERIES = ["hanks 2001", "london", "hanks", "2001", "stone hill", "summer"]
DATASETS = ["imdb", "lyrics"]
SQL_BACKENDS = ["sqlite", "sqlite-sharded"]

@pytest.fixture(autouse=True)
def fresh_process_cache():
    ResultCache.clear_process_cache()
    yield
    ResultCache.clear_process_cache()


@pytest.fixture(scope="module")
def engine_for():
    """``engine_for(dataset, backend)``: one cache-free engine per pair for
    the whole module, closed at its end."""
    engines: dict[tuple[str, str], QueryEngine] = {}

    def get(dataset: str, backend: str) -> QueryEngine:
        if (dataset, backend) not in engines:
            engines[dataset, backend] = QueryEngine.for_dataset(
                dataset,
                backend=backend,
                shards=3 if backend == "sqlite-sharded" else None,
                config=EngineConfig(cache_results=False),
            )
        return engines[dataset, backend]

    yield get
    for engine in engines.values():
        engine.backend.close()


def _spy_on_streams(backend, monkeypatch) -> list[int]:
    """Record the spec count of every ``execute_paths_streamed`` call."""
    spec_counts: list[int] = []
    open_stream = backend.execute_paths_streamed

    def spy(specs, limit=None):
        spec_counts.append(len(specs))
        return open_stream(specs, limit=limit)

    monkeypatch.setattr(backend, "execute_paths_streamed", spy)
    return spec_counts


def _identity(results):
    return [(r.score, r.interpretation_rank, r.row_uids()) for r in results]


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("backend", ["memory", *SQL_BACKENDS])
def test_every_stream_carries_one_spec_the_bound_let_through(
    dataset, backend, engine_for, monkeypatch
):
    engine = engine_for(dataset, backend)
    spec_counts = _spy_on_streams(engine.backend, monkeypatch)
    stopped_before_the_end = 0
    for query_text in QUERIES:
        del spec_counts[:]
        context = engine.run(query_text, k=5)
        stats = context.executor_statistics
        assert spec_counts == [1] * stats.interpretations_executed, query_text
        assert stats.rows_short_circuited == 0
        if stats.stopped_early:
            assert stats.interpretations_executed < len(context.ranked)
            stopped_before_the_end += 1
    assert stopped_before_the_end  # the spy saw queries with a tail to skip


@pytest.mark.parametrize("backend", SQL_BACKENDS)
def test_no_reader_is_leased_past_the_stop(backend, tmp_path):
    """File-backed stores pool their readers: one lease per statement that
    ran, so interpretations past the TA stop never held a connection."""
    engine = QueryEngine.for_dataset(
        "imdb",
        backend=backend,
        shards=3 if backend == "sqlite-sharded" else None,
        db_path=tmp_path / "imdb.sqlite",
        config=EngineConfig(cache_results=False),
    )
    try:
        context = engine.run("london", k=10)
        stats = context.executor_statistics
        assert stats.stopped_early
        assert 1 < stats.interpretations_executed < len(context.ranked)
        assert stats.sql_statements == (
            stats.interpretations_executed - stats.proved_empty
        )
        assert stats.read_pool["leases"] == stats.sql_statements > 0
    finally:
        engine.backend.close()


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("backend", SQL_BACKENDS)
@pytest.mark.parametrize("k", [1, 3, 5, 50])
def test_rows_and_executions_equal_the_memory_reference(
    dataset, backend, k, engine_for
):
    reference_engine = engine_for(dataset, "memory")
    database = engine_for(dataset, backend).backend
    for query_text in QUERIES:
        ranked = reference_engine.rank(query_text)
        reference = TopKExecutor(reference_engine.backend, per_query_limit=100)
        executor = TopKExecutor(database, per_query_limit=100)
        expected = reference.execute(ranked, k=k)
        actual = executor.execute(ranked, k=k)
        assert _identity(actual) == _identity(expected), query_text
        assert (
            executor.statistics.interpretations_executed
            == reference.statistics.interpretations_executed
        ), query_text
        assert executor.statistics.attribution == reference.statistics.attribution


@pytest.mark.parametrize("backend", ["memory", *SQL_BACKENDS])
def test_warm_run_looks_up_only_what_the_bound_reaches(
    backend, engine_for, monkeypatch
):
    engine = engine_for("imdb", backend)
    cache = ResultCache(engine.backend)
    ranked = engine.rank("london")
    cold = TopKExecutor(engine.backend, cache=cache)
    expected = cold.execute(ranked, k=10)
    assert cold.statistics.stopped_early
    assert cold.statistics.cache_misses == cold.statistics.interpretations_executed

    lookups = []
    get = cache.get
    monkeypatch.setattr(
        cache, "get", lambda *args: lookups.append(args) or get(*args)
    )
    streams = _spy_on_streams(engine.backend, monkeypatch)
    warm = TopKExecutor(engine.backend, cache=cache)
    actual = warm.execute(ranked, k=10)
    stats = warm.statistics
    assert _identity(actual) == _identity(expected)
    assert streams == []
    assert stats.cache_misses == stats.interpretations_executed == 0
    assert len(lookups) == stats.cache_hits == cold.statistics.cache_misses
    assert 1 < stats.cache_hits < len(ranked)


@pytest.mark.parametrize("backend", ["memory", *SQL_BACKENDS])
def test_naive_is_the_sorted_union_of_every_interpretation(
    backend, engine_for, monkeypatch
):
    engine = engine_for("imdb", backend)
    database = engine.backend
    ranked = engine.rank("london")
    union = {}
    for rank, (interpretation, score) in enumerate(ranked, start=1):
        rows = interpretation.to_structured_query().execute(database, limit=100)
        for row in rows:
            uids = tuple(t.uid for t in row)
            union.setdefault(uids, (score, rank, uids))
    expected = sorted(union.values(), key=lambda r: (-r[0], r[1], r[2]))

    streams = _spy_on_streams(database, monkeypatch)
    executor = TopKExecutor(database, per_query_limit=100)
    naive = executor.execute_naive(ranked, k=len(expected) + 1)
    assert _identity(naive) == expected
    assert streams == [1] * len(ranked)
    assert executor.statistics.interpretations_executed == len(ranked)
    assert not executor.statistics.stopped_early
    bounded = executor.execute(ranked, k=3)
    assert _identity(bounded) == expected[:3]
    assert executor.statistics.interpretations_executed < len(ranked)
