"""QueryServer: engine pooling, concurrent isolation, the bench driver.

The invariant under test: fanning queries across the server's worker pool
changes *when* work happens, never *what* comes back — every concurrent
response equals the sequentially computed answer, per-query contexts are
never shared, and the shared result cache / SQLite connection survive
concurrent hammering (including the two-engines-one-file flush race).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import EngineConfig, QueryEngine, ResultCache
from repro.server import (
    AsyncQueryFrontend,
    BenchServeReport,
    QueryServer,
    benchmark_serve,
    workload_texts,
)

QUERIES = ["hanks 2001", "london", "summer", "stone hill", "hanks", "2001"]


@pytest.fixture(autouse=True)
def fresh_process_cache():
    ResultCache.clear_process_cache()
    yield
    ResultCache.clear_process_cache()


@pytest.fixture
def imdb_factory(imdb_db):
    """An engine factory over the session-scoped imdb store (no rebuilds)."""

    def factory(dataset, backend, db_path, shards, config):
        assert dataset == "imdb" and backend == "memory" and db_path is None
        assert shards is None
        kwargs = {} if config is None else {"config": config}
        return QueryEngine(imdb_db, **kwargs)

    return factory


@pytest.fixture
def imdb_server(imdb_factory):
    with QueryServer(max_workers=8, engine_factory=imdb_factory) as server:
        yield server


class TestEnginePool:
    def test_one_engine_per_key(self):
        with QueryServer(max_workers=2) as server:
            first = server.engine_for("imdb")
            second = server.engine_for("imdb")
            other = server.engine_for("lyrics")
            assert first is second
            assert first is not other
            assert server.pooled_engines == 2

    def test_pool_keys_are_shard_aware(self, imdb_db):
        """Two shard layouts of one dataset are two pooled engines — but an
        unspecified count and the explicit default share one."""
        from repro.db.backends import ShardedSQLiteBackend

        built_keys = []

        def factory(dataset, backend, db_path, shards, config):
            built_keys.append((dataset, backend, db_path, shards))
            return QueryEngine(imdb_db)

        default_count = ShardedSQLiteBackend.DEFAULT_SHARDS
        with QueryServer(max_workers=1, engine_factory=factory) as server:
            default = server.engine_for("imdb", backend="sqlite-sharded")
            explicit_default = server.engine_for(
                "imdb", backend="sqlite-sharded", shards=default_count
            )
            sharded = server.engine_for("imdb", backend="sqlite-sharded", shards=4)
            again = server.engine_for("imdb", backend="sqlite-sharded", shards=4)
            assert default is explicit_default  # normalized pool key
            assert sharded is again
            assert default is not sharded
            assert server.pooled_engines == 2
        assert [key[3] for key in built_keys] == [default_count, 4]

    def test_engine_config_reaches_the_pool(self):
        config = EngineConfig(k=3, cache_results=False)
        with QueryServer(max_workers=1, engine_config=config) as server:
            engine = server.engine_for("imdb")
            assert engine.config is config
            assert server.query("imdb", "london").context.k == 3

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            QueryServer(max_workers=0)

    def test_submit_after_close_raises(self):
        server = QueryServer(max_workers=1)
        server.close()
        with pytest.raises(RuntimeError):
            server.submit("imdb", "london")
        server.close()  # idempotent

    def test_failed_build_releases_its_construction_lock(self, imdb_db):
        """A factory failure must not leave the per-key construction lock
        behind (the leak would hold the entry forever) — and a retry on the
        same key must run the factory again and succeed."""
        attempts = []

        def flaky(dataset, backend, db_path, shards, config):
            attempts.append(dataset)
            if len(attempts) == 1:
                raise ValueError("first build fails")
            return QueryEngine(imdb_db)

        with QueryServer(max_workers=1, engine_factory=flaky) as server:
            with pytest.raises(ValueError):
                server.engine_for("imdb")
            assert server._building == {}  # nothing left behind
            assert server.pooled_engines == 0
            engine = server.engine_for("imdb")  # retry rebuilds cleanly
            assert engine is server.engine_for("imdb")
            assert server._building == {}
        assert attempts == ["imdb", "imdb"]


class TestConcurrentIsolation:
    def test_concurrent_queries_match_sequential(self, imdb_server, imdb_db):
        reference = QueryEngine(imdb_db)
        expected = {
            text: [r.row_uids() for r in reference.run(text, k=5).results]
            for text in QUERIES
        }
        futures = [imdb_server.submit("imdb", text, k=5) for text in QUERIES * 6]
        responses = [future.result() for future in futures]
        assert len(responses) == len(QUERIES) * 6
        for response in responses:
            assert response.result_uids() == expected[response.query]

    def test_contexts_are_isolated_per_query(self, imdb_server):
        futures = [imdb_server.submit("imdb", text) for text in QUERIES]
        contexts = [future.result().context for future in futures]
        assert len({id(context) for context in contexts}) == len(contexts)
        by_text = {context.query_text: context for context in contexts}
        assert set(by_text) == set(QUERIES)

    def test_many_workers_actually_run_concurrently(self, imdb_server):
        """Distinct worker threads serve a saturated submission burst."""
        futures = [imdb_server.submit("imdb", text) for text in QUERIES * 4]
        workers = {future.result().worker for future in futures}
        assert len(workers) > 1

    def test_concurrent_sqlite_queries_share_one_locked_connection(self, tmp_path):
        path = tmp_path / "served.sqlite"
        with QueryServer(max_workers=8) as server:
            engine = server.engine_for("imdb", backend="sqlite", db_path=path)
            expected = {
                text: [r.row_uids() for r in engine.run(text, k=5).results]
                for text in QUERIES
            }
            futures = [
                server.submit("imdb", text, k=5, backend="sqlite", db_path=path)
                for text in QUERIES * 6
            ]
            for future in futures:
                response = future.result()
                assert response.result_uids() == expected[response.query]


class TestTwoEnginesOneFile:
    """Regression: concurrent cache flushes of two engines sharing a file."""

    def test_shared_file_flush_race(self, tmp_path):
        path = tmp_path / "shared.sqlite"
        QueryEngine.for_dataset("imdb", backend="sqlite", db_path=path).backend.close()

        engines = [
            QueryEngine.for_dataset("imdb", backend="sqlite", db_path=path)
            for _ in range(2)
        ]
        errors: list[BaseException] = []

        def hammer(engine: QueryEngine) -> None:
            try:
                for text in QUERIES * 3:
                    engine.run(text, k=5)  # ExecuteStage flushes per run
                engine.backend.close()  # flush-on-close, racing the sibling
            except BaseException as exc:  # noqa: BLE001 - the regression signal
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(e,)) for e in engines]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

        # The store stays fully usable afterwards.
        survivor = QueryEngine.for_dataset("imdb", backend="sqlite", db_path=path)
        assert survivor.run("london", k=5).results
        survivor.backend.close()


class TestBenchDriver:
    def test_benchmark_serve_verifies_results(self, imdb_factory):
        report = benchmark_serve(
            "imdb",
            clients=8,
            queries_per_client=3,
            k=5,
            seed=3,
            engine_factory=imdb_factory,
        )
        assert isinstance(report, BenchServeReport)
        assert report.ok
        assert report.total_queries == 24
        assert len(report.latencies) == 24
        assert report.throughput_qps > 0
        assert report.latency_at(0.50) <= report.latency_at(0.95) <= report.latency_at(1.0)
        assert any("p95" in line for line in report.lines())

    def test_benchmark_serve_on_sqlite(self, tmp_path):
        report = benchmark_serve(
            "imdb",
            backend="sqlite",
            db_path=tmp_path / "bench.sqlite",
            clients=8,
            queries_per_client=2,
            k=5,
        )
        assert report.ok
        assert report.total_queries == 16

    def test_workload_texts_are_answerable(self, imdb_db):
        engine = QueryEngine(imdb_db)
        texts = workload_texts(engine, "imdb")
        assert len(texts) >= 10
        assert all(engine.rank(text) for text in texts)

    def test_workload_texts_unknown_dataset(self, imdb_db):
        with pytest.raises(ValueError, match="no workload"):
            workload_texts(QueryEngine(imdb_db), "freebase")

    def test_mismatch_counting(self):
        report = BenchServeReport(
            dataset="imdb",
            backend="memory",
            clients=1,
            queries_per_client=1,
            distinct_queries=1,
            seconds=1.0,
            latencies=[0.1],
            mismatches=2,
        )
        assert not report.ok
        assert any("MISMATCH" in line for line in report.lines())

    def test_verification_is_reported_outside_the_serve_phase(self, imdb_factory):
        """The serve clock stops before verification runs (the former
        wall-clock-includes-verification bug)."""
        report = benchmark_serve(
            "imdb",
            clients=2,
            queries_per_client=2,
            k=5,
            engine_factory=imdb_factory,
        )
        assert report.ok
        assert report.verify_seconds >= 0.0
        assert report.transport == "threads"
        assert any("serve phase" in line for line in report.lines())
        assert any("untimed" in line for line in report.lines())
        assert any("transport=threads" in line for line in report.lines())


class TestAsyncFrontend:
    def test_async_query_matches_sync(self, imdb_server, imdb_db):
        import asyncio

        reference = QueryEngine(imdb_db)
        expected = {
            text: [r.row_uids() for r in reference.run(text, k=5).results]
            for text in QUERIES
        }
        frontend = AsyncQueryFrontend(imdb_server)

        async def drive():
            responses = await asyncio.gather(
                *(frontend.query("imdb", text, k=5) for text in QUERIES * 3)
            )
            return responses

        responses = asyncio.run(drive())
        assert len(responses) == len(QUERIES) * 3
        for response in responses:
            assert response.result_uids() == expected[response.query]

    def test_benchmark_serve_async_transport(self, imdb_factory):
        report = benchmark_serve(
            "imdb",
            clients=4,
            queries_per_client=3,
            k=5,
            seed=3,
            engine_factory=imdb_factory,
            use_async=True,
        )
        assert report.ok
        assert report.transport == "asyncio"
        assert report.total_queries == 12
        assert len(report.latencies) == 12
        assert any("transport=asyncio" in line for line in report.lines())

    def test_async_and_threaded_replay_the_same_workload(self, imdb_factory):
        """Same seeds → same sampled queries on both transports."""
        threaded = benchmark_serve(
            "imdb", clients=2, queries_per_client=3, k=3, seed=7,
            engine_factory=imdb_factory,
        )
        ResultCache.clear_process_cache()
        asynchronous = benchmark_serve(
            "imdb", clients=2, queries_per_client=3, k=3, seed=7,
            engine_factory=imdb_factory, use_async=True,
        )
        assert threaded.ok and asynchronous.ok
        assert threaded.total_queries == asynchronous.total_queries
        assert threaded.distinct_queries == asynchronous.distinct_queries


class TestServeCLI:
    def test_serve_reads_stdin(self, monkeypatch, capsys):
        import io

        from repro.cli import main

        monkeypatch.setattr("sys.stdin", io.StringIO("london\n\nhanks 2001\n"))
        assert main(["serve", "--dataset", "imdb", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "serving dataset=imdb" in out
        assert "[london]" in out
        assert "[hanks 2001]" in out

    def test_serve_async_reads_stdin(self, monkeypatch, capsys):
        import io

        from repro.cli import main

        monkeypatch.setattr("sys.stdin", io.StringIO("london\n\nhanks 2001\n"))
        assert (
            main(["serve", "--dataset", "imdb", "--workers", "2", "--async"]) == 0
        )
        out = capsys.readouterr().out
        assert "frontend=asyncio" in out
        assert "[london]" in out
        assert "[hanks 2001]" in out

    def test_bench_serve_cli(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "bench-serve",
                    "--dataset",
                    "imdb",
                    "--clients",
                    "8",
                    "--queries",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "all verified against sequential execution" in out

    def test_bench_serve_cli_async(self, capsys):
        from repro.cli import main

        argv = ["bench-serve", "--dataset", "imdb", "--clients", "4",
                "--queries", "2", "--async"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "transport=asyncio" in out
        assert "all verified against sequential execution" in out
