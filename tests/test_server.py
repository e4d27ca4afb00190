"""QueryServer: engine pooling, concurrent isolation, the ``serve`` CLI.

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

from repro.datasets.workload import workload_texts
from repro.engine import EngineConfig, QueryEngine, ResultCache
from repro.server import AsyncQueryFrontend, QueryServer

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

    @pytest.mark.parametrize("spelling", ["./a.sqlite", "sub/../a.sqlite", "{cwd}/a.sqlite"])
    @pytest.mark.parametrize("backend", ["sqlite", "sqlite-sharded"])
    def test_two_spellings_of_one_file_share_one_engine(
        self, tmp_path, monkeypatch, backend, spelling
    ):
        """``a.sqlite`` and another spelling of it are one store: one writer,
        one read pool, one memo — and both spellings answer with its rows."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        other = spelling.format(cwd=tmp_path)
        with QueryServer(max_workers=2) as server:
            first = server.query("imdb", "london", backend=backend, db_path="a.sqlite")
            second = server.query("imdb", "london", backend=backend, db_path=other)
            assert server.pooled_engines == 1
            assert first.result_uids() == second.result_uids()
            assert first.result_uids()

    def test_the_factory_is_handed_the_absolute_path(self, tmp_path, monkeypatch, imdb_db):
        monkeypatch.chdir(tmp_path)
        built = []

        def factory(dataset, backend, db_path, shards, config):
            built.append(db_path)
            return QueryEngine(imdb_db)

        with QueryServer(max_workers=1, engine_factory=factory) as server:
            server.engine_for("imdb", backend="sqlite", db_path="a.sqlite")
            server.engine_for("imdb", backend="sqlite", db_path=tmp_path / "a.sqlite")
        assert built == [str(tmp_path / "a.sqlite")]

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

    @pytest.mark.parametrize("read_pool_size", [None, 1, 8])
    @pytest.mark.parametrize(
        "backend,shards", [("sqlite", None), ("sqlite-sharded", 3)]
    )
    def test_concurrent_sqlite_queries_share_one_locked_connection(
        self, tmp_path, backend, shards, read_pool_size
    ):
        """The 20 store-derived workload queries through 8 workers on a
        file-backed store, cache off so every request reads the backend:
        a pool of one reader (per shard), the default pool and a reader per
        worker all answer what sequential execution answers."""
        storage = dict(
            backend=backend, db_path=tmp_path / "served.sqlite", shards=shards
        )
        config = EngineConfig(cache_results=False, read_pool_size=read_pool_size)
        with QueryServer(max_workers=8, engine_config=config) as server:
            engine = server.engine_for("imdb", **storage)
            texts = workload_texts(engine.backend, "imdb")
            assert len(texts) == 20
            expected = {
                text: [r.row_uids() for r in engine.run(text, k=5).results]
                for text in texts
            }
            futures = [
                server.submit("imdb", text, k=5, **storage) for text in texts * 3
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
    """``workload_texts``: the query pool the concurrency cases replay."""

    def test_workload_texts_are_answerable(self, imdb_db):
        engine = QueryEngine(imdb_db)
        texts = workload_texts(imdb_db, "imdb")
        assert len(texts) >= 10
        assert all(engine.rank(text) for text in texts)

    def test_workload_texts_unknown_dataset(self, imdb_db):
        with pytest.raises(ValueError, match="no workload"):
            workload_texts(imdb_db, "freebase")


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


class TestServeCLI:
    def test_serve_reads_stdin(self, monkeypatch, capsys, tmp_path):
        """Protocol lines in on stdin, one response line each out on stdout —
        and nothing else (no banner): stdin is a connection like any other."""
        import json

        from repro.cli import main

        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"query": "london", "k": 2}\n\nhanks 2001\n')
        with requests.open() as stdin:
            monkeypatch.setattr("sys.stdin", stdin)
            assert main(["serve", "--dataset", "imdb", "--workers", "2"]) == 0
        served, plain_text = map(json.loads, capsys.readouterr().out.splitlines())
        assert served["ok"] is True and served["query"] == "london"
        assert len(served["rows"]) == 2
        assert plain_text["error"] == "malformed-request"  # JSON lines only

    def test_read_pool_size_reaches_the_engine_config_once(self):
        from repro.cli import _engine_config, build_parser

        args = build_parser().parse_args(["serve", "--tcp", "--read-pool-size", "2"])
        assert _engine_config(args).read_pool_size == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--async"],
            ["bench-serve"],
            ["bench-load"],
            ["search", "--semantic-cache", "x"],
            ["search", "--warm-workload", "3", "x"],
        ],
    )
    def test_removed_front_ends_are_argparse_errors(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("module", ["loadgen", "results", "monitor"])
    def test_removed_load_generator_modules_are_gone(self, module):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.net.{module}")

    def test_removed_semantic_cache_module_is_gone(self):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.engine.semcache")

    @pytest.mark.parametrize(
        "name",
        [
            "SemanticResultCache",
            "SemanticCacheStatistics",
            "WarmingReport",
            "top_workload_queries",
            "warm_engine",
        ],
    )
    def test_removed_engine_exports_are_gone(self, name):
        import repro.engine

        assert not hasattr(repro.engine, name)

    def test_several_workers_need_a_socket(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="error: .*workers need a socket"):
            main(["serve", "--tcp-workers", "2"])
