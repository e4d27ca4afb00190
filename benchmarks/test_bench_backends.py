"""Storage-backend comparison: build time and query latency, memory vs SQLite.

Not a thesis figure — this benchmark guards the storage-backend abstraction:
it reports what switching engines costs (dataset build/load time, per-query
pipeline latency through :class:`repro.engine.QueryEngine`) and asserts both
engines return identical top-ranked results while doing so.  Result caching
is disabled here so the numbers measure actual execution; the cache's effect
is measured separately in ``benchmarks/test_bench_engine.py``.  Run with
``-s`` to see the table:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_backends.py -s
"""

from __future__ import annotations

import time

from repro.datasets.imdb import build_imdb
from repro.engine import EngineConfig, QueryEngine
from repro.experiments.reporting import format_table

QUERIES = ["hanks 2001", "london", "stone hill", "summer"]
BUILD_KWARGS = dict(seed=7, n_movies=150, n_actors=90)
#: Measure raw pipeline latency: no result cache.
UNCACHED = EngineConfig(cache_results=False)


def _timed_build(backend: str, db_path=None):
    start = time.perf_counter()
    db = build_imdb(**BUILD_KWARGS, backend=backend, db_path=db_path)
    return db, time.perf_counter() - start


def _run_queries(engine: QueryEngine, repeats: int = 3):
    """Mean best-of-N per-query latency (ms) and result signatures for parity."""
    signatures = []
    total = 0.0
    for query_text in QUERIES:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            context = engine.run(query_text, k=5)
            best = min(best, time.perf_counter() - start)
        total += best
        signatures.append(
            (
                query_text,
                [i.to_structured_query().algebra() for i, _p in context.ranked[:3]],
                [r.row_uids() for r in context.results],
            )
        )
    return (total / len(QUERIES)) * 1000.0, signatures


def test_bench_backends(benchmark, tmp_path):
    rows = []

    mem_db, mem_build = _timed_build("memory")
    mem_engine = QueryEngine(mem_db, config=UNCACHED)
    mem_latency, mem_signatures = benchmark.pedantic(
        lambda: _run_queries(mem_engine), rounds=1, iterations=1
    )
    rows.append(["memory", f"{mem_build * 1000:.1f}", "-", f"{mem_latency:.2f}"])

    db_path = tmp_path / "imdb.sqlite"
    sq_db, sq_build = _timed_build("sqlite", db_path=db_path)
    sq_latency, sq_signatures = _run_queries(QueryEngine(sq_db, config=UNCACHED))
    sq_db.close()

    # Second open: rows already on disk, generation skipped, index loaded
    # from the persisted postings side tables.
    reopened, reload_time = _timed_build("sqlite", db_path=db_path)
    rows.append(
        ["sqlite", f"{sq_build * 1000:.1f}", f"{reload_time * 1000:.1f}", f"{sq_latency:.2f}"]
    )

    # Parity is part of the benchmark contract: same top-ranked
    # interpretations and identical top-k rows on both engines.
    assert sq_signatures == mem_signatures
    reopened_latency, reopened_signatures = _run_queries(
        QueryEngine(reopened, config=UNCACHED)
    )
    assert reopened_signatures == mem_signatures
    reopened.close()

    print()
    print(
        format_table(
            ["backend", "build ms", "reload ms", "query ms"],
            rows + [["sqlite (reopened)", "-", f"{reload_time * 1000:.1f}", f"{reopened_latency:.2f}"]],
        )
    )


def test_sharded_statements_stay_linear(tmp_path):
    """Counts, not timings: a join path costs ``slots × shards`` probes.

    The 5-slot ``actor–acts–movie–acts–actor`` path at 3 shards used to hand
    SQLite a join over all-shards unions, which its flattener distributes
    into ``3 ** 4`` five-way joins (a 726-node ``EXPLAIN QUERY PLAN`` on
    bundled IMDB; thousands at IMDB x10).  The semi-join chain is ``5 × 3``
    single-table probes plus one five-way join over the reduced relations;
    the bound below leaves room for a different SQLite's node bookkeeping,
    none for anything exponential.  And the plan is one statement whether
    its seed slot's keys live in every partition or in a single one.
    """
    from repro.db.backends.sharded import shard_of_key

    shards, slots = 3, 5
    db = build_imdb(
        **BUILD_KWARGS, backend="sqlite-sharded", shards=shards,
        db_path=tmp_path / "imdb.sqlite",
    )
    reference = build_imdb(**BUILD_KWARGS, backend="sqlite")
    by_target = {fk.target: fk for fk in db.schema.foreign_keys if fk.source == "acts"}
    path = ["actor", "acts", "movie", "acts", "actor"]
    edges = [by_target["actor"], by_target["movie"], by_target["movie"], by_target["actor"]]

    # Name terms by the partitions their actors are stored in: one spread
    # over every partition, one whose keys all live in a single one.
    touched: dict[str, set[int]] = {}
    for actor in reference.relation("actor"):
        for term in actor.get("name").split():
            touched.setdefault(term, set()).add(shard_of_key(actor.key, shards))
    spread = next(term for term, on in touched.items() if len(on) == shards)
    lone = next(term for term, on in touched.items() if len(on) == 1)

    texts = set()
    for term in (spread, lone):
        selections = {0: [("name", (term,))]}
        plan = db._prepare_plan(db.plan_path_spec(path, edges, selections, limit=10))
        assert plan.scatter_position == 0
        statement = db.compiler.compile_path(plan)
        texts.add(statement.sql)
        nodes = db._conn.execute(
            "EXPLAIN QUERY PLAN " + statement.sql, statement.params
        ).fetchall()
        assert len(nodes) <= 6 * slots * shards, len(nodes)
        spec = (path, edges, selections)
        leases = db.read_pool_stats()["leases"]
        streamed = db.execute_paths_streamed([spec], limit=10)
        rows = list(streamed.stream)
        assert rows and rows == list(
            reference.execute_paths_streamed([spec], limit=10).stream
        )
        assert streamed.statements == 1
        assert db.read_pool_stats()["leases"] - leases == 1
    assert len(texts) == 1  # where the keys live never reaches the text
    db.close()
    reference.close()


def test_unrouted_key_sets_cost_by_shard_count(tmp_path):
    """Report only: what probing every key in every partition costs.

    The same 900-key plan (``MAX_TOTAL_INLINE_KEYS``: 450 keys on each of two
    joined slots, JSON-bound) over the same 2 000 + 2 000 rows, on a single
    file and at 2, 3 and 10 partitions (10 is SQLite's ATTACH limit).  A
    statement binds each key set once per partition arm, so its probes grow
    with the shard count where a routed form's would not — this is that
    growth, in µs per executed statement (median of 15, statement cache warm).
    """
    import statistics

    from repro.db.backends import create_backend, sql as sqlc
    from repro.db.backends.base import StreamedExecution
    from repro.db.schema import Attribute, Schema, Table

    schema = Schema()
    schema.add_table(Table("doc", [Attribute("x")]))
    schema.add_table(Table("tag", [Attribute("y")]))
    schema.link("tag", "doc")
    edge = schema.foreign_keys[0]
    key_filters = {0: set(range(0, 1800, 4)), 1: set(range(0, 1350, 3))}
    assert sum(map(len, key_filters.values())) == sqlc.MAX_TOTAL_INLINE_KEYS

    def drain(db):
        plan = db._prepare_plan(sqlc.plan_path(("doc", "tag"), (edge,), key_filters, 50))
        assert not plan.post_filters
        rows = db._stream_plan(plan, StreamedExecution())
        try:
            return list(rows)
        finally:
            rows.close()

    table, expected = [], None
    for backend, shards in (("sqlite", None), *(("sqlite-sharded", n) for n in (2, 3, 10))):
        options = {} if shards is None else {"shards": shards}
        db = create_backend(
            backend, schema, path=tmp_path / f"{backend}{shards}.sqlite", **options
        )
        for n in range(2000):
            db.insert("doc", {"id": n, "x": f"w{n % 7}"})
        for n in range(2000):
            db.insert("tag", {"id": n, "y": "v", "doc_id": (n * 7) % 2000})
        db.build_indexes()
        rows = drain(db)  # prepares the text; also the parity check
        expected = expected or rows
        assert rows == expected and len(rows) == 50
        timings = []
        for _ in range(15):
            start = time.perf_counter()
            drain(db)
            timings.append((time.perf_counter() - start) * 1e6)
        table.append([backend, shards or "-", f"{statistics.median(timings):.0f}"])
        db.close()
    print()
    print(format_table(["backend", "shards", "900-key statement µs"], table))
