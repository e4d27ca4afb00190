"""One statement per sharded plan: the shape, pinned.

A plan executed on ``sqlite-sharded`` is exactly what it is on ``sqlite`` —
one statement, one reader lease, one cursor advanced in the calling thread —
on file and ``:memory:`` stores, at every pool size and shard count, and
nothing is routed before it runs (that its text is a function of the plan's
shape alone is pinned in ``tests/test_sharded_backend.py``).  What the
chooser and ``--explain`` say about the store stays true behind
relation-level inserts, and the one place the unrouted form multiplies
anything — a key set with no JSON spelling is a literal list in every
partition arm — stays under SQLite's variable ceiling at the largest shard
count ATTACH allows.
"""

from __future__ import annotations

import threading

import pytest

from repro.db.backends import ShardedSQLiteBackend, create_backend, sql as sqlc
from repro.db.schema import Attribute, Schema, Table
from tests.conftest import build_mini_db, drain_plan, mini_schema
from tests.test_row_stream_contract import _specs

QUERIES = ("hanks 2001", "london", "hanks")


@pytest.mark.parametrize("on_file", [False, True], ids=["memory", "file"])
@pytest.mark.parametrize("read_pool_size", [1, None, 8])
@pytest.mark.parametrize("shards", [1, 2, 3])
def test_a_plan_is_one_statement_one_lease_one_cursor(
    shards, read_pool_size, on_file, tmp_path, monkeypatch
):
    db = build_mini_db(
        ShardedSQLiteBackend(
            mini_schema(),
            path=tmp_path / "store.sqlite" if on_file else None,
            shards=shards,
            read_pool_size=read_pool_size,
        )
    )
    reference = build_mini_db("sqlite")
    iter_cursor = db._iter_cursor
    cursors = []

    def recording(*args):
        cursors.append(threading.get_ident())  # runs at the first pull
        yield from iter_cursor(*args)

    monkeypatch.setattr(db, "_iter_cursor", recording)
    pool = db._reader_pool()
    assert (pool is not None) == on_file
    executed = proved = 0
    # "london 2004": jack london acted only in a 2001 movie, so the path
    # through acts is proved empty and gets no statement, lease or cursor.
    for query_text in (*QUERIES, "london 2004"):
        for spec in _specs(reference, query_text):
            leases = pool.leases if on_file else 0
            del cursors[:]
            execution = db.execute_paths_streamed([spec], limit=10)
            with execution.stream as stream:
                rows = [network for _index, network in stream]
            assert rows == reference.execute_path(*spec, limit=10)
            assert execution.statements == 1 - execution.proved_empty
            assert cursors == [threading.get_ident()] * execution.statements
            if on_file:
                assert pool.leases - leases == execution.statements
            executed += 1
            proved += execution.proved_empty
    assert executed >= 6
    assert proved >= 1
    if on_file:
        assert pool.size == (read_pool_size or db.DEFAULT_READ_POOL_SIZE)
        assert pool.peak_concurrency == 1 and pool.waits == 0
    db.close()


class TestNothingIsRouted:
    def test_preparing_a_plan_routes_nothing(self, monkeypatch):
        """No key is hashed between planning and execution: the placement
        digest is the insert-time store format, not a read-path step."""
        from repro.db.backends import sharded

        db = build_mini_db("sqlite-sharded")
        reference = build_mini_db("sqlite")

        def no_routing(key, shards):
            raise AssertionError(f"read path hashed key {key!r}")

        monkeypatch.setattr(sharded, "shard_of_key", no_routing)
        for query_text in QUERIES:
            specs = _specs(reference, query_text)
            assert (
                db.execute_paths_batched(specs, limit=10).rows
                == reference.execute_paths_batched(specs, limit=10).rows
            )
        assert db.relation("actor").get(2) == reference.relation("actor").get(2)


class TestTableCountsFollowEveryInsert:
    def test_relation_level_insert_invalidates_the_cached_count(self):
        """``db.relation(t).insert`` stores a row without passing through
        ``db.insert``; the seed-slot chooser's row count must see it."""
        db = build_mini_db("sqlite-sharded")
        assert db._table_count("movie") == 3
        db.relation("movie").insert({"id": 9, "title": "late show", "year": "2020"})
        assert len(db.relation("movie")) == 4
        assert db._table_count("movie") == 4
        db.insert("movie", {"id": 10, "title": "later show", "year": "2021"})
        assert db._table_count("movie") == 5

    def test_the_explain_label_reads_the_fresh_count(self):
        db = build_mini_db("sqlite-sharded")
        by_attr = {fk.source_attr: fk for fk in db.schema.foreign_keys}
        plan = db._prepare_plan(
            sqlc.plan_path(("movie", "acts"), (by_attr["movie_id"],), {}, None)
        )
        assert db._scatter_slot_label(plan) == "t0 (movie, 3 rows)"
        db.relation("movie").insert({"id": 9, "title": "late show", "year": "2020"})
        assert db._scatter_slot_label(plan) == "t0 (movie, 4 rows)"

    def test_the_seed_slot_follows_the_maintained_catalog(self):
        """The chooser reads row counts from the catalog ``db.insert`` keeps
        current: acts (4 rows) wins once movie outgrows it."""
        db = build_mini_db("sqlite-sharded")
        by_attr = {fk.source_attr: fk for fk in db.schema.foreign_keys}
        plan = sqlc.plan_path(("movie", "acts"), (by_attr["movie_id"],), {}, None)
        db.insert("movie", {"id": 9, "title": "late show", "year": "2020"})
        assert db._prepare_plan(plan).scatter_position == 0  # 4 and 4: a tie
        db.insert("movie", {"id": 10, "title": "later show", "year": "2021"})
        assert db._prepare_plan(plan).scatter_position == 1


class TestLiteralListsUnderTheVariableCeiling:
    def test_900_unbindable_keys_at_ten_shards(self):
        """Keys with no JSON spelling repeat as a literal list per arm.  The
        counts changed by design when literal lists began to pad to a power
        of two: ``MAX_TOTAL_INLINE_KEYS`` = 900 keys (450 a slot) bind as
        2 × 512 = 1 024, and × 10 partitions = 10 240 variables, still under
        the 32 766 every JSON1-capable SQLite accepts."""
        schema = Schema()
        schema.add_table(Table("doc", [Attribute("x")]))
        schema.add_table(Table("tag", [Attribute("y")]))
        schema.link("tag", "doc")
        stores = [
            create_backend("sqlite", schema),
            create_backend("sqlite-sharded", schema, shards=10),
        ]
        docs = [f"d{n}\x00" for n in range(480)]
        tags = [f"t{n}\x00" for n in range(480)]
        for db in stores:
            for n, key in enumerate(docs):
                db.insert("doc", {"id": key, "x": f"w{n % 7}"})
            for n, key in enumerate(tags):
                db.insert("tag", {"id": key, "y": "v", "doc_id": docs[(n * 7) % 480]})
            db.build_indexes()
        edge = schema.foreign_keys[0]
        key_filters = {0: set(docs[:450]), 1: set(tags[30:])}
        assert sum(map(len, key_filters.values())) == sqlc.MAX_TOTAL_INLINE_KEYS
        rows, statements = [], []
        for db in stores:
            plan = db._prepare_plan(
                sqlc.plan_path(("doc", "tag"), (edge,), key_filters, 50)
            )
            assert not plan.post_filters  # all 900 keys are inline
            statements.append(db.compiler.compile_path(plan))
            rows.append(drain_plan(db, plan))
        single, sharded = statements
        assert single.sql.count("?") == len(single.params) == 1024 + 1
        assert sharded.sql.count("?") == len(sharded.params) == 1024 * 10 + 1 < 32766
        assert "json_each" not in sharded.sql
        assert rows[0] == rows[1] and len(rows[0]) == 50
        for db in stores:
            db.close()
