"""The result cache's one reuse rule, end to end: the exact key.

Rows are reused only for the query that produced them, at the limit they
were produced under.  A narrower, wider or lower-limit variant of a cached
query is a miss: it executes and returns what a cache-free run returns, and
its own entry serves it afterwards.  The same query spelled in another order
is the same key and hits.  Every case runs on the mini store under all three
backends.  Also pinned here: the engine's four configuration fields, the
five storage flags, and the two former fields that are now constants.
"""

from __future__ import annotations

import re
from dataclasses import fields

import pytest

from repro.core.query import StructuredQuery
from repro.core.topk import TopKExecutor
from repro.engine import EngineConfig, QueryEngine, ResultCache
from repro.engine import cache as cache_module
from repro.engine.stages import EXPLAIN_SQL_LIMIT
from tests.conftest import build_mini_db, template_of

BACKENDS = ["memory", "sqlite", "sqlite-sharded"]


@pytest.fixture(autouse=True)
def fresh_process_cache():
    ResultCache.clear_process_cache()
    yield
    ResultCache.clear_process_cache()


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    path = None if request.param == "memory" else tmp_path / "mini.sqlite"
    db = build_mini_db(request.param, db_path=path)
    yield db
    db.close()


def actors_named(db, *terms: str) -> StructuredQuery:
    return StructuredQuery(template_of(db, ("actor",)), {0: (("name", terms),)})


def acting_in(db, year: str, *terms: str) -> StructuredQuery:
    """actor–acts–movie: actors named ``terms`` in movies of ``year``."""
    return StructuredQuery(
        template_of(db, ("actor", "acts", "movie")),
        {0: (("name", terms),), 2: (("year", (year,)),)},
    )


def uids(rows) -> list:
    return [tuple(t.uid for t in network) for network in rows]


def test_a_narrowed_variant_misses_and_executes(store):
    cache = ResultCache(store)
    broad, narrow = actors_named(store, "hanks"), actors_named(store, "tom", "hanks")
    cache.put(broad, None, broad.execute(store))
    assert cache.get(narrow, None) is None
    rows = narrow.execute(store)
    assert uids(rows) == [(("actor", 1),)]  # the broad entry held actor 2 too
    cache.put(narrow, None, rows)
    assert uids(cache.get(narrow, None)) == uids(rows)
    assert (cache.statistics.hits, cache.statistics.misses) == (1, 1)


def test_a_widened_variant_misses(store):
    cache = ResultCache(store)
    narrow, broad = actors_named(store, "tom", "hanks"), actors_named(store, "hanks")
    cache.put(narrow, None, narrow.execute(store))
    assert cache.get(broad, None) is None
    assert cache.statistics.misses == 1


def test_a_lower_limit_misses_and_executes(store):
    cache = ResultCache(store)
    query = acting_in(store, "2001", "hanks")
    cache.put(query, None, query.execute(store))
    assert cache.get(query, 1) is None
    rows = query.execute(store, limit=1)
    assert len(rows) == 1 and len(query.execute(store)) == 2
    cache.put(query, 1, rows)
    assert uids(cache.get(query, 1)) == uids(rows)


def test_a_respelled_query_hits_its_entry(store):
    cache = ResultCache(store)
    query = StructuredQuery(
        template_of(store, ("actor", "acts", "movie")),
        {0: (("name", ("tom", "hanks")),), 2: (("year", ("2001",)), ("title", ("island",)))},
    )
    respelled = StructuredQuery(
        query.template,
        {2: (("title", ("island",)), ("year", ("2001",))), 0: (("name", ("hanks", "tom")),)},
    )
    rows = query.execute(store)
    cache.put(query, None, rows)
    assert uids(cache.get(respelled, None)) == uids(rows) == uids(respelled.execute(store))


def test_a_repeated_text_executes_nothing(store):
    engine = QueryEngine(store)
    first = engine.run("hanks 2001", k=5)
    again = engine.run("hanks 2001", k=5)
    assert first.executor_statistics.interpretations_executed > 0
    assert again.executor_statistics.interpretations_executed == 0
    assert again.cache_hits == first.cache_misses and again.cache_misses == 0
    assert [r.row_uids() for r in again.results] == [r.row_uids() for r in first.results]


def test_a_narrower_text_reuses_none_of_the_broader_ones_entries(store):
    engine = QueryEngine(store)
    engine.run("hanks", k=5)
    narrower = engine.run("tom hanks", k=5)
    reference = QueryEngine(store, config=EngineConfig(cache_results=False))
    assert narrower.cache_hits == 0
    assert narrower.cache_misses == narrower.executor_statistics.interpretations_executed
    assert [r.row_uids() for r in narrower.results] == [
        r.row_uids() for r in reference.run("tom hanks", k=5).results
    ]


def test_explain_prints_one_plain_result_cache_line(store):
    engine = QueryEngine(store)
    engine.run("hanks 2001", k=5)
    lines = engine.run("hanks 2001", k=5, explain=True).explain_lines()
    cache_lines = [line for line in lines if "result cache" in line]
    assert len(cache_lines) == 1
    assert re.fullmatch(r"  result cache: [1-9]\d* hit\(s\), 0 miss\(es\)", cache_lines[0])
    assert not any("subsumption" in line or "warmer" in line for line in lines)


# -- the configuration surface ---------------------------------------------------


def test_the_engine_config_has_four_fields():
    assert [f.name for f in fields(EngineConfig)] == [
        "k",
        "cache_results",
        "result_cache_size",
        "read_pool_size",
    ]


@pytest.mark.parametrize(
    "field", ["semantic_cache", "warm_workload", "per_query_limit", "explain_sql_limit"]
)
def test_removed_config_fields_are_rejected(field):
    with pytest.raises(TypeError):
        EngineConfig(**{field: 1})


def test_the_storage_options_are_five_flags():
    import argparse

    from repro.cli import _add_storage_options

    parser = argparse.ArgumentParser()
    _add_storage_options(parser)
    options = {o for action in parser._actions for o in action.option_strings}
    assert options - {"-h", "--help"} == {
        "--backend",
        "--db-path",
        "--shards",
        "--read-pool-size",
        "--cache-size",
    }


def test_explain_renders_the_top_interpretations_as_sql(imdb_db):
    context = QueryEngine(imdb_db).run("london", k=5, explain=True)
    assert len(context.ranked) > EXPLAIN_SQL_LIMIT == 5
    assert context.sql == [
        interp.to_structured_query().to_sql()
        for interp, _p in context.ranked[:EXPLAIN_SQL_LIMIT]
    ]


def test_the_engine_caches_every_interpretation_under_the_executor_cap(mini_db):
    context = QueryEngine(mini_db).run("hanks 2001", k=5)
    with cache_module._PROCESS_CACHE_LOCK:
        limits = {limit for _store, _key, limit in cache_module._PROCESS_CACHE}
    assert context.cache_misses > 0
    assert limits == {str(TopKExecutor.per_query_limit)} == {"5000"}
