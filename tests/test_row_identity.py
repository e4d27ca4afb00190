"""One object per stored row on the SQLite backends.

``SQLiteRelation`` decodes a row only when no live :class:`Tuple` of its
primary key exists (a weak identity map, primary key -> weak reference): every read path — point get,
lookup, scan and join-path execution — hands out the same object while
anything references it, and the entry dies with the last reference.
Concurrent decoders of one key may each build a row; the contract is that
they are equal, which the thread test checks.
"""

from __future__ import annotations

import gc
import itertools
import sys
import threading

import pytest

from repro.datasets import names
from repro.datasets.imdb import build_imdb
from repro.db.table import Tuple
from repro.engine import EngineConfig, QueryEngine, ResultCache

BACKENDS = [("sqlite", None), ("sqlite-sharded", 3)]


@pytest.fixture(params=BACKENDS, ids=[name for name, _shards in BACKENDS])
def store(request):
    backend, shards = request.param
    db = build_imdb(backend=backend, shards=shards)
    ResultCache.clear_process_cache()
    try:
        yield db
    finally:
        ResultCache.clear_process_cache()
        db.close()


def live_rows(relation) -> int:
    """Decoded rows of ``relation`` the interpreter still holds."""
    return sum(
        1
        for obj in gc.get_objects()
        if isinstance(obj, Tuple) and obj.layout is relation._layout
    )


def cold_queries(count: int) -> list[str]:
    """``count`` distinct two-keyword texts over the generator's vocabulary."""
    words = [*names.SURNAMES, *names.PLACES, *names.TITLE_WORDS, *names.GENRES]
    words = [w.lower() for w in dict.fromkeys(words)]
    texts = [f"{a} {b}" for a, b in itertools.combinations(words, 2)]
    assert len(texts) >= count
    return texts[:: len(texts) // count][:count]


def test_two_decodes_of_a_live_key_are_one_object(store):
    movie = store.relation("movie")
    first = movie.get(3)
    assert movie.get(3) is first
    assert movie.lookup("id", 3) == [first] and movie.lookup("id", 3)[0] is first
    assert next(t for t in movie.scan() if t.key == 3) is first
    title = first["title"]
    assert any(t is first for t in movie.lookup("title", title))
    schema = store.schema
    (fk,) = [fk for fk in schema.foreign_keys if {fk.source, fk.target} == {"movie", "directs"}]
    for network in store.execute_path(["movie", "directs"], [fk]):
        assert network[0] is movie.get(network[0].key)


def test_the_map_forgets_a_row_once_nothing_references_it(store):
    actor = store.relation("actor")
    tup = actor.get(5)
    assert 5 in actor._alive and store.decoded_rows_alive() >= 1
    del tup
    gc.collect()
    assert 5 not in actor._alive
    networks = QueryEngine(store).search("london")
    assert store.decoded_rows_alive() > 0
    del networks
    ResultCache.clear_process_cache()
    gc.collect()
    assert store.decoded_rows_alive() == 0


def test_cold_queries_never_leave_more_entries_than_live_rows(store):
    # A small result cache evicts throughout, so rows keep dying.
    engine = QueryEngine(store, config=EngineConfig(result_cache_size=32))
    relations = [store.relation(name) for name in store.schema.table_names]
    for number, text in enumerate(cold_queries(1000)):
        engine.search(text, k=3)
        for relation in relations:
            assert len(relation._alive) <= len(relation)
        if number % 100 == 0:
            for relation in relations:
                assert len(relation._alive) <= live_rows(relation)
    reference = build_imdb()
    for relation in relations:
        same = reference.relation(relation.table.name)
        for key, ref in list(relation._alive.items()):
            tup = ref()
            assert tup == same.get(key) and hash(tup) == hash(same.get(key))


def test_eight_threads_decode_rows_equal_to_a_sequential_run(store):
    engine = QueryEngine(store, config=EngineConfig(cache_results=False))
    queries = [
        interp.to_structured_query()
        for text in ("london", "hanks 2001", "drama", "cruise")
        for interp in engine.interpretations(text)[:4]
    ]

    def run_all() -> list:
        return [
            [tuple((t.table, t.key, t.values) for t in network) for network in q.execute(store)]
            for q in queries
        ]

    expected = run_all()
    gc.collect()
    assert store.decoded_rows_alive() == 0
    results: dict[int, list] = {}
    errors: list[BaseException] = []

    def worker(index: int) -> None:
        try:
            results[index] = run_all()
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert len(results) == 8
    assert all(rows == expected for rows in results.values())
