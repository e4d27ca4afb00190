"""Shape-keyed single-file statements: padded key lists and the text memo.

``SQLiteDialect`` binds a key set as an ``IN`` list padded to the next power
of two with its last key, so a statement's text is a function of its plan's
shape; ``PlanCompiler.compile_path`` keeps one ``(text, binding order)`` per
shape and lays a plan's keys out in that order on a hit.  Pinned here: the
padded list, the unpadded one and ``json_each`` select the same rows; a
memoised compile equals a from-scratch compile for every plan of both bundled
workloads on ``sqlite`` and 3-shard ``sqlite-sharded``; the memo stays within
its bound; and threads sharing one compiler get the statements a lone one
gets.
"""

from __future__ import annotations

import random
import sqlite3
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets.workload import workload_texts
from repro.db.backends.base import StreamedExecution
from repro.db.backends.sql import PlanCompiler, ShardedSQLiteDialect, SQLiteDialect
from repro.engine import EngineConfig, QueryEngine
from tests.conftest import plan_specs

#: Stored as the key column of each flavour (a rowid alias refuses non-integers).
KEY_FLAVOURS = {"plain": "", "ints": "INTEGER", "texts": "TEXT"}

#: Keys ``0 … STORED - 1`` are stored, every third one as its ``str``.
STORED = 1200


@st.composite
def key_sets(draw):
    """1 to 1 100 keys of the drawn spellings (int, str, integral float),
    drawn with replacement from about as many values, so duplicates and
    strangers (never stored) both occur."""
    size = draw(st.integers(1, 1100))
    spellings = draw(
        st.lists(st.sampled_from([int, str, float]), min_size=1, max_size=3, unique=True)
    )
    rng = random.Random(draw(st.integers(0, 2**32)))
    return [
        rng.choice(spellings)(rng.randrange(size + size // 8)) for _ in range(size)
    ]


def _select(conn, table, in_list, params):
    return conn.execute(
        f"SELECT k, typeof(k), v FROM {table} WHERE k IN {in_list} ORDER BY repro_repr(k)",
        params,
    ).fetchall()


@pytest.fixture(scope="module")
def stored_keys():
    conn = sqlite3.connect(":memory:")
    conn.create_function("repro_repr", 1, repr, deterministic=True)
    for table, declared in KEY_FLAVOURS.items():
        conn.execute(f"CREATE TABLE {table} (k {declared} PRIMARY KEY, v)")
        for number in range(STORED):
            key = str(number) if number % 3 == 0 else number
            try:
                conn.execute(f"INSERT INTO {table} VALUES (?, ?)", (key, number))
            except sqlite3.IntegrityError:
                pass  # not an integer, under INTEGER affinity
    yield conn
    conn.close()


class TestPaddedKeyLists:
    @given(keys=key_sets())
    @example(keys=[7])
    @example(keys=[3, 3.0, "3", 4])
    @example(keys=list(range(1025)))
    @settings(max_examples=60, deadline=None)
    def test_padded_equals_unpadded_equals_json_each(self, stored_keys, keys):
        keys = tuple(keys)
        padded = SQLiteDialect().key_set_binding(keys)
        as_json = ShardedSQLiteDialect(3).key_set_binding(keys)
        unpadded = (f"({', '.join('?' for _ in keys)})", keys)
        width = len(padded[1])
        assert width & (width - 1) == 0 and len(keys) <= width < 2 * len(keys) + 1
        assert padded[1][: len(keys)] == keys
        assert set(padded[1][len(keys) :]) <= {keys[-1]}
        assert as_json[0].count("?") == 1
        for table in KEY_FLAVOURS:
            rows = [
                _select(stored_keys, table, in_list, params)
                for in_list, params in (unpadded, padded, as_json)
            ]
            assert rows[0] == rows[1] == rows[2], table

    def test_the_empty_set_selects_nothing_without_an_error(self, stored_keys):
        for dialect in (SQLiteDialect(), ShardedSQLiteDialect(3)):
            in_list, params = dialect.key_set_binding(())
            for table in KEY_FLAVOURS:
                assert _select(stored_keys, table, in_list, params) == []

    def test_text_follows_the_padded_width_not_the_key_count(self):
        dialect = SQLiteDialect()
        texts = {
            count: dialect.key_set_binding(tuple(range(count)))[0]
            for count in (1, 2, 3, 4, 5, 8, 9)
        }
        assert texts[3] == texts[4] != texts[5] == texts[8] != texts[9]
        assert texts[1] != texts[2]


# -- the text memo ------------------------------------------------------------


def _workload_plans(db, dataset):
    """Every plan execution would compile for the dataset's bundled workload
    (each ranked interpretation, with and without a limit)."""
    engine = QueryEngine(db, config=EngineConfig(cache_results=False))
    plans = []
    for text in workload_texts(db, dataset, n_queries=40):
        specs = [
            interpretation.to_structured_query().path_spec()
            for interpretation, _p in engine.rank(text)
        ]
        for limit in (5, None):
            solo, members = plan_specs(db, specs, StreamedExecution(), limit)
            plans.extend(plan for _index, plan in [*solo, *members])
    return plans


@pytest.fixture(
    scope="module",
    params=[
        ("imdb", "sqlite"),
        ("imdb", "sqlite-sharded"),
        ("lyrics", "sqlite"),
        ("lyrics", "sqlite-sharded"),
    ],
    ids=lambda param: "-".join(param),
)
def workload(request):
    dataset, backend = request.param
    shards = 3 if backend == "sqlite-sharded" else None
    db = QueryEngine.for_dataset(dataset, backend=backend, shards=shards).backend
    plans = _workload_plans(db, dataset)
    yield db, plans
    db.close()


def _from_scratch(db, plan):
    return PlanCompiler(db.schema, db.dialect).compile_path(plan)


class TestTextMemo:
    def test_memoised_compile_equals_a_from_scratch_compile(self, workload):
        db, plans = workload
        compiler = PlanCompiler(db.schema, db.dialect)
        for plan in plans:
            assert compiler.compile_path(plan) == _from_scratch(db, plan)
        keyed = sum(bool(plan.inline_filters) for plan in plans)
        assert keyed > 100
        assert len(compiler._texts) < len(plans) / 3  # most compiles were hits

    def test_every_variant_of_a_plan_compiles_as_from_scratch(self, workload):
        """Through one warm memo: other keys of the same padded widths (a
        hit, laid out in the recorded order), a filter moved to the post
        side or dropped, no limit, another seed slot — each variant's
        statement is its from-scratch compile."""
        db, plans = workload
        compiler = PlanCompiler(db.schema, db.dialect)
        checked = 0
        for plan in plans:
            if len(plan.inline_filters) < 2 or plan.inline_filters[0][0] != 0:
                continue
            (position, keys), *rest = plan.inline_filters
            variants = [
                plan,
                replace(
                    plan,
                    inline_filters=tuple(
                        (slot, tuple(reversed(slot_keys)))
                        for slot, slot_keys in plan.inline_filters
                    ),
                ),
                replace(plan, limit=None),
                replace(
                    plan,
                    inline_filters=tuple(rest),
                    post_filters=((position, frozenset(keys)),),
                ),
                replace(plan, inline_filters=tuple(rest), limit=None),
                replace(plan, scatter_position=len(plan.path) - 1),
            ]
            for variant in variants:
                assert compiler.compile_path(variant) == _from_scratch(db, variant)
            checked += 1
        assert checked > 20

    def test_the_memo_stays_within_its_bound(self, workload):
        db, plans = workload
        compiler = PlanCompiler(db.schema, db.dialect)
        compiler.TEXT_MEMO_SIZE = 4
        for plan in plans:
            assert compiler.compile_path(plan) == _from_scratch(db, plan)
            assert len(compiler._texts) <= 4
            # The shape just compiled is the most recently used one.
            assert next(reversed(compiler._texts)) == compiler.shape_of(
                plan, compiler.key_set_bindings(plan)
            )
        assert len(compiler._texts) == 4
        assert len(PlanCompiler(db.schema, db.dialect)._texts) == 0

    @pytest.mark.parametrize("memo_size", [None, 3])
    def test_eight_threads_get_identical_statements(self, workload, memo_size):
        db, plans = workload
        expected = [_from_scratch(db, plan) for plan in plans]
        compiler = PlanCompiler(db.schema, db.dialect)
        if memo_size is not None:
            compiler.TEXT_MEMO_SIZE = memo_size  # evictions race lookups too
        start = threading.Barrier(8)
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def compile_all(worker):
            order = list(range(len(plans)))
            random.Random(worker).shuffle(order)
            compiled = [None] * len(plans)
            try:
                start.wait()
                for index in order:
                    compiled[index] = compiler.compile_path(plans[index])
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)
            results[worker] = compiled

        threads = [threading.Thread(target=compile_all, args=(n,)) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the memo's steps
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for worker in range(8):
            assert results[worker] == expected, worker
        assert len(compiler._texts) <= compiler.TEXT_MEMO_SIZE
