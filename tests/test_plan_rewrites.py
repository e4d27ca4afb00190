"""Physical plan choices: parity first, then the choices themselves.

The planner makes two physical choices that never change rows: the seed
slot a sharded plan's semi-join chain starts from, and which members leave
a tagged ``UNION ALL`` when its parameter budget overflows.  Join order is
not one of them: every plan compiles in path order and SQLite's planner
orders the inner joins.  The suites here pin row parity at three levels (raw
plan under every seed slot, backend ``execute_path``, full engine over imdb
+ lyrics on all three backends), then the choices: the seed-slot rule (a
filtered slot costs its key count, any other slot its catalog row count,
falling back to ``COUNT(*)``; ties go to the lowest slot), the seed slots
of both bundled workloads as a recorded digest, and budget eviction.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.db.backends import sql as sqlc
from repro.db.backends.base import StreamedExecution
from repro.db.backends.sql import plan_batch
from repro.engine.context import EngineConfig
from repro.engine.engine import QueryEngine
from tests.conftest import build_mini_db, drain_plan, plan_specs

QUERIES = ["hanks 2001", "london", "hanks", "2001", "stone hill", "summer"]

CHAIN = ("actor", "acts", "movie")


def _chain_edges(schema):
    by_attr = {fk.source_attr: fk for fk in schema.foreign_keys}
    return [by_attr["actor_id"], by_attr["movie_id"]]


def _keys(networks):
    """The comparable identity of executed networks (byte-identical rows)."""
    return [tuple(t.key for t in network) for network in networks]


class TestPathOrderCompilation:
    """A plan joins its slots in path order whatever their sizes."""

    @pytest.fixture()
    def db(self, tmp_path):
        db = build_mini_db("sqlite", db_path=tmp_path / "mini.sqlite")
        yield db
        db.close()

    def _plan(self, db):
        # The selected movie (1 key) is the smallest slot, at the far end.
        plan = db.plan_path_spec(
            list(CHAIN), _chain_edges(db.schema), {2: [("title", ("hanks",))]}
        )
        assert plan is not None
        return plan

    def test_joins_compile_in_path_order(self, db):
        sql = db.compiler.compile_path(db._prepare_plan(self._plan(db))).sql
        assert 'FROM "actor" AS t0\n' in sql
        assert 'JOIN "acts" AS t1 ON t0."id" = t1."actor_id"\n' in sql
        assert 'JOIN "movie" AS t2 ON t1."movie_id" = t2."id"\n' in sql

    def test_prepare_plan_leaves_single_file_plans_alone(self, db):
        plan = self._plan(db)
        assert db._prepare_plan(plan) is plan
        assert _keys(drain_plan(db, plan)) == [(1, 2, 2), (2, 3, 2)]

    def test_a_moved_seed_still_joins_in_path_order(self, tmp_path):
        """On the sharded dialect the seed slot starts the reduction chain;
        the final join over the reduced relations keeps path order."""
        db = build_mini_db("sqlite-sharded", db_path=tmp_path / "sharded.sqlite")
        prepared = db._prepare_plan(self._plan(db))
        assert prepared.scatter_position == 2
        sql = db.compiler.compile_path(prepared).sql
        assert "FROM r0 AS t0\n" in sql
        assert 'JOIN r1 AS t1 ON t0."id" = t1."actor_id"\n' in sql
        assert 'JOIN r2 AS t2 ON t1."movie_id" = t2."id"' in sql
        assert _keys(drain_plan(db, prepared)) == [(1, 2, 2), (2, 3, 2)]
        db.close()


class TestScatterPositionChoice:
    """The seed slot is the slot with the fewest post-filter rows."""

    @pytest.fixture()
    def db(self, tmp_path):
        db = build_mini_db("sqlite-sharded", db_path=tmp_path / "mini.sqlite")
        yield db
        db.close()

    def _edge(self, db, attribute):
        return next(fk for fk in db.schema.foreign_keys if fk.source_attr == attribute)

    def _skewed_plan(self, db):
        # movie (3 rows) is the raw-count minimum, but the selection on acts
        # resolves to a single key — the truly selective slot.
        plan = db.plan_path_spec(
            ["movie", "acts"],
            [self._edge(db, "movie_id")],
            {1: [("role", ("captain",))]},
        )
        assert plan is not None
        assert plan.inline_filters == ((1, (1,)),) and plan.post_filters == ()
        return plan

    def test_single_slot_plans_keep_slot_zero(self, db):
        plan = sqlc.plan_path(["acts"], [], {0: {1, 2}}, None)
        assert db._prepare_plan(plan) is plan

    def test_cost_model_picks_the_filtered_slot(self, db):
        assert db._prepare_plan(self._skewed_plan(db)).scatter_position == 1

    def test_selection_keys_win_even_without_a_catalog(self, db):
        # The cheap fallback: no catalog, but a slot whose selection resolved
        # to keys still costs len(keys), not row counts.
        db._statistics = None
        assert db._prepare_plan(self._skewed_plan(db)).scatter_position == 1

    def test_post_filtered_key_sets_cost_their_size(self, db):
        plan = sqlc.plan_path(
            ["movie", "acts"],
            [self._edge(db, "movie_id")],
            {0: {1, 2, 3}, 1: {1, 2}},
            None,
            max_inline_keys=2,
        )
        assert [position for position, _keys in plan.post_filters] == [0]
        assert db._prepare_plan(plan).scatter_position == 1

    def test_unfiltered_slots_cost_their_catalog_rows(self, db):
        plan = sqlc.plan_path(["acts", "movie"], [self._edge(db, "movie_id")], {}, None)
        assert db._prepare_plan(plan).scatter_position == 1  # 4 acts, 3 movies
        db.statistics_catalog(collect=False).tables["acts"].rows = 1
        assert db._prepare_plan(plan).scatter_position == 0  # the catalog decides

    def test_a_table_missing_from_the_catalog_costs_its_count(self, db):
        plan = sqlc.plan_path(["acts", "movie"], [self._edge(db, "movie_id")], {}, None)
        del db.statistics_catalog(collect=False).tables["movie"]
        db.relation("movie").insert({"id": 9, "title": "late show", "year": "2020"})
        db.relation("movie").insert({"id": 10, "title": "later show", "year": "2021"})
        # COUNT(*) reads 5 movies against the catalog's 4 acts.
        assert db._prepare_plan(plan).scatter_position == 0

    def test_ties_go_to_the_lowest_slot(self, db):
        walk = sqlc.plan_path(list(CHAIN), _chain_edges(db.schema), {}, None)
        assert db._prepare_plan(walk).scatter_position == 0  # 3, 4, 3 rows
        filtered = sqlc.plan_path(
            list(CHAIN), _chain_edges(db.schema), {1: {1, 2}, 2: {2, 3}}, None
        )
        assert db._prepare_plan(filtered).scatter_position == 1  # 3, 2, 2

    def test_both_scatter_choices_return_identical_rows(self, db):
        plan = db._prepare_plan(self._skewed_plan(db))  # seeds the chain at t1
        rows = _keys(drain_plan(db, replace(plan, scatter_position=0)))
        assert rows == _keys(drain_plan(db, plan))
        assert rows  # must witness real rows

    def test_scatter_label_names_the_cost_choice(self, db):
        prepared = db._prepare_plan(self._skewed_plan(db))
        label = db._scatter_slot_label(prepared)
        assert label == "t1 (acts, 1 selection keys) [cost-chosen over default t0]"

    @pytest.mark.parametrize(
        "dataset, expected",
        [
            ("imdb", "4a0627f7f56397539c7a9d3f7d564d7abfcd3f5a767b034cdf7970216c0e0f0a"),
            ("lyrics", "76cced982b6a3340fbbf5f26e1aa9f3c30ae1fc0c0478a5081185aa1d76a7338"),
        ],
        ids=["imdb", "lyrics"],
    )
    def test_seed_slots_match_the_recorded_digest(self, dataset, expected):
        """The seed slot and ``--explain`` label of every plan the bundled
        workload ranks, one spec per stream as the engine plans them, hash
        to the digest recorded while the chooser still ran beside the
        deleted estimator — the deletion moved no seed."""
        from repro.datasets.workload import workload_texts

        engine = QueryEngine.for_dataset(
            dataset,
            backend="sqlite-sharded",
            shards=3,
            config=EngineConfig(cache_results=False),
        )
        store = engine.backend
        digest = hashlib.sha256()
        seeds = 0
        for text in workload_texts(store, dataset, n_queries=40):
            for interpretation, _p in engine.rank(text):
                execution = StreamedExecution()
                spec = interpretation.to_structured_query().path_spec()
                solo, _members = plan_specs(store, [spec], execution, 5000)
                for _index, plan in solo:
                    seeds += plan.scatter_position != 0
                    digest.update(repr(plan.path).encode("utf-8"))
                    digest.update(repr(execution.scatter_slots.get(0)).encode("utf-8"))
        store.close()
        assert seeds > 0  # the chooser must have moved some seeds off slot 0
        assert digest.hexdigest() == expected


class TestCostAwareBatchEviction:
    """Budget overflow evicts the members binding the most keys first."""

    def _resolved(self):
        # Three single-table specs with 5, 3 and 4 inline keys (total 12).
        return [
            (0, ["a"], [], {0: set(range(5))}),
            (1, ["b"], [], {0: set(range(3))}),
            (2, ["c"], [], {0: set(range(4))}),
        ]

    def test_without_estimator_largest_key_count_goes_first(self):
        batch = plan_batch(self._resolved(), None, inline_budget=8)
        assert [index for index, _plan in batch.members] == [1, 2]
        assert [index for index, _plan, _r in batch.fallbacks] == [0]
        _idx, _plan, reason = batch.fallbacks[0]
        assert "parameter budget exhausted" in reason
        assert "5 inline keys" in reason

    def test_ties_evict_the_later_spec_first(self):
        resolved = [
            (0, ["a"], [], {0: set(range(4))}),
            (1, ["b"], [], {0: set(range(4))}),
            (2, ["c"], [], {0: set(range(2))}),
        ]
        batch = plan_batch(resolved, None, inline_budget=8)
        assert [index for index, _plan in batch.members] == [0, 2]
        assert [index for index, _plan, _r in batch.fallbacks] == [1]

    def test_keyless_members_are_never_evicted(self):
        resolved = self._resolved() + [(3, ["d"], [], {})]
        batch = plan_batch(resolved, None, inline_budget=8)
        assert 3 in [index for index, _plan in batch.members]

    def test_under_budget_nothing_is_evicted(self):
        batch = plan_batch(self._resolved(), None)
        assert [index for index, _plan in batch.members] == [0, 1, 2]
        assert not batch.fallbacks

    def test_oversized_key_set_reason_is_preserved(self):
        resolved = [(0, ["a"], [], {0: set(range(7))})]
        batch = plan_batch(resolved, None, max_inline_keys=5)
        _idx, _plan, reason = batch.fallbacks[0]
        assert "exceeds the 5-key inline cap" in reason


class TestBackendParity:
    """``execute_path`` returns the mini store's known networks on every
    backend, and on the SQL backends so does every seed slot of the plan."""

    SPECS = [
        (["actor"], 0, [("name", ("hanks",))], [(1,), (2,)]),
        (["actor", "acts"], 0, [("name", ("london",))], [(3, 4)]),
        (["actor", "acts", "movie"], 2, [("title", ("hanks",))], [(1, 2, 2), (2, 3, 2)]),
        (["movie", "acts"], 1, [("role", ("captain",))], [(1, 1)]),
    ]

    @pytest.mark.parametrize("backend_name", ["memory", "sqlite", "sqlite-sharded"])
    def test_execute_path_parity(self, backend_name, tmp_path):
        path_arg = None if backend_name == "memory" else tmp_path / "mini.sqlite"
        db = build_mini_db(backend_name, db_path=path_arg)
        edge_for = {
            frozenset((fk.source, fk.target)): fk for fk in db.schema.foreign_keys
        }
        for path, position, selections, expected in self.SPECS:
            edges = [edge_for[frozenset(pair)] for pair in zip(path, path[1:])]
            spec_selections = {position: selections}
            assert _keys(db.execute_path(path, edges, spec_selections)) == expected
            if backend_name == "memory":
                continue
            plan = db.plan_path_spec(path, edges, spec_selections)
            for seed in range(len(path)):
                rows = _keys(drain_plan(db, replace(plan, scatter_position=seed)))
                assert rows == expected, f"{path} seeded at t{seed}"
        db.close()


@pytest.mark.parametrize("dataset", ["imdb", "lyrics"])
@pytest.mark.parametrize("backend_name", ["memory", "sqlite", "sqlite-sharded"])
class TestEnginePlanParity:
    """Full-pipeline rows equal a cache-free memory engine's, with the seed
    slots the chooser picks and with every plan seeded at slot 0."""

    def test_results_identical_across_the_workload(
        self, dataset, backend_name, tmp_path, monkeypatch
    ):
        path_arg = None if backend_name == "memory" else tmp_path / "parity.sqlite"
        config = EngineConfig(cache_results=False)
        engine = QueryEngine.for_dataset(
            dataset, backend=backend_name, db_path=path_arg, config=config
        )
        reference = QueryEngine.for_dataset(dataset, config=config)
        expected = {
            text: [r.row_uids() for r in reference.search(text)] for text in QUERIES
        }
        assert any(expected.values())  # the suite must compare real rows
        for text in QUERIES:
            assert [r.row_uids() for r in engine.search(text)] == expected[text], text
        prepare = getattr(engine.backend, "_prepare_plan", None)
        if prepare is not None:
            monkeypatch.setattr(
                engine.backend,
                "_prepare_plan",
                lambda plan: replace(prepare(plan), scatter_position=0),
            )
            for text in QUERIES:
                rows = [r.row_uids() for r in engine.search(text)]
                assert rows == expected[text], f"{text!r} seeded at t0"
        engine.backend.close()


class TestExplainSurface:
    def test_explain_shows_seed_slots_and_no_estimates(self, tmp_path):
        engine = QueryEngine.for_dataset(
            "imdb",
            backend="sqlite-sharded",
            db_path=tmp_path / "explain.sqlite",
            config=EngineConfig(cache_results=False),
        )
        lines = engine.run("london 2001", explain=True).explain_lines()
        seed = "t2 (movie, 1 selection keys) [cost-chosen over default t0]"
        assert f"  scatter slot #1: {seed}" in lines
        # Six of the seven interpretations are proved empty: no plan, so no
        # seed slot to name.
        assert "  sql statements: 1, 6 proved empty (no SQL)" in lines
        assert not any(line.startswith("  scatter slot #2") for line in lines)
        assert not any("estimated" in line or "plan #" in line for line in lines)
        engine.backend.close()

    @pytest.mark.parametrize(
        "backend_name, query_text, statements, proved_empty",
        [
            ("memory", "london 2001", 7, 0),
            ("sqlite", "london 2001", 1, 6),
            ("sqlite-sharded", "london 2001", 1, 6),
            ("memory", "hanks 2001", 4, 0),
            ("sqlite", "hanks 2001", 0, 4),
            ("sqlite-sharded", "hanks 2001", 0, 4),
        ],
    )
    def test_no_backend_prints_estimates_or_plan_choices(
        self, backend_name, query_text, statements, proved_empty
    ):
        """Plans compile in path order with no cost pass, so no backend has
        an estimate or a join-order choice to report; the statement count
        is the sharded store's and the single file's alike.  "london 2001"
        plans one statement on both SQL backends, so the check sees a real
        plan there; every interpretation of "hanks 2001" is proved empty on
        both (one matches no key, three cannot join).  The memory backend,
        which proves nothing, runs every interpretation."""
        engine = QueryEngine.for_dataset(
            "imdb", backend=backend_name, config=EngineConfig(cache_results=False)
        )
        context = engine.run(query_text, explain=True)
        lines = context.explain_lines()
        stats = context.executor_statistics
        assert (stats.sql_statements, stats.proved_empty) == (statements, proved_empty)
        assert stats.sql_statements == stats.interpretations_executed - stats.proved_empty
        assert (
            f"  sql statements: {statements}, {proved_empty} proved empty (no SQL)"
            in lines
        )
        assert not any("estimated" in line or "plan #" in line for line in lines)
        engine.backend.close()

    def test_the_cost_planning_flag_is_an_argparse_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["search", "--dataset", "imdb", "--no-cost-planning", "london"])
        assert excinfo.value.code == 2
        assert "--no-cost-planning" in capsys.readouterr().err
