"""Cost-based plan rewrites: parity first, then the improved choices.

Every physical rewrite the cost model drives — scatter-position choice,
join introduction order, batch membership/eviction — must return rows
byte-identical to the unrewritten plan (the querytorque-style validation
loop).  The suites here pin that parity at three levels (raw plan, backend
``execute_path``, full engine over imdb + lyrics on all three backends),
then pin the *choices*: the skewed-fixture scatter regression PR 5 flagged,
the greedy join reorder, and cost-aware batch eviction.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.db.backends import create_backend
from repro.db.backends import sql as sqlc
from repro.db.backends.sql import PathPlan, plan_batch, plan_path, reorder_joins
from repro.engine.context import EngineConfig
from repro.engine.engine import QueryEngine
from tests.conftest import build_mini_db, drain_plan, mini_schema

QUERIES = ["hanks 2001", "london", "hanks", "2001", "stone hill", "summer"]

CHAIN = ("actor", "acts", "movie")


def _chain_edges(schema):
    by_attr = {fk.source_attr: fk for fk in schema.foreign_keys}
    return [by_attr["actor_id"], by_attr["movie_id"]]


def _keys(networks):
    """The comparable identity of executed networks (byte-identical rows)."""
    return [tuple(t.key for t in network) for network in networks]


class FakeEstimator:
    """Deterministic estimator for planner unit tests.

    ``costs`` maps a plan's total inline-key count to its estimated rows;
    ``cards`` (when set) is returned verbatim from ``slot_cardinalities``.
    Missing entries behave like catalog gaps (``None``).
    """

    def __init__(self, costs=None, cards=None):
        self.costs = costs or {}
        self.cards = cards

    def estimate(self, plan: PathPlan):
        inline_keys = sum(len(keys) for _pos, keys in plan.inline_filters)
        return self.costs.get(inline_keys)

    def slot_cardinalities(self, plan: PathPlan):
        return self.cards


class TestReorderJoins:
    def test_smallest_slot_anchors_the_chain(self):
        plan = plan_path(["a", "b", "c"], [object(), object()], {}, None)
        plan = reorder_joins(plan, FakeEstimator(cards=[5.0, 1.0, 3.0]))
        assert plan.join_order == (1, 2, 0)

    def test_default_order_stays_unannotated(self):
        plan = plan_path(["a", "b", "c"], [object(), object()], {}, None)
        assert reorder_joins(plan, FakeEstimator(cards=[1.0, 2.0, 3.0])).join_order is None

    def test_estimator_gap_keeps_the_plan(self):
        plan = plan_path(["a", "b"], [object()], {}, None)
        assert reorder_joins(plan, FakeEstimator(cards=None)) is plan
        assert reorder_joins(plan, None) is plan

    def test_single_table_plans_never_reorder(self):
        plan = plan_path(["a"], [], {}, None)
        assert reorder_joins(plan, FakeEstimator(cards=[1.0])) is plan

    def test_ties_break_toward_path_order(self):
        plan = plan_path(["a", "b", "c"], [object(), object()], {}, None)
        assert reorder_joins(plan, FakeEstimator(cards=[2.0, 2.0, 2.0])).join_order is None


class TestJoinOrderCompilation:
    """``join_order`` permutes FROM/JOIN introduction, never the rows."""

    @pytest.fixture()
    def db(self, tmp_path):
        db = build_mini_db("sqlite", db_path=tmp_path / "mini.sqlite")
        yield db
        db.close()

    def _plan(self, db, selections=None):
        plan = db.plan_path_spec(list(CHAIN), _chain_edges(db.schema), selections)
        assert plan is not None
        return plan

    def test_every_connected_order_returns_identical_rows(self, db):
        plan = self._plan(db, {2: [("title", ("hanks",))]})
        baseline = _keys(drain_plan(db, plan))
        assert baseline  # the parity assertion must witness real rows
        for order in [(0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0)]:
            rows = _keys(drain_plan(db, replace(plan, join_order=order)))
            assert rows == baseline, f"join order {order} changed the rows"

    def test_disconnected_order_is_rejected(self, db):
        plan = self._plan(db)
        with pytest.raises(ValueError, match="not connected"):
            db.compiler.compile_path(replace(plan, join_order=(0, 2, 1)))

    def test_non_permutation_is_rejected(self, db):
        plan = self._plan(db)
        with pytest.raises(ValueError, match="not a permutation"):
            db.compiler.compile_path(replace(plan, join_order=(0, 0, 1)))

    def test_prepare_plan_reorders_around_the_filtered_slot(self, db):
        plan = self._plan(db, {2: [("title", ("hanks",))]})
        prepared = db._prepare_plan(plan)
        # cards = [3 actors, 4 acts, 1 selected movie]: anchor at the movie.
        assert prepared.join_order == (2, 1, 0)
        assert prepared.estimated_rows is not None
        assert _keys(drain_plan(db, prepared)) == _keys(drain_plan(db, plan))

    def test_cost_planning_off_prepares_nothing(self, db):
        plan = self._plan(db, {2: [("title", ("hanks",))]})
        db.cost_planning = False
        prepared = db._prepare_plan(plan)
        assert prepared.join_order is None
        assert prepared.estimated_rows is None
        assert prepared.scatter_position == plan.scatter_position


class TestScatterPositionChoice:
    """The PR 5-flagged regression: selection-key counts beat raw row counts."""

    @pytest.fixture()
    def db(self, tmp_path):
        db = build_mini_db("sqlite-sharded", db_path=tmp_path / "mini.sqlite")
        yield db
        db.close()

    def _skewed_plan(self, db):
        # movie (3 rows) is the raw-count minimum, but the selection on acts
        # resolves to a single key — the truly selective slot.
        by_attr = {fk.source_attr: fk for fk in db.schema.foreign_keys}
        plan = db.plan_path_spec(
            ["movie", "acts"],
            [by_attr["movie_id"]],
            {1: [("role", ("captain",))]},
        )
        assert plan is not None
        assert plan.key_filter_map() == {1: frozenset({1})}
        return plan

    def test_cost_model_picks_the_filtered_slot(self, db):
        assert db._prepare_plan(self._skewed_plan(db)).scatter_position == 1

    def test_raw_row_counts_pick_the_smaller_table(self, db):
        db.cost_planning = False
        assert db._prepare_plan(self._skewed_plan(db)).scatter_position == 0

    def test_selection_keys_win_even_without_a_catalog(self, db):
        # The cheap fallback: full statistics unavailable, but a slot whose
        # selection resolved to keys still costs len(keys), not row counts.
        db._statistics = None
        db._cardinality_estimator = None
        assert db._prepare_plan(self._skewed_plan(db)).scatter_position == 1

    def test_both_scatter_choices_return_identical_rows(self, db):
        plan = db._prepare_plan(self._skewed_plan(db))  # seeds the chain at t1
        rows = _keys(drain_plan(db, replace(plan, scatter_position=0)))
        assert rows == _keys(drain_plan(db, plan))
        assert rows  # must witness real rows

    def test_scatter_label_names_the_cost_choice(self, db):
        prepared = db._prepare_plan(self._skewed_plan(db))
        label = db._scatter_slot_label(prepared)
        assert label == "t1 (acts, 1 selection keys) [cost-chosen over default t0]"


class TestCostAwareBatchEviction:
    """Budget overflow evicts the most expensive members, not spec order."""

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

    def test_estimator_flips_the_eviction_order(self):
        # The 3-key spec is the most expensive by estimated rows, so it is
        # evicted first even though it binds the fewest parameters; the
        # 5-key spec follows to get under budget.
        estimator = FakeEstimator(costs={5: 1.0, 3: 100.0, 4: 1.0})
        batch = plan_batch(self._resolved(), None, inline_budget=8, estimator=estimator)
        assert [index for index, _plan in batch.members] == [2]
        evicted = {index: reason for index, _plan, reason in batch.fallbacks}
        assert set(evicted) == {0, 1}
        assert "~100.0 estimated rows" in evicted[1]
        assert "~1.0 estimated rows" in evicted[0]
        assert all("parameter budget exhausted" in r for r in evicted.values())

    def test_keyless_members_are_never_evicted(self):
        resolved = self._resolved() + [(3, ["d"], [], {})]
        estimator = FakeEstimator(costs={5: 1.0, 3: 1.0, 4: 1.0, 0: 10_000.0})
        batch = plan_batch(resolved, None, inline_budget=8, estimator=estimator)
        assert 3 in [index for index, _plan in batch.members]

    def test_under_budget_nothing_is_evicted(self):
        estimator = FakeEstimator(costs={5: 100.0, 3: 100.0, 4: 100.0})
        batch = plan_batch(self._resolved(), None, estimator=estimator)
        assert [index for index, _plan in batch.members] == [0, 1, 2]
        assert not batch.fallbacks

    def test_oversized_key_set_reason_is_preserved(self):
        resolved = [(0, ["a"], [], {0: set(range(7))})]
        batch = plan_batch(resolved, None, max_inline_keys=5)
        _idx, _plan, reason = batch.fallbacks[0]
        assert "exceeds the 5-key inline cap" in reason


class TestBackendParity:
    """``execute_path`` rows are identical with cost planning on and off."""

    SPECS = [
        (["actor"], 0, [("name", ("hanks",))]),
        (["actor", "acts"], 0, [("name", ("london",))]),
        (["actor", "acts", "movie"], 2, [("title", ("hanks",))]),
        (["movie", "acts"], 1, [("role", ("captain",))]),
    ]

    @pytest.mark.parametrize("backend_name", ["memory", "sqlite", "sqlite-sharded"])
    def test_execute_path_parity(self, backend_name, tmp_path):
        path_arg = None if backend_name == "memory" else tmp_path / "mini.sqlite"
        db = build_mini_db(backend_name, db_path=path_arg)
        edge_for = {
            frozenset((fk.source, fk.target)): fk for fk in db.schema.foreign_keys
        }
        witnessed = 0
        for path, position, selections in self.SPECS:
            edges = [edge_for[frozenset(pair)] for pair in zip(path, path[1:])]
            spec_selections = {position: selections}
            with_cost = _keys(db.execute_path(path, edges, spec_selections))
            db.cost_planning = False
            without = _keys(db.execute_path(path, edges, spec_selections))
            db.cost_planning = True
            assert with_cost == without, f"{path} rows diverged under cost planning"
            witnessed += len(with_cost)
        assert witnessed  # the suite must compare real rows, not empties
        db.close()


@pytest.mark.parametrize("dataset", ["imdb", "lyrics"])
@pytest.mark.parametrize("backend_name", ["memory", "sqlite", "sqlite-sharded"])
class TestEnginePlanParity:
    """Full-pipeline rows are byte-identical with cost planning on and off."""

    def test_results_identical_across_the_workload(
        self, dataset, backend_name, tmp_path
    ):
        path_arg = None if backend_name == "memory" else tmp_path / "parity.sqlite"
        cost = QueryEngine.for_dataset(
            dataset,
            backend=backend_name,
            db_path=path_arg,
            config=EngineConfig(cache_results=False),
        )
        legacy = QueryEngine(
            cost.backend,
            config=EngineConfig(cache_results=False, cost_based_planning=False),
        )
        assert cost.backend.cost_planning is False  # legacy engine gated it
        witnessed = 0
        for query_text in QUERIES:
            cost.backend.cost_planning = True
            expected = [r.row_uids() for r in cost.search(query_text)]
            cost.backend.cost_planning = False
            actual = [r.row_uids() for r in legacy.search(query_text)]
            assert actual == expected, f"{query_text!r} rows diverged"
            witnessed += len(expected)
        assert witnessed
        cost.backend.close()


class TestExplainSurface:
    def test_explain_shows_estimates_and_plan_choices(self, tmp_path):
        engine = QueryEngine.for_dataset(
            "imdb",
            backend="sqlite-sharded",
            db_path=tmp_path / "explain.sqlite",
            config=EngineConfig(cache_results=False),
        )
        context = engine.run("london", explain=True)
        lines = "\n".join(context.explain_lines())
        assert "estimated vs actual rows:" in lines
        assert " est/" in lines  # at least one estimate paired with an actual
        assert context.executor_statistics.estimated_rows
        engine.backend.close()

    def test_cost_planning_off_reports_no_plan_choices(self, tmp_path):
        engine = QueryEngine.for_dataset(
            "imdb",
            backend="sqlite-sharded",
            db_path=tmp_path / "legacy.sqlite",
            config=EngineConfig(cache_results=False, cost_based_planning=False),
        )
        context = engine.run("london", explain=True)
        lines = "\n".join(context.explain_lines())
        assert "estimated vs actual rows:" not in lines
        assert "plan #" not in lines
        assert "[cost-chosen" not in lines
        engine.backend.close()
