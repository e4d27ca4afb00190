"""Unit tests for repro.iqp.brute_force and repro.iqp.greedy_plan."""

import pytest

from repro.datasets.simulation import random_option_space
from repro.iqp.brute_force import brute_force_plan
from repro.iqp.greedy_plan import greedy_plan
from repro.iqp.plan import OptionSpace, expected_cost


@pytest.fixture
def binary_space() -> OptionSpace:
    """4 equally likely queries, 2 orthogonal bisecting options: the optimal
    plan is a balanced depth-2 tree with cost exactly 2."""
    return OptionSpace.build(
        queries=["q0", "q1", "q2", "q3"],
        probabilities=[0.25] * 4,
        options={"left": {0, 1}, "odd": {0, 2}},
    )


class TestBruteForce:
    def test_balanced_tree_cost(self, binary_space):
        plan, cost = brute_force_plan(binary_space)
        assert cost == pytest.approx(2.0)

    def test_plan_reaches_every_query(self, binary_space):
        plan, _cost = brute_force_plan(binary_space)
        for i in range(4):
            assert plan.depth_of(i) == 2

    def test_expected_cost_consistent(self, binary_space):
        plan, cost = brute_force_plan(binary_space)
        assert expected_cost(plan, binary_space) == pytest.approx(cost)

    def test_single_query_zero_cost(self):
        space = OptionSpace.build(["q"], [1.0], {})
        _plan, cost = brute_force_plan(space)
        assert cost == 0.0

    def test_no_options_scan_fallback(self):
        space = OptionSpace.build(["a", "b", "c"], [0.5, 0.3, 0.2], {})
        plan, cost = brute_force_plan(space)
        assert plan.scan
        assert cost > 0

    def test_skewed_probabilities_prefer_isolating_heavy(self):
        space = OptionSpace.build(
            queries=["hot", "q1", "q2", "q3"],
            probabilities=[0.85, 0.05, 0.05, 0.05],
            options={"isolate": {0}, "halve": {0, 1}},
        )
        plan, _cost = brute_force_plan(space)
        # The heavy query should be resolved in a single question.
        assert plan.depth_of(0) == 1


class TestGreedy:
    def test_matches_optimum_on_orthogonal_splits(self, binary_space):
        _bp, b_cost = brute_force_plan(binary_space)
        _gp, g_cost = greedy_plan(binary_space)
        assert g_cost == pytest.approx(b_cost)

    def test_never_beats_brute_force(self):
        for seed in range(8):
            space = random_option_space(n_queries=10, n_options=5, seed=seed)
            _bp, b_cost = brute_force_plan(space)
            _gp, g_cost = greedy_plan(space)
            assert g_cost >= b_cost - 1e-9

    def test_near_optimal(self):
        """Table 3.4's claim: greedy within a few percent of optimal."""
        gaps = []
        for seed in range(10):
            space = random_option_space(n_queries=12, n_options=6, seed=seed)
            _bp, b_cost = brute_force_plan(space)
            _gp, g_cost = greedy_plan(space)
            gaps.append((g_cost - b_cost) / b_cost if b_cost else 0.0)
        assert sum(gaps) / len(gaps) < 0.10

    def test_plan_resolves_all_queries(self):
        space = random_option_space(n_queries=10, n_options=5, seed=3)
        plan, _cost = greedy_plan(space)
        for i in range(10):
            assert plan.depth_of(i) >= 0

    def test_asks_the_first_splitting_option_when_no_option_gains(self):
        """All mass on one query: every gain is 0, and the plan still asks."""
        space = OptionSpace.build(
            queries=["q0", "q1", "q2"],
            probabilities=[1.0, 0.0, 0.0],
            options={"b": {1}, "a": {0, 1}},
        )
        plan, _cost = greedy_plan(space)
        assert plan.option == "a"
        assert plan.accept.option == "b"

    def test_single_query(self):
        space = OptionSpace.build(["q"], [1.0], {})
        _plan, cost = greedy_plan(space)
        assert cost == 0.0
