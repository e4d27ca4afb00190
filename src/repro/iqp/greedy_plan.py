"""Greedy construction plan over an abstract option space (Section 3.7.2).

At every node, pick the option with maximal information gain over the
current subset — the near-optimal strategy Table 3.4 compares against the
brute-force optimum.  Unlike :func:`repro.iqp.brute_force.brute_force_plan`
this runs in polynomial time.
"""

from __future__ import annotations

from repro.iqp.infogain import most_informative
from repro.iqp.plan import (
    OptionSpace,
    PlanNode,
    expected_cost,
    make_scan_node,
    splitting_options,
)


def greedy_plan(space: OptionSpace) -> tuple[PlanNode, float]:
    """Build the full greedy QCP and return it with its expected cost."""

    def build(subset: frozenset[int]) -> PlanNode:
        if len(subset) == 1:
            (only,) = subset
            return PlanNode(subset=subset, query_index=only)
        candidates = splitting_options(space, subset)
        if not candidates:
            return make_scan_node(space, subset)
        ordered = sorted(subset)
        weights = [space.probabilities[i] for i in ordered]
        choice, _gain = most_informative(
            weights, candidates, lambda c: [i in c[1] for i in ordered]
        )
        # Every candidate splits the subset; when none gains, ask the first.
        option, inside, outside = choice or candidates[0]
        return PlanNode(
            subset=subset,
            option=option,
            accept=build(inside),
            reject=build(outside),
        )

    plan = build(space.all_indices())
    return plan, expected_cost(plan, space)
