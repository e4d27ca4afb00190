"""Scalability simulation of Section 3.8.5 (Tables 3.2 and 3.3).

The thesis studies plan-generation scalability on synthetic inputs: the
schema is a completely connected graph of ``n_tables`` tables; templates are
random connected subgraphs (in a complete graph, any table subset is
connected); each keyword occurs in each table with probability 0.6; tables
and keyword occurrences carry random weights from which interpretation
probabilities derive.  The number of complete interpretations grows
polynomially with the schema and exponentially with the query — while the
number of options a user evaluates grows far slower.

We reproduce the simulation over an abstract option space: each option (a
keyword-to-table binding) is an ``int`` bitmask over the enumerated
interpretations, so pruning is ``&`` and counting is ``int.bit_count()``,
and every step asks the option :func:`repro.iqp.infogain.most_informative`
picks.  The hierarchy threshold is emulated as the number of top-probability
interpretations visible to the option scorer at each step.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from repro.iqp.infogain import most_informative


@dataclass
class SimulationSpace:
    """One simulated interpretation space.

    Interpretations are numbered heaviest first, so bit ``q`` of a mask is
    the ``q``-th most probable one; ``options[o]`` has bit ``q`` set when
    option ``o`` (a keyword-to-table binding) subsumes interpretation ``q``.
    """

    weights: list[float]  # positive, non-increasing
    options: list[int]
    option_labels: list[tuple[int, int]]  # (keyword, table)
    #: Exact space size before capping (the "# of queries" column).
    theoretical_queries: int

    @property
    def n_queries(self) -> int:
        return len(self.weights)


def generate_simulation(
    n_tables: int,
    n_keywords: int,
    seed: int = 31,
    occurrence_probability: float = 0.6,
    n_templates: int | None = None,
    max_template_size: int = 4,
    max_queries: int = 30_000,
) -> SimulationSpace:
    """Generate one simulation instance (deterministic in ``seed``)."""
    rng = random.Random(seed)
    if n_templates is None:
        # The template pool grows with the schema (join paths of a bigger
        # graph), driving the polynomial space growth of Table 3.2.
        n_templates = max(4, (n_tables * n_tables) // 3)
    table_weight = [rng.uniform(0.1, 1.0) for _ in range(n_tables)]
    # occurrence[k][t]: does keyword k occur in table t.
    occurrence = [
        [rng.random() < occurrence_probability for _ in range(n_tables)]
        for _ in range(n_keywords)
    ]
    # Every keyword must occur somewhere, or the query has no interpretation.
    for row in occurrence:
        if not any(row):
            row[rng.randrange(n_tables)] = True
    binding_weight = [
        [rng.uniform(0.05, 1.0) * table_weight[t] for t in range(n_tables)]
        for _ in range(n_keywords)
    ]

    templates: list[list[int]] = []
    seen_templates: set[tuple[int, ...]] = set()
    for _ in range(n_templates):
        size = min(rng.randint(2, max_template_size), n_tables)
        tables = sorted(rng.sample(range(n_tables), size))
        if tuple(tables) in seen_templates:
            continue
        seen_templates.add(tuple(tables))
        templates.append(tables)

    # Exact space size: sum over templates of prod_k (#occurring tables in T).
    per_template: list[list[list[int]]] = []
    for tables in templates:
        placements = [[t for t in tables if occurrence[k][t]] for k in range(n_keywords)]
        if all(placements):
            per_template.append(placements)
    theoretical = sum(math.prod(map(len, p)) for p in per_template)

    # Enumerate (or sample) up to max_queries complete interpretations.
    queries: list[tuple[int, ...]] = []  # per keyword: bound table
    budget_per_template = max(1, max_queries // max(1, len(per_template)))
    for placements in per_template:
        total = math.prod(map(len, placements))
        if total <= budget_per_template:
            indices: list[int] | range = range(total)
        else:
            indices = sorted(rng.sample(range(total), budget_per_template))
        for flat in indices:
            assignment = []
            for viable in placements:
                flat, digit = divmod(flat, len(viable))
                assignment.append(viable[digit])
            queries.append(tuple(assignment))

    def weight(query: tuple[int, ...]) -> float:
        return math.prod(binding_weight[k][t] for k, t in enumerate(query))

    # The by-weight order is fixed once here: bit q is the q-th heaviest.
    queries.sort(key=weight, reverse=True)
    bits = {
        (k, t): bytearray((len(queries) + 7) // 8)
        for k in range(n_keywords)
        for t in range(n_tables)
        if occurrence[k][t]
    }
    for q, query in enumerate(queries):
        for k, t in enumerate(query):
            bits[k, t][q >> 3] |= 1 << (q & 7)
    masks = {label: int.from_bytes(row, "little") for label, row in bits.items()}
    labels = [label for label, mask in masks.items() if mask]
    return SimulationSpace(
        weights=[weight(query) for query in queries],
        options=[masks[label] for label in labels],
        option_labels=labels,
        theoretical_queries=theoretical,
    )


@dataclass
class SimulationRun:
    """Outcome of one interactive greedy construction over a simulation."""

    steps: int
    seconds_per_step: float
    #: The intended interpretation survived every pruning step (it always
    #: should — the oracle answers consistently).
    resolved: bool
    #: Queries left when construction stopped; >1 means the remainder was
    #: indistinguishable by options (the user scans the final shortlist).
    remaining: int = 1


def run_greedy_simulation(
    space: SimulationSpace,
    seed: int = 53,
    threshold: int = 20,
    stop_size: int = 1,
    max_steps: int = 500,
) -> SimulationRun:
    """Simulate a full construction dialogue with a random intended query.

    The hierarchy threshold of Alg. 3.2 is emulated by letting the option
    scorer see only the ``threshold`` most probable *active* interpretations
    when computing information gain — the partially expanded hierarchy's top
    level — while pruning applies to the full active set.  When no option
    splits the visible set, it grows by another ``threshold``, as Alg. 3.2
    expands a hierarchy that offers no option.
    """
    rng = random.Random(seed)
    n = space.n_queries
    if n == 0:
        return SimulationRun(steps=0, seconds_per_step=0.0, resolved=True)
    intended = rng.choices(range(n), weights=space.weights)[0]
    active = (1 << n) - 1
    window = threshold
    steps = 0
    elapsed = 0.0
    while active.bit_count() > stop_size and steps < max_steps:
        started = time.perf_counter()
        # Visible top level: the `window` heaviest active interpretations,
        # i.e. the lowest set bits of `active`.
        visible: list[int] = []
        rest = active
        while rest and len(visible) < window:
            low = rest & -rest
            visible.append(low)
            rest ^= low
        best, _gain = most_informative(
            [space.weights[bit.bit_length() - 1] for bit in visible],
            space.options,
            lambda mask: [mask & bit != 0 for bit in visible],
        )
        elapsed += time.perf_counter() - started
        if best is None:
            if not rest:
                break  # nothing distinguishes the active set
            window += threshold  # stuck: expand the top level, as Alg. 3.2 does
            continue
        steps += 1
        window = threshold
        active &= best if best >> intended & 1 else ~best
    return SimulationRun(
        steps=steps,
        seconds_per_step=elapsed / steps if steps else 0.0,
        resolved=bool(active >> intended & 1),
        remaining=active.bit_count(),
    )


def random_option_space(n_queries: int, n_options: int, seed: int = 61):
    """A random abstract option space for the Table 3.4 optimality study.

    Each option subsumes a random half of the queries; probabilities are
    random — exactly the setup of Section 3.8.6.
    """
    from repro.iqp.plan import OptionSpace

    rng = random.Random(seed)
    probabilities = [rng.random() for _ in range(n_queries)]
    options = {
        f"opt{o}": frozenset(rng.sample(range(n_queries), max(1, n_queries // 2)))
        for o in range(n_options)
    }
    return OptionSpace.build(
        queries=[f"q{i}" for i in range(n_queries)],
        probabilities=probabilities,
        options=options,
    )
