"""The query hierarchy (Section 3.5.3, Fig. 3.2) with incremental expansion.

The hierarchy connects partial and complete interpretations of a keyword
query by sub-query subsumption.  IQP never materializes the whole space:
starting from bare templates (level 0), each expansion binds the next keyword
occurrence, producing the next level; the *top level* is the current frontier
the greedy construction algorithm works on (Alg. 3.2).  Accepting/rejecting a
query construction option prunes the frontier, so only a fraction of the
space proportional to the interaction cost is ever generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.generator import InterpretationGenerator
from repro.core.interpretation import Atom, Interpretation, atom_sort_key
from repro.core.keywords import Keyword, KeywordQuery
from repro.core.options import AtomSetOption, Option
from repro.core.probability import ProbabilityModel, normalize
from repro.core.templates import QueryTemplate


@dataclass(frozen=True)
class PartialNode:
    """A node of the hierarchy: a template with the first ``level`` keywords bound."""

    template: QueryTemplate
    assignment: tuple[tuple[Atom, int], ...]
    weight: float

    @cached_property
    def atoms(self) -> frozenset[Atom]:
        return frozenset(atom for atom, _slot in self.assignment)

    def subsumed_by(self, option_atoms: frozenset[Atom]) -> bool:
        """True iff the option is a sub-query of this node."""
        return option_atoms <= self.atoms


class QueryHierarchy:
    """Incrementally materialized interpretation space of one keyword query."""

    def __init__(
        self,
        query: KeywordQuery,
        generator: InterpretationGenerator,
        model: ProbabilityModel,
        max_frontier: int = 10_000,
    ):
        self.query = query
        self.generator = generator
        self.model = model
        self.max_frontier = max_frontier
        self._atom_map = generator.atom_map(query)
        self.keywords: list[Keyword] = list(self._atom_map)
        self.level = 0
        #: Count of nodes ever generated — the scalability measure of §3.8.5.
        self.generated_nodes = 0
        self.frontier: list[PartialNode] = [
            PartialNode(template=t, assignment=(), weight=model.template_prior(t))
            for t in generator.templates
        ]
        self.generated_nodes += len(self.frontier)

    # -- expansion ---------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of keyword levels in the full hierarchy."""
        return len(self.keywords)

    def can_expand(self) -> bool:
        return self.level < self.depth and bool(self.frontier)

    def at_complete_level(self) -> bool:
        return self.level >= self.depth

    def expand_once(self) -> int:
        """Bind the next keyword on every frontier node; returns #children."""
        if not self.can_expand():
            return 0
        keyword = self.keywords[self.level]
        children: list[PartialNode] = []
        for node in self.frontier:
            for atom in self._atom_map[keyword]:
                for slot in node.template.positions_of(atom.table):
                    weight = node.weight * self.model.atom_weight(atom, node.template)
                    children.append(
                        PartialNode(
                            template=node.template,
                            assignment=node.assignment + ((atom, slot),),
                            weight=weight,
                        )
                    )
        self.level += 1
        if self.level == self.depth:
            children = [c for c in children if self._is_minimal(c)]
        if len(children) > self.max_frontier:
            children.sort(key=lambda n: -n.weight)
            children = children[: self.max_frontier]
        self.generated_nodes += len(children)
        self.frontier = children
        return len(children)

    def expand_to_complete(self) -> None:
        while self.can_expand():
            self.expand_once()

    @staticmethod
    def _is_minimal(node: PartialNode) -> bool:
        """Minimality condition of Def. 3.5.4(2): endpoints must be occupied."""
        occupied = {slot for _atom, slot in node.assignment}
        return all(leaf in occupied for leaf in node.template.leaf_positions())

    # -- option handling ------------------------------------------------------

    def frontier_atoms(self) -> list[Option]:
        """Candidate query construction options: the atoms of frontier nodes.

        Each atom is one partial interpretation ("'hanks' is an actor name");
        these are the options the greedy algorithm scores by information gain.
        """
        seen: set[Atom] = set()
        for node in self.frontier:
            seen.update(node.atoms)
        return [
            AtomSetOption(frozenset([atom]))
            for atom in sorted(seen, key=atom_sort_key)
        ]

    def accept(self, option: Option) -> int:
        """Keep only frontier nodes the accepted option subsumes."""
        self.frontier = [n for n in self.frontier if option.matches(n.atoms)]
        return len(self.frontier)

    def reject(self, option: Option) -> int:
        """Drop frontier nodes the rejected option subsumes."""
        self.frontier = [n for n in self.frontier if not option.matches(n.atoms)]
        return len(self.frontier)

    # -- probabilities ------------------------------------------------------------

    def frontier_probabilities(self) -> list[float]:
        """Normalized probabilities over the current frontier (Eq. 3.12 input)."""
        return normalize([n.weight for n in self.frontier])

    def option_probability(self, option: Option) -> float:
        """``P(O | K)`` over the frontier: mass of nodes the option subsumes."""
        probs = self.frontier_probabilities()
        return sum(
            p for node, p in zip(self.frontier, probs) if option.matches(node.atoms)
        )

    # -- extraction ------------------------------------------------------------

    def complete_interpretations(self) -> list[Interpretation]:
        """Interpretations of the frontier once all keywords are bound."""
        if not self.at_complete_level():
            raise RuntimeError("hierarchy not yet expanded to the complete level")
        effective_query = KeywordQuery(keywords=tuple(self.keywords), text=str(self.query))
        out: list[Interpretation] = []
        for node in self.frontier:
            interp = Interpretation.build(effective_query, node.template, node.assignment)
            try:
                interp.validate()
            except ValueError:
                continue
            out.append(interp)
        return out

    def __len__(self) -> int:
        return len(self.frontier)
