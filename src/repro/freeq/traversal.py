"""Best-first exploration of very large interpretation spaces (Section 5.6.2).

On a Freebase-scale schema the interpretation space of a keyword query is
far too large to materialize and rank.  The explorer maintains a max-heap of
partial interpretations ordered by their probability upper bound and expands
the best partial first; because every keyword binding multiplies the weight
by a factor at most 1, the first complete interpretations popped are the
globally most probable ones — top-k materialization without enumerating the
space.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import count

from repro.core.generator import InterpretationGenerator
from repro.core.interpretation import Atom, Interpretation
from repro.core.keywords import KeywordQuery
from repro.core.probability import ProbabilityModel
from repro.core.templates import QueryTemplate


@dataclass(frozen=True)
class _Partial:
    template: QueryTemplate
    assignment: tuple[tuple[Atom, int], ...]
    level: int
    weight: float


class BestFirstExplorer:
    """Top-k materialization of the interpretation space of one query."""

    def __init__(
        self,
        query: KeywordQuery,
        generator: InterpretationGenerator,
        model: ProbabilityModel,
    ):
        self.query = query
        self.generator = generator
        self.model = model
        self._atom_map = generator.atom_map(query)
        self.keywords = list(self._atom_map)
        #: Partial interpretations popped from the heap — the work measure
        #: Fig. 5.5's response times scale with.
        self.pops = 0

    def _children(self, partial: _Partial) -> list[_Partial]:
        keyword = self.keywords[partial.level]
        out: list[_Partial] = []
        for atom in self._atom_map[keyword]:
            for slot in partial.template.positions_of(atom.table):
                # Clamp the factor at 1 so the heap order is an admissible
                # upper bound on every completion's weight.
                factor = min(self.model.atom_weight(atom, partial.template), 1.0)
                out.append(
                    _Partial(
                        template=partial.template,
                        assignment=partial.assignment + ((atom, slot),),
                        level=partial.level + 1,
                        weight=partial.weight * factor,
                    )
                )
        return out

    @staticmethod
    def _is_minimal(partial: _Partial) -> bool:
        occupied = {slot for _atom, slot in partial.assignment}
        return all(leaf in occupied for leaf in partial.template.leaf_positions())

    def top_interpretations(
        self, n: int, max_pops: int = 200_000
    ) -> list[tuple[Interpretation, float]]:
        """The ``n`` most probable complete interpretations, best first."""
        if not self.keywords:
            return []
        effective_query = KeywordQuery(keywords=tuple(self.keywords), text=str(self.query))
        tie = count()
        heap: list[tuple[float, int, _Partial]] = []
        for template in self.generator.templates:
            prior = self.model.template_prior(template)
            if prior <= 0.0:
                continue
            heapq.heappush(heap, (-prior, next(tie), _Partial(template, (), 0, prior)))
        results: list[tuple[Interpretation, float]] = []
        self.pops = 0
        while heap and len(results) < n and self.pops < max_pops:
            neg_weight, _t, partial = heapq.heappop(heap)
            self.pops += 1
            if partial.level == len(self.keywords):
                if not self._is_minimal(partial):
                    continue
                interp = Interpretation.build(
                    effective_query, partial.template, partial.assignment
                )
                try:
                    interp.validate()
                except ValueError:
                    continue
                results.append((interp, -neg_weight))
                continue
            for child in self._children(partial):
                heapq.heappush(heap, (-child.weight, next(tie), child))
        return results
