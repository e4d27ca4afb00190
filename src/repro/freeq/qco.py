"""Ontology-based query construction options and their efficiency
(Sections 5.5.2–5.5.3).

The provider groups the frontier's candidate keyword interpretations by
ontology concept (at a configurable granularity level) and offers one
:class:`~repro.core.options.ConceptOption` per ``(keyword, concept)`` group,
falling back to plain atom options where concepts do not discriminate.

*Efficiency of a QCO* is measured as the fraction of the frontier's
uncertainty one user interaction resolves: the option's information gain
normalized by the frontier entropy.  Ontology QCOs approach the ideal 50/50
probability split on big schemas, whereas per-attribute QCOs each carry a
sliver of probability mass — the effect behind Fig. 5.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.hierarchy import QueryHierarchy
from repro.core.interpretation import Atom, TableAtom, ValueAtom, atom_sort_key
from repro.core.keywords import Keyword
from repro.core.options import AtomSetOption, ConceptOption, Option
from repro.core.probability import entropy, normalize
from repro.freeq.ontology import SchemaOntology
from repro.iqp.infogain import information_gain, most_informative


@dataclass
class OntologyQCOProvider:
    """Generates ontology-based QCOs from a hierarchy frontier.

    ``level`` selects the concept granularity (1 = semantic types,
    2 = type/domain, deeper = finer).  ``include_atom_options`` keeps the
    per-attribute options available so the final disambiguation steps can
    still distinguish attributes inside one concept.
    """

    ontology: SchemaOntology
    #: Coarsest concept level offered (1 = semantic types).  Options are
    #: generated at every level from here down to the leaves, so accepted
    #: coarse concepts can be drilled into ("Person" -> "Person/film").
    level: int = 1
    include_atom_options: bool = True

    def __call__(self, hierarchy: QueryHierarchy) -> list[Option]:
        groups: dict[tuple[Keyword, str], set[Atom]] = {}
        atoms_seen: set[Atom] = set()
        depth = self.ontology.depth()
        for node in hierarchy.frontier:
            for atom in node.atoms:
                atoms_seen.add(atom)
                concept = self._concept_of(atom)
                if concept is None:
                    continue
                for level in range(self.level, depth + 1):
                    grouped = self.ontology.concept_at_level(concept, level)
                    groups.setdefault((atom.keyword, grouped), set()).add(atom)
        options: list[Option] = []
        seen_groups: set[tuple[Keyword, frozenset[Atom]]] = set()
        for (keyword, concept), atoms in sorted(
            groups.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            frozen = frozenset(atoms)
            if len(frozen) < 2:
                continue  # a single attribute: the atom option covers it
            key = (keyword, frozen)
            if key in seen_groups:
                continue  # deeper level groups identically — skip duplicate
            seen_groups.add(key)
            options.append(ConceptOption(keyword=keyword, concept=concept, atoms=frozen))
        if self.include_atom_options or not options:
            options.extend(
                AtomSetOption(frozenset([a]))
                for a in sorted(atoms_seen, key=atom_sort_key)
            )
        return options

    def _concept_of(self, atom: Atom) -> str | None:
        if isinstance(atom, ValueAtom):
            return self.ontology.concept_of_attribute(atom.table, atom.attribute)
        if isinstance(atom, TableAtom):
            return self.ontology.concept_of_table(atom.table)
        return None


def option_efficiency(weights: Sequence[float], pattern: Sequence[bool]) -> float:
    """Efficiency of one QCO: information gain / frontier entropy, in [0, 1].

    1 means the single interaction fully resolves the frontier; 0 means the
    option carries no information (it does not split the frontier).
    """
    h = entropy(normalize(list(weights)))
    if h <= 0.0:
        return 0.0
    return information_gain(weights, pattern) / h


def provider_efficiency(
    hierarchy: QueryHierarchy, options: Sequence[Option]
) -> float:
    """Efficiency of a QCO set: the best single option's efficiency.

    This is the per-step measure swept against schema size in Fig. 5.2.
    """
    weights = [node.weight for node in hierarchy.frontier]

    def subsumes(option: Option) -> list[bool]:
        return [option.matches(node.atoms) for node in hierarchy.frontier]

    best, _gain = most_informative(weights, options, subsumes)
    return 0.0 if best is None else option_efficiency(weights, subsumes(best))
