"""Interpretation-space generation (Section 3.5.2).

Given a keyword query, the generator finds the candidate interpretations of
each keyword from the inverted index (value matches) and the schema (table
name matches), then combines them with pre-computed query templates into
complete query interpretations — the interpretation space (Def. 3.5.5).

The space grows polynomially with the schema and exponentially with the query
length, so every enumeration is capped and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.interpretation import (
    Atom,
    Interpretation,
    OperatorAtom,
    TableAtom,
    ValueAtom,
)
from repro.core.keywords import Keyword, KeywordQuery
from repro.core.templates import QueryTemplate, generate_templates
from repro.db.backends.base import StorageBackend

#: Default operator vocabulary: keyword term -> aggregation operator
#: (the analytical-query class of §2.2.7; K4's "number of movies ...").
DEFAULT_OPERATOR_TERMS: tuple[tuple[str, str], ...] = (
    ("count", "count"),
    ("number", "count"),
    ("total", "count"),
)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs bounding the enumerated interpretation space."""

    #: Maximum keyword interpretations considered per keyword occurrence.
    max_atoms_per_keyword: int = 16
    #: Hard cap on the number of complete interpretations enumerated.
    max_interpretations: int = 20_000
    #: Whether keywords may be interpreted as table names (metadata matches).
    include_table_atoms: bool = True
    #: Drop interpretations with empty results (DivQ, Section 4.4.2).
    require_nonempty: bool = False
    #: Aggregation-operator vocabulary ((term, operator) pairs); empty
    #: disables analytical interpretations.
    operator_terms: tuple[tuple[str, str], ...] = DEFAULT_OPERATOR_TERMS


@dataclass(frozen=True)
class TemplateSlots:
    """One template's slot table: where each table sits and which slots are leaves."""

    template: QueryTemplate
    #: Table -> the slots it occupies, ascending (self-joins yield several).
    slots_of: dict[str, tuple[int, ...]]
    #: Leaf slot -> its bit in the search's endpoint-coverage mask.  A
    #: single-table template's only slot carries both bits.
    leaf_bits: dict[int, int]
    leaf_tables: frozenset[str]

    @classmethod
    def of(cls, template: QueryTemplate) -> "TemplateSlots":
        leaves = template.leaf_positions()
        return cls(
            template=template,
            slots_of={t: tuple(template.positions_of(t)) for t in template.path},
            leaf_bits={leaves[0]: 1, leaves[-1]: 2} if len(leaves) > 1 else {leaves[0]: 3},
            leaf_tables=frozenset(template.path[leaf] for leaf in leaves),
        )


#: Endpoints still unoccupied, by coverage mask (bit 1: first, bit 2: last).
_UNCOVERED = (2, 1, 1, 0)

_Placement = tuple[tuple[Atom, int], int, bool]  # (atom, slot), leaf bits, is operator


def _search(
    placements: list[list[_Placement]], position: list[int]
) -> Iterator[tuple[tuple[Atom, int], ...]]:
    """Valid complete assignments of one template, in lexicographic order.

    ``placements[level]`` lists where the level's keyword may go;
    ``position[level]`` is that keyword's index in the emitted tuple.
    """
    last = len(placements) - 1
    chosen: list = [None] * len(placements)

    def place(level: int, covered: int, has_operator: bool):
        index = position[level]
        keywords_left = last - level
        for pair, leaf_bits, is_operator in placements[level]:
            if is_operator and has_operator:
                continue
            now_covered = covered | leaf_bits
            if _UNCOVERED[now_covered] > keywords_left:
                continue
            chosen[index] = pair
            if level == last:
                yield tuple(chosen)
            else:
                yield from place(level + 1, now_covered, has_operator or is_operator)

    return place(0, 0, False)


class InterpretationGenerator:
    """Combines keyword interpretations and templates into structured queries."""

    def __init__(
        self,
        database: StorageBackend,
        templates: Sequence[QueryTemplate] | None = None,
        config: GeneratorConfig = GeneratorConfig(),
        max_template_joins: int = 3,
    ):
        self.database = database
        self.config = config
        self.templates: list[QueryTemplate] = (
            list(templates)
            if templates is not None
            else generate_templates(database.schema, max_joins=max_template_joins)
        )
        self._index = database.require_index()
        self._operators = dict(config.operator_terms)
        #: Per-template slot tables, computed once and shared by every query.
        self._slot_tables = [TemplateSlots.of(t) for t in self.templates]

    def _adopt(self, base: "InterpretationGenerator") -> None:
        """Share ``base``'s database, config, templates and precomputed tables.

        The one seam for a generator that wraps another (``LabeledGenerator``)
        instead of running ``__init__``: the whole instance state is taken
        over by reference, so nothing computed there can be missing here.
        """
        self.__dict__.update(vars(base))

    # -- keyword-level interpretation ---------------------------------------

    def keyword_atoms(self, keyword: Keyword) -> list[Atom]:
        """All candidate interpretations of one keyword occurrence.

        Value atoms come from the inverted index; table atoms from schema-term
        matches.  Capped at ``max_atoms_per_keyword``, most frequent value
        matches first (so the cap keeps the plausible candidates).
        """
        atoms: list[Atom] = []
        refs = self._index.attributes_containing(keyword.term)
        refs = sorted(
            refs,
            key=lambda ref: (-self._index.tf(keyword.term, ref[0], ref[1]), ref),
        )
        for table, attribute in refs:
            atoms.append(ValueAtom(keyword=keyword, table=table, attribute=attribute))
        if self.config.include_table_atoms:
            for table in sorted(self._index.tables_matching_schema_term(keyword.term)):
                atoms.append(TableAtom(keyword=keyword, table=table))
        operator = self._operators.get(keyword.term)
        if operator is not None:
            for table in self.database.schema.table_names:
                atoms.append(
                    OperatorAtom(keyword=keyword, operator=operator, table=table)
                )
        return atoms[: self.config.max_atoms_per_keyword]

    def atom_map(self, query: KeywordQuery) -> dict[Keyword, list[Atom]]:
        """The candidate atoms of every *effective* keyword, in query order.

        The single per-query evaluation of :meth:`keyword_atoms`: keywords
        without any interpretation in the database (misspelled or absent) are
        excluded from query construction (Section 3.5.2).
        """
        atom_map: dict[Keyword, list[Atom]] = {}
        for keyword in query.keywords:
            if keyword not in atom_map:
                atoms = self.keyword_atoms(keyword)
                if atoms:
                    atom_map[keyword] = atoms
        return atom_map

    def effective_keywords(self, query: KeywordQuery) -> list[Keyword]:
        """Keywords that have at least one interpretation in the database."""
        return list(self.atom_map(query))

    # -- space enumeration ----------------------------------------------------

    def enumerate(self, query: KeywordQuery) -> Iterator[Interpretation]:
        """Yield complete (w.r.t. effective keywords) valid interpretations.

        Only valid interpretations are ever constructed: the search places one
        keyword per level, in query order, and abandons a branch as soon as it
        holds a second aggregation operator or leaves more template endpoints
        unoccupied than there are keywords left to occupy them (the minimality
        condition of Def. 3.5.4).  Templates are visited in catalog order and
        placements in ``(atom, slot)`` order, so the output is the
        lexicographic product of the placements with the invalid combinations
        left out.  Each assignment is emitted in the canonical order of
        :meth:`Interpretation.build` (by keyword), which is what lets
        ``Interpretation`` be constructed directly.
        """
        atom_map = self.atom_map(query)
        if not atom_map:
            return
        keywords = tuple(atom_map)
        effective_query = KeywordQuery(keywords=keywords, text=str(query))
        #: Per keyword: its atoms flagged operator-or-not, and their tables.
        flagged = [
            [(atom, isinstance(atom, OperatorAtom)) for atom in atoms]
            for atoms in atom_map.values()
        ]
        keyword_tables = [{atom.table for atom in atoms} for atoms in atom_map.values()]
        reachable = set().union(*keyword_tables)
        # Search level -> index of that keyword in the canonical assignment.
        canonical = sorted(keywords)
        position = [canonical.index(keyword) for keyword in keywords]
        require_nonempty = self.config.require_nonempty
        produced = 0
        for slots in self._slot_tables:
            if len(slots.leaf_bits) > len(keywords) or not slots.leaf_tables <= reachable:
                continue
            if any(tables.isdisjoint(slots.slots_of) for tables in keyword_tables):
                continue
            placements = [
                [
                    ((atom, slot), slots.leaf_bits.get(slot, 0), is_operator)
                    for atom, is_operator in atoms
                    for slot in slots.slots_of.get(atom.table, ())
                ]
                for atoms in flagged
            ]
            template = slots.template
            for assignment in _search(placements, position):
                interp = Interpretation(effective_query, template, assignment)
                if require_nonempty and not interp.to_structured_query().has_results(
                    self.database
                ):
                    continue
                yield interp
                produced += 1
                if produced >= self.config.max_interpretations:
                    return

    def interpretations(self, query: KeywordQuery) -> list[Interpretation]:
        """The (capped) interpretation space of ``query`` (Def. 3.5.5)."""
        return list(self.enumerate(query))

    def space_size(self, query: KeywordQuery) -> int:
        """Size of the (capped) interpretation space."""
        return sum(1 for _ in self.enumerate(query))
