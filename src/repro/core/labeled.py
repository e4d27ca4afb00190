"""Labeled keyword search (Section 2.2.7).

Users who know parts of the schema can label keywords to pin their
interpretation, as in ``actor:hanks movie:2001`` — the keyword then maps
exclusively to elements complying with the label.  Labels accept a table
name (``actor:hanks``) or a table.attribute pair (``movie.title:cool``);
unlabeled keywords stay fully ambiguous.

:class:`LabeledGenerator` wraps an :class:`InterpretationGenerator` and
filters each keyword's candidate atoms by its label, shrinking the
interpretation space exactly the way the thesis describes labeled search
trading usability for expressiveness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.core.generator import InterpretationGenerator
from repro.core.interpretation import Atom, TableAtom, ValueAtom
from repro.core.keywords import Keyword, KeywordQuery
from repro.db.tokenizer import DEFAULT_TOKENIZER, Tokenizer

_LABELED_TOKEN = re.compile(r"^(?P<label>[A-Za-z_][\w.]*):(?P<term>\S+)$")


@dataclass(frozen=True)
class Label:
    """A constraint on one keyword: a table, optionally an attribute."""

    table: str
    attribute: str | None = None

    def admits(self, atom: Atom) -> bool:
        if isinstance(atom, ValueAtom):
            if atom.table != self.table:
                return False
            return self.attribute is None or atom.attribute == self.attribute
        if isinstance(atom, TableAtom):
            return self.attribute is None and atom.table == self.table
        return False

    def __str__(self) -> str:
        if self.attribute is None:
            return self.table
        return f"{self.table}.{self.attribute}"


@dataclass(frozen=True)
class LabeledQuery:
    """A keyword query plus per-position label constraints."""

    query: KeywordQuery
    labels: dict[int, Label] = field(default_factory=dict)

    def label_of(self, keyword: Keyword) -> Label | None:
        return self.labels.get(keyword.position)


def parse_labeled(text: str, tokenizer: Tokenizer = DEFAULT_TOKENIZER) -> LabeledQuery:
    """Parse ``"actor:hanks 2001"`` into keywords plus label constraints.

    Each whitespace-separated token may carry one ``label:`` prefix; the
    remainder is tokenized normally (a labeled token contributing several
    terms labels each of them).
    """
    keywords: list[Keyword] = []
    labels: dict[int, Label] = {}
    position = 0
    for raw in text.split():
        match = _LABELED_TOKEN.match(raw)
        if match:
            label_text = match.group("label")
            if "." in label_text:
                table, attribute = label_text.split(".", 1)
                label = Label(table=table, attribute=attribute)
            else:
                label = Label(table=label_text)
            terms = tokenizer.tokens(match.group("term"))
        else:
            label = None
            terms = tokenizer.tokens(raw)
        for term in terms:
            keywords.append(Keyword(position, term))
            if label is not None:
                labels[position] = label
            position += 1
    return LabeledQuery(
        query=KeywordQuery(keywords=tuple(keywords), text=text), labels=labels
    )


class LabeledGenerator(InterpretationGenerator):
    """Interpretation generation with label constraints applied per keyword."""

    def __init__(self, base: InterpretationGenerator, labeled: LabeledQuery):
        self._adopt(base)
        self._labeled = labeled

    def keyword_atoms(self, keyword: Keyword) -> list[Atom]:
        atoms = super().keyword_atoms(keyword)
        label = self._labeled.label_of(keyword)
        if label is None:
            return atoms
        return [a for a in atoms if label.admits(a)]

    def interpretations_for(self) -> list:
        """The (constrained) interpretation space of the labeled query."""
        return self.interpretations(self._labeled.query)
