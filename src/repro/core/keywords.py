"""Keyword queries (Def. 3.5.1).

A keyword query is a *bag* of words: duplicates are allowed and each
occurrence is interpreted independently.  We therefore identify a keyword by
its position in the query, not by its surface form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.db.tokenizer import DEFAULT_TOKENIZER, Tokenizer


@dataclass(frozen=True, order=True, slots=True)
class Keyword:
    """One keyword occurrence: position in the query plus the normalized term."""

    position: int
    term: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.term


@dataclass(frozen=True)
class KeywordQuery:
    """A bag of keywords (Def. 3.5.1), e.g. ``"hanks 2001"``."""

    keywords: tuple[Keyword, ...]
    text: str = ""

    @classmethod
    def parse(cls, text: str, tokenizer: Tokenizer = DEFAULT_TOKENIZER) -> "KeywordQuery":
        """Tokenize raw query text into a keyword query."""
        terms = tokenizer.tokens(text)
        return cls(
            keywords=tuple(Keyword(i, term) for i, term in enumerate(terms)),
            text=text,
        )

    @classmethod
    def from_terms(cls, terms: list[str] | tuple[str, ...]) -> "KeywordQuery":
        """Build a query from already-normalized terms."""
        return cls(
            keywords=tuple(Keyword(i, term) for i, term in enumerate(terms)),
            text=" ".join(terms),
        )

    @property
    def terms(self) -> tuple[str, ...]:
        return tuple(k.term for k in self.keywords)

    def __len__(self) -> int:
        return len(self.keywords)

    def __iter__(self) -> Iterator[Keyword]:
        return iter(self.keywords)

    def __str__(self) -> str:
        return self.text or " ".join(self.terms)
