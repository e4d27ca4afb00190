"""Result presentation: snippets and clustering (Section 2.2.6).

Two presentation aids the thesis surveys for keyword-search results:

* **Snippets** — a brief passage per result giving the user a quick glance:
  for a joining tuple tree we render one fragment per tuple, keeping the
  attributes that contain query keywords (with the keywords highlighted) and
  truncating the rest.
* **Clustering** — grouping similar results so the query disambiguates
  itself: results cluster by the *structural signature* of where the
  keywords matched (table.attribute sets), which is exactly the semantics a
  query interpretation carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.keywords import KeywordQuery
from repro.db.table import Tuple
from repro.db.tokenizer import DEFAULT_TOKENIZER

JTT = Sequence[Tuple]


@dataclass(frozen=True)
class Snippet:
    """A rendered passage for one result row."""

    text: str
    matched_attributes: tuple[tuple[str, str], ...]


def _highlight(value: str, terms: set[str], marker: str) -> tuple[str, bool]:
    """Wrap matching tokens of ``value`` in the marker; report any match."""
    out: list[str] = []
    matched = False
    for token in str(value).split():
        if DEFAULT_TOKENIZER.terms(token) & terms:
            out.append(f"{marker}{token}{marker}")
            matched = True
        else:
            out.append(token)
    return " ".join(out), matched


def make_snippet(
    query: KeywordQuery,
    result: JTT,
    max_value_length: int = 40,
    marker: str = "**",
) -> Snippet:
    """Render one result row as a keyword-highlighting snippet."""
    terms = set(query.terms)
    fragments: list[str] = []
    matched_attrs: list[tuple[str, str]] = []
    for tup in result:
        parts: list[str] = []
        for attribute, value in tup.items():
            if value is None:
                continue
            text = str(value)
            highlighted, matched = _highlight(text, terms, marker)
            if matched:
                matched_attrs.append((tup.table, attribute))
                if len(highlighted) > max_value_length:
                    highlighted = highlighted[: max_value_length - 3] + "..."
                parts.append(f"{attribute}: {highlighted}")
        if parts:
            fragments.append(f"[{tup.table}] " + ", ".join(parts))
    if not fragments and result:
        # No keyword matched (OR semantics remainder): show the first tuple.
        head = result[0]
        textual = [
            f"{a}: {str(v)[:max_value_length]}" for a, v in head.items() if v is not None
        ]
        fragments.append(f"[{head.table}] " + ", ".join(textual[:2]))
    return Snippet(text=" -- ".join(fragments), matched_attributes=tuple(matched_attrs))


@dataclass(frozen=True)
class ResultCluster:
    """Results sharing one structural match signature."""

    signature: frozenset[tuple[str, str]]
    results: tuple[JTT, ...]

    def label(self) -> str:
        if not self.signature:
            return "(no keyword matches)"
        return ", ".join(f"{t}.{a}" for t, a in sorted(self.signature))

    def __len__(self) -> int:
        return len(self.results)


def cluster_results(query: KeywordQuery, results: Sequence[JTT]) -> list[ResultCluster]:
    """Group results by where the keywords matched (biggest cluster first).

    Two results land in one cluster iff the keywords matched the same
    ``table.attribute`` set — the automatic query disambiguation the thesis
    describes: each cluster corresponds to one keyword-interpretation
    pattern.
    """
    terms = set(query.terms)
    buckets: dict[frozenset[tuple[str, str]], list[JTT]] = {}
    for result in results:
        signature: set[tuple[str, str]] = set()
        for tup in result:
            for attribute, value in tup.items():
                if value is None:
                    continue
                if DEFAULT_TOKENIZER.terms(str(value)) & terms:
                    signature.add((tup.table, attribute))
        buckets.setdefault(frozenset(signature), []).append(result)
    clusters = [
        ResultCluster(signature=sig, results=tuple(rows))
        for sig, rows in buckets.items()
    ]
    clusters.sort(key=lambda c: (-len(c), c.label()))
    return clusters
