"""Inverted index over textual database attributes (Section 2.2.1).

The index maps each normalized term to postings at *attribute* granularity
(which ``table.attribute`` values contain the term, how often, and in which
tuples).  On top of the postings it exposes the keyword statistics used by the
thesis' models:

* ``TF(k, AT)`` — normalized frequency of keyword ``k`` in attribute ``AT``
  (Eq. 3.8's term-frequency component),
* ``ATF(k, AT) = TF + alpha`` — the Attribute Term Frequency estimate of
  ``P(sigma_{k in AT} : k | sigma_{? in AT})`` (Eq. 3.8),
* ``DF`` / ``IDF`` per table — used by the SQAK baseline's TF-IDF scores,
* joint frequencies of keyword combinations within one attribute — the
  keyword-co-occurrence extension DivQ adds in Eq. 4.2.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.db.tokenizer import DEFAULT_TOKENIZER, Tokenizer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.db.backends.base import StorageBackend

#: An attribute coordinate: ``(table name, attribute name)``.
AttributeRef = tuple[str, str]


@dataclass
class Posting:
    """Statistics of one term within one attribute."""

    occurrences: int = 0
    tuple_keys: set[Any] = field(default_factory=set)

    @property
    def document_frequency(self) -> int:
        """Number of tuples whose attribute value contains the term."""
        return len(self.tuple_keys)


@dataclass
class AttributeStatistics:
    """Aggregate token statistics of one attribute column."""

    total_tokens: int = 0
    cell_count: int = 0


class InvertedIndex:
    """Term -> attribute postings, built a-priori over a database instance."""

    def __init__(self, tokenizer: Tokenizer = DEFAULT_TOKENIZER, alpha: float = 1e-6):
        self.tokenizer = tokenizer
        #: Smoothing parameter of Eq. 3.8.  The thesis states alpha is
        #: "typically set to 1" for counts-with-smoothing; on normalized
        #: frequencies a small constant keeps unseen events possible without
        #: drowning the signal.
        self.alpha = alpha
        self._postings: dict[str, dict[AttributeRef, Posting]] = defaultdict(dict)
        self._attribute_stats: dict[AttributeRef, AttributeStatistics] = defaultdict(
            AttributeStatistics
        )
        self._table_tuple_counts: dict[str, int] = {}
        self._schema_terms: dict[str, set[str]] = defaultdict(set)

    # -- construction ------------------------------------------------------

    def build(self, database: "StorageBackend") -> "InvertedIndex":
        """Index every textual attribute of a storage backend plus schema terms.

        ``database`` is any :class:`~repro.db.backends.base.StorageBackend`
        (the in-memory engine, SQLite, ...): construction only relies on the
        backend contract — schema iteration and one ``value_rows()`` scan
        per relation.
        """
        for table in database.schema:
            self.add_rows(table, database.relation(table.name).value_rows())
        return self

    def add_rows(self, table, rows: Sequence[tuple[Any, ...]]) -> None:
        """Index one table's stored rows, given as value tuples.

        ``rows`` are cells in table-attribute order (what
        ``RelationView.value_rows()`` returns), so building needs no decoded
        :class:`~repro.db.table.Tuple`.  Registers the table's schema terms
        and adds ``len(rows)`` to its tuple count.
        """
        self.register_table(table)
        self._table_tuple_counts[table.name] += len(rows)
        names = table.attribute_names
        key_at = names.index(table.primary_key)
        textual = [(names.index(a.name), a.name) for a in table.textual_attributes()]
        for row in rows:
            key = row[key_at]
            for position, attr_name in textual:
                value = row[position]
                if value is not None:
                    self._index_cell(table.name, attr_name, key, str(value))

    def register_table(self, table, relation=None) -> None:
        """Register a table added after :meth:`build`.

        A from-scratch rebuild would pick up the new table's schema terms and
        tuple count; without this hook an incrementally maintained index
        silently drifts from that rebuild (``tables_matching_schema_term``
        misses the table, IDF sees a zero tuple count).  ``Database.add_table``
        calls this automatically; pass ``relation`` to also index any rows the
        table already holds.
        """
        self._table_tuple_counts.setdefault(table.name, 0)
        for term in self.tokenizer.tokens(table.name):
            self._schema_terms[term].add(table.name)
        if relation is not None:
            self.add_rows(table, relation.value_rows())

    def add_tuple(self, table, tup) -> None:
        """Incrementally index one freshly inserted tuple.

        Keeps the index consistent when rows are added after :meth:`build`
        (``Database.insert`` calls this automatically).  ``table`` is the
        :class:`~repro.db.schema.Table` definition; ``tup`` the stored tuple.
        """
        self._table_tuple_counts[table.name] = (
            self._table_tuple_counts.get(table.name, 0) + 1
        )
        for attr in table.textual_attributes():
            value = tup.get(attr.name)
            if value is None:
                continue
            self._index_cell(table.name, attr.name, tup.key, str(value))

    def _index_cell(self, table: str, attribute: str, key: Any, text: str) -> None:
        tokens = self.tokenizer.tokens(text)
        if not tokens:
            return
        ref = (table, attribute)
        stats = self._attribute_stats[ref]
        stats.total_tokens += len(tokens)
        stats.cell_count += 1
        for token in tokens:
            posting = self._postings[token].get(ref)
            if posting is None:
                posting = self._postings[token][ref] = Posting()
            posting.occurrences += 1
            posting.tuple_keys.add(key)

    # -- lookups -------------------------------------------------------------

    def attributes_containing(self, term: str) -> list[AttributeRef]:
        """All ``(table, attribute)`` pairs whose values contain ``term``."""
        return sorted(self._postings.get(term, {}))

    def tables_containing(self, term: str) -> set[str]:
        """Tables that are *non-free* for ``term`` (Section 2.2.3)."""
        return {table for table, _ in self._postings.get(term, {})}

    def posting(self, term: str, table: str, attribute: str) -> Posting | None:
        return self._postings.get(term, {}).get((table, attribute))

    def tuple_keys(self, term: str, table: str, attribute: str) -> set[Any]:
        posting = self.posting(term, table, attribute)
        return set(posting.tuple_keys) if posting else set()

    def tables_matching_schema_term(self, term: str) -> set[str]:
        """Tables whose *name* matches ``term`` (metadata matches, §2.2.7)."""
        return set(self._schema_terms.get(term, ()))

    def vocabulary(self) -> list[str]:
        return sorted(self._postings)

    def attribute_statistics(self, table: str, attribute: str) -> AttributeStatistics:
        return self._attribute_stats.get((table, attribute), AttributeStatistics())

    # -- statistics ------------------------------------------------------------

    def tf(self, term: str, table: str, attribute: str) -> float:
        """Normalized term frequency of ``term`` in the attribute column."""
        posting = self.posting(term, table, attribute)
        if posting is None:
            return 0.0
        total = self._attribute_stats[(table, attribute)].total_tokens
        return posting.occurrences / total if total else 0.0

    def atf(self, term: str, table: str, attribute: str) -> float:
        """Attribute Term Frequency, Eq. 3.8: ``TF(k, AT) + alpha``."""
        return self.tf(term, table, attribute) + self.alpha

    def df(self, term: str, table: str) -> int:
        """Document frequency: tuples of ``table`` containing ``term``."""
        keys: set[Any] = set()
        for (tbl, _attr), posting in self._postings.get(term, {}).items():
            if tbl == table:
                keys |= posting.tuple_keys
        return len(keys)

    def idf(self, term: str, table: str) -> float:
        """Inverse document frequency of ``term`` within ``table``.

        Lucene-style smoothing: ``1 + ln((N + 1) / (df + 1))``, which is what
        the SQAK baseline's scoring uses.
        """
        n = self._table_tuple_counts.get(table, 0)
        df = self.df(term, table)
        return 1.0 + math.log((n + 1) / (df + 1))

    def joint_cell_frequency(
        self, terms: Sequence[str], table: str, attribute: str
    ) -> float:
        """Fraction of cells of the attribute containing *all* of ``terms``.

        This is the keyword-co-occurrence statistic of DivQ (Eq. 4.2): when
        several keywords co-occur in one attribute value (e.g. a first and a
        last name in ``name``), the joint frequency exceeds the product of the
        marginals, so bindings of both keywords to the same attribute win.
        """
        if not terms:
            return 0.0
        cells = self._attribute_stats.get((table, attribute))
        if cells is None or cells.cell_count == 0:
            return 0.0
        key_sets: list[set[Any]] = []
        for term in terms:
            posting = self.posting(term, table, attribute)
            if posting is None:
                return 0.0
            key_sets.append(posting.tuple_keys)
        key_sets.sort(key=len)
        shared = set(key_sets[0])
        for other in key_sets[1:]:
            shared &= other
            if not shared:
                return 0.0
        return len(shared) / cells.cell_count

    def stats_snapshot(self) -> dict[str, Any]:
        """Canonical, comparable view of the full index state.

        Two indexes over the same logical content produce equal snapshots
        regardless of construction order (a-priori build vs. incremental
        maintenance vs. a different storage backend) — the invariant the
        consistency regression tests assert.
        """
        return {
            "postings": {
                term: {
                    ref: (posting.occurrences, tuple(sorted(posting.tuple_keys, key=repr)))
                    for ref, posting in sorted(refs.items())
                }
                for term, refs in sorted(self._postings.items())
            },
            "attribute_stats": {
                ref: (stats.total_tokens, stats.cell_count)
                for ref, stats in sorted(self._attribute_stats.items())
                if stats.total_tokens or stats.cell_count
            },
            "table_tuple_counts": dict(sorted(self._table_tuple_counts.items())),
            "schema_terms": {
                term: tuple(sorted(tables))
                for term, tables in sorted(self._schema_terms.items())
                if tables
            },
        }

    # -- persistence -----------------------------------------------------------

    def export_state(self) -> dict[str, list[tuple]]:
        """Flat, storable view of the index (see :meth:`restore`).

        Four row lists mirroring the internal maps; tuple keys are emitted as
        sorted lists so the representation is deterministic.  Together with
        :meth:`restore` this is what lets persistent backends save postings
        into side tables and reload them on cold open instead of re-scanning
        (and re-tokenizing) every stored row.
        """
        return {
            "postings": [
                (term, table, attribute, posting.occurrences,
                 sorted(posting.tuple_keys, key=repr))
                for term, refs in sorted(self._postings.items())
                for (table, attribute), posting in sorted(refs.items())
            ],
            "attribute_stats": [
                (table, attribute, stats.total_tokens, stats.cell_count)
                for (table, attribute), stats in sorted(self._attribute_stats.items())
                if stats.total_tokens or stats.cell_count
            ],
            "table_tuple_counts": [
                (table, count)
                for table, count in sorted(self._table_tuple_counts.items())
            ],
            "schema_terms": [
                (term, table)
                for term, tables in sorted(self._schema_terms.items())
                for table in sorted(tables)
            ],
        }

    @classmethod
    def restore(
        cls,
        state: dict[str, Iterable[tuple]],
        tokenizer: Tokenizer = DEFAULT_TOKENIZER,
        alpha: float = 1e-6,
    ) -> "InvertedIndex":
        """Rebuild an index from :meth:`export_state` output.

        The restored index is indistinguishable from a from-scratch build
        over the same content (``stats_snapshot()`` equality), so incremental
        maintenance (``add_tuple`` / ``register_table``) keeps working on it.
        """
        index = cls(tokenizer=tokenizer, alpha=alpha)
        for term, table, attribute, occurrences, keys in state.get("postings", ()):
            posting = Posting(occurrences=occurrences, tuple_keys=set(keys))
            index._postings[term][(table, attribute)] = posting
        for table, attribute, total_tokens, cell_count in state.get(
            "attribute_stats", ()
        ):
            index._attribute_stats[(table, attribute)] = AttributeStatistics(
                total_tokens=total_tokens, cell_count=cell_count
            )
        for table, count in state.get("table_tuple_counts", ()):
            index._table_tuple_counts[table] = count
        for term, table in state.get("schema_terms", ()):
            index._schema_terms[term].add(table)
        return index

    def candidate_tuple_keys(
        self, terms: Iterable[str], table: str, attribute: str
    ) -> set[Any]:
        """Keys of tuples whose attribute value contains all ``terms``."""
        result: set[Any] | None = None
        for term in terms:
            keys = self.tuple_keys(term, table, attribute)
            result = keys if result is None else result & keys
            if not result:
                return set()
        return result or set()
