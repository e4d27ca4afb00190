"""Planner statistics and cardinality estimation for cost-based planning.

The physical planner makes three choices — scatter position, join
introduction order, and batch membership — that PRs 4–5 decided blindly
(raw relation row counts, rank order).  This module supplies the missing
signal: a :class:`StatisticsCatalog` of per-relation row counts and
per-attribute distinct-value counts (collected in one pass at index-build
time, incrementally maintained on insert, persisted by the SQLite backends
in ``_repro_stats_*`` side tables keyed by the content fingerprint), and a
:class:`CardinalityEstimator` that composes those statistics into
per-plan row estimates under the classic independence assumption:

    ``|R join S| ~= |R| * |S| / max(V(R, a), V(S, b))``

where ``V(T, x)`` is the distinct-value count of join attribute ``x``.
Slots carrying a resolved selection filter contribute their *exact*
post-filter cardinality (``len(keys)`` — selections resolve to primary-key
sets before planning), so single-table interpretations estimate exactly
and join paths degrade gracefully toward the textbook formula.

Estimates drive *physical* choices only; every rewrite they pick is
validated to return byte-identical rows (see ``tests/test_plan_rewrites``),
and any gap in the catalog makes the estimator return ``None``, which makes
every consumer keep the unrewritten plan.  The estimator self-tunes under
live traffic: the engine feeds estimated-vs-actual row counts back through
:meth:`CardinalityEstimator.observe`, an EWMA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.backends.base import StorageBackend
    from repro.db.backends.sql import PathPlan
    from repro.db.schema import Schema

#: EWMA smoothing for estimator calibration: recent queries dominate, so a
#: workload shift re-calibrates within a few queries.
EWMA_ALPHA = 0.5

#: Calibration is a multiplicative correction; clamp it so a few pathological
#: observations cannot swing estimates by more than one order of magnitude.
_CALIBRATION_MIN = 1.0 / 16.0
_CALIBRATION_MAX = 16.0


def tracked_attributes(schema: "Schema", table_name: str) -> tuple[str, ...]:
    """The attributes of one table the estimator needs statistics for.

    Primary keys (selection filters resolve to them) plus every attribute
    participating in a foreign key in either direction (join selectivity
    denominators).  Sorted for deterministic collection and persistence.
    """
    table = schema.table(table_name)
    attrs = {table.primary_key}
    for fk in schema.foreign_keys:
        if fk.source == table_name:
            attrs.add(fk.source_attr)
        if fk.target == table_name:
            attrs.add(fk.target_attr)
    return tuple(sorted(attrs))


@dataclass
class AttributeStatistics:
    """Distinct-value count and heaviest-value frequency of one attribute."""

    distinct: int = 0
    max_frequency: int = 0


@dataclass
class TableStatistics:
    """Row count plus per-attribute statistics of one relation."""

    rows: int = 0
    attributes: dict[str, AttributeStatistics] = field(default_factory=dict)


class StatisticsCatalog:
    """Per-relation statistics over one backend's stored rows.

    Values are counted by ``repr()`` — the same total-order key the whole
    execution layer sorts by — so sharded and unsharded stores collect
    identical catalogs (the sharded backend scans the all-shards union
    through the same relation contract).
    """

    def __init__(self, schema: "Schema"):
        self.schema = schema
        self.tables: dict[str, TableStatistics] = {}

    # -- collection ----------------------------------------------------------

    @classmethod
    def collect(cls, backend: "StorageBackend") -> "StatisticsCatalog":
        """One scan per relation, counting all tracked attributes together."""
        catalog = cls(backend.schema)
        for table_name in backend.schema.table_names:
            relation = backend.relation(table_name)
            tracked = tracked_attributes(backend.schema, table_name)
            counters: dict[str, dict[str, int]] = {attr: {} for attr in tracked}
            rows = 0
            for tup in relation:
                rows += 1
                for attr in tracked:
                    seen = counters[attr]
                    value = repr(tup.get(attr))
                    seen[value] = seen.get(value, 0) + 1
            stats = TableStatistics(rows=rows)
            for attr in tracked:
                seen = counters[attr]
                stats.attributes[attr] = AttributeStatistics(
                    distinct=len(seen),
                    max_frequency=max(seen.values(), default=0),
                )
            catalog.tables[table_name] = stats
        return catalog

    def observe_insert(self, backend: "StorageBackend", table_name: str, tup: Any) -> None:
        """Incrementally fold one just-inserted tuple into the catalog.

        Distinct counts stay exact via a point lookup per tracked attribute:
        the freshly stored row is its value's only match iff the value is
        new.  Primary keys are always new (duplicate keys are rejected at
        insert), so they skip the lookup.
        """
        stats = self.tables.setdefault(table_name, TableStatistics())
        stats.rows += 1
        relation = backend.relation(table_name)
        primary_key = self.schema.table(table_name).primary_key
        for attr in tracked_attributes(self.schema, table_name):
            attr_stats = stats.attributes.setdefault(attr, AttributeStatistics())
            if attr == primary_key:
                attr_stats.distinct += 1
                attr_stats.max_frequency = max(attr_stats.max_frequency, 1)
                continue
            matches = len(relation.lookup(attr, tup.get(attr)))
            if matches <= 1:
                attr_stats.distinct += 1
            attr_stats.max_frequency = max(attr_stats.max_frequency, matches)

    # -- access --------------------------------------------------------------

    def rows(self, table_name: str) -> int | None:
        stats = self.tables.get(table_name)
        return None if stats is None else stats.rows

    def distinct(self, table_name: str, attribute: str) -> int | None:
        stats = self.tables.get(table_name)
        if stats is None:
            return None
        attr_stats = stats.attributes.get(attribute)
        return None if attr_stats is None else attr_stats.distinct

    def iter_rows(self) -> Iterable[tuple[str, int]]:
        """``(table, rows)`` in schema order (persistence + ``repro stats``)."""
        for name in self.schema.table_names:
            if name in self.tables:
                yield name, self.tables[name].rows

    def iter_attributes(self) -> Iterable[tuple[str, str, int, int]]:
        """``(table, attr, distinct, max_frequency)`` in deterministic order."""
        for name in self.schema.table_names:
            stats = self.tables.get(name)
            if stats is None:
                continue
            for attr in sorted(stats.attributes):
                attr_stats = stats.attributes[attr]
                yield name, attr, attr_stats.distinct, attr_stats.max_frequency

    # -- persistence ---------------------------------------------------------

    def export_state(self) -> dict:
        """A JSON-able snapshot (tests compare catalogs through this)."""
        return {
            "tables": {
                name: {
                    "rows": stats.rows,
                    "attributes": {
                        attr: [a.distinct, a.max_frequency]
                        for attr, a in sorted(stats.attributes.items())
                    },
                }
                for name, stats in sorted(self.tables.items())
            }
        }

    @classmethod
    def restore(cls, schema: "Schema", state: dict) -> "StatisticsCatalog":
        catalog = cls(schema)
        for name, table_state in state.get("tables", {}).items():
            stats = TableStatistics(rows=int(table_state["rows"]))
            for attr, (distinct, max_frequency) in table_state.get(
                "attributes", {}
            ).items():
                stats.attributes[attr] = AttributeStatistics(
                    distinct=int(distinct), max_frequency=int(max_frequency)
                )
            catalog.tables[name] = stats
        return catalog


class CardinalityEstimator:
    """Row-count estimates over :class:`~repro.db.backends.sql.PathPlan`.

    Pure arithmetic over the catalog — it never touches stored rows, so
    estimating is safe on every execution path.  ``None`` anywhere means
    "no estimate": consumers must fall back to the unrewritten plan.
    """

    def __init__(self, catalog: StatisticsCatalog):
        self.catalog = catalog
        #: Multiplicative estimated-vs-actual correction (EWMA-updated).
        self.calibration = 1.0
        self.observations = 0

    def slot_cardinalities(self, plan: "PathPlan") -> list[float] | None:
        """Estimated *post-filter* rows contributed by each join slot.

        Filtered slots are exact (selections resolve to primary-key sets
        before planning); unfiltered slots fall back to the relation row
        count.  ``None`` when any slot's table is missing from the catalog.
        """
        filters = plan.key_filter_map()
        cards: list[float] = []
        for position, table_name in enumerate(plan.path):
            keys = filters.get(position)
            if keys is not None:
                cards.append(float(len(keys)))
                continue
            rows = self.catalog.rows(table_name)
            if rows is None:
                return None
            cards.append(float(rows))
        return cards

    def estimate(self, plan: "PathPlan") -> float | None:
        """Calibrated estimated result rows of one plan (``None`` = gap).

        Independence-assumption composition: the base slot contributes its
        post-filter cardinality, and every FK hop multiplies by
        ``cards[i+1] / max(V(left, bound), V(right, probe))``.
        """
        from repro.db.backends.sql import _edge_attrs

        cards = self.slot_cardinalities(plan)
        if cards is None:
            return None
        estimate = cards[0]
        for i, edge in enumerate(plan.edges):
            left, right = plan.path[i], plan.path[i + 1]
            bound_attr, probe_attr = _edge_attrs(edge, left, right)
            v_left = self.catalog.distinct(left, bound_attr)
            v_right = self.catalog.distinct(right, probe_attr)
            if not v_left or not v_right:
                return None  # missing/zero denominator: no estimate
            estimate *= cards[i + 1] / max(v_left, v_right)
        estimate *= self.calibration
        if plan.limit is not None:
            estimate = min(estimate, float(plan.limit))
        return estimate

    def observe(self, estimated: float, actual: int) -> None:
        """Fold one estimated-vs-actual sample into the calibration EWMA."""
        if estimated <= 0:
            return
        ratio = max(float(actual), _CALIBRATION_MIN) / estimated
        ratio = min(max(ratio, _CALIBRATION_MIN), _CALIBRATION_MAX)
        sample = self.calibration * ratio
        self.calibration = (
            EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * self.calibration
        )
        self.calibration = min(
            max(self.calibration, _CALIBRATION_MIN), _CALIBRATION_MAX
        )
        self.observations += 1
