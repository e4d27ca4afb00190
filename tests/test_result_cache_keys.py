"""The result cache's key: ``StructuredQuery.cache_key()`` over generated queries.

``ResultCache`` reuses rows only under an equal key, so the key must hold
exactly what a query's rows depend on: the join path, the foreign key of
every hop, per slot the attributes and the terms each must contain, and the
aggregate.  A key that drops one of them hands one query another query's
rows; a key that spells two orderings of the same predicates differently
only wastes entries.  Generated here: chain schemas with foreign keys
pointing either way (two between some neighbours), walks of 1–5 slots that
may turn back, per slot 0–3 attributes × 1–3 terms given in any order, and
an optional COUNT aggregate — each query beside neighbours that differ from
it in one component.  Three properties: equal keys ⇔ equal canonical forms,
equal keys give identical rows on memory and sqlite, and the key does not
depend on the order slots, attributes or terms were given in.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import StructuredQuery
from repro.core.templates import QueryTemplate
from repro.db.backends import create_backend
from repro.db.schema import Attribute, Schema, Table
from tests.conftest import template_of

TABLES = ["a", "l", "m", "n"]
ATTRIBUTES = ["x", "y", "z"]
VOCABULARY = ["ann", "bob", "cid"]
KEYS = [1, 2, 3, 4]


@st.composite
def chain_stores(draw):
    """``(schema, inserts)``: 2-4 tables in a chain, each foreign key pointing
    either way, some neighbours joined by a second one, four rows a table."""
    tables = TABLES[: draw(st.integers(2, 4))]
    schema = Schema()
    for name in tables:
        schema.add_table(Table(name, [Attribute(attr) for attr in ATTRIBUTES]))
    for left, right in zip(tables, tables[1:]):
        source, target = draw(st.sampled_from([(left, right), (right, left)]))
        schema.link(source, target)
        if draw(st.booleans()):
            schema.link(source, target, source_attr=f"{target}_alt")
    words = st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=2)
    inserts = []
    for name in tables:
        for key in KEYS:
            row = {"id": key, **{attr: " ".join(draw(words)) for attr in ATTRIBUTES}}
            for fk in schema.foreign_keys:
                if fk.source == name:
                    row[fk.source_attr] = draw(st.sampled_from(KEYS))
            inserts.append((name, row))
    return schema, inserts


@st.composite
def walks(draw, schema: Schema):
    """``(path, edges)``: 1-5 slots over the chain (``a–l–a`` included), each
    hop over either foreign key where two join its tables."""
    tables = list(schema.table_names)
    at = draw(st.integers(0, len(tables) - 1))
    path, edges = [tables[at]], []
    for _hop in range(draw(st.integers(0, 4))):
        step = draw(st.sampled_from([s for s in (-1, 1) if 0 <= at + s < len(tables)]))
        edges.append(draw(st.sampled_from(schema.join_edges(tables[at], tables[at + step]))))
        at += step
        path.append(tables[at])
    return tuple(path), tuple(edges)


#: One slot's selections in canonical form: 0-3 attributes × 1-3 terms, sorted.
SLOT_SELECTIONS = st.lists(
    st.tuples(
        st.sampled_from(ATTRIBUTES),
        st.lists(st.sampled_from(VOCABULARY), unique=True, min_size=1, max_size=3).map(
            lambda terms: tuple(sorted(terms))
        ),
    ),
    unique_by=lambda pair: pair[0],
    max_size=3,
).map(lambda attrs: tuple(sorted(attrs)))


@st.composite
def selections_over(draw, slots: int) -> dict:
    """Per-slot selections; a slot with no attribute is left out."""
    drawn = {slot: draw(SLOT_SELECTIONS) for slot in range(slots)}
    return {slot: attrs for slot, attrs in drawn.items() if attrs}


def aggregates(slots: int):
    return st.one_of(st.none(), st.tuples(st.just("count"), st.integers(0, slots - 1)))


@st.composite
def spelled(draw, path, edges, selections: dict, aggregate):
    """One query of these parts, its slots, attributes and terms in any order."""
    given_selections = {}
    for slot in draw(st.permutations(sorted(selections))):
        given_selections[slot] = tuple(
            (attribute, tuple(draw(st.permutations(terms))))
            for attribute, terms in draw(st.permutations(selections[slot]))
        )
    return StructuredQuery(QueryTemplate(path, edges), given_selections, aggregate=aggregate)


@st.composite
def neighbourhoods(draw):
    """``(schema, inserts, queries)``: a query and 1-4 neighbours, each
    differing from it in one component — its walk, its edges, the slot one
    selection sits on, one slot's selections, its aggregate — or only in the
    order its predicates were given in."""
    schema, inserts = draw(chain_stores())
    path, edges = draw(walks(schema))
    base = (path, edges, draw(selections_over(len(path))), draw(aggregates(len(path))))
    parts = [base]
    for _neighbour in range(draw(st.integers(1, 4))):
        path, edges, selections, aggregate = base
        change = draw(
            st.sampled_from(["order", "walk", "edges", "slot", "selections", "aggregate"])
        )
        if change == "walk":
            path, edges = draw(walks(schema))
            selections = draw(selections_over(len(path)))
            aggregate = draw(aggregates(len(path)))
        elif change == "edges":
            edges = tuple(
                draw(st.sampled_from(schema.join_edges(left, right)))
                for left, right in zip(path, path[1:])
            )
        elif change == "slot" and selections:
            selections = dict(selections)
            moved = selections.pop(draw(st.sampled_from(sorted(selections))))
            selections[draw(st.integers(0, len(path) - 1))] = moved
        elif change == "selections":
            slot = draw(st.integers(0, len(path) - 1))
            selections = {key: attrs for key, attrs in selections.items() if key != slot}
            redrawn = draw(SLOT_SELECTIONS)
            if redrawn:
                selections[slot] = redrawn
        elif change == "aggregate":
            aggregate = draw(aggregates(len(path)))
        parts.append((path, edges, selections, aggregate))
    return schema, inserts, [draw(spelled(*part)) for part in parts]


def canonical(query: StructuredQuery) -> tuple:
    """``(path, edges, selections, aggregate)`` with every predicate sorted."""
    return (
        query.template.path,
        query.template.edges,
        tuple(
            (slot, tuple(sorted((attribute, tuple(sorted(terms))) for attribute, terms in attrs)))
            for slot, attrs in sorted(query.selections.items())
        ),
        query.aggregate,
    )


@given(hood=neighbourhoods())
@settings(max_examples=300, deadline=None)
def test_equal_keys_iff_equal_canonical_forms(hood):
    _schema, _inserts, queries = hood
    for first in queries:
        for second in queries:
            same_key = first.cache_key() == second.cache_key()
            assert same_key == (canonical(first) == canonical(second)), (first, second)


@given(hood=neighbourhoods(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_the_key_does_not_depend_on_predicate_order(hood, data):
    _schema, _inserts, queries = hood
    for query in queries:
        path, edges, selections, aggregate = canonical(query)
        again = data.draw(spelled(path, edges, dict(selections), aggregate))
        assert again.cache_key() == query.cache_key()


def answer_of(query: StructuredQuery, db) -> tuple:
    """Rows as ``(table, key, values)`` text, plus the aggregate's value."""
    rows = [
        [(t.table, repr(t.key), repr(t.values)) for t in network]
        for network in query.execute(db)
    ]
    return rows, query.aggregate_value(db) if query.is_aggregate else None


@given(hood=neighbourhoods())
@settings(max_examples=150, deadline=None)
def test_equal_keys_give_identical_rows_on_memory_and_sqlite(hood):
    schema, inserts, queries = hood
    stores = [create_backend("memory", schema), create_backend("sqlite", schema)]
    try:
        for db in stores:
            for name, row in inserts:
                db.insert(name, dict(row))
            db.build_indexes()
        answers: dict[str, tuple] = {}
        for query in queries:
            on_memory, on_sqlite = (answer_of(query, db) for db in stores)
            assert on_memory == on_sqlite, query
            assert answers.setdefault(query.cache_key(), on_memory) == on_memory, query
    finally:
        for db in stores:
            db.close()


def test_the_key_is_built_once_per_query_and_is_not_part_of_its_value(mini_db):
    query = StructuredQuery(template_of(mini_db, ("actor",)), {0: (("name", ("hanks",)),)})
    twin = StructuredQuery(template_of(mini_db, ("actor",)), {0: (("name", ("hanks",)),)})
    assert query.cache_key() is query.cache_key()  # the same string object
    assert query == twin and repr(query) == repr(twin)  # twin never built one
    assert twin.cache_key() == query.cache_key()
