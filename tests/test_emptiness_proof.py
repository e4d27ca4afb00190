"""The emptiness proof of the SQL backends, checked against two oracles.

``SQLiteBackend.proves_empty`` lets a path whose key filters cannot join
skip SQL altogether, so a wrong proof would silently drop rows.  On
generated foreign-key schemas — chains of entity tables joined directly,
through a link table, or on a non-key column; keys and foreign-key values
of every type SQLite compares (``int``, ``float``, ``str``), ``None`` and
dangling values; keyword selections on any slot — every path the proof
calls empty must have no row in the memory backend (which proves nothing)
nor in a brute-force evaluator written here, which shares no code with the
planner, the memory backend or the proof's maps.  On two-slot paths with
both slots filtered the proof is exact, so there "proved empty" must also
follow from "no row".  Mutation tests pin that ``insert``, ``load`` and
``add_table`` drop the maps: after an ``insert`` or ``load`` the path the
proof skipped is seen again by ``engine.run`` and ``has_results``, and
after an ``add_table`` the added table's stored rows join.  A write
through a second backend instance on the same file drops them too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.backends import create_backend
from repro.db.schema import Attribute, ForeignKey, Schema, Table
from repro.engine import EngineConfig, QueryEngine
from tests.conftest import build_mini_db, mini_schema

ENTITIES = ["e0", "e1", "e2"]
#: Keys that SQLite compares as its untyped columns do: ``3.0`` is ``3``,
#: ``"3"`` is neither.
KEYS = [1, 2, 3.0, 4, 5.0, "a", "b", "3"]
#: Values of the non-key join column ``code``.
CODES = [1, 2.0, "1", None, None, 7]
#: Foreign-key values no row holds.
DANGLING = [99, "zz"]
WORDS = ["ann", "bob", "cid"]


def other_form(value):
    """The same number spelled as the other numeric type."""
    if isinstance(value, float):
        return int(value)
    return float(value) if isinstance(value, int) else value


@st.composite
def fk_stores(draw):
    """``(schema, rows)``: 2-3 entity tables in a chain, each neighbour pair
    joined directly (either way), through a link table, or from a foreign
    key onto the target's non-key ``code`` column."""
    schema = Schema()
    entities = ENTITIES[: draw(st.integers(2, 3))]
    for name in entities:
        schema.add_table(Table(name, [Attribute("x"), Attribute("code", textual=False)]))
    for left, right in zip(entities, entities[1:]):
        shape = draw(st.sampled_from(["direct", "link", "code"]))
        source, target = draw(st.sampled_from([(left, right), (right, left)]))
        if shape == "link":
            link = f"{left}_{right}"
            schema.add_table(Table(link, [Attribute("x")]))
            schema.link(link, left)
            schema.link(link, right)
        elif shape == "direct":
            schema.link(source, target)
        else:
            attribute = f"{target}_code"
            schema.table(source).attributes[attribute] = Attribute(
                attribute, textual=False
            )
            schema.add_foreign_key(ForeignKey(source, attribute, target, "code"))
    words = st.lists(st.sampled_from(WORDS), min_size=1, max_size=2)
    keys = st.lists(st.sampled_from(KEYS), unique=True, min_size=1, max_size=5)
    cells = {
        table.name: [{"id": key, "x": " ".join(draw(words))} for key in draw(keys)]
        for table in schema
    }
    for name in entities:
        for row in cells[name]:
            row["code"] = draw(st.sampled_from(CODES))
    for fk in schema.foreign_keys:
        targets = [row[fk.target_attr] for row in cells[fk.target]]
        choices = [None, None, *DANGLING, *targets * 2, *map(other_form, targets)]
        for row in cells[fk.source]:
            row[fk.source_attr] = draw(st.sampled_from(choices))
    rows = [(name, row) for name, table_rows in cells.items() for row in table_rows]
    return schema, draw(st.permutations(rows))


@st.composite
def walks(draw, schema):
    """Join paths of 1-5 slots over the schema's foreign keys (turning back
    allowed), each slot selected on ``x`` or not."""
    tables = schema.table_names
    specs = []
    for _spec in range(draw(st.integers(1, 4))):
        at = draw(st.sampled_from(tables))
        path, edges = [at], []
        for _hop in range(draw(st.sampled_from([1, 1, 2, 3, 4, 0]))):
            neighbours = sorted(schema.graph().get(at, {}))
            if not neighbours:
                break
            following = draw(st.sampled_from(neighbours))
            edges.append(draw(st.sampled_from(schema.join_edges(at, following))))
            path.append(following)
            at = following
        selections = {
            position: [("x", (word,))]
            for position in range(len(path))
            if (word := draw(st.sampled_from([None, *WORDS, "zzz"]))) is not None
        }
        specs.append((path, edges, selections))
    return specs


def brute_force_rows(db, path, edges, selections) -> list[tuple]:
    """Every network of the path as its key tuple: nested loops over each
    slot's ``value_rows()``, keyword containment over the tokenizer's
    tokens, and ``==`` between two non-``None`` join cells."""
    tables = [db.schema.table(name) for name in path]
    stored = [db.relation(name).value_rows() for name in path]

    def cell(slot, row, attribute):
        return row[tables[slot].attribute_names.index(attribute)]

    def selected(slot, row):
        for attribute, terms in selections.get(slot, ()):
            value = cell(slot, row, attribute)
            tokens = set(db.tokenizer.tokens(str(value))) if value is not None else set()
            if not set(terms) <= tokens:
                return False
        return True

    def joined(slot, left, right):
        edge = edges[slot - 1]
        if (edge.source, edge.target) == (path[slot - 1], path[slot]):
            left_attr, right_attr = edge.source_attr, edge.target_attr
        else:
            left_attr, right_attr = edge.target_attr, edge.source_attr
        a, b = cell(slot - 1, left, left_attr), cell(slot, right, right_attr)
        return a is not None and b is not None and a == b

    networks = [[row] for row in stored[0] if selected(0, row)]
    for slot in range(1, len(path)):
        networks = [
            [*network, row]
            for network in networks
            for row in stored[slot]
            if selected(slot, row) and joined(slot, network[-1], row)
        ]
    return sorted(
        tuple(
            repr(cell(slot, row, tables[slot].primary_key))
            for slot, row in enumerate(network)
        )
        for network in networks
    )


def key_tuples(networks) -> list[tuple]:
    return sorted(tuple(repr(t.key) for t in network) for network in networks)


def test_proved_empty_paths_have_no_row_in_either_oracle():
    fired: list[int] = []

    @given(st.data())
    @settings(max_examples=250, deadline=None)
    def check(data):
        schema, rows = data.draw(fk_stores())
        memory = create_backend("memory", schema)
        sqlite = create_backend("sqlite", schema)
        try:
            for db in (memory, sqlite):
                db.load(rows)
                db.build_indexes()
            for path, edges, selections in data.draw(walks(schema)):
                expected = brute_force_rows(sqlite, path, edges, selections)
                assert key_tuples(memory.execute_path(path, edges, selections)) == expected
                assert key_tuples(sqlite.execute_path(path, edges, selections)) == expected
                filters = sqlite.resolve_key_filters(path, selections)
                if filters is None:
                    continue
                proved = sqlite.proves_empty(path, edges, filters)
                if proved:
                    assert expected == []
                    fired.append(len(path))
                if len(path) == 2 and len(filters) == 2:
                    assert proved == (expected == [])
        finally:
            memory.close()
            sqlite.close()

    check()
    assert fired  # the proof fired: the property is not vacuous
    assert max(fired) >= 3  # on a path longer than one hop too


@pytest.mark.parametrize("backend", ["sqlite", "sqlite-sharded"])
def test_null_never_joins_and_numbers_join_across_types(backend):
    """A foreign key onto a non-key column: ``None`` meets ``None`` and
    joins nothing, ``5.0`` joins ``5``, ``'5'`` does not."""
    schema = Schema()
    schema.add_table(Table("a", [Attribute("x"), Attribute("code", textual=False)]))
    schema.add_table(Table("b", [Attribute("x"), Attribute("a_code", textual=False)]))
    schema.add_foreign_key(ForeignKey("b", "a_code", "a", "code"))
    db = create_backend(backend, schema)
    db.load(
        [
            ("a", {"id": 1, "x": "ann", "code": None}),
            ("a", {"id": 2, "x": "bob", "code": 5}),
            ("b", {"id": 1, "x": "ann", "a_code": None}),
            ("b", {"id": 2, "x": "bob", "a_code": 5.0}),
            ("b", {"id": 3, "x": "cid", "a_code": "5"}),
        ]
    )
    db.build_indexes()
    edges = schema.foreign_keys
    cases = (("ann", "ann", []), ("bob", "bob", [("2", "2")]), ("bob", "cid", []))
    for a_word, b_word, rows in cases:
        for path, selections in (
            (["a", "b"], {0: [("x", (a_word,))], 1: [("x", (b_word,))]}),
            (["b", "a"], {0: [("x", (b_word,))], 1: [("x", (a_word,))]}),
        ):
            filters = db.resolve_key_filters(path, selections)
            assert db.proves_empty(path, edges, filters) == (rows == [])
            assert brute_force_rows(db, path, edges, selections) == rows
    db.close()


# -- mutations drop the maps ---------------------------------------------------

#: Jack London (actor 3) acted only in the 2001 movie, so every path joining
#: his name to "2004" is empty, and the proof sees it.
QUERY = "london 2004"
SELECTIONS = {0: [("name", ("london",))], 2: [("year", ("2004",))]}
NEW_LINK = {"id": 5, "actor_id": 3, "movie_id": 1, "role": "extra"}


def _path(db, link="acts"):
    """``actor–<link>–movie`` with London and "2004" selected."""
    by_target = {fk.target: fk for fk in db.schema.foreign_keys if fk.source == link}
    return ["actor", link, "movie"], [by_target["actor"], by_target["movie"]], SELECTIONS


def _london_in_2004(engine) -> list:
    return [
        result.row_uids()
        for result in engine.run(QUERY, k=10).results
        if ("actor", 3) in result.row_uids() and ("movie", 1) in result.row_uids()
    ]


@pytest.mark.parametrize("backend", ["sqlite", "sqlite-sharded"])
@pytest.mark.parametrize("mutation", ["insert", "load"])
def test_a_mutation_makes_a_proved_empty_path_visible(backend, mutation, tmp_path):
    db = build_mini_db(backend, db_path=tmp_path / "store.sqlite")
    engine = QueryEngine(db, config=EngineConfig(cache_results=False))
    path, edges, selections = _path(db)
    assert db.proves_empty(path, edges, db.resolve_key_filters(path, selections))
    assert not db.has_results(path, edges, selections)
    assert _london_in_2004(engine) == []
    if mutation == "insert":
        db.insert("acts", NEW_LINK)
    else:
        db.load([("acts", NEW_LINK)])
    assert db._fk_maps is None
    assert db.has_results(path, edges, selections)
    assert not db.proves_empty(path, edges, db.resolve_key_filters(path, selections))
    assert _london_in_2004(engine)
    db.close()


def _cast_table() -> Table:
    return Table(
        "cast",
        [Attribute(name, textual=False) for name in ("id", "actor_id", "movie_id")],
    )


@pytest.mark.parametrize("backend", ["sqlite", "sqlite-sharded"])
def test_add_table_drops_the_maps_and_its_stored_rows_join(backend, tmp_path):
    """A table added with rows already stored in the file (written under a
    wider schema) joins on the next proof: ``add_table`` dropped the maps,
    and the rebuilt ones read its rows."""
    store = tmp_path / "store.sqlite"
    wide = mini_schema()
    wide.add_table(_cast_table())
    wide.link("cast", "actor")
    wide.link("cast", "movie")
    writer = create_backend(backend, wide, path=store)
    build_mini_db(writer)  # the mini rows, then one cast row: London in 2004
    writer.insert("cast", {"id": 1, "actor_id": 3, "movie_id": 1})
    writer.close()

    db = create_backend(backend, mini_schema(), path=store)
    db.build_indexes()
    engine = QueryEngine(db, config=EngineConfig(cache_results=False))
    path, edges, selections = _path(db)
    assert db.proves_empty(path, edges, db.resolve_key_filters(path, selections))
    assert db._fk_maps is not None
    assert _london_in_2004(engine) == []
    db.add_table(_cast_table())
    assert db._fk_maps is None
    db.schema.link("cast", "actor")
    db.schema.link("cast", "movie")
    path, edges, selections = _path(db, link="cast")
    assert not db.proves_empty(path, edges, db.resolve_key_filters(path, selections))
    assert db.has_results(path, edges, selections)
    assert _london_in_2004(QueryEngine(db, config=EngineConfig(cache_results=False)))
    db.close()


@pytest.mark.parametrize("backend", ["sqlite", "sqlite-sharded"])
def test_a_sibling_instance_write_makes_a_proved_empty_path_visible(
    backend, tmp_path
):
    """Two backends on one file in one process: the link row the second
    one inserts reaches the first one's ``has_results`` and ``engine.run``,
    although the first one's own maps saw no write."""
    store = tmp_path / "store.sqlite"
    build_mini_db(backend, db_path=store).close()
    reader = create_backend(backend, mini_schema(), path=store)
    reader.build_indexes()
    writer = create_backend(backend, mini_schema(), path=store)
    writer.build_indexes()
    engine = QueryEngine(reader, config=EngineConfig(cache_results=False))
    path, edges, selections = _path(reader)
    assert reader.proves_empty(path, edges, reader.resolve_key_filters(path, selections))
    assert not reader.has_results(path, edges, selections)
    assert _london_in_2004(engine) == []
    writer.insert("acts", NEW_LINK)
    assert reader.has_results(path, edges, selections)
    assert _london_in_2004(engine)
    writer.close()
    reader.close()


def test_the_memory_backend_keeps_no_maps_and_proves_nothing():
    db = build_mini_db("memory")
    path, edges, selections = _path(db)
    assert db.execute_path(path, edges, selections) == []
    assert not hasattr(db, "proves_empty")
    assert not hasattr(db, "_fk_maps")
