"""The schema graph and the tuple data graph against networkx as an oracle.

The library keeps both graphs as plain adjacency dicts; networkx is a
development dependency only, so this module is skipped where it is absent.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.database import Database
from repro.db.datagraph import DataGraph
from repro.db.schema import Attribute, ForeignKey, Schema, Table
from tests.test_datasets import connected_components

nx = pytest.importorskip("networkx")

TABLE_NAMES = ["a", "b", "c", "d", "e", "f"]


@st.composite
def fk_schemas(draw):
    """1-6 tables and 0-8 foreign keys between any two of them, a table and
    itself included; repeated pairs give multi-edges, untouched tables stay
    isolated."""
    names = TABLE_NAMES[: draw(st.integers(1, len(TABLE_NAMES)))]
    schema = Schema()
    for name in names:
        schema.add_table(Table(name, [Attribute("x")]))
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=8))
    for number, (source, target) in enumerate(pairs):
        schema.link(source, target, source_attr=f"fk{number}")
    return schema


def oracle_multigraph(schema: Schema):
    g = nx.MultiGraph()
    g.add_nodes_from(schema.tables)
    for fk in schema.foreign_keys:
        g.add_edge(fk.source, fk.target, fk=fk)
    return g


def oracle_join_paths(g, max_length: int) -> list[tuple[str, ...]]:
    """Simple paths of at most ``max_length`` joins, one spelling per reversal."""
    paths = {(node,) for node in g}
    for source in g:
        for target in g:
            if source != target:
                for path in nx.all_simple_paths(g, source, target, cutoff=max_length):
                    paths.add(min(tuple(path), tuple(path)[::-1]))
    return sorted(paths, key=lambda p: (len(p), p))


class TestSchemaGraphAgainstMultiGraph:
    @given(fk_schemas())
    @settings(max_examples=200, deadline=None)
    def test_adjacency_and_join_edges(self, schema):
        g = oracle_multigraph(schema)
        assert set(schema.graph()) == set(g.nodes)
        for left in schema.tables:
            assert schema.adjacent_tables(left) == sorted(g.neighbors(left))
            for right in schema.tables:
                expected = (
                    [data["fk"] for data in g[left][right].values()]
                    if g.has_edge(left, right)
                    else []
                )
                assert schema.join_edges(left, right) == expected

    @given(fk_schemas(), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_join_paths(self, schema, max_length):
        g = oracle_multigraph(schema)
        assert schema.join_paths(max_length) == oracle_join_paths(g, max_length)

    @given(fk_schemas())
    @settings(max_examples=200, deadline=None)
    def test_connected_components(self, schema):
        g = oracle_multigraph(schema)
        expected = {frozenset(c) for c in nx.connected_components(g)}
        assert connected_components(schema.graph()) == expected


def oracle_tuple_graph(db):
    """Every tuple a node; an edge per foreign-key link, found by scanning
    both sides (no lookups)."""
    g = nx.Graph()
    for table in db.schema:
        g.add_nodes_from(tup.uid for tup in db.relation(table.name))
    for fk in db.schema.foreign_keys:
        targets: dict = {}
        for tup in db.relation(fk.target):
            targets.setdefault(tup.get(fk.target_attr), []).append(tup.uid)
        for tup in db.relation(fk.source):
            value = tup.get(fk.source_attr)
            if value is not None:
                for uid in targets.get(value, ()):
                    g.add_edge(tup.uid, uid, weight=1.0)
    return g


def assert_matches_oracle(datagraph: DataGraph, g) -> None:
    assert datagraph.node_count() == g.number_of_nodes()
    assert datagraph.edge_count() == g.number_of_edges()
    assert set(datagraph.graph) == set(g.nodes)
    for node in g.nodes:
        assert set(datagraph.neighbors(node)) == set(g.neighbors(node))
        assert datagraph.graph[node] == {v: data["weight"] for v, data in g[node].items()}


@pytest.mark.parametrize("dataset", ["imdb_db", "lyrics_db"])
def test_bundled_data_graphs_match_nx_graph(dataset, request):
    db = request.getfixturevalue(dataset)
    assert_matches_oracle(DataGraph(db), oracle_tuple_graph(db))


def test_a_self_loop_counts_as_one_edge():
    schema = Schema()
    schema.add_table(Table("person", [Attribute("name")]))
    schema.add_foreign_key(ForeignKey("person", "name", "person", "name"))
    db = Database(schema)
    db.insert("person", {"id": 1, "name": "ann"})
    db.insert("person", {"id": 2, "name": "ann"})
    db.insert("person", {"id": 3, "name": "bob"})
    g = oracle_tuple_graph(db)
    assert nx.number_of_selfloops(g) == 3
    assert_matches_oracle(DataGraph(db), g)
