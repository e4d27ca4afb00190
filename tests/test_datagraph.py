"""Unit tests for repro.db.datagraph."""

import pytest

from repro.db.datagraph import DataGraph


class TestDataGraph:
    def test_node_count(self, mini_db):
        dg = DataGraph(mini_db)
        assert dg.node_count() == mini_db.total_tuples()

    def test_edges_follow_fks(self, mini_db):
        dg = DataGraph(mini_db)
        # acts row 1 links actor 1 and movie 1.
        assert dg.graph.has_edge(("acts", 1), ("actor", 1))
        assert dg.graph.has_edge(("acts", 1), ("movie", 1))
        assert not dg.graph.has_edge(("actor", 1), ("movie", 1))

    def test_edge_count(self, mini_db):
        dg = DataGraph(mini_db)
        # 4 acts rows x 2 foreign keys each.
        assert dg.edge_count() == 8

    def test_neighbors(self, mini_db):
        dg = DataGraph(mini_db)
        neighbors = set(dg.neighbors(("actor", 1)))
        assert neighbors == {("acts", 1), ("acts", 2)}

    def test_keyword_nodes(self, mini_db):
        dg = DataGraph(mini_db)
        nodes = dg.keyword_nodes("hanks")
        assert ("actor", 1) in nodes
        assert ("actor", 2) in nodes
        assert ("movie", 2) in nodes

    def test_keyword_nodes_absent_term(self, mini_db):
        assert DataGraph(mini_db).keyword_nodes("zzz") == set()

    def test_null_fk_skipped(self, mini_db):
        mini_db.insert("acts", {"id": 99, "actor_id": None, "movie_id": 1, "role": "x"})
        dg = DataGraph(mini_db)
        # The dangling row connects only to the movie side.
        assert set(dg.neighbors(("acts", 99))) == {("movie", 1)}


@pytest.mark.parametrize("dataset", ["imdb_db", "lyrics_db"])
def test_every_tuple_of_a_bundled_dataset_is_a_node(dataset, request):
    db = request.getfixturevalue(dataset)
    assert DataGraph(db).node_count() == db.total_tuples()


@pytest.mark.parametrize("dataset", ["imdb_db", "lyrics_db"])
def test_the_edges_are_exactly_the_foreign_key_links(dataset, request):
    """Recomputed by scanning both sides of every foreign key, no lookups."""
    db = request.getfixturevalue(dataset)
    links: set[frozenset] = set()
    for fk in db.schema.foreign_keys:
        targets: dict = {}
        for tup in db.relation(fk.target):
            targets.setdefault(tup.get(fk.target_attr), []).append(tup.uid)
        for tup in db.relation(fk.source):
            value = tup.get(fk.source_attr)
            if value is not None:
                links.update(frozenset((tup.uid, uid)) for uid in targets.get(value, ()))
    assert links
    assert {frozenset(edge) for edge in DataGraph(db).graph.edges} == links
