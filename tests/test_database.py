"""Unit tests for repro.db.database (facade + join-path execution)."""

import pytest

from repro.db.errors import UnknownTableError
from repro.db.schema import Attribute, Schema, Table


class TestBasics:
    def test_insert_and_relation(self, mini_db):
        assert len(mini_db.relation("actor")) == 3
        assert len(mini_db.relation("movie")) == 3
        assert len(mini_db.relation("acts")) == 4

    def test_total_tuples(self, mini_db):
        assert mini_db.total_tuples() == 10

    def test_unknown_relation(self, mini_db):
        with pytest.raises(UnknownTableError):
            mini_db.relation("ghost")

    def test_insert_many(self, mini_db):
        rows = mini_db.insert_many("actor", [{"id": 10, "name": "x"}, {"id": 11, "name": "y"}])
        assert len(rows) == 2

    def test_add_table(self, mini_db):
        mini_db.add_table(Table("genre", [Attribute("name")]))
        assert "genre" in mini_db.schema

    def test_require_index_builds_once(self, mini_db):
        idx1 = mini_db.require_index()
        idx2 = mini_db.require_index()
        assert idx1 is idx2


class TestSelect:
    def test_select_single_term(self, mini_db):
        assert mini_db.selection_keys("actor", [("name", ("hanks",))]) == {1, 2}

    def test_select_conjunctive_terms(self, mini_db):
        assert mini_db.selection_keys("actor", [("name", ("tom", "hanks"))]) == {1}

    def test_select_no_match(self, mini_db):
        assert mini_db.selection_keys("actor", [("name", ("zzz",))]) == set()

    def test_select_no_selections_scans(self, mini_db):
        # No selection keeps no key set: the slot scans its whole table.
        assert mini_db.selection_keys("actor", []) == set()
        assert len(mini_db.execute_path(["actor"], [])) == 3

    def test_select_multiple_attributes(self, mini_db):
        keys = mini_db.selection_keys(
            "movie", [("title", ("london",)), ("year", ("2001",))]
        )
        assert keys == {3}


class TestExecutePath:
    def _actor_movie(self, db):
        schema = db.schema
        e1 = schema.join_edges("actor", "acts")[0]
        e2 = schema.join_edges("acts", "movie")[0]
        return ["actor", "acts", "movie"], [e1, e2]

    def test_join_path_all_rows(self, mini_db):
        path, edges = self._actor_movie(mini_db)
        rows = mini_db.execute_path(path, edges)
        assert len(rows) == 4  # one per acts row

    def test_join_respects_selection_on_first(self, mini_db):
        path, edges = self._actor_movie(mini_db)
        rows = mini_db.execute_path(path, edges, {0: [("name", ("tom",))]})
        assert {r[0].key for r in rows} == {1}
        assert len(rows) == 2  # tom hanks acted in two movies

    def test_join_selection_both_ends(self, mini_db):
        path, edges = self._actor_movie(mini_db)
        rows = mini_db.execute_path(
            path, edges, {0: [("name", ("hanks",))], 2: [("year", ("2001",))]}
        )
        # hanks (tom or colin) in a 2001 movie -> movie 2, two actors
        assert {r[2].key for r in rows} == {2}
        assert len(rows) == 2

    def test_rows_aligned_with_path(self, mini_db):
        path, edges = self._actor_movie(mini_db)
        for row in mini_db.execute_path(path, edges):
            assert row[0].table == "actor"
            assert row[1].table == "acts"
            assert row[2].table == "movie"

    def test_limit(self, mini_db):
        path, edges = self._actor_movie(mini_db)
        assert len(mini_db.execute_path(path, edges, limit=2)) == 2

    def test_count_and_has_results(self, mini_db):
        path, edges = self._actor_movie(mini_db)
        sel = {0: [("name", ("london",))]}
        assert len(mini_db.execute_path(path, edges, sel)) == 1
        assert mini_db.has_results(path, edges, sel)
        assert not mini_db.has_results(path, edges, {0: [("name", ("zzz",))]})

    def test_arity_mismatch(self, mini_db):
        path, edges = self._actor_movie(mini_db)
        with pytest.raises(ValueError):
            mini_db.execute_path(path, edges[:1])

    def test_single_table_path(self, mini_db):
        rows = mini_db.execute_path(["actor"], [], {0: [("name", ("london",))]})
        assert len(rows) == 1
        assert rows[0][0].key == 3

    def test_self_join_palindrome_path(self, mini_db):
        """actor |x| acts |x| movie |x| acts |x| actor finds co-stars."""
        schema = mini_db.schema
        e1 = schema.join_edges("actor", "acts")[0]
        e2 = schema.join_edges("acts", "movie")[0]
        path = ["actor", "acts", "movie", "acts", "actor"]
        edges = [e1, e2, e2, e1]
        rows = mini_db.execute_path(
            path, edges, {0: [("name", ("tom",))], 4: [("name", ("colin",))]}
        )
        assert len(rows) == 1
        assert rows[0][2].key == 2  # the shared movie

    def test_wrong_edge_raises(self, mini_db):
        schema = mini_db.schema
        e1 = schema.join_edges("actor", "acts")[0]
        with pytest.raises(ValueError):
            mini_db.execute_path(["actor", "movie"], [e1])


def test_fk_indexes_built():
    schema = Schema()
    schema.add_table(Table("a", ["x"]))
    schema.add_table(Table("b", ["y"]))
    schema.link("b", "a")
    from repro.db.database import Database

    db = Database(schema)
    db.insert("a", {"id": 1, "x": "one"})
    db.insert("b", {"id": 1, "a_id": 1, "y": "two"})
    db.build_indexes()
    assert db.relation("b").lookup("a_id", 1)[0].key == 1
