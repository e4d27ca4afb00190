"""Unit tests for repro.db.schema."""

import pytest

from repro.db.errors import DuplicateTableError, UnknownAttributeError, UnknownTableError
from repro.db.schema import Attribute, ForeignKey, Schema, Table


def movie_schema() -> Schema:
    s = Schema()
    s.add_table(Table("actor", [Attribute("name")]))
    s.add_table(Table("movie", [Attribute("title"), Attribute("year")]))
    s.add_table(Table("acts", [Attribute("role")]))
    s.link("acts", "actor")
    s.link("acts", "movie")
    return s


class TestTable:
    def test_primary_key_auto_added(self):
        t = Table("actor", [Attribute("name")])
        assert t.primary_key == "id"
        assert t.has_attribute("id")

    def test_pk_attribute_not_textual(self):
        t = Table("actor", [Attribute("name")])
        assert not t.attributes["id"].textual

    def test_textual_attributes(self):
        t = Table("movie", [Attribute("title"), Attribute("id", textual=False)])
        assert [a.name for a in t.textual_attributes()] == ["title"]

    def test_string_attributes_accepted(self):
        t = Table("movie", ["title", "year"])
        assert t.has_attribute("title") and t.has_attribute("year")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ValueError):
            Table("movie", [Attribute("title"), Attribute("title")])

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Table("", [Attribute("x")])

    def test_empty_attribute_name_rejected(self):
        with pytest.raises(ValueError):
            Attribute("")

    def test_table_equality_by_name(self):
        assert Table("a", ["x"]) == Table("a", ["y"])
        assert hash(Table("a", ["x"])) == hash(Table("a", ["y"]))


class TestSchema:
    def test_add_and_lookup(self):
        s = movie_schema()
        assert s.table("actor").name == "actor"
        assert "actor" in s
        assert len(s) == 3

    def test_unknown_table_raises(self):
        with pytest.raises(UnknownTableError):
            movie_schema().table("nope")

    def test_duplicate_table_raises(self):
        s = movie_schema()
        with pytest.raises(DuplicateTableError):
            s.add_table(Table("actor", ["name"]))

    def test_link_creates_fk_attribute(self):
        s = movie_schema()
        assert s.table("acts").has_attribute("actor_id")

    def test_fk_validation(self):
        s = movie_schema()
        with pytest.raises(UnknownAttributeError):
            s.add_foreign_key(ForeignKey("acts", "nope", "actor", "id"))

    def test_fk_unknown_target_table(self):
        s = movie_schema()
        with pytest.raises(UnknownTableError):
            s.add_foreign_key(ForeignKey("acts", "actor_id", "ghost", "id"))

    def test_validate_passes(self):
        movie_schema().validate()


class TestSchemaGraph:
    def test_nodes_are_tables(self):
        s = movie_schema()
        assert set(s.graph()) == {"actor", "movie", "acts"}

    def test_edges_from_fks(self):
        s = movie_schema()
        g = s.graph()
        assert "actor" in g["acts"] and "acts" in g["actor"]
        assert "movie" in g["acts"] and "acts" in g["movie"]
        assert "movie" not in g["actor"]

    def test_adjacent_tables(self):
        s = movie_schema()
        assert s.adjacent_tables("acts") == ["actor", "movie"]
        assert s.adjacent_tables("actor") == ["acts"]

    def test_join_edges_both_directions(self):
        s = movie_schema()
        assert len(s.join_edges("acts", "actor")) == 1
        assert len(s.join_edges("actor", "acts")) == 1
        assert s.join_edges("actor", "movie") == []

    def test_multiple_fks_yield_multi_edges(self):
        s = Schema()
        s.add_table(Table("person", ["name"]))
        s.add_table(Table("movie", ["title"]))
        s.link("movie", "person", source_attr="director_id")
        s.link("movie", "person", source_attr="producer_id")
        assert len(s.join_edges("movie", "person")) == 2

    def test_graph_cache_invalidated_on_add(self):
        s = movie_schema()
        g1 = s.graph()
        s.add_table(Table("company", ["name"]))
        g2 = s.graph()
        assert "company" in g2 and "company" not in g1


class TestJoinPaths:
    def test_zero_length_paths_are_tables(self):
        s = movie_schema()
        paths = s.join_paths(0)
        assert sorted(paths) == [("actor",), ("acts",), ("movie",)]

    def test_one_join_paths(self):
        s = movie_schema()
        paths = [p for p in s.join_paths(1) if len(p) == 2]
        assert ("actor", "acts") in paths or ("acts", "actor") in paths

    def test_paths_deduplicated_up_to_reversal(self):
        s = movie_schema()
        paths = set(s.join_paths(2))
        for p in paths:
            assert p[::-1] not in paths or p == p[::-1]

    def test_actor_movie_path_exists(self):
        s = movie_schema()
        paths = s.join_paths(2)
        assert ("actor", "acts", "movie") in paths or ("movie", "acts", "actor") in paths

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            movie_schema().join_paths(-1)

    def test_paths_are_simple(self):
        s = movie_schema()
        for p in s.join_paths(3):
            assert len(set(p)) == len(p)

    def test_sorted_by_length(self):
        s = movie_schema()
        lengths = [len(p) for p in s.join_paths(2)]
        assert lengths == sorted(lengths)
