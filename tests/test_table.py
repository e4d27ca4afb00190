"""Unit tests for repro.db.table (Relation/Tuple storage)."""

import pytest

from repro.db.errors import IntegrityError, UnknownAttributeError
from repro.db.schema import Attribute, Table
from repro.db.table import Relation


@pytest.fixture
def relation() -> Relation:
    return Relation(Table("actor", [Attribute("name")]))


class TestInsert:
    def test_insert_returns_tuple(self, relation):
        t = relation.insert({"id": 1, "name": "tom hanks"})
        assert t.key == 1
        assert t["name"] == "tom hanks"

    def test_auto_key_assignment(self, relation):
        t1 = relation.insert({"name": "a"})
        t2 = relation.insert({"name": "b"})
        assert t1.key != t2.key

    def test_auto_key_skips_taken(self, relation):
        relation.insert({"id": 0, "name": "a"})
        t = relation.insert({"name": "b"})
        assert t.key != 0

    def test_duplicate_key_rejected(self, relation):
        relation.insert({"id": 1, "name": "a"})
        with pytest.raises(IntegrityError):
            relation.insert({"id": 1, "name": "b"})

    def test_unknown_attribute_rejected(self, relation):
        with pytest.raises(UnknownAttributeError):
            relation.insert({"id": 1, "ghost": "x"})

    def test_missing_attribute_is_none(self, relation):
        t = relation.insert({"id": 1})
        assert t["name"] is None


class TestTupleAccess:
    def test_getitem_unknown_raises(self, relation):
        t = relation.insert({"id": 1, "name": "a"})
        with pytest.raises(KeyError):
            t["ghost"]

    def test_get_with_default(self, relation):
        t = relation.insert({"id": 1, "name": "a"})
        assert t.get("ghost", "dflt") == "dflt"

    def test_as_dict(self, relation):
        t = relation.insert({"id": 1, "name": "a"})
        assert t.as_dict() == {"id": 1, "name": "a"}

    def test_uid(self, relation):
        t = relation.insert({"id": 7, "name": "a"})
        assert t.uid == ("actor", 7)

    def test_tuples_hashable(self, relation):
        t = relation.insert({"id": 1, "name": "a"})
        assert len({t, t}) == 1


class TestLookupAndScan:
    def test_get_by_key(self, relation):
        relation.insert({"id": 5, "name": "x"})
        assert relation.get(5) is not None
        assert relation.get(99) is None

    def test_lookup_without_index(self, relation):
        relation.insert({"id": 1, "name": "a"})
        relation.insert({"id": 2, "name": "a"})
        relation.insert({"id": 3, "name": "b"})
        assert len(relation.lookup("name", "a")) == 2

    def test_lookup_with_index(self, relation):
        relation.insert({"id": 1, "name": "a"})
        relation.create_index("name")
        relation.insert({"id": 2, "name": "a"})
        assert len(relation.lookup("name", "a")) == 2

    def test_index_on_unknown_attribute(self, relation):
        with pytest.raises(UnknownAttributeError):
            relation.create_index("ghost")

    def test_index_rebuild_covers_existing_rows(self, relation):
        relation.insert({"id": 1, "name": "a"})
        relation.create_index("name")
        assert [t.key for t in relation.lookup("name", "a")] == [1]

    def test_scan_and_len(self, relation):
        for i in range(4):
            relation.insert({"id": i, "name": str(i)})
        assert len(relation) == 4
        assert len(list(relation.scan())) == 4
        assert len(list(iter(relation))) == 4


def test_a_lookup_of_an_absent_value_does_not_grow_the_index(relation):
    relation.insert({"id": 1, "name": "a"})
    relation.create_index("name")
    for miss in range(100):
        assert relation.lookup("name", f"absent-{miss}") == []
    assert relation.lookup("name", "a")[0].key == 1
    assert len(relation._value_index["name"]) == 1

