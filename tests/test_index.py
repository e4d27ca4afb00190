"""Unit tests for repro.db.index (inverted index + statistics)."""

import pytest


class TestPostings:
    def test_attributes_containing(self, mini_db):
        idx = mini_db.require_index()
        refs = idx.attributes_containing("hanks")
        assert ("actor", "name") in refs
        assert ("movie", "title") in refs

    def test_absent_term(self, mini_db):
        idx = mini_db.require_index()
        assert idx.attributes_containing("zzz") == []
        assert idx.tables_containing("zzz") == set()

    def test_tables_containing(self, mini_db):
        idx = mini_db.require_index()
        assert idx.tables_containing("hanks") == {"actor", "movie"}

    def test_tuple_keys(self, mini_db):
        idx = mini_db.require_index()
        assert idx.tuple_keys("hanks", "actor", "name") == {1, 2}
        assert idx.tuple_keys("hanks", "movie", "title") == {2}

    def test_posting_counts(self, mini_db):
        idx = mini_db.require_index()
        posting = idx.posting("hanks", "actor", "name")
        assert posting.occurrences == 2
        assert posting.document_frequency == 2

    def test_non_textual_attributes_not_indexed(self, mini_db):
        idx = mini_db.require_index()
        assert idx.posting("1", "actor", "id") is None

    def test_schema_term_match(self, mini_db):
        idx = mini_db.require_index()
        assert idx.tables_matching_schema_term("actor") == {"actor"}
        assert idx.tables_matching_schema_term("hanks") == set()

    def test_vocabulary_sorted(self, mini_db):
        vocab = mini_db.require_index().vocabulary()
        assert vocab == sorted(vocab)
        assert "hanks" in vocab


class TestStatistics:
    def test_tf_normalized(self, mini_db):
        idx = mini_db.require_index()
        # actor.name holds 6 tokens total; "hanks" occurs twice.
        assert idx.tf("hanks", "actor", "name") == pytest.approx(2 / 6)

    def test_tf_zero_for_absent(self, mini_db):
        idx = mini_db.require_index()
        assert idx.tf("zzz", "actor", "name") == 0.0

    def test_atf_adds_alpha(self, mini_db):
        idx = mini_db.require_index()
        assert idx.atf("hanks", "actor", "name") == pytest.approx(
            idx.tf("hanks", "actor", "name") + idx.alpha
        )

    def test_atf_positive_for_absent(self, mini_db):
        idx = mini_db.require_index()
        assert idx.atf("zzz", "actor", "name") > 0.0

    def test_df(self, mini_db):
        idx = mini_db.require_index()
        assert idx.df("hanks", "actor") == 2
        assert idx.df("hanks", "movie") == 1
        assert idx.df("zzz", "actor") == 0

    def test_idf_decreases_with_df(self, mini_db):
        idx = mini_db.require_index()
        assert idx.idf("zzz", "actor") > idx.idf("hanks", "actor")

    def test_idf_positive(self, mini_db):
        idx = mini_db.require_index()
        assert idx.idf("hanks", "actor") > 0

    def test_attribute_statistics(self, mini_db):
        idx = mini_db.require_index()
        stats = idx.attribute_statistics("actor", "name")
        assert stats.cell_count == 3
        assert stats.total_tokens == 6

    def test_attribute_statistics_missing(self, mini_db):
        stats = mini_db.require_index().attribute_statistics("actor", "ghost")
        assert stats.cell_count == 0


class TestJointFrequency:
    def test_joint_cell_frequency(self, mini_db):
        idx = mini_db.require_index()
        # "tom hanks": exactly 1 of 3 actor.name cells contains both.
        assert idx.joint_cell_frequency(["tom", "hanks"], "actor", "name") == pytest.approx(1 / 3)

    def test_joint_exceeds_product_for_cooccurring(self, mini_db):
        idx = mini_db.require_index()
        joint = idx.joint_cell_frequency(["tom", "hanks"], "actor", "name")
        product = idx.tf("tom", "actor", "name") * idx.tf("hanks", "actor", "name")
        assert joint > product

    def test_joint_zero_when_disjoint(self, mini_db):
        idx = mini_db.require_index()
        assert idx.joint_cell_frequency(["tom", "london"], "actor", "name") == 0.0

    def test_joint_empty_terms(self, mini_db):
        assert mini_db.require_index().joint_cell_frequency([], "actor", "name") == 0.0

    def test_candidate_tuple_keys(self, mini_db):
        idx = mini_db.require_index()
        assert idx.candidate_tuple_keys(["tom", "hanks"], "actor", "name") == {1}
        assert idx.candidate_tuple_keys(["tom", "london"], "actor", "name") == set()


class TestIncrementalIndexing:
    def test_post_index_insert_searchable(self, mini_db):
        mini_db.insert("actor", {"id": 77, "name": "rita wilson"})
        idx = mini_db.require_index()
        assert idx.tuple_keys("wilson", "actor", "name") == {77}

    def test_post_index_insert_updates_statistics(self, mini_db):
        idx = mini_db.require_index()
        df_before = idx.df("hanks", "actor")
        mini_db.insert("actor", {"id": 78, "name": "jim hanks"})
        assert idx.df("hanks", "actor") == df_before + 1

    def test_post_index_insert_selectable(self, mini_db):
        mini_db.insert("movie", {"id": 79, "title": "volunteers", "year": "1985"})
        assert mini_db.selection_keys("movie", [("title", ("volunteers",))]) == {79}

    def test_insert_many_maintains_index(self, mini_db):
        mini_db.insert_many(
            "actor",
            [{"id": 80, "name": "peter scolari"}, {"id": 81, "name": "peter falk"}],
        )
        idx = mini_db.require_index()
        assert idx.tuple_keys("peter", "actor", "name") == {80, 81}

    def test_tuple_counts_updated(self, mini_db):
        idx = mini_db.require_index()
        idf_rare_before = idx.idf("zzz", "actor")
        for i in range(90, 96):
            mini_db.insert("actor", {"id": i, "name": f"extra{i}"})
        # More tuples, still zero df: IDF of an absent term rises.
        assert idx.idf("zzz", "actor") > idf_rare_before
