"""Unit tests for repro.core.query (StructuredQuery)."""

from repro.core.query import StructuredQuery
from repro.core.templates import QueryTemplate


def actor_movie_query(mini_db, selections):
    e1 = mini_db.schema.join_edges("actor", "acts")[0]
    e2 = mini_db.schema.join_edges("acts", "movie")[0]
    t = QueryTemplate(path=("actor", "acts", "movie"), edges=(e1, e2))
    return StructuredQuery(template=t, selections=selections)


class TestStructuredQuery:
    def test_size_counts_joins(self, mini_db):
        q = actor_movie_query(mini_db, {})
        assert q.size == 2

    def test_predicate_and_term_counts(self, mini_db):
        q = actor_movie_query(
            mini_db, {0: (("name", ("tom", "hanks")),), 2: (("year", ("2001",)),)}
        )
        assert q.predicate_count() == 2
        assert q.term_count() == 3

    def test_execute(self, mini_db):
        q = actor_movie_query(mini_db, {0: (("name", ("london",)),)})
        rows = q.execute(mini_db)
        assert len(rows) == 1
        assert rows[0][2]["title"] == "london calling"

    def test_count_and_has_results(self, mini_db):
        q = actor_movie_query(mini_db, {0: (("name", ("hanks",)),)})
        assert len(q.execute(mini_db)) == 3
        assert q.has_results(mini_db)
        empty = actor_movie_query(mini_db, {0: (("name", ("zzz",)),)})
        assert not empty.has_results(mini_db)

    def test_result_keys_are_uids(self, mini_db):
        q = actor_movie_query(mini_db, {0: (("name", ("london",)),)})
        keys = q.result_keys(mini_db)
        assert keys == {("actor", 3), ("acts", 4), ("movie", 3)}

    def test_result_keys_with_limit(self, mini_db):
        q = actor_movie_query(mini_db, {})
        limited = q.result_keys(mini_db, limit=1)
        assert 0 < len(limited) <= 3

    def test_algebra_rendering(self, mini_db):
        q = actor_movie_query(mini_db, {0: (("name", ("hanks",)),)})
        text = q.algebra()
        assert "sigma_{{hanks} in name}(actor)" in text
        assert "|x|" in text
        assert str(q) == text

    def test_to_sql(self, mini_db):
        q = actor_movie_query(mini_db, {0: (("name", ("hanks",)),)})
        sql = q.to_sql()
        assert sql.startswith("SELECT *")
        assert "LIKE '%hanks%'" in sql

    def test_frozen_dataclass_semantics(self, mini_db):
        q1 = actor_movie_query(mini_db, {})
        q2 = actor_movie_query(mini_db, {})
        assert q1.template == q2.template
