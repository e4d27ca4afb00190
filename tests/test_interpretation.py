"""Unit tests for repro.core.interpretation (Defs. 3.5.3-3.5.7)."""

import dataclasses
import threading

import pytest

from repro.core.interpretation import Interpretation, TableAtom, ValueAtom, atoms_subsume
from repro.core.keywords import Keyword, KeywordQuery
from repro.core.templates import QueryTemplate


@pytest.fixture
def actor_movie_template(mini_db):
    e1 = mini_db.schema.join_edges("actor", "acts")[0]
    e2 = mini_db.schema.join_edges("acts", "movie")[0]
    return QueryTemplate(path=("actor", "acts", "movie"), edges=(e1, e2))


@pytest.fixture
def hanks_2001():
    return KeywordQuery.from_terms(["hanks", "2001"])


def make_interp(query, template):
    k0, k1 = query.keywords
    a0 = ValueAtom(keyword=k0, table="actor", attribute="name")
    a1 = ValueAtom(keyword=k1, table="movie", attribute="year")
    return Interpretation.build(query, template, {a0: 0, a1: 2})


class TestAtoms:
    def test_value_atom_describe(self):
        a = ValueAtom(Keyword(0, "hanks"), "actor", "name")
        assert "hanks" in a.describe() and "actor.name" in a.describe()

    def test_table_atom_describe(self):
        a = TableAtom(Keyword(0, "actor"), "actor")
        assert "table" in a.describe()

    def test_atom_kinds(self):
        assert ValueAtom(Keyword(0, "x"), "t", "a").kind == "value"
        assert TableAtom(Keyword(0, "x"), "t").kind == "table"

    def test_atoms_subsume(self):
        a = ValueAtom(Keyword(0, "x"), "t", "a")
        b = ValueAtom(Keyword(1, "y"), "t", "a")
        assert atoms_subsume(frozenset([a]), frozenset([a, b]))
        assert not atoms_subsume(frozenset([a, b]), frozenset([a]))


class TestInterpretation:
    def test_complete(self, hanks_2001, actor_movie_template):
        interp = make_interp(hanks_2001, actor_movie_template)
        assert interp.is_complete
        assert interp.unbound_keywords == ()

    def test_partial(self, hanks_2001, actor_movie_template):
        k0 = hanks_2001.keywords[0]
        a0 = ValueAtom(keyword=k0, table="actor", attribute="name")
        partial = Interpretation.build(hanks_2001, actor_movie_template, {a0: 0})
        assert not partial.is_complete
        assert partial.unbound_keywords == (hanks_2001.keywords[1],)

    def test_subsumes(self, hanks_2001, actor_movie_template):
        full = make_interp(hanks_2001, actor_movie_template)
        k0 = hanks_2001.keywords[0]
        a0 = ValueAtom(keyword=k0, table="actor", attribute="name")
        partial = Interpretation.build(hanks_2001, actor_movie_template, {a0: 0})
        assert partial.subsumes(full)
        assert not full.subsumes(partial)

    def test_validate_ok(self, hanks_2001, actor_movie_template):
        make_interp(hanks_2001, actor_movie_template).validate()

    def test_validate_rejects_table_mismatch(self, hanks_2001, actor_movie_template):
        k0, k1 = hanks_2001.keywords
        a0 = ValueAtom(keyword=k0, table="actor", attribute="name")
        a1 = ValueAtom(keyword=k1, table="movie", attribute="year")
        bad = Interpretation.build(hanks_2001, actor_movie_template, {a0: 2, a1: 0})
        with pytest.raises(ValueError):
            bad.validate()

    def test_validate_rejects_duplicate_keyword(self, hanks_2001, actor_movie_template):
        k0, _k1 = hanks_2001.keywords
        a = ValueAtom(keyword=k0, table="actor", attribute="name")
        b = TableAtom(keyword=k0, table="actor")
        bad = Interpretation.build(hanks_2001, actor_movie_template, [(a, 0), (b, 0)])
        with pytest.raises(ValueError):
            bad.validate()

    def test_validate_rejects_minimality_violation(self, hanks_2001, actor_movie_template):
        """Both keywords on the actor endpoint leave movie as an empty leaf."""
        k0, k1 = hanks_2001.keywords
        a0 = ValueAtom(keyword=k0, table="actor", attribute="name")
        a1 = ValueAtom(keyword=k1, table="actor", attribute="name")
        bad = Interpretation.build(hanks_2001, actor_movie_template, {a0: 0, a1: 0})
        with pytest.raises(ValueError):
            bad.validate()

    def test_validate_rejects_bad_slot(self, hanks_2001, actor_movie_template):
        k0, k1 = hanks_2001.keywords
        a0 = ValueAtom(keyword=k0, table="actor", attribute="name")
        a1 = ValueAtom(keyword=k1, table="movie", attribute="year")
        bad = Interpretation.build(hanks_2001, actor_movie_template, {a0: 0, a1: 7})
        with pytest.raises(ValueError):
            bad.validate()

    def test_describe_mentions_scope(self, hanks_2001, actor_movie_template):
        interp = make_interp(hanks_2001, actor_movie_template)
        assert "[complete]" in interp.describe()


class TestExecutionBridge:
    def test_to_structured_query_groups_terms(self, mini_db, actor_movie_template):
        query = KeywordQuery.from_terms(["tom", "hanks", "2001"])
        k0, k1, k2 = query.keywords
        interp = Interpretation.build(
            query,
            actor_movie_template,
            {
                ValueAtom(k0, "actor", "name"): 0,
                ValueAtom(k1, "actor", "name"): 0,
                ValueAtom(k2, "movie", "year"): 2,
            },
        )
        sq = interp.to_structured_query()
        assert sq.selections[0] == (("name", ("tom", "hanks")),)
        assert sq.selections[2] == (("year", ("2001",)),)

    def test_structured_query_slot_is_a_pure_memo(
        self, actor_movie_template, hanks_2001
    ):
        """The query is built once and kept, outside ``==``, ``hash`` and
        ``repr``; ``dataclasses.replace`` starts with an empty slot."""
        interp = make_interp(hanks_2001, actor_movie_template)
        twin = make_interp(hanks_2001, actor_movie_template)
        identity = (hash(interp), repr(interp))
        query = interp.to_structured_query()
        assert interp.to_structured_query() is query
        assert (hash(interp), repr(interp)) == identity
        assert interp == twin and hash(twin) == identity[0]
        assert repr(twin) == identity[1]
        copy = dataclasses.replace(interp)
        assert copy._structured is None
        assert copy == interp
        assert copy.to_structured_query() == query
        assert copy.to_structured_query().cache_key() == query.cache_key()

    def test_racing_first_builds_agree(
        self, actor_movie_template, hanks_2001, monkeypatch
    ):
        """Threads that all build the query at once get equal queries and
        equal cache keys, and the slot keeps one of them."""
        interp = make_interp(hanks_2001, actor_movie_template)
        workers = 4
        barrier = threading.Barrier(workers, timeout=10)
        build = Interpretation._build_structured_query

        def racing_build(self):
            barrier.wait()  # every thread is past the empty-slot check
            return build(self)

        monkeypatch.setattr(Interpretation, "_build_structured_query", racing_build)
        got = [None] * workers

        def first_use(i):
            query = interp.to_structured_query()
            got[i] = (query, query.cache_key())

        threads = [threading.Thread(target=first_use, args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        queries = [query for query, _key in got]
        assert all(query == queries[0] for query in queries)
        assert len({key for _query, key in got}) == 1
        assert any(interp.to_structured_query() is query for query in queries)

    def test_execute(self, mini_db, actor_movie_template, hanks_2001):
        interp = make_interp(hanks_2001, actor_movie_template)
        rows = interp.execute(mini_db)
        # hanks actor in a 2001 movie: tom hanks + colin hanks in movie 2.
        assert len(rows) == 2

    def test_result_keys(self, mini_db, actor_movie_template, hanks_2001):
        interp = make_interp(hanks_2001, actor_movie_template)
        keys = interp.result_keys(mini_db)
        assert ("movie", 2) in keys
        assert ("actor", 1) in keys and ("actor", 2) in keys
