"""Unit tests for the synthetic dataset generators and workloads."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generator import InterpretationGenerator
from repro.core.probability import normalize
from repro.datasets.freebase import build_freebase, domain_names, freebase_workload
from repro.datasets.imdb import build_imdb
from repro.datasets.lyrics import build_lyrics
from repro.datasets.simulation import generate_simulation, run_greedy_simulation
from repro.datasets.workload import imdb_workload, lyrics_workload, train_catalog_from_workload
from repro.db.tokenizer import tokenize


def connected_components(adjacency) -> set[frozenset]:
    """The node sets of an undirected adjacency dict's connected components."""
    unseen = set(adjacency)
    components = set()
    while unseen:
        frontier = [unseen.pop()]
        component = set(frontier)
        while frontier:
            for neighbour in adjacency[frontier.pop()]:
                if neighbour not in component:
                    component.add(neighbour)
                    frontier.append(neighbour)
        unseen -= component
        components.add(frozenset(component))
    return components


class TestImdb:
    def test_seven_tables(self, imdb_db):
        assert len(imdb_db.schema) == 7

    def test_deterministic(self):
        a = build_imdb(seed=3, n_movies=10, n_actors=8, n_directors=3, n_companies=2)
        b = build_imdb(seed=3, n_movies=10, n_actors=8, n_directors=3, n_companies=2)
        assert a.total_tuples() == b.total_tuples()
        assert a.relation("actor").get(0).get("name") == b.relation("actor").get(0).get("name")

    def test_relationships_reference_entities(self, imdb_db):
        for row in imdb_db.relation("acts"):
            assert imdb_db.relation("actor").get(row.get("actor_id")) is not None
            assert imdb_db.relation("movie").get(row.get("movie_id")) is not None

    def test_index_built(self, imdb_db):
        assert imdb_db.index is not None
        assert imdb_db.index.vocabulary()

    def test_ambiguity_present(self, imdb_db):
        """At least one surname occurs both as a person and in movie text."""
        idx = imdb_db.require_index()
        ambiguous = [
            term
            for term in idx.vocabulary()
            if idx.df(term, "actor") > 0 and idx.df(term, "movie") > 0
        ]
        assert ambiguous


class TestLyrics:
    def test_five_tables(self, lyrics_db):
        assert len(lyrics_db.schema) == 5

    def test_chain_schema(self, lyrics_db):
        paths = lyrics_db.schema.join_paths(4)
        assert ("artist", "artist_album", "album", "album_song", "song") in paths or (
            "song",
            "album_song",
            "album",
            "artist_album",
            "artist",
        ) in paths

    def test_every_album_has_artist(self, lyrics_db):
        album_ids = {row.get("album_id") for row in lyrics_db.relation("artist_album")}
        assert album_ids == set(lyrics_db.relation("album").keys())


class TestWorkloads:
    def test_imdb_workload_ground_truth_resolvable(self, imdb_db):
        workload = imdb_workload(imdb_db, n_queries=10)
        assert workload
        gen = InterpretationGenerator(imdb_db, max_template_joins=4)
        resolved = 0
        for item in workload:
            space = gen.interpretations(item.query)
            if any(item.intended.matches(i) for i in space):
                resolved += 1
        assert resolved >= len(workload) * 0.8

    def test_lyrics_workload_nonempty(self, lyrics_db):
        assert lyrics_workload(lyrics_db, n_queries=8)

    def test_workload_queries_unique(self, imdb_db):
        workload = imdb_workload(imdb_db, n_queries=15)
        texts = [str(w.query) for w in workload]
        assert len(texts) == len(set(texts))

    def test_workload_kinds(self, imdb_db):
        workload = imdb_workload(imdb_db, n_queries=20, mc_fraction=0.5)
        kinds = {w.kind for w in workload}
        assert kinds <= {"sc", "mc"}
        assert len(kinds) == 2

    def test_keywords_exist_in_db(self, imdb_db):
        idx = imdb_db.require_index()
        for item in imdb_workload(imdb_db, n_queries=10):
            for term in item.query.terms:
                assert idx.tables_containing(term)

    def test_train_catalog(self, imdb_db):
        gen = InterpretationGenerator(imdb_db, max_template_joins=4)
        from repro.core.probability import TemplateCatalog

        catalog = TemplateCatalog(gen.templates)
        workload = imdb_workload(imdb_db, n_queries=10)
        train_catalog_from_workload(catalog, gen.templates, workload)
        assert catalog.has_log


class TestFreebase:
    def test_domain_names_unique(self):
        names = domain_names(120)
        assert len(names) == 120
        assert len(set(names)) == 120

    def test_seven_tables_per_domain(self, freebase_instance):
        assert len(freebase_instance.database.schema) == 7 * len(freebase_instance.domains)

    def test_ontology_levels(self, freebase_instance):
        o = freebase_instance.ontology
        assert o.depth() == 3  # Thing -> type -> area -> domain
        assert "Person" in o

    def test_every_textual_attribute_assigned(self, freebase_instance):
        o = freebase_instance.ontology
        for table in freebase_instance.database.schema:
            for attr in table.textual_attributes():
                assert o.concept_of_attribute(table.name, attr.name) is not None

    def test_workload_two_and_three_keywords(self, freebase_instance):
        two = freebase_workload(freebase_instance, n_queries=4, n_keywords=2)
        three = freebase_workload(freebase_instance, n_queries=4, n_keywords=3)
        assert all(len(w.query) == 2 for w in two)
        assert all(len(w.query) == 3 for w in three)

    def test_invalid_keyword_count(self, freebase_instance):
        with pytest.raises(ValueError):
            freebase_workload(freebase_instance, n_keywords=4)

    def test_domains_are_disjoint_components(self, freebase_instance):
        components = connected_components(freebase_instance.database.schema.graph())
        assert len(components) == len(freebase_instance.domains)


class TestSimulation:
    def test_space_growth_with_tables(self):
        small = generate_simulation(n_tables=5, n_keywords=3, seed=31)
        large = generate_simulation(n_tables=40, n_keywords=3, seed=31)
        assert large.theoretical_queries > small.theoretical_queries

    def test_space_growth_with_keywords(self):
        short = generate_simulation(n_tables=10, n_keywords=2, seed=37)
        long = generate_simulation(n_tables=10, n_keywords=8, seed=37)
        assert long.theoretical_queries > short.theoretical_queries * 10

    def test_enumeration_capped(self):
        space = generate_simulation(n_tables=10, n_keywords=8, seed=37, max_queries=500)
        assert space.n_queries <= 600  # cap is per template, small slack

    def test_option_masks_cover_the_enumerated_queries(self):
        space = generate_simulation(n_tables=8, n_keywords=3, seed=5)
        assert len(space.options) == len(space.option_labels)
        assert all(0 < mask < 1 << space.n_queries for mask in space.options)

    def test_queries_are_numbered_heaviest_first(self):
        space = generate_simulation(n_tables=8, n_keywords=3, seed=5)
        assert space.weights == sorted(space.weights, reverse=True)

    def test_probabilities_normalized(self):
        space = generate_simulation(n_tables=8, n_keywords=3, seed=5)
        probabilities = normalize(space.weights)
        assert all(p > 0 for p in probabilities)
        assert sum(probabilities) == pytest.approx(1.0)

    def test_greedy_run_resolves(self):
        space = generate_simulation(n_tables=10, n_keywords=3, seed=31)
        run = run_greedy_simulation(space, seed=99, threshold=20)
        assert run.steps > 0
        assert run.resolved  # the intended query survives every pruning
        assert run.remaining >= 1

    def test_steps_grow_sublinearly(self):
        """The Table 3.2 shape: queries explode, steps stay modest."""
        small = generate_simulation(n_tables=10, n_keywords=3, seed=31)
        large = generate_simulation(n_tables=40, n_keywords=3, seed=31)
        steps_small = run_greedy_simulation(small, seed=7).steps
        steps_large = run_greedy_simulation(large, seed=7).steps
        growth_queries = large.theoretical_queries / max(small.theoretical_queries, 1)
        growth_steps = steps_large / max(steps_small, 1)
        assert growth_steps < growth_queries

    def test_deterministic(self):
        a = generate_simulation(n_tables=8, n_keywords=3, seed=11)
        b = generate_simulation(n_tables=8, n_keywords=3, seed=11)
        assert a.theoretical_queries == b.theoretical_queries
        assert a.options == b.options
        assert a.weights == b.weights

    @settings(max_examples=40, deadline=None)
    @given(
        n_tables=st.integers(1, 8),
        n_keywords=st.integers(1, 4),
        seed=st.integers(0, 10_000),
        threshold=st.integers(1, 12),
    )
    def test_bindings_partition_the_queries_and_greedy_keeps_the_intended_one(
        self, n_tables, n_keywords, seed, threshold
    ):
        space = generate_simulation(n_tables=n_tables, n_keywords=n_keywords, seed=seed)
        for keyword in range(n_keywords):
            masks = [
                mask
                for mask, (k, _table) in zip(space.options, space.option_labels)
                if k == keyword
            ]
            # Each query binds the keyword to exactly one table.
            assert sum(mask.bit_count() for mask in masks) == space.n_queries
            union = 0
            for mask in masks:
                union |= mask
            assert union == (1 << space.n_queries) - 1
        run = run_greedy_simulation(space, seed=seed + 1, threshold=threshold)
        assert run.resolved
        assert run.remaining >= 1
