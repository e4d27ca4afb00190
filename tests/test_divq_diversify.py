"""Unit tests for repro.divq.diversify (Alg. 4.1)."""

import pytest

from repro.core.probability import DivQModel
from repro.datasets.workload import WORKLOAD_SAMPLERS
from repro.divq.diversify import divq_model, diversify, relevance_pool
from repro.engine import QueryEngine


def sim_from_matrix(matrix):
    def sim(a, b):
        return matrix[a][b]

    return sim


@pytest.fixture
def redundant_ranking():
    """Items 0 and 1 are near-duplicates; 2 is distinct but less relevant."""
    matrix = {
        0: {0: 1.0, 1: 0.9, 2: 0.0},
        1: {0: 0.9, 1: 1.0, 2: 0.0},
        2: {0: 0.0, 1: 0.0, 2: 1.0},
    }
    ranked = [(0, 0.5), (1, 0.4), (2, 0.1)]
    return ranked, sim_from_matrix(matrix)


class TestDiversify:
    def test_most_relevant_always_first(self, redundant_ranking):
        ranked, sim = redundant_ranking
        result = diversify(ranked, k=3, tradeoff=0.5, similarity=sim)
        assert result.selected[0] == 0

    def test_novelty_promotes_distinct_item(self, redundant_ranking):
        ranked, sim = redundant_ranking
        result = diversify(ranked, k=2, tradeoff=0.1, similarity=sim)
        assert result.selected == [0, 2]

    def test_pure_relevance_keeps_order(self, redundant_ranking):
        ranked, sim = redundant_ranking
        result = diversify(ranked, k=3, tradeoff=1.0, similarity=sim)
        assert result.selected == [0, 1, 2]

    def test_k_zero(self, redundant_ranking):
        ranked, sim = redundant_ranking
        assert diversify(ranked, k=0, tradeoff=0.5, similarity=sim).selected == []

    def test_k_larger_than_input(self, redundant_ranking):
        ranked, sim = redundant_ranking
        result = diversify(ranked, k=10, tradeoff=0.5, similarity=sim)
        assert sorted(result.selected) == [0, 1, 2]

    def test_empty_input(self):
        assert diversify([], k=3, tradeoff=0.5, similarity=lambda a, b: 0).selected == []

    def test_invalid_tradeoff(self, redundant_ranking):
        ranked, sim = redundant_ranking
        with pytest.raises(ValueError):
            diversify(ranked, k=2, tradeoff=1.5, similarity=sim)

    def test_negative_relevance_rejected(self):
        with pytest.raises(ValueError):
            diversify([("a", -0.1)], k=1, tradeoff=0.5, similarity=lambda a, b: 0)

    def test_no_duplicates_in_output(self, redundant_ranking):
        ranked, sim = redundant_ranking
        result = diversify(ranked, k=3, tradeoff=0.3, similarity=sim)
        assert len(result.selected) == len(set(result.selected))

    def test_relevance_aligned_with_selection(self, redundant_ranking):
        ranked, sim = redundant_ranking
        rel_by_item = dict(ranked)
        result = diversify(ranked, k=3, tradeoff=0.3, similarity=sim)
        for item, rel in zip(result.selected, result.relevance):
            assert rel == rel_by_item[item]

    def test_pruning_reduces_similarity_computations(self):
        """The upper-bound break of Alg. 4.1: with lambda=1 no later
        candidate can beat the current best, so few similarities are computed."""
        n = 40
        ranked = [(i, 1.0 / (i + 1)) for i in range(n)]
        calls = {"n": 0}

        def sim(a, b):
            calls["n"] += 1
            return 0.0

        result = diversify(ranked, k=5, tradeoff=1.0, similarity=sim)
        exhaustive_bound = n * 5
        assert result.similarity_computations < exhaustive_bound
        assert result.selected == [0, 1, 2, 3, 4]

    def test_instrumentation_counters(self, redundant_ranking):
        ranked, sim = redundant_ranking
        result = diversify(ranked, k=3, tradeoff=0.5, similarity=sim)
        assert result.similarity_computations > 0
        assert result.candidates_scanned > 0

    def test_default_similarity_requires_interpretations(self):
        with pytest.raises(TypeError):
            diversify([("plain", 1.0), ("items", 0.5)], k=2, tradeoff=0.5)


class TestRelevancePool:
    def test_drops_items_without_relevance(self):
        ranked = [("a", 0.6), ("b", 0.0), ("c", 0.4)]
        assert relevance_pool(ranked) == [("a", 0.6), ("c", 0.4)]

    def test_keeps_the_ranked_order(self):
        ranked = [("low", 0.1), ("high", 0.9), ("mid", 0.5)]
        assert relevance_pool(ranked) == ranked

    def test_size_counts_only_relevant_items(self):
        ranked = [("zero", 0.0)] * 3 + [(i, 1.0 / (i + 1)) for i in range(5)]
        assert relevance_pool(ranked, size=2) == [(0, 1.0), (1, 0.5)]

    def test_default_size_is_chapter_4s_pool_of_25(self):
        ranked = [(i, 1.0) for i in range(40)]
        assert relevance_pool(ranked) == ranked[:25]

    def test_nothing_relevant_gives_an_empty_pool(self):
        assert relevance_pool([]) == []
        assert relevance_pool([("a", 0.0), ("b", 0.0)]) == []


@pytest.fixture(scope="module", params=["imdb", "lyrics"])
def dataset_engine(request):
    return request.param, QueryEngine.for_dataset(request.param)


class TestDivqModel:
    def test_is_eq_4_2_over_the_engines_own_store(self, dataset_engine):
        _dataset, engine = dataset_engine
        model = divq_model(engine)
        assert isinstance(model, DivQModel)
        assert model.index is engine.index
        assert model.catalog is engine.catalog
        assert model.database is engine.backend
        assert model.check_nonempty

    def test_zero_probability_means_no_result_rows(self, dataset_engine):
        """P = 0 exactly when the interpretation selects nothing (Section 4.5)."""
        dataset, engine = dataset_engine
        ranker = engine.with_model(divq_model)
        checked = 0
        for item in WORKLOAD_SAMPLERS[dataset](engine.backend, n_queries=10):
            for interpretation, p in ranker.rank(str(item.query)):
                has_rows = interpretation.to_structured_query().has_results(engine.backend)
                assert (p > 0.0) == has_rows, interpretation.describe()
                checked += 1
        assert checked > 0
