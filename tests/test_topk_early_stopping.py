"""Unit tests for repro.core.topk: threshold early stopping."""

import pytest

from repro.core.keywords import KeywordQuery
from repro.core.probability import rank_interpretations
from repro.core.topk import TopKExecutor
from repro.datasets.workload import WORKLOAD_SAMPLERS
from repro.engine import QueryEngine

HANKS_2001 = KeywordQuery.from_terms(["hanks", "2001"])


@pytest.fixture
def ranked_space(mini_db, mini_generator, mini_model):
    space = mini_generator.interpretations(HANKS_2001)
    return rank_interpretations(space, mini_model)


class TestTopKExecutor:
    def test_early_stop_matches_naive(self, mini_db, ranked_space):
        executor = TopKExecutor(mini_db)
        smart = executor.execute(ranked_space, k=3)
        smart_stats = executor.statistics
        naive = executor.execute_naive(ranked_space, k=3)
        assert [r.row_uids() for r in smart] == [r.row_uids() for r in naive]
        assert [r.score for r in smart] == [r.score for r in naive]
        assert smart_stats.interpretations_executed <= len(ranked_space)

    def test_early_stopping_saves_work(self, mini_db, ranked_space):
        if len(ranked_space) < 3:
            pytest.skip("space too small to demonstrate early stopping")
        executor = TopKExecutor(mini_db)
        executor.execute(ranked_space, k=1)
        smart_work = executor.statistics.interpretations_executed
        executor.execute_naive(ranked_space, k=1)
        naive_work = executor.statistics.interpretations_executed
        assert smart_work < naive_work

    def test_scores_descending(self, mini_db, ranked_space):
        results = TopKExecutor(mini_db).execute(ranked_space, k=5)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_k_zero(self, mini_db, ranked_space):
        assert TopKExecutor(mini_db).execute(ranked_space, k=0) == []

    def test_negative_k(self, mini_db, ranked_space):
        with pytest.raises(ValueError):
            TopKExecutor(mini_db).execute(ranked_space, k=-1)

    def test_union_semantics_dedup(self, mini_db, ranked_space):
        results = TopKExecutor(mini_db).execute(ranked_space, k=50)
        uids = [r.row_uids() for r in results]
        assert len(uids) == len(set(uids))

    def test_provenance_ranks_valid(self, mini_db, ranked_space):
        for r in TopKExecutor(mini_db).execute(ranked_space, k=10):
            assert 1 <= r.interpretation_rank <= len(ranked_space)


@pytest.fixture(scope="module", params=["imdb", "lyrics"])
def workload_spaces(request):
    """The ranked spaces of 15 workload queries on one bundled dataset."""
    engine = QueryEngine.for_dataset(request.param)
    queries = WORKLOAD_SAMPLERS[request.param](engine.backend, n_queries=15)
    return engine.backend, [engine.rank(str(item.query)) for item in queries]


@pytest.mark.parametrize("k", [1, 5, 20])
def test_early_stop_matches_naive_on_the_workload(workload_spaces, k):
    """The threshold stop returns the reference's rows, in order, for less work."""
    backend, spaces = workload_spaces
    executor = TopKExecutor(backend)
    smart_total = naive_total = 0
    for ranked in spaces:
        smart = executor.execute(ranked, k=k)
        smart_total += executor.statistics.interpretations_executed
        naive = executor.execute_naive(ranked, k=k)
        naive_total += executor.statistics.interpretations_executed
        assert [(r.score, r.interpretation_rank, r.row_uids()) for r in smart] == [
            (r.score, r.interpretation_rank, r.row_uids()) for r in naive
        ]
    assert smart_total <= naive_total
