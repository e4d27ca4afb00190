"""Backend parity: every storage engine must produce identical results.

Runs the existing interpretation / top-k / baseline scenarios against each
registered backend and asserts ranked outputs are *identical* — the semantic
contract of :class:`repro.db.backends.base.StorageBackend`.  The in-memory
engine is the reference; any new backend added to the registry is covered
automatically.
"""

from __future__ import annotations

import pytest

from repro.baselines.banks import BanksSearch
from repro.baselines.discover import DiscoverRanker
from repro.baselines.sqak import SqakRanker
from repro.core.generator import InterpretationGenerator
from repro.core.keywords import KeywordQuery
from repro.core.probability import ATFModel, TemplateCatalog, rank_interpretations
from repro.core.topk import TopKExecutor
from repro.datasets.imdb import build_imdb
from repro.db.backends import available_backends
from repro.db.datagraph import DataGraph
from tests.conftest import build_mini_db

BACKENDS = available_backends()

QUERIES = ["hanks", "hanks 2001", "london", "hanks terminal", "london 2001"]


@pytest.fixture(scope="module", params=BACKENDS)
def stack(request):
    """(db, generator, model) over the mini database on one backend."""
    db = build_mini_db(request.param)
    generator = InterpretationGenerator(db, max_template_joins=4)
    model = ATFModel(db.require_index(), TemplateCatalog(generator.templates))
    return db, generator, model


def _ranked_signature(generator, model, query_text):
    query = KeywordQuery.parse(query_text)
    ranked = rank_interpretations(generator.interpretations(query), model)
    return [
        (interp.to_structured_query().algebra(), round(p, 12)) for interp, p in ranked
    ]


@pytest.fixture(scope="module")
def reference():
    """Reference outputs computed once on the in-memory engine."""
    db = build_mini_db("memory")
    generator = InterpretationGenerator(db, max_template_joins=4)
    model = ATFModel(db.require_index(), TemplateCatalog(generator.templates))
    return db, generator, model


class TestInterpretationParity:
    @pytest.mark.parametrize("query_text", QUERIES)
    def test_ranked_interpretations_identical(self, stack, reference, query_text):
        _db, generator, model = stack
        _rdb, ref_generator, ref_model = reference
        assert _ranked_signature(generator, model, query_text) == _ranked_signature(
            ref_generator, ref_model, query_text
        )

    def test_index_statistics_identical(self, stack, reference):
        db = stack[0]
        ref_db = reference[0]
        assert db.require_index().stats_snapshot() == ref_db.require_index().stats_snapshot()


class TestTopKParity:
    @pytest.mark.parametrize("query_text", QUERIES)
    def test_topk_results_identical(self, stack, reference, query_text):
        db, generator, model = stack
        ref_db, ref_generator, ref_model = reference
        query = KeywordQuery.parse(query_text)

        ranked = rank_interpretations(generator.interpretations(query), model)
        ref_ranked = rank_interpretations(
            ref_generator.interpretations(query), ref_model
        )
        executor = TopKExecutor(db)
        ref_executor = TopKExecutor(ref_db)
        results = executor.execute(ranked, k=5)
        ref_results = ref_executor.execute(ref_ranked, k=5)

        assert [(r.score, r.row_uids()) for r in results] == [
            (r.score, r.row_uids()) for r in ref_results
        ]
        stats = executor.statistics
        ref_stats = ref_executor.statistics
        assert stats.interpretations_executed == ref_stats.interpretations_executed
        assert stats.stopped_early == ref_stats.stopped_early


class TestBaselineParity:
    def test_discover_ranking_identical(self, stack, reference):
        _db, generator, _model = stack
        _rdb, ref_generator, _rmodel = reference
        query = KeywordQuery.parse("hanks 2001")
        ranked = DiscoverRanker(generator).rank(query)
        ref_ranked = DiscoverRanker(ref_generator).rank(query)
        assert [
            (r.rank, r.interpretation.describe(), round(r.probability, 12))
            for r in ranked
        ] == [
            (r.rank, r.interpretation.describe(), round(r.probability, 12))
            for r in ref_ranked
        ]

    def test_sqak_scores_identical(self, stack, reference):
        db, generator, _model = stack
        ref_db, ref_generator, _rmodel = reference
        query = KeywordQuery.parse("hanks 2001")
        ranker = SqakRanker(generator, db.require_index())
        ref_ranker = SqakRanker(ref_generator, ref_db.require_index())
        scores = {
            i.describe(): round(ranker.score(i), 12)
            for i in generator.interpretations(query)
        }
        ref_scores = {
            i.describe(): round(ref_ranker.score(i), 12)
            for i in ref_generator.interpretations(query)
        }
        assert scores == ref_scores

    def test_banks_datagraph_identical(self, stack, reference):
        db = stack[0]
        ref_db = reference[0]
        graph = DataGraph(db)
        ref_graph = DataGraph(ref_db)
        assert graph.graph == ref_graph.graph
        query = KeywordQuery.parse("hanks terminal")
        trees = BanksSearch(graph).search(query, k=3)
        ref_trees = BanksSearch(ref_graph).search(query, k=3)
        assert [sorted(t.nodes) for t in trees] == [sorted(t.nodes) for t in ref_trees]


@pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "memory"])
def test_imdb_search_pipeline_parity(backend):
    """End-to-end acceptance check on a small synthetic IMDB instance."""
    kwargs = dict(seed=7, n_movies=40, n_actors=24, n_directors=8, n_companies=6)
    mem_db = build_imdb(**kwargs)
    other_db = build_imdb(**kwargs, backend=backend)

    mem_generator = InterpretationGenerator(mem_db, max_template_joins=4)
    mem_model = ATFModel(mem_db.require_index(), TemplateCatalog(mem_generator.templates))
    generator = InterpretationGenerator(other_db, max_template_joins=4)
    model = ATFModel(other_db.require_index(), TemplateCatalog(generator.templates))

    for query_text in ("hanks 2001", "london", "stone"):
        ref = _ranked_signature(mem_generator, mem_model, query_text)
        got = _ranked_signature(generator, model, query_text)
        assert got == ref
        if not ref:
            continue
        query = KeywordQuery.parse(query_text)
        ranked_mem = rank_interpretations(mem_generator.interpretations(query), mem_model)
        ranked = rank_interpretations(generator.interpretations(query), model)
        mem_results = TopKExecutor(mem_db).execute(ranked_mem, k=5)
        results = TopKExecutor(other_db).execute(ranked, k=5)
        assert [(r.score, r.row_uids()) for r in results] == [
            (r.score, r.row_uids()) for r in mem_results
        ]


def test_bool_values_normalize_identically(tmp_path):
    """Bool cells store as ints on every backend (SQLite has no bool
    affinity), so index terms, selections and digests never diverge."""
    from repro.db.backends import available_backends, create_backend
    from repro.db.schema import Attribute, Schema, Table

    snapshots = {}
    for backend_name in available_backends():
        schema = Schema()
        schema.add_table(Table("t", [Attribute("flag"), Attribute("id", textual=False)]))
        db = create_backend(backend_name, schema)
        tup = db.insert("t", {"id": 1, "flag": True})
        assert tup.get("flag") == 1 and not isinstance(tup.get("flag"), bool)
        db.build_indexes()
        assert db.selection_keys("t", [("flag", ("1",))]) == {1}
        assert db.selection_keys("t", [("flag", ("true",))]) == set()
        snapshots[backend_name] = db.index.stats_snapshot()
        db.close()
    assert len(set(map(repr, snapshots.values()))) == 1
