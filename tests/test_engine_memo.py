"""Front-half memo: a repeated keyword tuple is not enumerated and ranked again.

The invariant under test: the memo changes *what is computed*, never *what
is returned* — a memoising engine is indistinguishable from one that always
recomputes, through store mutations, template-log updates, eviction and
concurrent serving alike.
"""

from __future__ import annotations

import sys
import threading
from itertools import combinations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.interpretation import Interpretation
from repro.core.probability import ATFModel, TemplateCatalog
from repro.datasets.workload import workload_texts
from repro.db.schema import Attribute, Table
from repro.db.tokenizer import tokenize
from repro.engine import DEFAULT_STAGES, EngineConfig, QueryEngine, ResultCache
from repro.engine.memo import MEMO_BUDGET
from repro.net import protocol
from repro.server import QueryServer
from tests.conftest import build_mini_db

NO_CACHE = EngineConfig(cache_results=False)


@pytest.fixture(autouse=True)
def fresh_process_cache():
    ResultCache.clear_process_cache()
    yield
    ResultCache.clear_process_cache()


@pytest.fixture
def count_constructions(monkeypatch):
    """How many ``Interpretation`` objects exist that did not before: a count,
    not a timing, so a slow runner cannot flake it."""
    counter = [0]
    original_init = Interpretation.__init__

    def counting_init(self, *args, **kwargs):
        counter[0] += 1
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(Interpretation, "__init__", counting_init)
    return counter


def _space(context) -> list:
    """The ranked space without the query's spelling (shared by design
    between texts that normalise to one keyword tuple)."""
    return [
        (interp.template, interp.assignment, interp.query.keywords, probability)
        for interp, probability in context.ranked
    ]


def _answer(context) -> list:
    return [(r.score, r.interpretation_rank, r.row_uids()) for r in context.results]


def _charged(memo) -> int:
    """What the resident entries cost: an empty space counts as one."""
    return sum(max(1, len(entry[0])) for entry in memo._entries.values())


# -- (a) memo on ≡ always recomputing ------------------------------------------------


@pytest.mark.parametrize("backend", ["memory", "sqlite", "sqlite-sharded"])
@pytest.mark.parametrize("dataset", ["imdb", "lyrics"])
def test_repeated_runs_equal_a_fresh_engine(dataset, backend, tmp_path):
    db_path = None if backend == "memory" else tmp_path / "store.sqlite"
    engine = QueryEngine.for_dataset(dataset, backend=backend, db_path=db_path)
    try:
        fresh = QueryEngine(engine.backend, config=NO_CACHE)
        texts = workload_texts(engine.backend, dataset)[:12]
        for text in texts:
            expected = fresh.run(text, k=5)
            for _run in range(3):
                context = engine.run(text, k=5)
                assert context.ranked == expected.ranked  # same objects' values
                assert context.interpretations == expected.interpretations
                assert _answer(context) == _answer(expected)
        assert engine.memo.misses == len(texts)
        assert engine.memo.hits == 2 * len(texts)
    finally:
        engine.backend.close()


def test_the_pipeline_still_has_exactly_the_four_named_stages():
    assert [stage.name for stage in DEFAULT_STAGES] == [
        "segment", "generate", "rank", "execute"
    ]


# -- (b) a repeated text constructs nothing ------------------------------------------


def test_a_repeated_text_constructs_no_interpretation(imdb_db, count_constructions):
    engine = QueryEngine(imdb_db)
    first = engine.run("hanks 2001", k=5)
    assert count_constructions[0] == len(first.interpretations) > 0
    again = engine.run("hanks 2001", k=5)
    respelt = engine.run("  Hanks,  2001 ", k=5)  # same keyword tuple
    assert count_constructions[0] == len(first.interpretations)
    assert again.ranked == first.ranked
    assert _space(respelt) == _space(first) and _answer(respelt) == _answer(first)
    assert list(first.stage_timings) == list(again.stage_timings) == [
        "segment", "generate", "rank", "execute"
    ]
    assert (engine.memo.hits, engine.memo.misses) == (2, 1)
    # Result-cache lookups still happen on a memo hit (the warm guard of the
    # layered benchmark counts them).
    assert again.cache_hits == first.cache_misses > 0


def test_callers_cannot_corrupt_the_next_request(imdb_db):
    engine = QueryEngine(imdb_db)
    expected = engine.rank("london")
    missed = engine.run("london")
    missed.ranked.clear()
    missed.interpretations.clear()
    hit = engine.run("london")
    assert hit.ranked == expected
    hit.ranked.reverse()
    del hit.interpretations[1:]
    assert engine.run("london").ranked == expected
    assert len(engine.run("london").interpretations) == len(expected)


# -- (c) invalidation ----------------------------------------------------------------


def test_an_insert_between_two_runs_is_seen(mini_db):
    engine = QueryEngine(mini_db)
    before = engine.run("hanks 2001")
    # "hanks" now also occurs in acts.role: a new atom, so a larger space.
    mini_db.insert("acts", {"id": 9, "actor_id": 3, "movie_id": 2, "role": "hanks"})
    after = engine.run("hanks 2001")
    assert len(after.ranked) > len(before.ranked)
    assert after.ranked == engine.rank("hanks 2001")
    assert engine.memo.hits == 0 and engine.memo.misses == 2
    assert engine.memo.resident == len(after.interpretations)  # old space dropped


def test_add_table_between_two_runs_drops_the_memo(mini_db):
    engine = QueryEngine(mini_db)
    engine.run("hanks 2001")
    engine.run("london")
    mini_db.add_table(Table("award", [Attribute("title"), Attribute("id", textual=False)]))
    mini_db.insert("award", {"id": 1, "title": "hanks prize"})
    after = engine.run("hanks 2001")
    assert after.ranked == engine.rank("hanks 2001")
    assert engine.memo.hits == 0 and len(engine.memo._entries) == 1


def test_record_usage_between_two_runs_reranks(mini_db):
    engine = QueryEngine(mini_db)
    before = engine.run("hanks 2001")
    runner_up = before.ranked[1][0]
    assert before.ranked[0][0].template != runner_up.template
    engine.catalog.record_usage(runner_up.template, 50)
    after = engine.run("hanks 2001")
    assert after.ranked[0][0] == runner_up
    assert after.ranked == engine.rank("hanks 2001")
    engine.catalog.record_log([before.ranked[0][0].template.identifier] * 500)
    assert engine.run("hanks 2001").ranked[0][0] == before.ranked[0][0]
    assert engine.memo.hits == 0


def test_a_sibling_model_has_its_own_memo_and_follows_its_own_catalog(mini_db):
    engine = QueryEngine(mini_db)
    log_catalog = TemplateCatalog(engine.generator.templates)
    sibling = engine.with_model(ATFModel(engine.index, log_catalog))
    assert sibling.memo is not engine.memo and sibling.cache is engine.cache
    before = sibling.run("hanks 2001")
    engine.run("hanks 2001")
    log_catalog.record_usage(before.ranked[1][0].template, 50)
    assert sibling.run("hanks 2001").ranked[0][0] == before.ranked[1][0]
    assert engine.run("hanks 2001").ranked == before.ranked  # untouched, and a hit
    assert (engine.memo.hits, sibling.memo.hits) == (1, 0)


# -- (d) the budget ------------------------------------------------------------------


def _distinct_texts(db, n: int) -> list[str]:
    names = sorted({token for row in db.relation("actor") for token in tokenize(row.get("name"))})
    texts = [f"{a} {b}" for a, b in combinations(names, 2)]
    assert len(texts) >= n
    return texts[:n]


def test_resident_interpretations_never_exceed_the_budget(imdb_db):
    engine = QueryEngine(imdb_db)
    memo = engine.memo
    memo.budget = 96
    sizes, texts = [], _distinct_texts(imdb_db, 500)
    for text in texts:
        sizes.append(len(engine.run(text, k=1).interpretations))
        assert memo.resident <= memo.budget
        assert memo.resident == _charged(memo)
    assert memo.misses == 500 and sum(sizes) > 10 * memo.budget  # it did evict
    # Least recently used goes first: the newest text is still resident.
    assert engine.run(texts[-1], k=1).memo_entry is not None


def test_texts_that_match_nothing_are_bounded_too(imdb_db):
    """An empty space holds no interpretation but still occupies a key: it is
    charged as one, so a stream of unique typos cannot grow the memo."""
    engine = QueryEngine(imdb_db)
    memo = engine.memo
    memo.budget = 96
    for i in range(500):
        context = engine.run(f"zzqx{i} qqzx{i}", k=1)
        assert context.ranked == [] and context.memo_entry is None
        assert len(memo._entries) <= memo.resident == _charged(memo) <= memo.budget
    assert len(memo._entries) == memo.budget and memo.misses == 500
    # A remembered empty space is a hit like any other, and stays empty.
    again = engine.run("zzqx499 qqzx499", k=1)
    assert again.memo_entry == ((), ()) and again.ranked == [] and memo.hits == 1
    # Matching texts still fit: empty entries make room for them.
    engine.run("hanks 2001")
    assert memo.resident == _charged(memo) <= memo.budget
    assert engine.run("hanks 2001").memo_entry is not None


def test_an_over_budget_query_is_served_but_not_stored(imdb_db):
    engine = QueryEngine(imdb_db)
    expected = engine.rank("london")
    memo = engine.memo
    memo.budget = len(expected) - 1
    for _run in range(2):
        context = engine.run("london")
        assert context.ranked == expected and context.memo_entry is None
    assert (memo.hits, memo.misses, memo.resident, len(memo._entries)) == (0, 2, 0, 0)
    smaller = engine.run("hanks 2001")  # a space that fits is still remembered
    assert 0 < len(smaller.ranked) == memo.resident <= memo.budget


def test_the_default_budget_is_the_documented_constant(imdb_db):
    assert QueryEngine(imdb_db).memo.budget == MEMO_BUDGET == 8192


def test_a_space_ranked_across_a_mutation_is_not_stored(mini_db):
    """The token is taken before enumeration: a store that changed between
    generate and rank must not file the old space under the new content."""
    engine = QueryEngine(mini_db)
    token = engine.memo_token()
    assert engine.memo.lookup(token, ("stale",)) is None
    mini_db.insert("actor", {"id": 77, "name": "late arrival"})
    engine.memo.lookup(engine.memo_token(), ("other",))  # a newer request
    engine.memo.store(token, ("stale",), [object()], [(object(), 1.0)])
    assert len(engine.memo._entries) == 0 and engine.memo.resident == 0


# -- (e) concurrent serving ----------------------------------------------------------


def test_eight_threads_share_one_memo_without_changing_an_answer(imdb_db):
    texts = workload_texts(imdb_db, "imdb")
    assert len(texts) == 20
    reference = QueryEngine(imdb_db, config=NO_CACHE)
    expected = {text: _answer(reference.run(text, k=5)) for text in texts}
    engines = []

    def factory(dataset, backend, db_path, shards, config):
        engines.append(QueryEngine(imdb_db))
        return engines[-1]

    payloads: dict[int, list] = {}
    start = threading.Barrier(8)

    def client(index: int, server: QueryServer) -> None:
        start.wait(timeout=30)
        rotated = texts[index:] + texts[:index]
        served = []
        for text in rotated * 3:
            payload = protocol.ok_payload("imdb", text, 5, server.query("imdb", text, 5))
            del payload["stats"]  # timings and cache counters differ
            served.append(payload)
        payloads[index] = sorted(served, key=lambda p: p["query"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with QueryServer(max_workers=8, engine_factory=factory) as server:
            threads = [
                threading.Thread(target=client, args=(index, server)) for index in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            counters = server.memo_counters()
    finally:
        sys.setswitchinterval(interval)
    assert len(payloads) == 8 and all(p == payloads[0] for p in payloads.values())
    for payload in payloads[0]:
        rows = [list(map(list, uids)) for _s, _r, uids in expected[payload["query"]]]
        assert payload["rows"] == rows
        assert payload["scores"] == [score for score, _r, _u in expected[payload["query"]]]
    (engine,) = engines
    memo = engine.memo
    assert len(memo._entries) <= 20
    assert memo.resident == _charged(memo)
    assert memo.hits + memo.misses == 8 * 20 * 3 and memo.hits >= 8 * 20 * 2
    assert counters == {
        "memo_hits": memo.hits,
        "memo_misses": memo.misses,
        "memo_resident_interpretations": memo.resident,
    }


# -- (f) no result cache, no memo ----------------------------------------------------


def test_a_cache_free_engine_has_no_memo(imdb_db, count_constructions):
    engine = QueryEngine(imdb_db, config=NO_CACHE)
    assert engine.cache is None and engine.memo is None
    first = engine.run("hanks 2001", explain=True)
    engine.run("hanks 2001")
    assert count_constructions[0] == 2 * len(first.interpretations)
    assert first.memo_token is None and first.memo_counters is None
    assert not any("plan memo" in line for line in first.explain_lines())
    assert engine.with_model(engine.model).memo is None


def test_explain_reports_the_memo_on_one_line(imdb_db):
    engine = QueryEngine(imdb_db)
    miss = [l for l in engine.run("london", explain=True).explain_lines() if "memo" in l]
    hit = [l for l in engine.run("london", explain=True).explain_lines() if "memo" in l]
    size = len(engine.rank("london"))
    assert miss == [
        f"  plan memo: miss (0 hit(s), 1 miss(es), {size}/8192 interpretations resident)"
    ]
    assert hit == [
        f"  plan memo: hit (1 hit(s), 1 miss(es), {size}/8192 interpretations resident)"
    ]


# -- (g) interleaved runs, inserts and log updates vs a never-memoising oracle -------


_TEXTS = ["hanks 2001", "Hanks  2001", "london", "hanks", "terminal london", "doctor", "zzqx"]
_ROWS = [
    ("actor", {"name": "london hanks"}),
    ("movie", {"title": "doctor hanks", "year": "2001"}),
    ("movie", {"title": "terminal two", "year": "2010"}),
    ("acts", {"actor_id": 1, "movie_id": 3, "role": "hanks"}),
    ("acts", {"actor_id": 2, "movie_id": 1, "role": "london doctor"}),
]


class MemoAgainstOracle(RuleBasedStateMachine):
    """One store, two engines: the memoising one must never be told apart."""

    def __init__(self):
        super().__init__()
        ResultCache.clear_process_cache()
        self.db = build_mini_db()
        self.engine = QueryEngine(self.db)
        self.engine.memo.budget = 12  # small: evictions happen
        self.oracle = QueryEngine(self.db, config=NO_CACHE)
        self.next_id = 100

    @rule(text=st.sampled_from(_TEXTS), k=st.integers(1, 6))
    def run_query(self, text, k):
        got, expected = self.engine.run(text, k=k), self.oracle.run(text, k=k)
        assert _space(got) == _space(expected)
        assert [i.describe() for i in got.interpretations] == [
            i.describe() for i in expected.interpretations
        ]
        assert _answer(got) == _answer(expected)

    @rule(row=st.sampled_from(_ROWS))
    def insert_row(self, row):
        table, values = row
        self.next_id += 1
        self.db.insert(table, {"id": self.next_id, **values})

    @rule(template=st.integers(0, 50), count=st.integers(1, 40))
    def record_usage(self, template, count):
        templates = self.engine.generator.templates
        for engine in (self.engine, self.oracle):
            engine.catalog.record_usage(templates[template % len(templates)], count)

    @invariant()
    def budget_holds(self):
        memo = self.engine.memo
        assert memo.resident <= memo.budget
        assert memo.resident == _charged(memo)


TestMemoAgainstOracle = MemoAgainstOracle.TestCase
TestMemoAgainstOracle.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
