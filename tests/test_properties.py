"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interpretation import ValueAtom
from repro.core.keywords import Keyword
from repro.core.probability import entropy, normalize
from repro.core.topk import TopKExecutor, TopKResult
from repro.db.backends.base import RowStream, StreamedExecution
from repro.db.table import Tuple
from repro.db.tokenizer import Tokenizer, tokenize
from repro.divq.metrics import alpha_ndcg_w, ws_recall
from repro.divq.similarity import jaccard_atoms
from repro.iqp.infogain import conditional_entropy, information_gain
from repro.iqp.plan import OptionSpace, expected_cost, make_scan_node, ranked_list_cost

# -- strategies ---------------------------------------------------------------

texts = st.text(max_size=80)
weights = st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20)
positive_weights = st.lists(
    st.floats(min_value=1e-6, max_value=100.0), min_size=1, max_size=20
)


def atoms_strategy():
    return st.sets(
        st.builds(
            ValueAtom,
            keyword=st.builds(Keyword, st.integers(0, 3), st.sampled_from(["a", "b", "c"])),
            table=st.sampled_from(["t1", "t2", "t3"]),
            attribute=st.sampled_from(["x", "y"]),
        ),
        max_size=6,
    ).map(frozenset)


# -- tokenizer --------------------------------------------------------------


class TestTokenizerProperties:
    @given(texts)
    def test_tokens_are_normalized(self, text):
        for token in tokenize(text):
            assert token == token.lower()
            assert token.isalnum()

    @given(texts)
    def test_idempotent(self, text):
        once = tokenize(text)
        again = tokenize(" ".join(once))
        assert once == again

    @given(texts, texts)
    def test_concatenation_concatenates(self, a, b):
        assert tokenize(a + " " + b) == tokenize(a) + tokenize(b)

    @given(texts)
    def test_terms_subset_of_tokens(self, text):
        t = Tokenizer()
        assert t.terms(text) == set(t.tokens(text))


# -- probability ----------------------------------------------------------------


class TestProbabilityProperties:
    @given(positive_weights)
    def test_normalize_sums_to_one(self, ws):
        assert math.isclose(sum(normalize(ws)), 1.0, rel_tol=1e-9)

    @given(positive_weights)
    def test_normalize_preserves_order(self, ws):
        probs = normalize(ws)
        for (w1, p1), (w2, p2) in zip(zip(ws, probs), zip(ws[1:], probs[1:])):
            if w1 < w2:
                assert p1 <= p2 + 1e-12

    @given(positive_weights)
    def test_entropy_bounds(self, ws):
        h = entropy(normalize(ws))
        assert -1e-9 <= h <= math.log2(len(ws)) + 1e-9

    @given(positive_weights, st.data())
    def test_information_gain_bounds(self, ws, data):
        pattern = data.draw(
            st.lists(st.booleans(), min_size=len(ws), max_size=len(ws))
        )
        gain = information_gain(ws, pattern)
        h = entropy(normalize(ws))
        assert -1e-9 <= gain <= h + 1e-9

    @given(positive_weights, st.data())
    def test_conditional_entropy_nonnegative(self, ws, data):
        pattern = data.draw(
            st.lists(st.booleans(), min_size=len(ws), max_size=len(ws))
        )
        assert conditional_entropy(ws, pattern) >= -1e-9


# -- similarity ---------------------------------------------------------------


class TestJaccardProperties:
    @given(atoms_strategy(), atoms_strategy())
    def test_range(self, a, b):
        assert 0.0 <= jaccard_atoms(a, b) <= 1.0

    @given(atoms_strategy(), atoms_strategy())
    def test_symmetry(self, a, b):
        assert jaccard_atoms(a, b) == jaccard_atoms(b, a)

    @given(atoms_strategy())
    def test_reflexivity(self, a):
        assert jaccard_atoms(a, a) == 1.0

    @given(atoms_strategy(), atoms_strategy())
    def test_disjoint_nonempty_is_zero(self, a, b):
        if a and b and not (a & b):
            assert jaccard_atoms(a, b) == 0.0


# -- metrics -----------------------------------------------------------------


def entry_lists():
    key_sets = st.frozensets(st.integers(0, 8), max_size=5)
    return st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1.0), key_sets),
        min_size=1,
        max_size=8,
    )


class TestMetricProperties:
    @given(entry_lists(), st.floats(min_value=0.0, max_value=1.0), st.integers(1, 8))
    @settings(max_examples=60)
    def test_alpha_ndcg_w_in_unit_interval(self, entries, alpha, k):
        v = alpha_ndcg_w(entries, alpha, k)
        assert 0.0 <= v <= 1.0

    @given(entry_lists(), st.integers(0, 8))
    @settings(max_examples=60)
    def test_ws_recall_in_unit_interval(self, entries, k):
        v = ws_recall(entries, k)
        assert 0.0 <= v <= 1.0 + 1e-9

    @given(entry_lists())
    @settings(max_examples=60)
    def test_ws_recall_monotone_in_k(self, entries):
        values = [ws_recall(entries, k) for k in range(len(entries) + 1)]
        for earlier, later in zip(values, values[1:]):
            assert later >= earlier - 1e-12

    @given(entry_lists())
    @settings(max_examples=60)
    def test_full_ws_recall_is_one_or_zero(self, entries):
        from repro.divq.metrics import subtopic_relevance

        v = ws_recall(entries, len(entries))
        universe_mass = sum(subtopic_relevance(entries).values())
        if universe_mass > 0:
            assert math.isclose(v, 1.0)
        else:
            assert v == 0.0


# -- plans ---------------------------------------------------------------------


class TestPlanProperties:
    @given(positive_weights)
    def test_ranked_list_cost_bounds(self, ws):
        n = len(ws)
        cost = ranked_list_cost(ws)
        assert 0.0 <= cost <= max(n - 1, 0) + 1e-9 if n <= 2 else cost <= n

    @given(positive_weights)
    def test_scan_node_cost_matches_ranked_list(self, ws):
        n = len(ws)
        space = OptionSpace.build([f"q{i}" for i in range(n)], ws, {})
        node = make_scan_node(space, space.all_indices())
        assert math.isclose(
            expected_cost(node, space), ranked_list_cost(ws), rel_tol=1e-9, abs_tol=1e-9
        )

    @given(
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_greedy_at_least_brute_force(self, n_queries, n_options, seed):
        from repro.datasets.simulation import random_option_space
        from repro.iqp.brute_force import brute_force_plan
        from repro.iqp.greedy_plan import greedy_plan

        space = random_option_space(n_queries, n_options, seed=seed)
        _bp, b = brute_force_plan(space)
        _gp, g = greedy_plan(space)
        assert g >= b - 1e-9


class TestHierarchyProperties:
    """Pruning invariants of the query hierarchy under random dialogues."""

    @given(st.lists(st.booleans(), min_size=1, max_size=12), st.integers(0, 5))
    @settings(max_examples=25, deadline=None)
    def test_random_answers_preserve_consistency(self, answers, option_skip):
        """Whatever the user answers, every surviving frontier node is
        consistent with every answer given so far."""
        from repro.core.hierarchy import QueryHierarchy
        from repro.core.keywords import KeywordQuery
        from repro.core.probability import UniformModel
        from tests.conftest import build_mini_db
        from repro.core.generator import InterpretationGenerator

        db = build_mini_db()
        generator = InterpretationGenerator(db, max_template_joins=2)
        h = QueryHierarchy(
            KeywordQuery.from_terms(["hanks", "2001"]), generator, UniformModel()
        )
        h.expand_to_complete()
        history = []
        for answer in answers:
            options = h.frontier_atoms()
            if not options:
                break
            option = options[option_skip % len(options)]
            pattern = [option.matches(n.atoms) for n in h.frontier]
            if all(pattern) or not any(pattern):
                continue  # non-splitting, the session would skip it
            history.append((option, answer))
            if answer:
                h.accept(option)
            else:
                h.reject(option)
            if not h.frontier:
                break
        for node in h.frontier:
            for option, answer in history:
                assert option.matches(node.atoms) == answer

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_truthful_answers_keep_intended(self, seed):
        """A truthful oracle never prunes the intended interpretation."""
        import random as _random

        from repro.core.generator import InterpretationGenerator
        from repro.core.hierarchy import QueryHierarchy
        from repro.core.keywords import KeywordQuery
        from repro.core.probability import UniformModel
        from repro.user.oracle import IntendedInterpretation, value_spec
        from tests.conftest import build_mini_db

        db = build_mini_db()
        generator = InterpretationGenerator(db, max_template_joins=2)
        intended = IntendedInterpretation(
            bindings={0: value_spec("actor", "name"), 1: value_spec("movie", "year")},
            template_path=("actor", "acts", "movie"),
        )
        h = QueryHierarchy(
            KeywordQuery.from_terms(["hanks", "2001"]), generator, UniformModel()
        )
        h.expand_to_complete()
        rng = _random.Random(seed)
        for _ in range(8):
            options = [
                o
                for o in h.frontier_atoms()
                if 0 < sum(o.matches(n.atoms) for n in h.frontier) < len(h)
            ]
            if not options:
                break
            option = rng.choice(options)
            if option.is_correct(intended):
                h.accept(option)
            else:
                h.reject(option)
        assert any(
            intended.matches(i) for i in h.complete_interpretations()
        ), "truthful pruning lost the intended interpretation"


# -- interpretation enumeration vs. the brute-force oracle ------------------------


def oracle_space(generator, query):
    """Generate-and-test reference: every placement, built, then validated."""
    from itertools import product

    from repro.core.interpretation import Interpretation
    from repro.core.keywords import KeywordQuery

    atom_map = {}
    for keyword in query.keywords:
        atoms = generator.keyword_atoms(keyword)
        if atoms:
            atom_map[keyword] = atoms
    if not atom_map:
        return []
    effective = KeywordQuery(keywords=tuple(atom_map), text=str(query))
    space = []
    for template in generator.templates:
        per_keyword = [
            [(atom, slot) for atom in atoms for slot in template.positions_of(atom.table)]
            for atoms in atom_map.values()
        ]
        for combination in product(*per_keyword):
            interpretation = Interpretation.build(effective, template, combination)
            try:
                interpretation.validate()
            except ValueError:
                continue
            space.append(interpretation)
            if len(space) >= generator.config.max_interpretations:
                return space
    return space


def oracle_ranking(space, model, weight):
    """Reference ranking: every ``describe()`` rendered, one composite sort key."""
    probabilities = normalize([weight(model, i) for i in space])
    return sorted(zip(space, probabilities), key=lambda pair: (-pair[1], pair[0].describe()))


def product_weight(model, interpretation):
    """Eq. 3.5 with the atoms re-sorted into canonical order."""
    from repro.core.interpretation import atom_sort_key

    weight = model.template_prior(interpretation.template)
    for atom in sorted(interpretation.atoms, key=atom_sort_key):
        weight *= model.atom_weight(atom, interpretation.template)
    return weight


def models_with_reference_weights(generator):
    from repro.core.probability import (
        ATFModel,
        DivQModel,
        TemplateCatalog,
        TFIDFModel,
        UniformModel,
    )

    index = generator.database.require_index()
    logged = TemplateCatalog(generator.templates)
    for n, template in enumerate(generator.templates[:5]):
        logged.record_usage(template, count=n + 1)
    return [
        (UniformModel(), lambda model, interpretation: 1.0),
        (ATFModel(index, TemplateCatalog(generator.templates)), product_weight),
        (ATFModel(index, logged), product_weight),
        (TFIDFModel(index, logged), product_weight),
        # DivQ's joint-frequency formula is untouched; only its ranking moved.
        (DivQModel(index, logged), lambda model, i: model.interpretation_weight(i)),
    ]


def assert_matches_oracle(generator, query):
    from repro.core.probability import rank_interpretations

    expected = oracle_space(generator, query)
    assert generator.interpretations(query) == expected
    for interpretation in expected:
        interpretation.validate()
    for model, weight in models_with_reference_weights(generator):
        ranked = rank_interpretations(expected, model)
        reference = oracle_ranking(expected, model, weight)
        assert ranked == reference
        assert [p.hex() for _i, p in ranked] == [p.hex() for _i, p in reference]


VOCABULARY = ["ann", "bob", "cid", "dee"]
TABLE_POOL = ["t0", "t1", "t2", "t3"]
#: Query words: values, table names (metadata matches), operator words and a
#: word nothing matches.
QUERY_WORDS = VOCABULARY + TABLE_POOL + ["count", "number", "zzz"]


@st.composite
def small_generators(draw):
    """A generator over a random 2-4 table schema with a handful of rows.

    The tables form a chain, so four joins produce the palindromic self-join
    templates; extra edges may repeat a pair of tables (several foreign keys:
    one template per edge combination).
    """
    from repro.core.generator import GeneratorConfig, InterpretationGenerator
    from repro.db.backends import create_backend
    from repro.db.schema import Attribute, Schema, Table

    tables = TABLE_POOL[: draw(st.integers(2, 4))]
    schema = Schema()
    for name in tables:
        attributes = ["x", "y"][: draw(st.integers(1, 2))]
        schema.add_table(Table(name, [Attribute(a) for a in attributes]))
    pairs = [(a, b) for a in tables for b in tables if a < b]
    chain = list(zip(tables, tables[1:]))
    extra = draw(st.lists(st.sampled_from(pairs), max_size=3))
    for n, (source, target) in enumerate(chain + extra):
        schema.link(source, target, source_attr=f"fk{n}")
    db = create_backend("memory", schema)
    for name in tables:
        rows = draw(
            st.lists(
                st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=2),
                min_size=1,
                max_size=3,
            )
        )
        for key, words in enumerate(rows, start=1):
            row = {"id": key}
            for attribute in schema.table(name).textual_attributes():
                row[attribute.name] = " ".join(words)
                words = words[::-1]
            db.insert(name, row)
    db.build_indexes()
    config = GeneratorConfig(
        max_interpretations=draw(st.sampled_from([1, 5, 20_000, 20_000, 20_000])),
        max_atoms_per_keyword=draw(st.sampled_from([2, 16])),
    )
    return InterpretationGenerator(
        db, config=config, max_template_joins=draw(st.sampled_from([1, 2, 4, 4]))
    )


@st.composite
def keyword_queries(draw):
    """1-4 keywords; positions are distinct but need not ascend."""
    from repro.core.keywords import KeywordQuery

    terms = draw(st.lists(st.sampled_from(QUERY_WORDS), min_size=1, max_size=4))
    positions = draw(st.permutations(range(len(terms))))
    return KeywordQuery(
        keywords=tuple(Keyword(p, t) for p, t in zip(positions, terms)),
        text=" ".join(terms),
    )


class TestEnumerationAgainstOracle:
    """The pruning enumeration yields exactly what generate-and-test yields."""

    @given(small_generators(), keyword_queries())
    @settings(max_examples=120, deadline=None)
    def test_generated_schemas(self, generator, query):
        assert_matches_oracle(generator, query)

    @given(small_generators(), keyword_queries(), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_enumeration_is_lazy_and_resumable(self, generator, query, taken):
        """Pulling a prefix costs a prefix; the cap cuts the same list short."""
        from itertools import islice

        expected = oracle_space(generator, query)
        assert list(islice(generator.enumerate(query), taken)) == expected[:taken]
        assert generator.space_size(query) == len(expected)

    def test_bundled_datasets(self, imdb_db, lyrics_db):
        from repro.core.generator import InterpretationGenerator
        from repro.core.keywords import KeywordQuery
        from repro.datasets.workload import imdb_workload, lyrics_workload

        extras = ["number hanks count", "london london", "movie 2001 zzz", "love love night"]
        for db, workload in ((imdb_db, imdb_workload), (lyrics_db, lyrics_workload)):
            generator = InterpretationGenerator(db, max_template_joins=4)
            texts = [str(item.query) for item in workload(db, n_queries=25, seed=5)]
            for text in texts + extras:
                assert_matches_oracle(generator, KeywordQuery.parse(text))

    def test_require_nonempty_filters_the_same_space(self, imdb_db):
        from repro.core.generator import GeneratorConfig, InterpretationGenerator
        from repro.core.keywords import KeywordQuery

        query = KeywordQuery.parse("hanks 2001")
        everything = InterpretationGenerator(imdb_db, max_template_joins=4)
        nonempty = InterpretationGenerator(
            imdb_db,
            templates=everything.templates,
            config=GeneratorConfig(require_nonempty=True, max_interpretations=3),
        )
        kept = [
            i
            for i in oracle_space(everything, query)
            if i.to_structured_query().has_results(imdb_db)
        ]
        assert nonempty.interpretations(query) == kept[:3]


# -- sharded one-statement plans vs sqlite vs memory --------------------------
#
# Generated stores and join paths: the sharded backend's semi-join chain —
# every slot a UNION ALL of its partitions, key sets bound whole to every arm
# — must return the rows of the single-file backend and of the in-memory
# nested loop, in their order, for every seed slot.  Nothing here may depend
# on PYTHONHASHSEED (row placement is a SHA-256 of the key's repr) — CI runs
# this class under seeds 0, 1 and 2.

CHAIN_TABLES = ["a", "l", "m", "n"]
#: Primary keys, pairwise distinct under Python ``==`` and under SQLite's
#: comparison alike: ints, integral floats, strings (``"3"`` is not ``3``).
KEY_POOL = [1, 2, 3.0, 4, 5.0, "a", "b", "3"]


def other_form(key):
    """The same key as SQLite sees it, spelled differently (``3`` / ``3.0``)."""
    if isinstance(key, float):
        return int(key)
    return float(key) if isinstance(key, int) else key


@st.composite
def chain_stores(draw):
    """``(schema, inserts)``: 2-4 tables in a chain, each FK pointing either way."""
    from repro.db.schema import Attribute, Schema, Table

    tables = CHAIN_TABLES[: draw(st.integers(2, 4))]
    schema = Schema()
    for name in tables:
        schema.add_table(Table(name, [Attribute("x")]))
    for left, right in zip(tables, tables[1:]):
        source, target = draw(st.sampled_from([(left, right), (right, left)]))
        schema.link(source, target)
    keys = {
        name: draw(
            st.lists(st.sampled_from(KEY_POOL), unique=True, min_size=2, max_size=7)
        )
        for name in tables
    }
    words = st.lists(st.sampled_from(VOCABULARY[:3]), min_size=1, max_size=2)
    inserts = []
    for name in tables:
        for key in keys[name]:
            row = {"id": key, "x": " ".join(draw(words))}
            for fk in schema.foreign_keys:
                if fk.source == name:
                    targets = keys[fk.target]  # mostly live, in either spelling
                    row[fk.source_attr] = draw(
                        st.sampled_from(
                            [None, 99, "zz", *targets * 2, *map(other_form, targets)]
                        )
                    )
            inserts.append((name, row))
    return schema, draw(st.permutations(inserts))


@st.composite
def chain_specs(draw, schema):
    """1-3 join paths of 1-5 slots: walks over the chain that may turn back
    (``a–l–m–l–a``), each slot unfiltered, filtered or provably empty."""
    tables = list(schema.table_names)
    specs = []
    for _spec in range(draw(st.sampled_from([2, 1, 3]))):
        at = draw(st.integers(0, len(tables) - 1))
        path, edges = [tables[at]], []
        for _hop in range(draw(st.sampled_from([4, 2, 3, 1, 0]))):
            step = draw(st.sampled_from([s for s in (-1, 1) if 0 <= at + s < len(tables)]))
            edges.append(schema.join_edges(tables[at], tables[at + step])[0])
            at += step
            path.append(tables[at])
        selections = {}
        for position in range(len(path)):
            terms = draw(
                st.sampled_from([None] * 4 + [("ann",), ("bob",), ("cid",), ("zzz",)])
            )
            if terms is not None:
                selections[position] = [("x", terms)]
        specs.append((path, edges, selections))
    return specs


#: Partition counts under test; at 5 the 2-7 keys of a table leave some
#: partitions empty (as do most draws at 3).
SHARD_COUNTS = [3, 2, 5, 1]

#: Keys no generated row carries.  ``"q\x00"`` has no JSON spelling, so a key
#: set holding it keeps the literal ``IN (?, …)`` list in every partition arm.
STRANGER_KEYS = [99, "zz", "q\x00"]


def _network_reprs(networks):
    """Rows as text: ``3`` and ``3.0`` compare equal but must not be swapped."""
    return [[(t.table, repr(t.key), repr(t.values)) for t in network] for network in networks]


class TestShardedChainAgainstOracles:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_generated_stores(self, data):
        from dataclasses import replace

        from repro.db.backends import create_backend

        schema, inserts = data.draw(chain_stores())
        shards = data.draw(st.sampled_from(SHARD_COUNTS))
        stores = [
            create_backend("memory", schema),
            create_backend("sqlite", schema),
            create_backend("sqlite-sharded", schema, shards=shards),
        ]
        try:
            for db in stores:
                for name, row in inserts:
                    db.insert(name, dict(row))
                db.build_indexes()
            memory, _sqlite, sharded = stores
            specs = data.draw(chain_specs(schema))
            limit = data.draw(st.sampled_from([None, 3, 1, None, 0]))
            # Every slot takes its turn as the seed position, not only the
            # one the cost model would pick.
            forced = data.draw(st.integers(0, 4))
            prepare = sharded._prepare_plan
            sharded._prepare_plan = lambda plan: replace(
                prepare(plan), scatter_position=min(forced, len(plan.path) - 1)
            )
            expected = [
                _network_reprs(memory.execute_path(*spec, limit=limit)) for spec in specs
            ]
            for db in stores:
                batched = db.execute_paths_batched(specs, limit=limit)
                assert [_network_reprs(rows) for rows in batched.rows] == expected
                with db.execute_paths_streamed(specs, limit=limit).stream as stream:
                    streamed = [[] for _spec in specs]
                    for index, network in stream:
                        streamed[index].append(network)
                assert [_network_reprs(rows) for rows in streamed] == expected
                for spec, rows in zip(specs, expected):  # every plan solo as well
                    assert _network_reprs(db.execute_path(*spec, limit=limit)) == rows
        finally:
            for db in stores:
                db.close()

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_generated_key_sets(self, data):
        """Plan-level key sets no keyword selection would resolve to: keys
        stored in no partition, either numeric spelling of a stored key, a
        set that takes the literal-list path, and — under a drawn inline cap
        — a set that becomes a post filter (no SQL LIMIT, Python truncation)."""
        from dataclasses import replace

        from repro.db.backends import create_backend, sql as sqlc
        from tests.conftest import drain_plan

        schema, inserts = data.draw(chain_stores())
        shards = data.draw(st.sampled_from(SHARD_COUNTS))
        stores = [
            create_backend("memory", schema),
            create_backend("sqlite", schema),
            create_backend("sqlite-sharded", schema, shards=shards),
        ]
        try:
            for db in stores:
                for name, row in inserts:
                    db.insert(name, dict(row))
                db.build_indexes()
            memory = stores[0]
            candidates = KEY_POOL + list(map(other_form, KEY_POOL)) + STRANGER_KEYS
            key_sets = st.sets(st.sampled_from(candidates), min_size=1, max_size=6)
            for path, edges, _selections in data.draw(chain_specs(schema)):
                key_filters = {
                    position: keys
                    for position in range(len(path))
                    if (keys := data.draw(st.one_of(st.none(), st.none(), key_sets)))
                }
                limit = data.draw(st.sampled_from([None, 3, 1, None]))
                cap = data.draw(st.sampled_from([None, None, 2, 1]))
                forced = min(data.draw(st.integers(0, 4)), len(path) - 1)
                kept = [
                    network
                    for network in memory.execute_path(path, edges)
                    if all(network[p].key in keys for p, keys in key_filters.items())
                ]
                if 0 in key_filters:  # a filtered first slot sorts by key repr
                    kept.sort(key=lambda network: repr(network[0].key))
                expected = _network_reprs(kept[:limit])
                for db in stores[1:]:
                    plan = sqlc.plan_path(
                        path, edges, key_filters, limit, max_inline_keys=cap
                    )
                    plan = replace(db._prepare_plan(plan), scatter_position=forced)
                    if cap is not None and any(len(k) > cap for k in key_filters.values()):
                        assert plan.post_filters and plan.sql_limit is None
                    assert _network_reprs(drain_plan(db, plan)) == expected, db.name
        finally:
            for db in stores:
                db.close()


# -- key sets bound through json_each against the literal list ----------------------
#
# ``ShardedSQLiteDialect`` binds a key set as one JSON parameter.  That is only
# sound if SQLite reads every key back as the value a direct binding stores —
# under no column affinity (what the stores declare) and under INTEGER and TEXT
# affinity alike — and if everything without such a spelling keeps the literal
# list the single-file dialect compiles.

#: Stored as the key column of each flavour (a rowid alias refuses non-integers).
KEY_FLAVOURS = {"plain": "", "ints": "INTEGER", "texts": "TEXT"}

json_bindable_keys = st.one_of(
    st.sampled_from([0, -1, 3, 12, 2**63 - 1, -(2**63)]),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from(["12", "3.0", "-1", "", "it's", 'say "x"', "a\\b", "naïve", "東京", "😀"]),
    st.text(st.characters(exclude_characters="\x00", exclude_categories=("Cs",)), max_size=6),
    st.sampled_from([3.0, 12.0, -0.0, 0.5, 1e16]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class _Text(str):
    """A ``str`` subclass: binds like one, but is not *exactly* ``str``."""


UNBINDABLE_KEYS = [
    True, b"x", 2**63, -(2**63) - 1, float("nan"), float("inf"), _Text("a"), "a\x00b", None,
]


class TestJsonKeySetBinding:
    @given(
        stored=st.lists(json_bindable_keys, max_size=8),
        asked=st.lists(json_bindable_keys, max_size=8),
        repeats=st.integers(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_selects_the_rows_of_the_literal_list(self, stored, asked, repeats):
        """The literal-list arm binds a list padded to the next power of two
        (its parameter count changed by design when padding came in); the
        JSON arm still selects exactly its rows."""
        import sqlite3

        from repro.db.backends.sql import ShardedSQLiteDialect, SQLiteDialect

        # Mostly stored keys (in either numeric spelling, where the other one
        # is a value SQLite has), some strangers, duplicates — or nothing at
        # all.
        respelled = [
            other
            for other in map(other_form, stored)
            if type(other) is not int or -(2**63) <= other < 2**63
        ]
        keys = tuple(asked + (stored + respelled) * repeats)
        as_json = ShardedSQLiteDialect(3).key_set_binding(keys)
        as_list = SQLiteDialect().key_set_binding(keys)
        assert as_json[0].count("?") == len(as_json[1]) == 1
        assert as_list[0].count("?") == len(as_list[1]) == _padded_width(len(keys))
        conn = sqlite3.connect(":memory:")
        try:
            conn.create_function("repro_repr", 1, repr, deterministic=True)
            for table, declared in KEY_FLAVOURS.items():
                conn.execute(f"CREATE TABLE {table} (k {declared} PRIMARY KEY, v)")
                for number, key in enumerate(stored):
                    try:
                        conn.execute(f"INSERT INTO {table} VALUES (?, ?)", (key, number))
                    except sqlite3.IntegrityError:
                        pass  # a duplicate under this affinity, or not an integer
                found = [
                    conn.execute(
                        f"SELECT k, typeof(k), v FROM {table} WHERE k IN {in_list} "
                        "ORDER BY repro_repr(k)",
                        params,
                    ).fetchall()
                    for in_list, params in (as_json, as_list)
                ]
                assert found[0] == found[1], table
        finally:
            conn.close()

    @given(
        keys=st.lists(json_bindable_keys, max_size=4),
        intruder=st.sampled_from(UNBINDABLE_KEYS),
        at=st.integers(0, 4),
    )
    def test_a_key_without_an_exact_spelling_keeps_the_literal_list(
        self, keys, intruder, at
    ):
        """The literal list it keeps is the single-file dialect's, padded to
        a power of two with the last key (no longer ``keys`` itself, by
        design)."""
        from repro.db.backends.sql import ShardedSQLiteDialect, SQLiteDialect

        keys = tuple(keys[:at] + [intruder] + keys[at:])
        in_list, params = ShardedSQLiteDialect(3).key_set_binding(keys)
        assert (in_list, params) == SQLiteDialect().key_set_binding(keys)
        assert len(params) == _padded_width(len(keys)) == in_list.count("?")
        assert params[: len(keys)] == keys
        assert all(key is keys[-1] for key in params[len(keys) :])


def _padded_width(count: int) -> int:
    """The next power of two at or above ``count`` (0 and 1 stay)."""
    return count if count < 2 else 1 << (count - 1).bit_length()


# -- Relation.lookup against the full scan ------------------------------------

#: Primary keys: ints, strings and integral floats, distinct under ``==``
#: (``unique_by`` drops ``3.0`` once ``3`` is drawn).
LOOKUP_KEYS = st.one_of(
    st.integers(-3, 6), st.sampled_from(["a", "b", "3"]), st.integers(-3, 6).map(float)
)
#: Attribute values and probes: the keys' spellings plus ``True``/``False``
#: (equal to ``1``/``0``), ``None`` and values no row carries.
LOOKUP_VALUES = st.one_of(LOOKUP_KEYS, st.sampled_from([True, False, None, 99, "zz"]))


def _reprs(tuples):
    """Rows as text: ``3`` and ``3.0`` compare equal but must not be swapped."""
    return [(repr(t.key), repr(t.values)) for t in tuples]


class TestRelationLookupAgainstScan:
    @given(
        keys=st.lists(LOOKUP_KEYS, unique_by=lambda key: key, max_size=8),
        data=st.data(),
        index_first=st.booleans(),
        probes=st.lists(LOOKUP_VALUES, max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_lookup_equals_the_full_scan(self, keys, data, index_first, probes):
        """The primary key (row dict), an indexed attribute (value index,
        primary-key ``repr`` order) and an unindexed one (scan order) all
        return exactly the rows the scan's ``==`` selects, and no probe
        writes to the index."""
        from repro.db.schema import Attribute, Table
        from repro.db.table import Relation

        relation = Relation(Table("t", [Attribute("indexed"), Attribute("plain")]))
        if index_first:
            relation.create_index("indexed")
        rows = [
            {"id": key, "indexed": data.draw(LOOKUP_VALUES), "plain": data.draw(LOOKUP_VALUES)}
            for key in keys
        ]
        for row in rows:
            relation.insert(row)
        if not index_first:
            relation.create_index("indexed")
        index_size = len(relation._value_index["indexed"])
        stored = [value for row in rows for value in row.values()]
        for value in probes + stored + [3, 3.0, 1, True, None]:
            for attribute in ("id", "indexed", "plain"):
                scan = [t for t in relation.scan() if t.get(attribute) == value]
                if attribute == "indexed":
                    scan.sort(key=lambda t: repr(t.key))
                assert _reprs(relation.lookup(attribute, value)) == _reprs(scan), (
                    attribute,
                    value,
                )
        assert len(relation._value_index["indexed"]) == index_size


# -- the stored row: values plus one shared column layout ---------------------

#: Cell values of every kind a row stores; keys reuse the lookup spellings,
#: so ``3``/``3.0`` and ``1``/``True`` both occur (and collide as keys).
ROW_VALUES = st.one_of(
    st.none(),
    st.integers(-3, 6),
    st.sampled_from([True, False, 0.5, 2.25, -1.0]),
    st.integers(-3, 6).map(float),
    st.text(alphabet="ab3 é", max_size=4),
)


class TestRowContract:
    @given(
        keys=st.lists(
            st.one_of(LOOKUP_KEYS, st.just(True)), unique_by=lambda key: key, max_size=6
        ),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_keep_the_pair_semantics_on_every_backend(self, keys, data):
        """``get``/``[]``/``as_dict``/``items`` answer what a row of
        ``(name, value)`` pairs answered (first match; ``KeyError`` or the
        default when absent), ``items()`` renders that pair tuple's exact
        ``repr`` (the mutation text the content fingerprint hashes), and the
        memory row equals — with an equal hash — the row SQLite decodes."""
        from repro.db.backends import create_backend
        from repro.db.backends.base import normalize_value
        from repro.db.schema import Attribute, Schema, Table

        schema = Schema()
        schema.add_table(Table("t", [Attribute("a"), Attribute("b", textual=False)]))
        names = schema.table("t").attribute_names
        memory = create_backend("memory", schema)
        sqlite = create_backend("sqlite", schema)
        try:
            expected = {}
            for key in keys:
                row = {"id": key, "a": data.draw(ROW_VALUES), "b": data.draw(ROW_VALUES)}
                memory.insert("t", row)
                sqlite.insert("t", row)
                expected[normalize_value(key)] = tuple(
                    (name, normalize_value(row[name])) for name in names
                )
            decoded = {tup.key: tup for tup in sqlite.relation("t").scan()}
            for key, pairs in expected.items():
                stored = memory.relation("t").get(key)
                for tup in (stored, decoded[key]):
                    assert repr(tup.items()) == repr(pairs)
                    assert tup.as_dict() == dict(pairs)
                    for name, value in pairs:
                        assert repr(tup[name]) == repr(value)
                        assert repr(tup.get(name, "default")) == repr(value)
                    assert tup.get("missing") is None
                    assert tup.get("missing", 7) == 7
                    with pytest.raises(KeyError):
                        tup["missing"]
                assert stored == decoded[key] and hash(stored) == hash(decoded[key])
        finally:
            sqlite.close()


# -- bulk load: ``load`` is ``insert`` once per row -------------------------------

#: Keys a load stream spells: absent (auto-assigned), colliding numerics
#: (``1``/``1.0``/``True``) and a string.
LOAD_KEYS = st.one_of(st.none(), st.integers(0, 5), st.sampled_from([1.0, True, "k"]))
#: Cells: every kind a row stores, index words, integers SQLite cannot bind
#: and non-finite floats.
LOAD_CELLS = st.one_of(
    ROW_VALUES,
    st.sampled_from(["ann bob", "bob cid", "ann"]),
    st.integers(2**63, 2**64),
    st.floats(),
)
#: Attributes a row of each table may set (``ghost`` is no table).
LOAD_ATTRIBUTES = {"a": ("name", "flag"), "b": ("title", "a_id"), "ghost": ("name",)}


@st.composite
def load_streams(draw):
    """A mixed-table ``(table, row)`` stream with auto-keys, duplicate keys,
    bool/float/None cells, unknown attributes and the odd unknown table."""
    stream = []
    for _ in range(draw(st.integers(0, 12))):
        table = draw(st.sampled_from(["a"] * 5 + ["b"] * 5 + ["ghost"]))
        row = {}
        key = draw(LOAD_KEYS)
        if key is not None or draw(st.booleans()):
            row["id"] = key
        for attribute in LOAD_ATTRIBUTES[table]:
            if draw(st.booleans()):
                row[attribute] = draw(LOAD_CELLS)
        if draw(st.integers(0, 15)) == 0:
            row["bogus"] = 1
        stream.append((table, row))
    return stream


def _load_store(backend: str):
    from repro.db.backends import create_backend
    from repro.db.schema import Attribute, Schema, Table

    schema = Schema()
    schema.add_table(
        Table("a", [Attribute("name"), Attribute("flag"), Attribute("id", textual=False)])
    )
    schema.add_table(Table("b", [Attribute("title"), Attribute("id", textual=False)]))
    schema.link("b", "a")
    db = create_backend(backend, schema)
    # One seed identity for both stores, so fingerprints compare digests.
    db.set_metadata("dataset_fingerprint:load", "load")
    return db


def _insert_each(db, stream):
    """Per-row ``insert``: the keys, or the first error (after its prefix)."""
    keys = []
    for table, row in stream:
        try:
            keys.append(db.insert(table, row).key)
        except Exception as exc:  # noqa: BLE001 - the error is the outcome
            return None, (type(exc), str(exc))
    return keys, None


def _load_all(db, stream):
    try:
        return db.load(pair for pair in stream), None
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return None, (type(exc), str(exc))


def _insertion_sequence(db, table: str) -> list[int]:
    """The stored ``rowid`` (``_rowseq`` per partition when sharded) values."""
    if db.name == "sqlite":
        sources = [db.dialect.table_source(table)]
        column = "rowid"
    else:
        sources = [db.dialect.partition_source(table, s) for s in range(db.shards)]
        column = "_rowseq"
    return [
        [row[0] for row in db._conn.execute(f"SELECT {column} FROM {source} ORDER BY 1")]
        for source in sources
    ]


def _observable(db):
    state = {
        "fingerprint": db.content_fingerprint(),
        "rows": [
            repr((name, tup.key, tup.values))
            for name in db.schema.table_names
            for tup in db.relation(name)
        ],
    }
    if db.name != "memory":
        state["sequence"] = {
            name: _insertion_sequence(db, name) for name in db.schema.table_names
        }
    if db.index is not None:
        state["index"] = db.index.stats_snapshot()
        state["statistics"] = db.statistics_catalog().export_state()
    return state


class TestLoadProperties:
    @pytest.mark.parametrize("backend", ["memory", "sqlite", "sqlite-sharded"])
    @given(load_streams(), load_streams(), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_load_is_insert_once_per_row(self, backend, before, after, chunk_rows):
        """The same keys or error, stored rows (scan order, ``rowid`` or
        ``_rowseq`` and partition), content fingerprint, index and
        statistics as per-row inserts — for a bulk
        load in chunks of ``chunk_rows`` and, after ``build_indexes()``, for
        a load the live index and catalog observe."""
        reference, subject = _load_store(backend), _load_store(backend)
        if hasattr(subject, "LOAD_CHUNK_ROWS"):
            subject.LOAD_CHUNK_ROWS = chunk_rows
        try:
            for stream in (before, after):
                assert _load_all(subject, stream) == _insert_each(reference, stream)
                assert _observable(subject) == _observable(reference)
                if subject.index is None:
                    reference.build_indexes()
                    subject.build_indexes()
                    assert _observable(subject) == _observable(reference)
        finally:
            reference.close()
            subject.close()


# -- top-k merge order ----------------------------------------------------------


class _FullSortExecutor(TopKExecutor):
    """The reference merge: append every fresh row, then sort the whole pool."""

    def _merge_rows(self, results, seen_rows, rows, score, rank):
        self.statistics.rows_materialized += len(rows)
        for row in rows:
            uids = tuple(t.uid for t in row)
            if uids in seen_rows:
                continue
            seen_rows.add(uids)
            results.append(TopKResult(score=score, interpretation_rank=rank, row=row))
        results.sort(key=lambda r: (-r.score, r.interpretation_rank, r.row_uids()))


class _Scripted:
    """A stand-in interpretation whose execution yields scripted rows; it is
    its own structured query and path spec."""

    def __init__(self, rows):
        self.rows = rows

    def to_structured_query(self):
        return self

    def path_spec(self):
        return self.rows


class _ScriptedBackend:
    def execute_paths_streamed(self, specs, limit=None):
        (rows,) = specs
        return StreamedExecution(
            stream=RowStream(iter([(0, row) for row in rows])), statements=1
        )


def _cell(table: str, key: int) -> Tuple:
    return Tuple(table, key, (key,), {"id": 0})


#: Rows of one or two cells over a few keys, so one row recurs within an
#: interpretation and across several.
MERGE_ROWS = st.lists(
    st.lists(
        st.builds(_cell, st.sampled_from(["a", "b"]), st.integers(0, 3)),
        min_size=1,
        max_size=2,
    ).map(tuple),
    max_size=5,
)


@st.composite
def merge_rankings(draw):
    """Ranked row lists: scores from a small set (equal scores across ranks),
    sorted decreasing or not (out-of-order lists)."""
    scores = draw(st.lists(st.sampled_from([0.1, 0.25, 0.5, 1.0]), max_size=6))
    if draw(st.booleans()):
        scores.sort(reverse=True)
    return [(draw(MERGE_ROWS), score) for score in scores]


class TestTopKMergeOrder:
    @pytest.mark.parametrize("strategy", ["execute", "execute_naive"])
    @given(merge_rankings(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_merge_equals_full_sort(self, strategy, ranking, data):
        """Sorting only each interpretation's fresh rows gives the results
        and statistics of a full re-sort after every interpretation, for
        every k from 0 to the number of rows."""
        ranked = [(_Scripted(rows), score) for rows, score in ranking]
        total = sum(len(rows) for rows, _score in ranking)
        k = data.draw(st.integers(0, total + 1), label="k")
        subject = TopKExecutor(_ScriptedBackend())
        reference = _FullSortExecutor(_ScriptedBackend())
        got = getattr(subject, strategy)(ranked, k)
        want = getattr(reference, strategy)(ranked, k)
        assert got == want
        assert subject.statistics == reference.statistics
