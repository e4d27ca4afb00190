"""The text memo's key: ``PlanCompiler.shape_of`` over generated plans.

``compile_path`` hands a plan the text and binding order memoised under the
plan's shape, so the shape must hold exactly what the text depends on.  Two
plans with equal shapes but different texts would have one plan's keys
bound into the other plan's statement; two equal texts under different
shapes only waste memo entries.  Generated here, under both dialects: chain
schemas with foreign keys pointing either way (two between some neighbours),
walks of 1–5 slots that may turn back, every seed slot, filters inline or post-filtered with key sets
across power-of-two boundaries (1–5 and 63–65 keys; on the sharded dialect
also sets with no JSON spelling), and limits None, 0 and k.  Three
properties: a memoised compile equals a from-scratch compile, equal shapes
give equal texts, and equal texts come from equal shapes.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.backends.sql import (
    PathPlan,
    PlanCompiler,
    ShardedSQLiteDialect,
    SQLiteDialect,
)
from repro.db.schema import Attribute, Schema, Table

TABLES = ["a", "l", "m", "n"]

#: Key-set sizes on both sides of the 4-, 8- and 64-wide padded lists.
SIZES = [1, 2, 3, 4, 5, 63, 64, 65]


def dialect_for(name: str, shards: int) -> SQLiteDialect:
    return SQLiteDialect() if name == "sqlite" else ShardedSQLiteDialect(shards)


@st.composite
def chain_schemas(draw) -> Schema:
    """2-4 tables in a chain, each foreign key pointing either way, and
    some neighbours joined by a second foreign key."""
    tables = TABLES[: draw(st.integers(2, 4))]
    schema = Schema()
    for name in tables:
        schema.add_table(Table(name, [Attribute("x")]))
    for left, right in zip(tables, tables[1:]):
        source, target = draw(st.sampled_from([(left, right), (right, left)]))
        schema.link(source, target)
        if draw(st.booleans()):
            schema.link(source, target, source_attr=f"{target}_alt")
    return schema


@st.composite
def walks(draw, schema: Schema) -> tuple[str, ...]:
    """A join path of 1-5 slots over the chain (``a–l–a`` included)."""
    tables = list(schema.table_names)
    at = draw(st.integers(0, len(tables) - 1))
    path = [tables[at]]
    for _hop in range(draw(st.integers(0, 4))):
        at += draw(st.sampled_from([s for s in (-1, 1) if 0 <= at + s < len(tables)]))
        path.append(tables[at])
    return tuple(path)


def keys_of(spelling: str, size: int, start: int) -> tuple:
    """``size`` distinct keys, repr-sorted as the planner binds them; a
    ``nul`` set holds one key with no JSON spelling."""
    keys = [start + i for i in range(size)]
    if spelling == "str":
        keys = [str(key) for key in keys]
    elif spelling == "nul":
        keys[-1] = f"q\x00{start}"
    return tuple(sorted(keys, key=repr))


@st.composite
def plans_over(draw, schema: Schema, path: tuple[str, ...]):
    """One plan over a walk — each hop over either foreign key where two
    join its tables — plus a twin of the same shape whose every key set holds
    other keys of the same sizes."""
    edges = tuple(
        draw(st.sampled_from(schema.join_edges(left, right)))
        for left, right in zip(path, path[1:])
    )
    inline, post, twin_inline, twin_post = [], [], [], []
    for position in range(len(path)):
        side = draw(st.sampled_from([None, None, "inline", "post"]))
        if side is None:
            continue
        spelling = draw(st.sampled_from(["int", "int", "str", "nul"]))
        size = draw(st.sampled_from(SIZES))
        start = draw(st.integers(0, 10_000))
        keys, other = keys_of(spelling, size, start), keys_of(spelling, size, start + 100)
        if side == "inline":
            inline.append((position, keys))
            twin_inline.append((position, other))
        else:
            post.append((position, frozenset(keys)))
            twin_post.append((position, frozenset(other)))
    limit = draw(st.one_of(st.sampled_from([None, 0]), st.integers(1, 10)))
    seed = draw(st.integers(0, len(path) - 1))
    plan = PathPlan(path, edges, tuple(inline), tuple(post), limit, seed)
    twin = replace(plan, inline_filters=tuple(twin_inline), post_filters=tuple(twin_post))
    return [plan, twin]


@st.composite
def plan_batches(draw):
    """``(schema, plans)``: up to four walks over one schema, each with 1-4
    plans and their twins — the same walk often enough for shapes (and
    padded widths) to meet."""
    schema = draw(chain_schemas())
    plans: list[PathPlan] = []
    for _walk in range(draw(st.integers(1, 4))):
        path = draw(walks(schema))
        for _plan in range(draw(st.integers(1, 4))):
            plans.extend(draw(plans_over(schema, path)))
    return schema, draw(st.permutations(plans))


def fresh_compile(schema: Schema, dialect: SQLiteDialect, plan: PathPlan):
    """``(shape, statement)`` from a compiler that has memoised nothing."""
    compiler = PlanCompiler(schema, dialect)
    shape = compiler.shape_of(plan, compiler.key_set_bindings(plan))
    return shape, compiler.compile_path(plan)


DIALECTS = pytest.mark.parametrize("dialect_name", ["sqlite", "sqlite-sharded"])


@DIALECTS
@given(batch=plan_batches(), shards=st.integers(1, 3), memo_size=st.sampled_from([1024, 2]))
@settings(max_examples=150, deadline=None)
def test_a_memoised_compile_equals_a_from_scratch_compile(
    dialect_name, batch, shards, memo_size
):
    schema, plans = batch
    dialect = dialect_for(dialect_name, shards)
    memo = PlanCompiler(schema, dialect)
    memo.TEXT_MEMO_SIZE = memo_size  # at 2, evictions interleave with hits
    for plan in [*plans, *plans]:
        assert memo.compile_path(plan) == fresh_compile(schema, dialect, plan)[1]


@DIALECTS
@given(batch=plan_batches(), shards=st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_equal_shapes_compile_to_equal_texts(dialect_name, batch, shards):
    schema, plans = batch
    dialect = dialect_for(dialect_name, shards)
    seen: dict[tuple, tuple[str, int]] = {}
    for plan in plans:
        shape, statement = fresh_compile(schema, dialect, plan)
        text = (statement.sql, len(statement.params))
        assert seen.setdefault(shape, text) == text, plan


@DIALECTS
@given(batch=plan_batches(), shards=st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_equal_texts_come_from_equal_shapes(dialect_name, batch, shards):
    schema, plans = batch
    dialect = dialect_for(dialect_name, shards)
    seen: dict[str, tuple] = {}
    for plan in plans:
        shape, statement = fresh_compile(schema, dialect, plan)
        assert seen.setdefault(statement.sql, shape) == shape, plan
