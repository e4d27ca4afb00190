"""Shared fixtures.

``mini_db`` is a hand-built three-table movie database with exactly known
content, used wherever tests assert precise values.  The synthetic
IMDB/Lyrics/Freebase instances are session-scoped (building them is the
expensive part of the suite).
"""

from __future__ import annotations

import pytest

from repro.core.generator import InterpretationGenerator
from repro.core.probability import ATFModel, TemplateCatalog
from repro.core.templates import QueryTemplate
from repro.datasets.freebase import build_freebase
from repro.datasets.imdb import build_imdb
from repro.datasets.lyrics import build_lyrics
from repro.db.backends import StorageBackend, create_backend
from repro.db.backends.base import StreamedExecution
from repro.db.database import Database
from repro.db.schema import Attribute, Schema, Table


def mini_schema() -> Schema:
    schema = Schema()
    schema.add_table(Table("actor", [Attribute("name"), Attribute("id", textual=False)]))
    schema.add_table(
        Table("movie", [Attribute("title"), Attribute("year"), Attribute("id", textual=False)])
    )
    schema.add_table(Table("acts", [Attribute("role"), Attribute("id", textual=False)]))
    schema.link("acts", "actor")
    schema.link("acts", "movie")
    return schema


def build_mini_db(
    backend: str | StorageBackend = "memory", db_path=None
) -> StorageBackend:
    """actor(1..3) -- acts -- movie(1..3), with deliberate term collisions.

    * "hanks" occurs in actor.name (twice) and movie.title ("hanks island").
    * "london" occurs in actor.name and movie.title.
    * movie years are textual so "2001" is a keyword.

    ``backend`` selects the storage engine, so the same known content is
    available to the backend-parity tests on every engine.
    """
    db = create_backend(backend, mini_schema(), path=db_path)
    db.insert("actor", {"id": 1, "name": "tom hanks"})
    db.insert("actor", {"id": 2, "name": "colin hanks"})
    db.insert("actor", {"id": 3, "name": "jack london"})
    db.insert("movie", {"id": 1, "title": "terminal", "year": "2004"})
    db.insert("movie", {"id": 2, "title": "hanks island", "year": "2001"})
    db.insert("movie", {"id": 3, "title": "london calling", "year": "2001"})
    db.insert("acts", {"id": 1, "actor_id": 1, "movie_id": 1, "role": "captain"})
    db.insert("acts", {"id": 2, "actor_id": 1, "movie_id": 2, "role": "pilot"})
    db.insert("acts", {"id": 3, "actor_id": 2, "movie_id": 2, "role": "doctor"})
    db.insert("acts", {"id": 4, "actor_id": 3, "movie_id": 3, "role": "writer"})
    db.build_indexes()
    return db


def template_of(db, path: tuple[str, ...]) -> QueryTemplate:
    """The template of ``path``, each hop over the schema's foreign key
    between its two tables."""
    edges = [
        next(fk for fk in db.schema.foreign_keys if {fk.source, fk.target} == {left, right})
        for left, right in zip(path, path[1:])
    ]
    return QueryTemplate(tuple(path), tuple(edges))


def drain_plan(db, plan) -> list:
    """Rows of one prepared ``PathPlan`` through a SQL backend's cursor seam
    (``_stream_plan``) — the same drain ``execute_path`` performs."""
    rows = db._stream_plan(plan, StreamedExecution())
    try:
        return list(rows)
    finally:
        rows.close()


def plan_specs(db, specs, execution, limit) -> tuple[list, list]:
    """``(solo plans, union members)`` a SQL backend plans for ``specs``,
    with the specs its emptiness proof skips planned too: every spec whose
    selection matches a key, as the recorded planner digests were taken."""
    resolved, proved = db._resolve_specs(specs, limit, execution)
    every = sorted([*resolved, *proved], key=lambda spec: spec[0])
    return db._plan_resolved(every, execution, limit)


@pytest.fixture
def mini_db() -> Database:
    return build_mini_db()


@pytest.fixture
def mini_generator(mini_db) -> InterpretationGenerator:
    return InterpretationGenerator(mini_db, max_template_joins=4)


@pytest.fixture
def mini_model(mini_db, mini_generator) -> ATFModel:
    catalog = TemplateCatalog(mini_generator.templates)
    return ATFModel(mini_db.require_index(), catalog)


@pytest.fixture(scope="session")
def imdb_db() -> Database:
    return build_imdb()


@pytest.fixture(scope="session")
def lyrics_db() -> Database:
    return build_lyrics()


@pytest.fixture(scope="session")
def freebase_instance():
    return build_freebase(n_domains=6, rows_per_entity_table=10)
