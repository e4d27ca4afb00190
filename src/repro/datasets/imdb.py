"""Synthetic IMDB-like database (7 tables, Section 3.8.1).

Schema (entity tables carry textual attributes; relationship tables link
them, mirroring Fig. 2.2):

* ``movie(id, title, year, plot)``
* ``actor(id, name)``
* ``director(id, name)``
* ``company(id, name)``
* ``acts(id, actor_id, movie_id, role)``
* ``directs(id, director_id, movie_id)``
* ``produced(id, company_id, movie_id)``

Person names are drawn from a shared surname pool that also feeds movie
titles and roles, so queries like "hanks terminal" or "london" are genuinely
ambiguous — the property all of Chapter 3/4's experiments depend on.
"""

from __future__ import annotations

import random

from pathlib import Path
from typing import Iterator

from repro.datasets import _store, names
from repro.db.backends import StorageBackend, create_backend
from repro.db.backends.base import LoadRow
from repro.db.schema import Attribute, Schema, Table


def imdb_schema() -> Schema:
    schema = Schema()
    schema.add_table(
        Table(
            "movie",
            [
                Attribute("title"),
                Attribute("year"),
                Attribute("plot"),
                Attribute("tagline"),
                Attribute("id", textual=False),
            ],
        )
    )
    schema.add_table(
        Table("actor", [Attribute("name"), Attribute("bio"), Attribute("id", textual=False)])
    )
    schema.add_table(
        Table("director", [Attribute("name"), Attribute("bio"), Attribute("id", textual=False)])
    )
    schema.add_table(
        Table("company", [Attribute("name"), Attribute("location"), Attribute("id", textual=False)])
    )
    schema.add_table(Table("acts", [Attribute("role"), Attribute("id", textual=False)]))
    schema.add_table(Table("directs", [Attribute("id", textual=False)]))
    schema.add_table(Table("produced", [Attribute("id", textual=False)]))
    schema.link("acts", "actor")
    schema.link("acts", "movie")
    schema.link("directs", "director")
    schema.link("directs", "movie")
    schema.link("produced", "company")
    schema.link("produced", "movie")
    return schema


def _person_name(rng: random.Random) -> str:
    return f"{rng.choice(names.FIRST_NAMES)} {rng.choice(names.SURNAMES)}"


def _movie_title(rng: random.Random) -> str:
    n_words = rng.choice([1, 1, 2])
    words = rng.sample(names.TITLE_WORDS, n_words)
    return " ".join(words)


def _plot(rng: random.Random) -> str:
    vocabulary = names.TITLE_WORDS + names.PLACES + names.SURNAMES
    return " ".join(rng.choice(vocabulary) for _ in range(6))


def _bio(rng: random.Random) -> str:
    """Person biography: mixes places, surnames and title words — the text
    that makes queries like "london" or "cruise" genuinely ambiguous."""
    vocabulary = names.PLACES + names.SURNAMES + names.TITLE_WORDS + names.GENRES
    return " ".join(rng.choice(vocabulary) for _ in range(5))


def _imdb_rows(
    rng: random.Random,
    n_movies: int,
    n_actors: int,
    n_directors: int,
    n_companies: int,
    acts_per_movie: int,
) -> Iterator[LoadRow]:
    """The instance's ``(table, row)`` pairs, generated as they are loaded."""
    actor_ids = list(range(n_actors))
    for i in actor_ids:
        yield "actor", {"id": i, "name": _person_name(rng), "bio": _bio(rng)}
    director_ids = list(range(n_directors))
    for i in director_ids:
        yield "director", {"id": i, "name": _person_name(rng), "bio": _bio(rng)}
    company_ids = list(range(n_companies))
    for i in company_ids:
        name = f"{rng.choice(names.COMPANY_WORDS)} {rng.choice(names.COMPANY_WORDS)}"
        yield "company", {"id": i, "name": name, "location": rng.choice(names.PLACES)}

    link_id = 0
    for i in range(n_movies):
        year = rng.randint(1970, 2012)
        yield "movie", {
            "id": i,
            "title": _movie_title(rng),
            "year": str(year),
            "plot": _plot(rng),
            "tagline": " ".join(rng.sample(names.TITLE_WORDS, 3)),
        }
        cast = rng.sample(actor_ids, min(acts_per_movie, len(actor_ids)))
        for actor_id in cast:
            yield "acts", {
                "id": link_id,
                "actor_id": actor_id,
                "movie_id": i,
                "role": rng.choice(names.ROLE_WORDS),
            }
            link_id += 1
        yield "directs", {
            "id": link_id, "director_id": rng.choice(director_ids), "movie_id": i
        }
        link_id += 1
        yield "produced", {
            "id": link_id, "company_id": rng.choice(company_ids), "movie_id": i
        }
        link_id += 1


def build_imdb(
    seed: int = 7,
    n_movies: int = 150,
    n_actors: int = 90,
    n_directors: int = 30,
    n_companies: int = 20,
    acts_per_movie: int = 3,
    backend: str | StorageBackend = "memory",
    db_path: str | Path | None = None,
    shards: int | None = None,
) -> StorageBackend:
    """Build and index a deterministic synthetic IMDB instance.

    ``backend``/``db_path`` select the storage engine (see
    :mod:`repro.db.backends`); ``shards`` is the partition count of sharding
    backends — a storage-layout knob, deliberately *not* part of the dataset
    fingerprint (the logical instance is identical at any shard count).
    When a persistent backend already holds data at ``db_path`` the
    generator is skipped entirely: the inverted index is rebuilt from the
    stored tables, not by re-ingesting rows.  The stored instance must match
    the requested size parameters; a mismatch raises ``ValueError`` instead
    of silently returning a different dataset.
    """
    rng = random.Random(seed)
    db = create_backend(backend, imdb_schema(), path=db_path, shards=shards)
    fp = _store.fingerprint(
        "imdb",
        seed=seed,
        n_movies=n_movies,
        n_actors=n_actors,
        n_directors=n_directors,
        n_companies=n_companies,
        acts_per_movie=acts_per_movie,
    )
    expected = {
        "actor": n_actors,
        "director": n_directors,
        "company": n_companies,
        "movie": n_movies,
        "acts": n_movies * min(acts_per_movie, n_actors),
        "directs": n_movies,
        "produced": n_movies,
    }
    if _store.try_reuse(db, db_path, "IMDB", fp, expected):
        return db

    db.load(
        _imdb_rows(
            rng, n_movies, n_actors, n_directors, n_companies, acts_per_movie
        )
    )

    # Fingerprint first: build_indexes() persists index postings keyed on
    # the content fingerprint, which must already see the dataset identity.
    _store.mark_built(db, fp)
    db.build_indexes()
    return db
