"""Keyword-query workloads with ground-truth interpretations.

The thesis extracts keyword queries from MSN/AOL web-search logs, prunes them
to the IMDB/Lyrics domains and manually establishes the intended structured
interpretation of each (Section 3.8.1).  We substitute a generative workload:
queries are sampled from the database content itself — so every query has at
least one real interpretation — and the sampling procedure records the
intended interpretation as machine-readable ground truth.

Single-concept (sc) queries reference one entity (a person, a title);
multi-concept (mc) queries combine two concepts across a join path, the class
the construction experiments focus on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.keywords import KeywordQuery
from repro.core.probability import TemplateCatalog
from repro.core.templates import QueryTemplate
from repro.db.database import Database
from repro.db.tokenizer import tokenize
from repro.user.oracle import IntendedInterpretation, value_spec


@dataclass(frozen=True)
class WorkloadQuery:
    """One benchmark query: keywords, ground truth and bookkeeping labels."""

    query: KeywordQuery
    intended: IntendedInterpretation
    kind: str  # "sc" (single-concept) or "mc" (multi-concept)
    category: str
    dataset: str


def _surname(name: str) -> str | None:
    tokens = tokenize(name)
    return tokens[-1] if tokens else None


def _title_token(title: str, rng: random.Random) -> str | None:
    tokens = tokenize(title)
    return rng.choice(tokens) if tokens else None


def _linked_pair(db: Database, link_table: str, rng: random.Random):
    rows = list(db.relation(link_table))
    return rng.choice(rows) if rows else None


# -- IMDB ------------------------------------------------------------------


def _imdb_actor_year(db: Database, rng: random.Random) -> WorkloadQuery | None:
    link = _linked_pair(db, "acts", rng)
    if link is None:
        return None
    actor = db.relation("actor").get(link.get("actor_id"))
    movie = db.relation("movie").get(link.get("movie_id"))
    if actor is None or movie is None:
        return None
    surname = _surname(actor.get("name", ""))
    year = movie.get("year")
    if not surname or not year:
        return None
    query = KeywordQuery.from_terms([surname, str(year)])
    intended = IntendedInterpretation(
        bindings={0: value_spec("actor", "name"), 1: value_spec("movie", "year")},
        template_path=("actor", "acts", "movie"),
    )
    return WorkloadQuery(query, intended, "mc", "actor_year", "imdb")


def _imdb_actor_title(db: Database, rng: random.Random) -> WorkloadQuery | None:
    link = _linked_pair(db, "acts", rng)
    if link is None:
        return None
    actor = db.relation("actor").get(link.get("actor_id"))
    movie = db.relation("movie").get(link.get("movie_id"))
    if actor is None or movie is None:
        return None
    surname = _surname(actor.get("name", ""))
    title_word = _title_token(movie.get("title", ""), rng)
    if not surname or not title_word or surname == title_word:
        return None
    query = KeywordQuery.from_terms([surname, title_word])
    intended = IntendedInterpretation(
        bindings={0: value_spec("actor", "name"), 1: value_spec("movie", "title")},
        template_path=("actor", "acts", "movie"),
    )
    return WorkloadQuery(query, intended, "mc", "actor_title", "imdb")


def _imdb_director_title(db: Database, rng: random.Random) -> WorkloadQuery | None:
    link = _linked_pair(db, "directs", rng)
    if link is None:
        return None
    director = db.relation("director").get(link.get("director_id"))
    movie = db.relation("movie").get(link.get("movie_id"))
    if director is None or movie is None:
        return None
    surname = _surname(director.get("name", ""))
    title_word = _title_token(movie.get("title", ""), rng)
    if not surname or not title_word or surname == title_word:
        return None
    query = KeywordQuery.from_terms([surname, title_word])
    intended = IntendedInterpretation(
        bindings={0: value_spec("director", "name"), 1: value_spec("movie", "title")},
        template_path=("director", "directs", "movie"),
    )
    return WorkloadQuery(query, intended, "mc", "director_title", "imdb")


def _imdb_two_actors(db: Database, rng: random.Random) -> WorkloadQuery | None:
    """Two actors of the same movie — the ambiguous class of Section 3.8.3."""
    movie_rows = list(db.relation("acts"))
    if not movie_rows:
        return None
    by_movie: dict[object, list] = {}
    for row in movie_rows:
        by_movie.setdefault(row.get("movie_id"), []).append(row)
    movies = [m for m, rows in by_movie.items() if len(rows) >= 2]
    if not movies:
        return None
    movie_id = rng.choice(movies)
    first, second = rng.sample(by_movie[movie_id], 2)
    actor_a = db.relation("actor").get(first.get("actor_id"))
    actor_b = db.relation("actor").get(second.get("actor_id"))
    if actor_a is None or actor_b is None:
        return None
    surname_a = _surname(actor_a.get("name", ""))
    surname_b = _surname(actor_b.get("name", ""))
    if not surname_a or not surname_b or surname_a == surname_b:
        return None
    query = KeywordQuery.from_terms([surname_a, surname_b])
    intended = IntendedInterpretation(
        bindings={0: value_spec("actor", "name"), 1: value_spec("actor", "name")},
        template_path=("actor", "acts", "movie", "acts", "actor"),
    )
    return WorkloadQuery(query, intended, "mc", "two_actors", "imdb")


def _imdb_title_only(db: Database, rng: random.Random) -> WorkloadQuery | None:
    movies = list(db.relation("movie"))
    if not movies:
        return None
    movie = rng.choice(movies)
    title_word = _title_token(movie.get("title", ""), rng)
    if not title_word:
        return None
    query = KeywordQuery.from_terms([title_word])
    intended = IntendedInterpretation(
        bindings={0: value_spec("movie", "title")},
        template_path=("movie",),
    )
    return WorkloadQuery(query, intended, "sc", "title_only", "imdb")


def _imdb_person_name(db: Database, rng: random.Random) -> WorkloadQuery | None:
    """Full person name — two keywords co-occurring in one attribute."""
    actors = list(db.relation("actor"))
    if not actors:
        return None
    actor = rng.choice(actors)
    tokens = tokenize(actor.get("name", ""))
    if len(tokens) < 2 or tokens[0] == tokens[1]:
        return None
    query = KeywordQuery.from_terms(tokens[:2])
    intended = IntendedInterpretation(
        bindings={0: value_spec("actor", "name"), 1: value_spec("actor", "name")},
        template_path=("actor",),
    )
    return WorkloadQuery(query, intended, "sc", "person_name", "imdb")


_IMDB_MC = [_imdb_actor_year, _imdb_actor_title, _imdb_director_title, _imdb_two_actors]
_IMDB_SC = [_imdb_title_only, _imdb_person_name]


def imdb_workload(
    db: Database, n_queries: int = 40, seed: int = 13, mc_fraction: float = 0.6
) -> list[WorkloadQuery]:
    """Sample a deduplicated IMDB workload with ground truth."""
    return _sample(db, n_queries, seed, mc_fraction, _IMDB_MC, _IMDB_SC)


# -- Lyrics --------------------------------------------------------------------


def _lyrics_artist_song(db: Database, rng: random.Random) -> WorkloadQuery | None:
    """Artist + song-title word: the long 5-table chain of Section 3.8.3."""
    link = _linked_pair(db, "album_song", rng)
    if link is None:
        return None
    song = db.relation("song").get(link.get("song_id"))
    album_id = link.get("album_id")
    artist_links = [
        row for row in db.relation("artist_album") if row.get("album_id") == album_id
    ]
    if song is None or not artist_links:
        return None
    artist = db.relation("artist").get(artist_links[0].get("artist_id"))
    if artist is None:
        return None
    surname = _surname(artist.get("name", ""))
    title_word = _title_token(song.get("title", ""), rng)
    if not surname or not title_word or surname == title_word:
        return None
    query = KeywordQuery.from_terms([surname, title_word])
    intended = IntendedInterpretation(
        bindings={0: value_spec("artist", "name"), 1: value_spec("song", "title")},
        template_path=("artist", "artist_album", "album", "album_song", "song"),
    )
    return WorkloadQuery(query, intended, "mc", "artist_song", "lyrics")


def _lyrics_artist_album(db: Database, rng: random.Random) -> WorkloadQuery | None:
    link = _linked_pair(db, "artist_album", rng)
    if link is None:
        return None
    artist = db.relation("artist").get(link.get("artist_id"))
    album = db.relation("album").get(link.get("album_id"))
    if artist is None or album is None:
        return None
    surname = _surname(artist.get("name", ""))
    title_word = _title_token(album.get("title", ""), rng)
    if not surname or not title_word or surname == title_word:
        return None
    query = KeywordQuery.from_terms([surname, title_word])
    intended = IntendedInterpretation(
        bindings={0: value_spec("artist", "name"), 1: value_spec("album", "title")},
        template_path=("artist", "artist_album", "album"),
    )
    return WorkloadQuery(query, intended, "mc", "artist_album", "lyrics")


def _lyrics_song_only(db: Database, rng: random.Random) -> WorkloadQuery | None:
    songs = list(db.relation("song"))
    if not songs:
        return None
    song = rng.choice(songs)
    title_word = _title_token(song.get("title", ""), rng)
    if not title_word:
        return None
    query = KeywordQuery.from_terms([title_word])
    intended = IntendedInterpretation(
        bindings={0: value_spec("song", "title")},
        template_path=("song",),
    )
    return WorkloadQuery(query, intended, "sc", "song_only", "lyrics")


def _lyrics_artist_name(db: Database, rng: random.Random) -> WorkloadQuery | None:
    artists = list(db.relation("artist"))
    if not artists:
        return None
    artist = rng.choice(artists)
    tokens = tokenize(artist.get("name", ""))
    if len(tokens) < 2 or tokens[0] == tokens[1]:
        return None
    query = KeywordQuery.from_terms(tokens[:2])
    intended = IntendedInterpretation(
        bindings={0: value_spec("artist", "name"), 1: value_spec("artist", "name")},
        template_path=("artist",),
    )
    return WorkloadQuery(query, intended, "sc", "artist_name", "lyrics")


_LYRICS_MC = [_lyrics_artist_song, _lyrics_artist_album]
_LYRICS_SC = [_lyrics_song_only, _lyrics_artist_name]


def lyrics_workload(
    db: Database, n_queries: int = 40, seed: int = 17, mc_fraction: float = 0.6
) -> list[WorkloadQuery]:
    """Sample a deduplicated Lyrics workload with ground truth."""
    return _sample(db, n_queries, seed, mc_fraction, _LYRICS_MC, _LYRICS_SC)


# -- shared ------------------------------------------------------------------


#: Dataset name -> workload sampler, the one map :func:`workload_texts`
#: draws queries from.
WORKLOAD_SAMPLERS = {"imdb": imdb_workload, "lyrics": lyrics_workload}


def workload_texts(
    db: Database, dataset: str, seed: int = 13, n_queries: int = 20
) -> list[str]:
    """Store-derived keyword query texts for one dataset (every one answerable)."""
    try:
        sampler = WORKLOAD_SAMPLERS[dataset]
    except KeyError:
        raise ValueError(
            f"no workload for unknown dataset {dataset!r} "
            f"(use {' or '.join(sorted(WORKLOAD_SAMPLERS))})"
        ) from None
    return [str(item.query) for item in sampler(db, n_queries=n_queries, seed=seed)]


def _sample(db, n_queries, seed, mc_fraction, mc_makers, sc_makers):
    rng = random.Random(seed)
    out: list[WorkloadQuery] = []
    seen_texts: set[str] = set()
    attempts = 0
    max_attempts = n_queries * 60
    while len(out) < n_queries and attempts < max_attempts:
        attempts += 1
        makers = mc_makers if rng.random() < mc_fraction else sc_makers
        maker = rng.choice(makers)
        candidate = maker(db, rng)
        if candidate is None:
            continue
        text = str(candidate.query)
        if text in seen_texts:
            continue
        seen_texts.add(text)
        out.append(candidate)
    return out


def train_catalog_from_workload(
    catalog: TemplateCatalog,
    templates: list[QueryTemplate],
    workload: list[WorkloadQuery],
    repetitions: int = 5,
) -> TemplateCatalog:
    """Simulate a query log: record each intended template ``repetitions`` times.

    The (ATF, TLog) configuration of Fig. 3.5 estimates P(T) from a query
    log; we synthesize the log from the workload's intended join paths.
    """
    by_path: dict[tuple[str, ...], QueryTemplate] = {}
    for template in templates:
        by_path.setdefault(template.path, template)
        by_path.setdefault(template.path[::-1], template)
    for item in workload:
        if item.intended.template_path is None:
            continue
        template = by_path.get(item.intended.template_path)
        if template is not None:
            catalog.record_usage(template, repetitions)
    return catalog
