"""Synthetic Lyrics database (5 tables, Section 3.8.1).

Schema mirrors the Lyrics crawl of Liu et al. used by the thesis:

* ``artist(id, name)``
* ``album(id, title, year)``
* ``song(id, title, words)``
* ``artist_album(id, artist_id, album_id)``
* ``album_song(id, album_id, song_id)``

The dominant join pattern is the 5-table chain
``song |x| album_song |x| album |x| artist_album |x| artist`` — the template
whose query-log frequency of ~0.85 drives the (ATF, TLog) gains on Lyrics in
Fig. 3.5b.
"""

from __future__ import annotations

import random

from pathlib import Path
from typing import Iterator

from repro.datasets import _store, names
from repro.db.backends import StorageBackend, create_backend
from repro.db.backends.base import LoadRow
from repro.db.schema import Attribute, Schema, Table


def lyrics_schema() -> Schema:
    schema = Schema()
    schema.add_table(Table("artist", [Attribute("name"), Attribute("id", textual=False)]))
    schema.add_table(
        Table("album", [Attribute("title"), Attribute("year"), Attribute("id", textual=False)])
    )
    schema.add_table(
        Table("song", [Attribute("title"), Attribute("words"), Attribute("id", textual=False)])
    )
    schema.add_table(Table("artist_album", [Attribute("id", textual=False)]))
    schema.add_table(Table("album_song", [Attribute("id", textual=False)]))
    schema.link("artist_album", "artist")
    schema.link("artist_album", "album")
    schema.link("album_song", "album")
    schema.link("album_song", "song")
    return schema


def _lyrics_rows(
    rng: random.Random, n_artists: int, albums_per_artist: int, songs_per_album: int
) -> Iterator[LoadRow]:
    """The instance's ``(table, row)`` pairs, generated as they are loaded."""
    link_id = 0
    album_id = 0
    song_id = 0
    for artist_id in range(n_artists):
        # A third of stage names use title-word surnames ("Joss Stone",
        # "Summer") so artist/song-title interpretations genuinely collide.
        if rng.random() < 0.35:
            surname = rng.choice(names.TITLE_WORDS)
        else:
            surname = rng.choice(names.SURNAMES)
        name = f"{rng.choice(names.FIRST_NAMES)} {surname}"
        yield "artist", {"id": artist_id, "name": name}
        for _ in range(albums_per_artist):
            title = " ".join(rng.sample(names.TITLE_WORDS, rng.choice([1, 2])))
            yield "album", {
                "id": album_id, "title": title, "year": str(rng.randint(1980, 2012))
            }
            yield "artist_album", {
                "id": link_id, "artist_id": artist_id, "album_id": album_id
            }
            link_id += 1
            for _ in range(songs_per_album):
                song_title = " ".join(rng.sample(names.TITLE_WORDS, rng.choice([1, 2])))
                lyric_pool = names.TITLE_WORDS + names.SURNAMES + names.PLACES
                words = " ".join(rng.choice(lyric_pool) for _ in range(8))
                yield "song", {"id": song_id, "title": song_title, "words": words}
                yield "album_song", {
                    "id": link_id, "album_id": album_id, "song_id": song_id
                }
                link_id += 1
                song_id += 1
            album_id += 1


def build_lyrics(
    seed: int = 11,
    n_artists: int = 50,
    albums_per_artist: int = 2,
    songs_per_album: int = 5,
    backend: str | StorageBackend = "memory",
    db_path: str | Path | None = None,
    shards: int | None = None,
) -> StorageBackend:
    """Build and index a deterministic synthetic Lyrics instance.

    ``backend``/``db_path``/``shards`` select the storage engine (``shards``
    is a storage-layout knob for sharding backends, never part of the
    dataset fingerprint); a persistent backend with existing rows at
    ``db_path`` short-circuits generation and rebuilds the index from the
    stored tables.  The stored instance must match the requested size
    parameters; a mismatch raises ``ValueError``.
    """
    rng = random.Random(seed)
    db = create_backend(backend, lyrics_schema(), path=db_path, shards=shards)
    fp = _store.fingerprint(
        "lyrics",
        seed=seed,
        n_artists=n_artists,
        albums_per_artist=albums_per_artist,
        songs_per_album=songs_per_album,
    )
    expected = {
        "artist": n_artists,
        "album": n_artists * albums_per_artist,
        "song": n_artists * albums_per_artist * songs_per_album,
    }
    if _store.try_reuse(db, db_path, "Lyrics", fp, expected):
        return db

    db.load(_lyrics_rows(rng, n_artists, albums_per_artist, songs_per_album))

    # Fingerprint first: build_indexes() persists index postings keyed on
    # the content fingerprint, which must already see the dataset identity.
    _store.mark_built(db, fp)
    db.build_indexes()
    return db
