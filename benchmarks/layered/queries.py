"""Seeded query pools and request sequences.

Everything here is a pure function of the store content and ``seed``:
``random.Random`` is seeded with strings (hashed with SHA-512, so
``PYTHONHASHSEED`` plays no part) and every collection iterated is a list.
The pools are drawn from a MemoryBackend copy of the store the server holds,
so the program under test sees nothing but the request bytes.
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import Iterator

from repro.datasets.workload import imdb_workload
from repro.db.tokenizer import tokenize

#: ``imdb_workload`` deduplicates by rejection, so one call for thousands of
#: queries spends its time on duplicates; several small calls under derived
#: seeds cost milliseconds each.
_SHORT_CHUNK = 250


def short_pool(db, n: int, seed: int) -> list[str]:
    """``n`` distinct 1-2 keyword queries from the repo's own sampler."""
    pool: dict[str, None] = {}
    # The 1-2 keyword space of a store is finite (a few thousand texts at
    # x10): give up after enough chunks instead of spinning on duplicates.
    for chunk in range(4 + 4 * n // _SHORT_CHUNK):
        if len(pool) >= n:
            break
        derived = random.Random(f"layered/short/{seed}/{chunk}").randrange(2**31)
        for item in imdb_workload(db, n_queries=_SHORT_CHUNK, seed=derived):
            pool.setdefault(str(item.query))
    return list(pool)[:n]


def long_pool(db, n: int, seed: int) -> list[str]:
    """``n`` distinct 3-keyword queries: actor surname, title token, year.

    All three come from one stored ``acts -> actor, movie`` chain, so the
    intended interpretation always has a result row.
    """
    rng = random.Random(f"layered/long/{seed}")
    links = list(db.relation("acts"))
    actors, movies = db.relation("actor"), db.relation("movie")
    pool: dict[str, None] = {}
    for _attempt in range(20 * n):
        if len(pool) >= n:
            break
        link = rng.choice(links)
        actor, movie = actors.get(link.get("actor_id")), movies.get(link.get("movie_id"))
        name_tokens = tokenize(actor.get("name", ""))
        title_tokens = tokenize(movie.get("title", ""))
        if not name_tokens or not title_tokens:
            continue
        token = rng.choice(title_tokens)
        if token != name_tokens[-1]:
            pool.setdefault(f"{name_tokens[-1]} {token} {movie.get('year')}")
    return list(pool)


def query_pool(db, n: int, seed: int, long_queries: bool = True) -> list[str]:
    """``n`` distinct queries, short and long mixed 2 : 1 in a fixed pattern."""
    if not long_queries:
        return short_pool(db, n, seed)
    shorts = short_pool(db, n - n // 3, seed)
    longs = long_pool(db, n - len(shorts), seed)
    pool: list[str] = []
    while shorts or longs:
        take_long = longs and (len(pool) % 3 == 2 or not shorts)
        pool.append((longs if take_long else shorts).pop())
    return pool


def zipf_requests(
    pool: list[str], seed: int, s: float = 1.1, block: int = 100
) -> Iterator[str]:
    """An endless Zipf(s) stream over ``pool`` whose hot set drifts.

    Rank 1 of Zipf(1.1) over 200 queries draws 22 % of the requests, so with
    one fixed ranking a run's mean cost is mostly the cost of three queries
    and differs by tens of percent between seeds.  Reshuffling which query
    holds which rank every ``block`` requests keeps the skew, and with it the
    cache behaviour (the whole pool stays resident), while a run averages
    over many rankings.
    """
    rng = random.Random(f"layered/zipf/{seed}")
    cumulative = list(accumulate(1.0 / (rank + 1) ** s for rank in range(len(pool))))
    ranked = list(pool)
    while True:
        rng.shuffle(ranked)
        yield from rng.choices(ranked, cum_weights=cumulative, k=block)


def shuffled(pool: list[str], seed: int, window: int | None = None) -> list[str]:
    """The pool in the order run ``seed`` sends it.

    With ``window``, only entries within the same stretch of ``window``
    consecutive entries change places.
    """
    rng = random.Random(f"layered/order/{seed}")
    ordered: list[str] = []
    for start in range(0, len(pool), window or len(pool)):
        stretch = pool[start : start + (window or len(pool))]
        rng.shuffle(stretch)
        ordered += stretch
    return ordered
