"""Row checks, run after the clock has stopped.

Every response is checked for shape; the responses to a seeded sample of
distinct queries are also compared row-for-row with a cache-free
``MemoryBackend`` engine over the same data, which is the repo's byte-parity
invariant (every backend returns the reference backend's rows).
"""

from __future__ import annotations

import random

from workloads import K


def shape_error(payload: dict | None) -> str | None:
    """Why one response is unacceptable on its own, or None."""
    if payload is None:
        return "no response"
    if not payload.get("ok"):
        return f"not ok: {payload.get('error')}"
    rows, scores = payload.get("rows"), payload.get("scores")
    if not isinstance(rows, list) or not isinstance(scores, list):
        return "rows or scores missing"
    if len(rows) > K or len(rows) != len(scores):
        return f"{len(rows)} rows, {len(scores)} scores for k={K}"
    if any(later > earlier for earlier, later in zip(scores, scores[1:])):
        return "scores increase"
    return None


def sample_queries(distinct: list[str], size: int, seed: int) -> list[str]:
    """A seeded sample of the distinct queries a run actually sent."""
    ordered = sorted(distinct)
    if len(ordered) <= size:
        return ordered
    return random.Random(f"layered/oracle/{seed}").sample(ordered, size)


class Oracle:
    """Reference rows of one run, computed once per query."""

    def __init__(self, reference_engine, seed: int):
        self._engine, self._seed = reference_engine, seed
        self._expected: dict[str, list] = {}

    def _expect(self, query: str) -> None:
        if query not in self._expected:
            self._expected[query] = [
                [list(uid) for uid in result.row_uids()]
                for result in self._engine.run(query, k=K).results
            ]

    def check(self, responses, sample_size: int) -> tuple[int, list[str]]:
        """``(failed count, problems)`` over ``(query, payload)`` pairs.

        ``sample_size`` distinct queries join the ones this oracle already
        holds reference rows for; every response to one of those is compared
        row-for-row.  ``problems`` lists each distinct problem once, a
        mismatch by its query text.
        """
        responses = list(responses)
        distinct = list({query for query, payload in responses if payload})
        for query in sample_queries(distinct, sample_size, self._seed):
            self._expect(query)
        failed = 0
        problems: dict[str, None] = {}
        for query, payload in responses:
            error = shape_error(payload)
            if error is None and payload["rows"] != self._expected.get(
                query, payload["rows"]
            ):
                error = "rows differ from the MemoryBackend oracle"
            if error is not None:
                failed += 1
                problems.setdefault(f"{query!r}: {error}")
        return failed, list(problems)
