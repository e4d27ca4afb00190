"""Front-half memo: the ranked interpretation space of a repeated keyword tuple.

That space is a pure function of (keywords, store content, template priors,
model, generator): entries belong to one ``QueryEngine.memo_token()`` and are
dropped wholesale when it changes, like the result cache's fingerprint keys.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

#: Interpretations one memo keeps resident.  Counted in interpretations, not
#: entries: an entry holds up to ``max_interpretations`` (20 000) of them at
#: ≈ 0.33 KB each (deep size of slotted interpretations, measured on the
#: ``cold_once_tcp`` pool), so 8 192 is a ≈ 2.7 MB ceiling whatever the
#: queries are (a space with no interpretation is charged as one, so it is
#: evicted too).
MEMO_BUDGET = 8192


class InterpretationMemo:
    """Thread-safe LRU from keyword tuple to ranked space, for one token."""

    def __init__(self):
        self.budget = MEMO_BUDGET
        self.hits = self.misses = self.resident = 0
        self._token: tuple | None = None
        self._entries: OrderedDict[tuple, tuple[tuple, tuple]] = OrderedDict()
        self._lock = threading.Lock()

    def lookup(self, token: tuple, key: tuple) -> tuple[tuple, tuple] | None:
        """The memoised ``(interpretations, ranked)`` tuples of ``key``, if any."""
        with self._lock:
            if token != self._token:
                self._entries.clear()
                self._token, self.resident = token, 0
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(key)
            return entry

    def store(self, token: tuple, key: tuple, interpretations: list, ranked: list) -> None:
        """Fill a missed key under the token its ``lookup`` used (taken before
        enumeration) — unless stale, over budget or filled meanwhile."""
        size = max(1, len(interpretations))  # an empty space still occupies a key
        with self._lock:
            if token != self._token or size > self.budget or key in self._entries:
                return
            self._entries[key] = (tuple(interpretations), tuple(ranked))
            self.resident += size
            while self.resident > self.budget:
                _key, (evicted, _ranked) = self._entries.popitem(last=False)
                self.resident -= max(1, len(evicted))
