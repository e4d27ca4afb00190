"""The newline-delimited JSON wire protocol of ``repro serve``.

One request per line, one response line per request, both UTF-8 JSON
objects.  A request names a keyword query and optionally a dataset and a
result count::

    {"query": "hanks 2001", "dataset": "imdb", "k": 5}

A successful response carries the result rows as row-uid networks (the
same ``(table, key)`` identities the parity suites compare, so a network
client can verify byte-parity against sequential execution) plus serving
statistics::

    {"ok": true, "dataset": "imdb", "query": "hanks 2001", "k": 5,
     "rows": [[["actor", 1], ["acts", 2], ["movie", 2]], ...],
     "scores": [...],
     "stats": {"seconds": 0.002, "sql_statements": 1, "cache_hits": 0}}

A failed request answers ``{"ok": false, "error": "<code>", "detail":
"..."}`` on the same connection — protocol errors are per-request, never
per-connection: a malformed line, an oversized line or an unknown dataset
error that one request and the connection keeps serving.  Error codes are
the ``ERR_*`` constants below; clients switch on ``error``, ``detail`` is
human-readable.

Framing is plain ``\\n``-terminated lines.  :class:`LineSplitter` does the
incremental splitting on the server side with an explicit oversize guard:
a line longer than the limit is *discarded as it streams in* (the buffer
never grows past the limit) and surfaces as the :data:`OVERSIZED` marker
once its terminating newline arrives, so the stream resynchronizes on the
next line instead of killing the connection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Union

#: Version of the wire protocol (responses carry it as ``v``).
PROTOCOL_VERSION = 1

#: Default cap on one request line, in bytes (the listener's
#: ``max_request_bytes`` overrides it).
MAX_REQUEST_BYTES = 64 * 1024

# -- error codes --------------------------------------------------------------

ERR_MALFORMED = "malformed-request"
ERR_OVERSIZED = "oversized-request"
ERR_UNKNOWN_DATASET = "unknown-dataset"
ERR_OVERLOADED = "overloaded"
ERR_TIMEOUT = "timeout"
ERR_SHUTTING_DOWN = "shutting-down"
ERR_TOO_MANY_CONNECTIONS = "too-many-connections"
ERR_INTERNAL = "internal-error"

#: Marker yielded by :meth:`LineSplitter.feed` in place of a line that
#: exceeded the limit (the line's bytes are gone; the stream is already
#: resynchronized on the following line).
OVERSIZED = object()


class ProtocolError(Exception):
    """A per-request protocol violation, carrying its wire error code."""

    def __init__(self, code: str, detail: str):
        super().__init__(detail)
        self.code = code
        self.detail = detail


@dataclass(frozen=True)
class Request:
    """One parsed request line."""

    query: str
    dataset: str | None = None
    k: int | None = None


def parse_request(line: bytes) -> Request:
    """Parse one request line; :class:`ProtocolError` on any violation."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(ERR_MALFORMED, f"request is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise ProtocolError(
            ERR_MALFORMED, f"request must be a JSON object, got {type(payload).__name__}"
        )
    query = payload.get("query")
    if not isinstance(query, str) or not query.strip():
        raise ProtocolError(ERR_MALFORMED, "request needs a non-empty string 'query'")
    dataset = payload.get("dataset")
    if dataset is not None and not isinstance(dataset, str):
        raise ProtocolError(ERR_MALFORMED, "'dataset' must be a string")
    k = payload.get("k")
    if k is not None and (isinstance(k, bool) or not isinstance(k, int) or k < 1):
        raise ProtocolError(ERR_MALFORMED, "'k' must be a positive integer")
    return Request(query=query.strip(), dataset=dataset, k=k)


def encode_line(payload: dict[str, Any]) -> bytes:
    """One wire line: compact JSON + the terminating newline."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def encode_request(
    query: str, dataset: str | None = None, k: int | None = None
) -> bytes:
    payload: dict[str, Any] = {"query": query}
    if dataset is not None:
        payload["dataset"] = dataset
    if k is not None:
        payload["k"] = k
    return encode_line(payload)


def ok_payload(dataset: str, query: str, k: int, response: Any) -> dict[str, Any]:
    """The response object of one served :class:`repro.server.QueryResponse`.

    Transport-agnostic: the TCP listener encodes it as one line, the HTTP
    front end as a ``200`` response body — same keys, same row identities,
    so clients of either transport verify parity against the same JSON.
    """
    statistics = response.context.executor_statistics
    return {
        "ok": True,
        "v": PROTOCOL_VERSION,
        "dataset": dataset,
        "query": query,
        "k": k,
        "rows": [list(map(list, network)) for network in response.result_uids()],
        "scores": [result.score for result in response.results],
        "stats": {
            "seconds": response.seconds,
            "sql_statements": statistics.sql_statements,
            "cache_hits": statistics.cache_hits,
        },
    }


def error_payload(code: str, detail: str) -> dict[str, Any]:
    """The response object of one failed request (any transport)."""
    return {"ok": False, "v": PROTOCOL_VERSION, "error": code, "detail": detail}


def error_response(code: str, detail: str) -> bytes:
    return encode_line(error_payload(code, detail))


class LineSplitter:
    """Incremental ``\\n`` framing with a hard per-line byte limit.

    ``feed(data)`` returns the complete items the new bytes finished: each
    is either a line (``bytes``, without its newline) or :data:`OVERSIZED`.
    An over-limit line is dropped *while streaming* — the internal buffer is
    cleared the moment it crosses the limit, so a malicious or buggy client
    cannot balloon server memory — and reported exactly once, when its
    terminating newline finally arrives (that newline is the
    resynchronization point).
    """

    def __init__(self, limit: int = MAX_REQUEST_BYTES):
        if limit < 1:
            raise ValueError("limit must be positive")
        self.limit = limit
        self._buffer = bytearray()
        self._discarding = False

    def feed(self, data: bytes) -> list[Union[bytes, object]]:
        items: list[Union[bytes, object]] = []
        self._buffer.extend(data)
        while True:
            newline = self._buffer.find(b"\n")
            if newline == -1:
                if self._discarding:
                    self._buffer.clear()  # still inside the oversized line
                elif len(self._buffer) > self.limit:
                    self._buffer.clear()
                    self._discarding = True
                return items
            line = bytes(self._buffer[:newline])
            del self._buffer[: newline + 1]
            if self._discarding:
                # This newline terminates the line that overran the limit;
                # its tail (buffered since the overflow) is dropped with it.
                self._discarding = False
                items.append(OVERSIZED)
            elif newline > self.limit:
                # The whole oversized line arrived inside one feed.
                items.append(OVERSIZED)
            else:
                items.append(line)
