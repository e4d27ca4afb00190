"""The HTTP/1.1 JSON front end over the TCP admission layer.

:class:`HTTPQueryServer` puts a browser/curl-reachable face on the same
:class:`~repro.net.listener.TCPQueryServer` admission core the newline-JSON
transport uses — it is a *front end*, not a second server: both transports
share one connection cap, one bounded in-flight queue, one drain flag and
one stats block, so ``--max-connections``/``--queue-limit`` bound the
process however clients arrive.  The wire contract is pinned in
``docs/http_api.md``.

Routes (:data:`ROUTES`):

* ``POST /query`` — the body is a protocol-v1 request object
  (``{"query": ..., "dataset": ..., "k": ...}``); the response body is the
  exact payload the TCP transport would answer, so rows are byte-identical
  across transports (and to ``repro query``).
* ``GET /healthz`` — liveness/readiness: ``200`` while serving, ``503``
  once draining (load balancers stop routing before the socket closes).
* ``GET /stats`` — admission counters, the engine pool's size, the
  aggregated per-request :class:`~repro.core.topk.TopKStatistics` work
  counters and the summed per-stage engine seconds, as JSON.

Protocol error codes map onto HTTP statuses (:data:`STATUS_BY_ERROR`):
``malformed-request`` → 400, ``unknown-dataset`` → 404, ``timeout`` → 408,
``oversized-request`` → 413, ``overloaded``/``shutting-down``/
``too-many-connections`` → 503, ``internal-error`` → 500.  The response
body always carries the protocol-v1 ``{"ok": false, "error": ..,
"detail": ..}`` object, so HTTP clients switch on the same codes TCP
clients do; the status line is a convenience for generic tooling.

Framing is ``Content-Length`` only (a request with ``Transfer-Encoding``
is refused), with the same byte cap and discard-as-it-streams oversize
behavior as the line transport's :class:`~repro.net.protocol.LineSplitter`:
a body longer than the limit is *never buffered* — its bytes are dropped
while they stream in and the request answers ``413`` once the declared
length has passed, leaving the connection synchronized for the next
request.  Connections are keep-alive by default (``Connection: close``
honored; every response during a drain closes), and requests pipelined
into one segment are answered in order, one response per request.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket

from repro.net import protocol
from repro.net.listener import TCPQueryServer

#: The served routes, as ``(method, path)``.  ``scripts/lint_docs.py``
#: cross-checks every entry against ``docs/http_api.md``.
ROUTES: tuple[tuple[str, str], ...] = (
    ("POST", "/query"),
    ("GET", "/healthz"),
    ("GET", "/stats"),
)

#: HTTP-layer error codes (same response shape as the protocol's codes,
#: but these violations only exist once there are methods and paths).
ERR_NOT_FOUND = "not-found"
ERR_METHOD_NOT_ALLOWED = "method-not-allowed"

#: Protocol-v1 error code -> HTTP status.
STATUS_BY_ERROR: dict[str, int] = {
    protocol.ERR_MALFORMED: 400,
    protocol.ERR_UNKNOWN_DATASET: 404,
    protocol.ERR_TIMEOUT: 408,
    protocol.ERR_OVERSIZED: 413,
    protocol.ERR_OVERLOADED: 503,
    protocol.ERR_SHUTTING_DOWN: 503,
    protocol.ERR_TOO_MANY_CONNECTIONS: 503,
    protocol.ERR_INTERNAL: 500,
    ERR_NOT_FOUND: 404,
    ERR_METHOD_NOT_ALLOWED: 405,
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def encode_response(
    status: int, payload: dict, *, keep_alive: bool = True
) -> bytes:
    """One full HTTP/1.1 response: status line, headers, JSON body."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


def encode_query_request(
    query: str,
    dataset: str | None = None,
    k: int | None = None,
    *,
    host: str = "localhost",
) -> bytes:
    """A ``POST /query`` request, for the load harness and the tests."""
    body = protocol.encode_request(query, dataset=dataset, k=k).rstrip(b"\n")
    head = (
        "POST /query HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


class HTTPParseError(Exception):
    """A violation of the HTTP framing itself (bad request line, bad
    headers, unsupported transfer coding).  Unlike a malformed *body*, the
    parser cannot know where the next request starts, so the connection
    answers 400 and closes."""

    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


class HTTPRequest:
    """One parsed request: head fields plus the complete body."""

    __slots__ = ("method", "target", "version", "headers", "body", "oversized")

    def __init__(
        self,
        method: str,
        target: str,
        version: str,
        headers: dict[str, str],
        body: bytes = b"",
        oversized: bool = False,
    ):
        self.method = method
        self.target = target
        self.version = version
        #: Header names lowercased; duplicate names keep the last value.
        self.headers = headers
        self.body = body
        #: True when the declared body exceeded the limit: ``body`` is empty
        #: (the bytes were discarded while streaming) and the request must
        #: answer 413 — but the connection stays synchronized.
        self.oversized = oversized

    @property
    def path(self) -> str:
        """The target without its query string."""
        return self.target.split("?", 1)[0]

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


class HTTPRequestParser:
    """Incremental HTTP/1.1 request parsing with bounded buffering.

    ``feed(data)`` returns the :class:`HTTPRequest` objects the new bytes
    completed — several per call when requests are pipelined into one
    segment, none while a head or body is still split across reads.  The
    same byte limit applies to the head section and to the body: an
    over-limit *body* is discarded as it streams in (the buffer never grows
    past the limit — the :class:`~repro.net.protocol.LineSplitter`
    behavior) and surfaces as a request with ``oversized=True`` once its
    declared length has passed; an over-limit or malformed *head* raises
    :class:`HTTPParseError`, because without a parsed ``Content-Length``
    there is no resynchronization point.
    """

    def __init__(self, limit: int = protocol.MAX_REQUEST_BYTES):
        if limit < 1:
            raise ValueError("limit must be positive")
        self.limit = limit
        self._buffer = bytearray()
        #: The head of the request whose body is still streaming in.
        self._pending: HTTPRequest | None = None
        #: Body bytes of the pending request still to come.
        self._remaining = 0
        #: True when the pending request's body is over-limit: its bytes
        #: are dropped instead of buffered.
        self._discarding = False

    def feed(self, data: bytes) -> list[HTTPRequest]:
        requests: list[HTTPRequest] = []
        self._buffer.extend(data)
        while True:
            if self._pending is not None:
                request = self._consume_body()
                if request is None:
                    return requests
                requests.append(request)
                continue
            if not self._consume_head(requests):
                return requests

    # -- head ----------------------------------------------------------------

    def _consume_head(self, requests: list[HTTPRequest]) -> bool:
        """Parse one head if complete; True when *any* progress was made
        (a body-less request appended, or a body now pending)."""
        terminator = self._buffer.find(b"\r\n\r\n")
        if terminator == -1:
            if len(self._buffer) > self.limit:
                raise HTTPParseError(
                    f"request head exceeds {self.limit} bytes"
                )
            return False
        head = bytes(self._buffer[:terminator])
        del self._buffer[: terminator + 4]
        try:
            lines = head.decode("ascii").split("\r\n")
        except UnicodeDecodeError:
            raise HTTPParseError("request head is not ASCII") from None
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[0] or not parts[1].startswith("/"):
            raise HTTPParseError(f"malformed request line: {lines[0]!r}")
        method, target, version = parts
        if version not in ("HTTP/1.1", "HTTP/1.0"):
            raise HTTPParseError(f"unsupported HTTP version: {version!r}")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, separator, value = line.partition(":")
            if not separator or not name.strip():
                raise HTTPParseError(f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise HTTPParseError(
                "Transfer-Encoding is not supported; frame the body with "
                "Content-Length"
            )
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
            if length < 0:
                raise ValueError
        except ValueError:
            raise HTTPParseError(
                f"invalid Content-Length: {length_text!r}"
            ) from None
        request = HTTPRequest(method.upper(), target, version, headers)
        if length == 0:
            requests.append(request)
            return True
        self._pending = request
        self._remaining = length
        self._discarding = length > self.limit
        if self._discarding:
            request.oversized = True
        return True

    # -- body ----------------------------------------------------------------

    def _consume_body(self) -> HTTPRequest | None:
        assert self._pending is not None
        take = min(self._remaining, len(self._buffer))
        if self._discarding:
            del self._buffer[:take]  # dropped, never buffered
        else:
            self._pending.body += bytes(self._buffer[:take])
            del self._buffer[:take]
        self._remaining -= take
        if self._remaining:
            return None
        request, self._pending = self._pending, None
        self._discarding = False
        return request


class HTTPQueryServer:
    """The HTTP listener over a :class:`TCPQueryServer` admission core.

    Construction takes the core, not a pool: connection slots, the
    in-flight queue, the drain flag, per-request timeouts and the stats
    block all live in (and are shared with) the core — starting this front
    end adds a second doorway to the same room, never a second room.  The
    listening server registers with the core via ``attach_frontend`` so
    ``drain()`` closes both listening sockets and waits for both
    transports' in-flight responses.
    """

    def __init__(self, core: TCPQueryServer):
        self.core = core
        self._asyncio_server: asyncio.AbstractServer | None = None

    async def start(
        self,
        sock: socket.socket | None = None,
        host: str | None = None,
        port: int = 0,
    ) -> None:
        """Start accepting HTTP connections (the core must be started or
        starting — this front end builds no engines of its own)."""
        if sock is not None:
            self._asyncio_server = await asyncio.start_server(
                self._handle_connection, sock=sock
            )
        else:
            self._asyncio_server = await asyncio.start_server(
                self._handle_connection, host or self.core.config.host, port
            )
        self.core.attach_frontend(self._asyncio_server)

    @property
    def address(self) -> tuple[str, int]:
        assert self._asyncio_server is not None, "server not started"
        return self._asyncio_server.sockets[0].getsockname()[:2]

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        core = self.core
        refusal = core.admit_connection()
        if refusal is not None:
            detail = (
                "server is draining"
                if refusal == protocol.ERR_SHUTTING_DOWN
                else f"connection limit ({core.config.max_connections}) reached"
            )
            with contextlib.suppress(ConnectionError):
                writer.write(
                    encode_response(
                        STATUS_BY_ERROR[refusal],
                        protocol.error_payload(refusal, detail),
                        keep_alive=False,
                    )
                )
                await writer.drain()
            writer.close()
            return
        core._writers.add(writer)
        parser = HTTPRequestParser(core.config.max_request_bytes)
        try:
            closing = False
            while not closing:
                data = await reader.read(8192)
                if not data:
                    break
                try:
                    requests = parser.feed(data)
                except HTTPParseError as exc:
                    # The framing itself broke: answer 400 and close — there
                    # is no known byte where the next request would begin.
                    core.stats.protocol_errors += 1
                    with core.responding():
                        writer.write(
                            encode_response(
                                400,
                                protocol.error_payload(
                                    protocol.ERR_MALFORMED, exc.detail
                                ),
                                keep_alive=False,
                            )
                        )
                        await writer.drain()
                    break
                for request in requests:
                    with core.responding():
                        response, closing = await self._respond(request)
                        writer.write(response)
                        await writer.drain()
                    if closing:
                        break
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass  # mid-request client disconnect: this connection only
        finally:
            core.release_connection()
            core._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    # -- request dispatch ----------------------------------------------------

    async def _respond(self, request: HTTPRequest) -> tuple[bytes, bool]:
        """One request to ``(response bytes, close connection?)``."""
        core = self.core
        # A drain closes every connection after its current answer; the
        # payload still explains itself via the shutting-down error code.
        keep_alive = request.keep_alive and not core.draining
        status, payload = await self._dispatch(request)
        return (
            encode_response(status, payload, keep_alive=keep_alive),
            not keep_alive,
        )

    async def _dispatch(self, request: HTTPRequest) -> tuple[int, dict]:
        core = self.core
        if request.oversized:
            core.stats.protocol_errors += 1
            return 413, protocol.error_payload(
                protocol.ERR_OVERSIZED,
                f"request body exceeds {core.config.max_request_bytes} bytes",
            )
        path = request.path
        if path not in {route_path for _method, route_path in ROUTES}:
            return 404, protocol.error_payload(
                ERR_NOT_FOUND, f"no such route: {path!r} (see docs/http_api.md)"
            )
        allowed = {method for method, route_path in ROUTES if route_path == path}
        if request.method not in allowed:
            return 405, protocol.error_payload(
                ERR_METHOD_NOT_ALLOWED,
                f"{path} allows {', '.join(sorted(allowed))}, "
                f"not {request.method}",
            )
        if path == "/healthz":
            return self._healthz()
        if path == "/stats":
            return 200, self._stats_payload()
        return await self._query(request)

    def _healthz(self) -> tuple[int, dict]:
        if self.core.draining:
            payload = protocol.error_payload(
                protocol.ERR_SHUTTING_DOWN, "server is draining"
            )
            payload["status"] = "draining"
            return 503, payload
        return 200, {
            "ok": True,
            "v": protocol.PROTOCOL_VERSION,
            "status": "serving",
            "datasets": list(self.core.datasets),
        }

    def _stats_payload(self) -> dict:
        core = self.core
        stats = core.stats
        return {
            "ok": True,
            "v": protocol.PROTOCOL_VERSION,
            "draining": core.draining,
            "inflight": core.inflight,
            "engine_pool": {
                "pooled_engines": core.server.pooled_engines,
                "max_workers": core.server.max_workers,
            },
            "listener": {
                "connections_accepted": stats.connections_accepted,
                "connections_rejected": stats.connections_rejected,
                "requests_served": stats.requests_served,
                "requests_rejected_overload": stats.requests_rejected_overload,
                "requests_timed_out": stats.requests_timed_out,
                "protocol_errors": stats.protocol_errors,
            },
            "engine": {
                "sql_statements": stats.engine_sql_statements,
                "cache_hits": stats.engine_cache_hits,
                "cache_misses": stats.engine_cache_misses,
                "interpretations_executed": (
                    stats.engine_interpretations_executed
                ),
                "rows_streamed": stats.engine_rows_streamed,
                "read_pool_leases": stats.engine_read_pool_leases,
                "read_pool_waits": stats.engine_read_pool_waits,
                "read_pool_peak_concurrency": stats.engine_read_pool_peak,
                **core.server.memo_counters(),
                **core.server.resident_gauges(),
            },
            "stages": {
                "requests": stats.requests_served,
                "seconds": dict(stats.stage_seconds),
            },
        }

    async def _query(self, request: HTTPRequest) -> tuple[int, dict]:
        core = self.core
        try:
            parsed = protocol.parse_request(request.body)
        except protocol.ProtocolError as exc:
            core.stats.protocol_errors += 1
            return STATUS_BY_ERROR[exc.code], protocol.error_payload(
                exc.code, exc.detail
            )
        payload = await core.serve_request(parsed)
        if payload.get("ok"):
            return 200, payload
        return STATUS_BY_ERROR.get(payload["error"], 500), payload
