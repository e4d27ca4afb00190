"""The HTTP/1.1 front end: parity with the TCP transport, edge frames,
shared admission, drain.

The invariants under test:

* **Parity** — ``POST /query`` answers rows byte-identical to sequential
  in-process execution (what ``repro query`` prints) for the same request,
  on the memory, sqlite and sqlite-sharded backends — the curl-equivalence
  the HTTP front end exists for.
* **Framing** — pipelined requests in one segment answer in order; a
  ``Content-Length`` body split across reads reassembles; an oversized
  body is discarded while it streams and answers 413 with the connection
  still usable; a malformed *body* is a per-request 400 (keep-alive
  persists); a malformed *head* is a 400 that closes (no resync point).
* **Shared admission** — the HTTP front end rides the same connection
  cap, in-flight queue and drain flag as the TCP listener: caps count
  across transports, saturation answers 503/``overloaded``, slow requests
  408/``timeout``.
* **Drain** — requests on open keep-alive connections answer
  503/``shutting-down`` with ``Connection: close``; ``GET /healthz``
  flips to 503 so load balancers stop routing.

No pytest-asyncio: each test drives its own ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import threading

import pytest

from repro.engine import QueryEngine, ResultCache
from repro.net import protocol
from repro.net.http import (
    HTTPParseError,
    HTTPQueryServer,
    HTTPRequestParser,
    ROUTES,
    STATUS_BY_ERROR,
    encode_query_request,
)
from repro.net.listener import TCPQueryServer, TCPServerConfig
from repro.server import QueryServer
from tests.serving import GatedEngine, expected_wire_rows, spawn_tcp_server

QUERIES = ["hanks 2001", "london", "summer", "stone hill"]


@pytest.fixture(autouse=True)
def fresh_process_cache():
    ResultCache.clear_process_cache()
    yield
    ResultCache.clear_process_cache()


@pytest.fixture
def imdb_factory(imdb_db):
    def factory(dataset, backend, db_path, shards, config):
        kwargs = {} if config is None else {"config": config}
        return QueryEngine(imdb_db, **kwargs)

    return factory


@contextlib.asynccontextmanager
async def serving_http(factory, config=None, *, pool_workers=8, datasets=None):
    """An in-process TCP core plus its HTTP front end, drained on exit."""
    with QueryServer(max_workers=pool_workers, engine_factory=factory) as pool:
        tcp = TCPQueryServer(pool, config, datasets=datasets)
        await tcp.start()
        front = HTTPQueryServer(tcp)
        await front.start()
        try:
            yield tcp, front
        finally:
            await tcp.drain()


async def connect(front):
    host, port = front.address
    return await asyncio.open_connection(host, port)


async def read_response(reader) -> tuple[int, dict[str, str], dict]:
    """One HTTP response: ``(status, headers, parsed JSON body)``."""
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 30)
    lines = head.decode("ascii").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    body = await asyncio.wait_for(
        reader.readexactly(int(headers["content-length"])), 30
    )
    return status, headers, json.loads(body)


async def roundtrip(reader, writer, raw: bytes) -> tuple[int, dict]:
    writer.write(raw)
    await writer.drain()
    status, _headers, payload = await read_response(reader)
    return status, payload


async def ask(front, raw: bytes) -> tuple[int, dict]:
    """One-shot connection: send one request, read one response, close."""
    reader, writer = await connect(front)
    try:
        return await roundtrip(reader, writer, raw)
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


def get(path: str, extra: str = "") -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: t\r\n{extra}\r\n".encode()


# -- the parser alone ----------------------------------------------------------


class TestHTTPRequestParser:
    def test_pipelined_requests_in_one_segment(self):
        parser = HTTPRequestParser()
        segment = (
            encode_query_request("london", dataset="imdb", k=2)
            + get("/healthz")
            + encode_query_request("summer", k=1)
        )
        requests = parser.feed(segment)
        assert [(r.method, r.path) for r in requests] == [
            ("POST", "/query"),
            ("GET", "/healthz"),
            ("POST", "/query"),
        ]
        assert json.loads(requests[0].body)["query"] == "london"
        assert json.loads(requests[2].body) == {"query": "summer", "k": 1}

    def test_head_and_body_split_across_arbitrary_reads(self):
        raw = encode_query_request("stone hill", dataset="imdb", k=3)
        for chunk in (1, 2, 7):
            parser = HTTPRequestParser()
            collected = []
            for start in range(0, len(raw), chunk):
                collected += parser.feed(raw[start : start + chunk])
            assert len(collected) == 1
            assert json.loads(collected[0].body)["query"] == "stone hill"

    def test_oversized_body_is_discarded_not_buffered(self):
        parser = HTTPRequestParser(limit=64)
        body = b"x" * 1000
        head = f"POST /query HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
        requests = []
        for start in range(0, len(body), 100):
            assert len(parser._buffer) <= 64  # never balloons
            requests += parser.feed(
                (head.encode() if start == 0 else b"") + body[start : start + 100]
            )
        (request,) = requests
        assert request.oversized is True
        assert request.body == b""
        # The connection is resynchronized: the next request parses clean.
        (after,) = parser.feed(get("/healthz"))
        assert (after.method, after.path, after.oversized) == (
            "GET",
            "/healthz",
            False,
        )

    def test_oversized_head_raises(self):
        parser = HTTPRequestParser(limit=64)
        with pytest.raises(HTTPParseError):
            parser.feed(b"GET /" + b"a" * 100)

    def test_malformed_frames_raise(self):
        for raw in (
            b"nonsense\r\n\r\n",
            b"GET /x SPDY/9\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbad header line\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ):
            with pytest.raises(HTTPParseError):
                HTTPRequestParser().feed(raw)

    def test_keep_alive_defaults_per_version(self):
        parser = HTTPRequestParser()
        (one,) = parser.feed(b"GET /healthz HTTP/1.1\r\n\r\n")
        assert one.keep_alive is True
        (two,) = parser.feed(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert two.keep_alive is False
        (three,) = parser.feed(b"GET /healthz HTTP/1.0\r\n\r\n")
        assert three.keep_alive is False

    def test_query_string_is_stripped_from_path(self):
        (request,) = HTTPRequestParser().feed(b"GET /stats?pretty=1 HTTP/1.1\r\n\r\n")
        assert request.path == "/stats"


# -- parity (the curl-equivalence acceptance criterion) ------------------------


class TestRequestEncoders:
    """``encode_query_request`` wraps what ``protocol.encode_request`` puts
    on a line: the two encoders must frame any query text, so that both
    transports parse the same request from it."""

    @pytest.mark.parametrize(
        "query, dataset, k",
        [
            ("london", None, None),
            ("hanks 2001", "imdb", 3),
            ("café crème brûlée", "imdb", 5),  # non-ASCII text
            ("東京 物語", None, 2),
            ('the "matrix"', None, 1),
            ("back\\slash", "imdb", 4),
            ("two\nlines", None, 7),  # escaped: still one request line
            ("  padded  ", "imdb", 10),  # both parsers strip it alike
        ],
    )
    def test_both_encoders_carry_the_same_request(self, query, dataset, k):
        line = protocol.encode_request(query, dataset=dataset, k=k)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        expected = protocol.parse_request(line)
        assert expected == protocol.Request(query.strip(), dataset, k)

        raw = encode_query_request(query, dataset=dataset, k=k)
        # Pipelined twice: a Content-Length off by one byte would misframe
        # the second request.
        requests = HTTPRequestParser().feed(raw + raw)
        assert len(requests) == 2
        for request in requests:
            assert (request.method, request.path) == ("POST", "/query")
            assert request.body == line.rstrip(b"\n")
            assert protocol.parse_request(request.body) == expected


class TestHTTPParity:
    def test_query_rows_match_sequential_execution(self, imdb_factory, imdb_db):
        """`curl -d '{"dataset":"imdb","query":...}' :port/query` answers the
        same rows `repro query` prints — pinned against in-process
        sequential execution, concurrently, over keep-alive connections."""
        reference = QueryEngine(imdb_db)
        expected = {text: expected_wire_rows(reference, text) for text in QUERIES}

        async def drive():
            async with serving_http(imdb_factory) as (tcp, front):
                async def client(text):
                    reader, writer = await connect(front)
                    try:
                        answers = []
                        for _ in range(3):
                            answers.append(
                                await roundtrip(
                                    reader,
                                    writer,
                                    encode_query_request(text, dataset="imdb", k=5),
                                )
                            )
                        return text, answers
                    finally:
                        writer.close()
                        await writer.wait_closed()

                outcomes = await asyncio.gather(*(client(t) for t in QUERIES * 2))
                for text, answers in outcomes:
                    for status, payload in answers:
                        assert status == 200
                        assert payload["ok"] is True
                        assert payload["rows"] == expected[text]
                assert tcp.stats.requests_served == len(QUERIES) * 2 * 3

        asyncio.run(drive())

    @pytest.mark.parametrize(
        "backend,shards", [("sqlite", None), ("sqlite-sharded", 2)]
    )
    def test_parity_on_file_backed_stores(self, tmp_path, imdb_db, backend, shards):
        reference = QueryEngine(imdb_db)
        texts = QUERIES[:3]
        expected = {text: expected_wire_rows(reference, text) for text in texts}
        config = TCPServerConfig(
            backend=backend, db_path=str(tmp_path / "store.db"), shards=shards
        )

        async def drive():
            with QueryServer(max_workers=4) as pool:
                tcp = TCPQueryServer(pool, config)
                await tcp.start()
                front = HTTPQueryServer(tcp)
                await front.start()
                try:
                    for text in texts:
                        status, payload = await ask(
                            front, encode_query_request(text, k=5)
                        )
                        assert status == 200, payload
                        assert payload["rows"] == expected[text]
                finally:
                    await tcp.drain()

        asyncio.run(drive())

    def test_both_transports_answer_identical_payloads(self, imdb_factory):
        """One server, both doorways: the HTTP body equals the TCP line."""

        async def drive():
            async with serving_http(imdb_factory) as (tcp, front):
                host, port = tcp.address
                tcp_reader, tcp_writer = await asyncio.open_connection(host, port)
                try:
                    for text in QUERIES:
                        tcp_writer.write(protocol.encode_request(text, k=5))
                        await tcp_writer.drain()
                        over_tcp = json.loads(
                            await asyncio.wait_for(tcp_reader.readline(), 30)
                        )
                        _status, over_http = await ask(
                            front, encode_query_request(text, k=5)
                        )
                        del over_tcp["stats"], over_http["stats"]  # timings differ
                        assert over_http == over_tcp
                finally:
                    tcp_writer.close()
                    with contextlib.suppress(Exception):
                        await tcp_writer.wait_closed()

        asyncio.run(drive())


# -- wire-level behavior -------------------------------------------------------


class TestHTTPWireBehavior:
    def test_pipelined_requests_answer_in_order(self, imdb_factory):
        async def drive():
            async with serving_http(imdb_factory) as (_tcp, front):
                reader, writer = await connect(front)
                try:
                    writer.write(
                        encode_query_request("london", dataset="imdb", k=2)
                        + get("/healthz")
                        + encode_query_request("summer", k=2)
                    )
                    await writer.drain()
                    first = await read_response(reader)
                    second = await read_response(reader)
                    third = await read_response(reader)
                    assert first[2]["query"] == "london"
                    assert second[2]["status"] == "serving"
                    assert third[2]["query"] == "summer"
                finally:
                    writer.close()
                    await writer.wait_closed()

        asyncio.run(drive())

    def test_split_body_across_writes(self, imdb_factory):
        async def drive():
            async with serving_http(imdb_factory) as (_tcp, front):
                reader, writer = await connect(front)
                try:
                    raw = encode_query_request("london", dataset="imdb", k=2)
                    middle = len(raw) - 9  # splits inside the JSON body
                    writer.write(raw[:middle])
                    await writer.drain()
                    await asyncio.sleep(0.05)  # the server sees a partial body
                    writer.write(raw[middle:])
                    await writer.drain()
                    status, _headers, payload = await read_response(reader)
                    assert status == 200 and payload["ok"] is True
                finally:
                    writer.close()
                    await writer.wait_closed()

        asyncio.run(drive())

    def test_oversized_body_answers_413_and_connection_survives(
        self, imdb_factory
    ):
        async def drive():
            config = TCPServerConfig(max_request_bytes=256)
            async with serving_http(imdb_factory, config) as (tcp, front):
                reader, writer = await connect(front)
                try:
                    body = b'{"query": "' + b"x" * 500 + b'"}'
                    writer.write(
                        b"POST /query HTTP/1.1\r\nHost: t\r\n"
                        + f"Content-Length: {len(body)}\r\n\r\n".encode()
                        + body
                    )
                    await writer.drain()
                    status, _headers, payload = await read_response(reader)
                    assert status == 413
                    assert payload["error"] == protocol.ERR_OVERSIZED
                    # Same connection, next request: served normally.
                    status, payload = await roundtrip(
                        reader, writer, encode_query_request("london", k=2)
                    )
                    assert status == 200 and payload["ok"] is True
                    assert tcp.stats.protocol_errors == 1
                finally:
                    writer.close()
                    await writer.wait_closed()

        asyncio.run(drive())

    def test_malformed_body_is_400_and_keep_alive_persists(self, imdb_factory):
        async def drive():
            async with serving_http(imdb_factory) as (tcp, front):
                reader, writer = await connect(front)
                try:
                    bad = b"not json"
                    writer.write(
                        b"POST /query HTTP/1.1\r\nHost: t\r\n"
                        + f"Content-Length: {len(bad)}\r\n\r\n".encode()
                        + bad
                    )
                    await writer.drain()
                    status, headers, payload = await read_response(reader)
                    assert status == 400
                    assert payload["error"] == protocol.ERR_MALFORMED
                    assert headers["connection"] == "keep-alive"
                    status, payload = await roundtrip(
                        reader, writer, encode_query_request("london", k=2)
                    )
                    assert status == 200 and payload["ok"] is True
                    assert tcp.stats.protocol_errors == 1
                finally:
                    writer.close()
                    await writer.wait_closed()

        asyncio.run(drive())

    def test_malformed_head_is_400_and_closes(self, imdb_factory):
        async def drive():
            async with serving_http(imdb_factory) as (_tcp, front):
                reader, writer = await connect(front)
                try:
                    writer.write(b"EXPLODE\r\n\r\n")
                    await writer.drain()
                    status, headers, payload = await read_response(reader)
                    assert status == 400
                    assert payload["error"] == protocol.ERR_MALFORMED
                    assert headers["connection"] == "close"
                    assert await reader.read() == b""  # closed after the answer
                finally:
                    writer.close()

        asyncio.run(drive())

    def test_unknown_route_and_method(self, imdb_factory):
        async def drive():
            async with serving_http(imdb_factory) as (_tcp, front):
                status, payload = await ask(front, get("/nope"))
                assert status == 404 and payload["error"] == "not-found"
                status, payload = await ask(
                    front, b"DELETE /query HTTP/1.1\r\nHost: t\r\n\r\n"
                )
                assert status == 405
                assert payload["error"] == "method-not-allowed"
                assert "POST" in payload["detail"]

        asyncio.run(drive())

    def test_unknown_dataset_is_404(self, imdb_factory):
        async def drive():
            async with serving_http(imdb_factory) as (tcp, front):
                status, payload = await ask(
                    front, encode_query_request("london", dataset="lyrics")
                )
                assert status == 404
                assert payload["error"] == protocol.ERR_UNKNOWN_DATASET
                assert tcp.server.pooled_engines == 1  # nothing built

        asyncio.run(drive())

    def test_connection_close_is_honored(self, imdb_factory):
        async def drive():
            async with serving_http(imdb_factory) as (_tcp, front):
                reader, writer = await connect(front)
                try:
                    writer.write(get("/healthz", "Connection: close\r\n"))
                    await writer.drain()
                    status, headers, _payload = await read_response(reader)
                    assert status == 200
                    assert headers["connection"] == "close"
                    assert await reader.read() == b""
                finally:
                    writer.close()

        asyncio.run(drive())

    def test_healthz_and_stats_shapes(self, imdb_factory):
        async def drive():
            async with serving_http(imdb_factory) as (_tcp, front):
                status, payload = await ask(front, get("/healthz"))
                assert status == 200
                assert payload["status"] == "serving"
                assert payload["datasets"] == ["imdb"]
                await ask(front, encode_query_request("london", k=3))
                status, payload = await ask(front, get("/stats"))
                assert status == 200
                assert payload["listener"]["requests_served"] == 1
                assert payload["engine"]["sql_statements"] >= 1
                assert payload["engine_pool"]["pooled_engines"] == 1
                assert payload["draining"] is False
                # Per-stage engine seconds, summed over served requests.
                stages = payload["stages"]
                assert stages["requests"] == 1
                assert list(stages["seconds"]) == [
                    "segment", "generate", "rank", "execute"
                ]
                first = dict(stages["seconds"])
                assert all(seconds >= 0.0 for seconds in first.values())
                await ask(front, encode_query_request("hanks 2001", k=3))
                _status, payload = await ask(front, get("/stats"))
                assert payload["stages"]["requests"] == 2
                assert all(
                    payload["stages"]["seconds"][stage] >= first[stage]
                    for stage in first
                )
                # The front-half memo: two distinct texts missed, a repeat hits.
                await ask(front, encode_query_request("london", k=3))
                _status, payload = await ask(front, get("/stats"))
                engine = payload["engine"]
                assert (engine["memo_hits"], engine["memo_misses"]) == (1, 2)
                assert engine["memo_resident_interpretations"] > 0
                # Resident gauges: the result cache holds the executed
                # interpretations; a memory store decodes no rows.
                assert engine["result_cache_resident_entries"] >= 1
                assert engine["decoded_rows_alive"] == 0
                # The benchmark reads "engine"/"listener" as flat numbers.
                for block in ("engine", "listener"):
                    assert all(
                        isinstance(value, int) for value in payload[block].values()
                    )

        asyncio.run(drive())

    def test_stats_gauges_count_what_the_sqlite_caches_hold(self):
        from repro.datasets.imdb import build_imdb

        store = build_imdb(backend="sqlite")

        def factory(dataset, backend, db_path, shards, config):
            return QueryEngine(store)

        async def drive():
            async with serving_http(factory) as (_tcp, front):
                await ask(front, encode_query_request("london", k=3))
                _status, payload = await ask(front, get("/stats"))
                engine = payload["engine"]
                assert engine["result_cache_resident_entries"] == (
                    ResultCache.resident_entries()
                ) >= 1
                # Every cached row is one live decoded object.
                assert engine["decoded_rows_alive"] == store.decoded_rows_alive() > 0
                ResultCache.clear_process_cache()
                _status, payload = await ask(front, get("/stats"))
                assert payload["engine"]["result_cache_resident_entries"] == 0
                assert payload["engine"]["decoded_rows_alive"] < engine[
                    "decoded_rows_alive"
                ]

        try:
            asyncio.run(drive())
        finally:
            store.close()



# -- shared admission ----------------------------------------------------------


class TestSharedAdmission:
    def test_connection_cap_counts_across_transports(self, imdb_factory):
        async def drive():
            config = TCPServerConfig(max_connections=2)
            async with serving_http(imdb_factory, config) as (tcp, front):
                host, port = tcp.address
                # Two TCP connections fill the shared cap...
                tcp_conns = [
                    await asyncio.open_connection(host, port) for _ in range(2)
                ]
                # ...so the HTTP doorway refuses the third, with the body
                # carrying the same protocol error code TCP clients get.
                reader, writer = await connect(front)
                status, _headers, payload = await read_response(reader)
                assert status == 503
                assert payload["error"] == protocol.ERR_TOO_MANY_CONNECTIONS
                assert await reader.read() == b""
                writer.close()
                for _r, w in tcp_conns:
                    w.close()

        asyncio.run(drive())

    def test_saturated_queue_answers_503_overloaded(self, imdb_db):
        gate = threading.Event()

        def factory(dataset, backend, db_path, shards, config):
            return GatedEngine(QueryEngine(imdb_db), gate)

        async def drive():
            config = TCPServerConfig(queue_limit=2)
            async with serving_http(factory, config, pool_workers=1) as (
                tcp,
                front,
            ):
                connections = [await connect(front) for _ in range(3)]
                blocked = [
                    asyncio.ensure_future(
                        roundtrip(r, w, encode_query_request("london"))
                    )
                    for r, w in connections[:2]
                ]
                for _ in range(500):
                    if tcp.inflight == 2:
                        break
                    await asyncio.sleep(0.01)
                assert tcp.inflight == 2
                reader, writer = connections[2]
                status, payload = await roundtrip(
                    reader, writer, encode_query_request("london")
                )
                assert status == 503
                assert payload["error"] == protocol.ERR_OVERLOADED
                assert tcp.stats.requests_rejected_overload == 1
                gate.set()
                for status, payload in await asyncio.gather(*blocked):
                    assert status == 200 and payload["ok"] is True
                for _r, w in connections:
                    w.close()

        try:
            asyncio.run(drive())
        finally:
            gate.set()

    def test_request_timeout_answers_408(self, imdb_db):
        gate = threading.Event()

        def factory(dataset, backend, db_path, shards, config):
            return GatedEngine(QueryEngine(imdb_db), gate)

        async def drive():
            config = TCPServerConfig(request_timeout=0.05, drain_timeout=30)
            async with serving_http(factory, config, pool_workers=1) as (
                tcp,
                front,
            ):
                status, payload = await ask(front, encode_query_request("london"))
                assert status == 408
                assert payload["error"] == protocol.ERR_TIMEOUT
                assert tcp.stats.requests_timed_out == 1
                gate.set()

        try:
            asyncio.run(drive())
        finally:
            gate.set()


# -- drain ---------------------------------------------------------------------


class TestHTTPDrain:
    def test_drain_refuses_keep_alive_requests_and_closes(self, imdb_db):
        gate = threading.Event()

        def factory(dataset, backend, db_path, shards, config):
            return GatedEngine(QueryEngine(imdb_db), gate)

        async def drive():
            config = TCPServerConfig(drain_timeout=30)
            async with serving_http(factory, config, pool_workers=2) as (
                tcp,
                front,
            ):
                host, port = front.address
                inflight = await connect(front)
                open_conn = await connect(front)  # idle keep-alive
                pending = asyncio.ensure_future(
                    roundtrip(*inflight, encode_query_request("hanks 2001"))
                )
                for _ in range(500):
                    if tcp.inflight == 1:
                        break
                    await asyncio.sleep(0.01)
                assert tcp.inflight == 1

                drain = asyncio.ensure_future(tcp.drain())
                while not tcp.draining:
                    await asyncio.sleep(0.01)
                # The HTTP listening socket is closed with the TCP one.
                with pytest.raises(OSError):
                    await asyncio.open_connection(host, port)
                # A request on the idle keep-alive connection is refused
                # with 503/shutting-down and the connection closes.
                reader, writer = open_conn
                writer.write(encode_query_request("london"))
                await writer.drain()
                status, headers, payload = await read_response(reader)
                assert status == 503
                assert payload["error"] == protocol.ERR_SHUTTING_DOWN
                assert headers["connection"] == "close"
                assert await reader.read() == b""
                # The in-flight request still completes and answers.
                gate.set()
                status, payload = await pending
                assert status == 200 and payload["ok"] is True
                assert await drain is True
                writer.close()
                inflight[1].close()

        try:
            asyncio.run(drive())
        finally:
            gate.set()

    def test_healthz_reports_draining(self, imdb_factory):
        async def drive():
            async with serving_http(imdb_factory) as (tcp, front):
                reader, writer = await connect(front)
                try:
                    tcp.begin_drain()
                    writer.write(get("/healthz"))
                    await writer.drain()
                    status, _headers, payload = await read_response(reader)
                    assert status == 503
                    assert payload["status"] == "draining"
                finally:
                    writer.close()

        asyncio.run(drive())


# -- routes/status tables stay consistent --------------------------------------


def test_every_protocol_error_code_maps_to_a_status():
    codes = {
        value
        for name, value in vars(protocol).items()
        if name.startswith("ERR_") and isinstance(value, str)
    }
    assert codes <= set(STATUS_BY_ERROR)
    assert all(100 <= status <= 599 for status in STATUS_BY_ERROR.values())


def test_routes_table_shape():
    assert ("POST", "/query") in ROUTES
    assert ("GET", "/healthz") in ROUTES
    assert ("GET", "/stats") in ROUTES


# -- the real thing: a spawned serve --http process ----------------------------


def _http_ask(host: str, port: int, raw: bytes, timeout: float = 30) -> dict:
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(raw)
        buffered = b""
        while b"\r\n\r\n" not in buffered:
            buffered += sock.recv(65536)
        head, _, rest = buffered.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(rest) < length:
            rest += sock.recv(65536)
    return json.loads(rest[:length])


class TestServerProcess:
    def test_spawned_http_server_serves_and_drains(self):
        server = spawn_tcp_server(http=True)
        assert server.http_port is not None and server.http_port != server.port
        try:
            payload = _http_ask(
                server.host,
                server.http_port,
                encode_query_request("london", dataset="imdb", k=5),
            )
            assert payload["ok"] is True and payload["rows"], payload
            health = _http_ask(
                server.host, server.http_port, get("/healthz")
            )
            assert health["status"] == "serving"
        finally:
            assert server.terminate() == 0
