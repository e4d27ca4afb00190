"""The listener: parity over the network, robustness, backpressure, drain.

The invariants under test:

* **Parity** — N concurrent TCP clients receive byte-identical result rows
  to sequential in-process execution, on the memory, sqlite and
  sqlite-sharded backends (the row-uid networks travel as JSON).
* **Robustness** — a malformed line, an oversized line, an unknown dataset
  or a client that disconnects mid-request errors exactly that one request:
  the connection (and the listener) keeps serving, and no engine is built
  or leaked for datasets the server does not serve.
* **Backpressure** — a saturated in-flight queue answers ``overloaded``
  *now* instead of queueing unboundedly (made deterministic with a gated
  engine), the connection cap answers ``too-many-connections``, and a
  request outliving the timeout answers ``timeout``.
* **Drain** — SIGTERM/drain lets in-flight requests complete and answer,
  refuses new connections at the kernel, and answers ``shutting-down`` on
  connections that stay open; the whole server process exits 0.
* **One stack** — with no socket the process's stdin/stdout is one more
  connection of the same listener: same lines in, same payloads out, same
  per-request errors, and EOF, SIGTERM or a vanished stdout all end in the
  same drain.

No pytest-asyncio: each test drives its own ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading

import pytest

from repro.engine import EngineConfig, QueryEngine, ResultCache
from repro.net import protocol
from repro.net.listener import TCPQueryServer, TCPServerConfig
from repro.server import QueryServer
from tests.serving import GatedEngine, expected_wire_rows, spawn_tcp_server

QUERIES = ["hanks 2001", "london", "summer", "stone hill", "hanks", "2001"]


@pytest.fixture(autouse=True)
def fresh_process_cache():
    ResultCache.clear_process_cache()
    yield
    ResultCache.clear_process_cache()


@pytest.fixture
def imdb_factory(imdb_db):
    """An engine factory over the session-scoped imdb store (no rebuilds)."""

    def factory(dataset, backend, db_path, shards, config):
        kwargs = {} if config is None else {"config": config}
        return QueryEngine(imdb_db, **kwargs)

    return factory


@contextlib.asynccontextmanager
async def serving(factory, config=None, *, pool_workers=8, datasets=None):
    """An in-process listener over a fresh engine pool, drained on exit."""
    with QueryServer(max_workers=pool_workers, engine_factory=factory) as pool:
        tcp = TCPQueryServer(pool, config, datasets=datasets)
        await tcp.start()
        try:
            yield tcp
        finally:
            await tcp.drain()


async def connect(tcp):
    host, port = tcp.address
    return await asyncio.open_connection(host, port)


@contextlib.asynccontextmanager
async def connection(tcp, transport: str = "tcp"):
    """One client connection as ``(reader, writer)``.  For ``stdio`` a
    socketpair end stands in for the server process's stdin/stdout, so the
    stream helpers below drive that transport unchanged."""
    served = None
    if transport == "stdio":
        ours, theirs = socket.socketpair()
        served = asyncio.ensure_future(
            tcp.serve_stdio(theirs.makefile("rb"), theirs.makefile("wb"))
        )
        reader, writer = await asyncio.open_connection(sock=ours)
    else:
        reader, writer = await connect(tcp)
    try:
        yield reader, writer
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()
        if served is not None:
            await asyncio.wait_for(served, 30)  # EOF on "stdin" ends the transport
            theirs.close()


async def roundtrip(reader, writer, payload: bytes) -> dict:
    """One request line in, one parsed response line out."""
    writer.write(payload)
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), 30)
    assert line.endswith(b"\n"), f"connection closed mid-response: {line!r}"
    return json.loads(line)


async def ask(tcp, payload: bytes) -> dict:
    """One-shot connection: send one line, read one response, close."""
    reader, writer = await connect(tcp)
    try:
        return await roundtrip(reader, writer, payload)
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


class TestNetworkParity:
    def test_concurrent_clients_match_sequential(self, imdb_factory, imdb_db):
        reference = QueryEngine(imdb_db)
        expected = {text: expected_wire_rows(reference, text) for text in QUERIES}

        async def drive():
            async with serving(imdb_factory) as tcp:
                async def client(text):
                    reader, writer = await connect(tcp)
                    try:
                        answers = []
                        for _ in range(3):
                            answers.append(
                                await roundtrip(
                                    reader,
                                    writer,
                                    protocol.encode_request(text, k=5),
                                )
                            )
                        return text, answers
                    finally:
                        writer.close()
                        await writer.wait_closed()

                outcomes = await asyncio.gather(*(client(t) for t in QUERIES * 2))
                for text, answers in outcomes:
                    for payload in answers:
                        assert payload["ok"] is True, payload
                        assert payload["dataset"] == "imdb"
                        assert payload["rows"] == expected[text]
                        assert payload["stats"]["sql_statements"] >= 0
                assert tcp.stats.requests_served == len(QUERIES) * 2 * 3

        asyncio.run(drive())

    @pytest.mark.parametrize(
        "backend,shards", [("sqlite", None), ("sqlite-sharded", 2)]
    )
    def test_parity_on_file_backed_stores(self, tmp_path, imdb_db, backend, shards):
        """Network answers over WAL-mode file stores equal sequential memory
        execution (the cross-backend parity the suite pins elsewhere, here
        end to end through the socket)."""
        reference = QueryEngine(imdb_db)
        texts = QUERIES[:4]
        expected = {text: expected_wire_rows(reference, text) for text in texts}
        config = TCPServerConfig(
            backend=backend,
            db_path=str(tmp_path / "store.db"),
            shards=shards,
        )

        async def drive():
            # Default engine factory: the listener's prewarm builds the
            # dataset into the file store.
            with QueryServer(max_workers=4) as pool:
                tcp = TCPQueryServer(pool, config)
                await tcp.start()
                try:
                    payloads = await asyncio.gather(
                        *(
                            ask(tcp, protocol.encode_request(text, k=5))
                            for text in texts * 2
                        )
                    )
                    for text, payload in zip(texts * 2, payloads):
                        assert payload["ok"] is True, payload
                        assert payload["rows"] == expected[text]
                finally:
                    await tcp.drain()

        asyncio.run(drive())


class TestProtocolRobustness:
    def test_bad_requests_error_without_killing_the_connection(self, imdb_factory):
        async def drive(transport):
            config = TCPServerConfig(max_request_bytes=256)
            async with serving(imdb_factory, config) as tcp:
                async with connection(tcp, transport) as (reader, writer):
                    bad = await roundtrip(reader, writer, b"not json\n")
                    assert bad == {
                        "ok": False,
                        "v": protocol.PROTOCOL_VERSION,
                        "error": protocol.ERR_MALFORMED,
                        "detail": bad["detail"],
                    }
                    bad = await roundtrip(reader, writer, b'{"k": 5}\n')
                    assert bad["error"] == protocol.ERR_MALFORMED
                    huge = b'{"query": "' + b"x" * 500 + b'"}\n'
                    bad = await roundtrip(reader, writer, huge)
                    assert bad["error"] == protocol.ERR_OVERSIZED
                    bad = await roundtrip(
                        reader, writer, protocol.encode_request("london", "lyrics")
                    )
                    assert bad["error"] == protocol.ERR_UNKNOWN_DATASET
                    # Same connection still serves real queries afterwards
                    # (the blank line before this one is skipped, not answered).
                    good = await roundtrip(
                        reader, writer, b"\n" + protocol.encode_request("london")
                    )
                    assert good["ok"] is True
                    assert tcp.stats.protocol_errors == 3

        for transport in ("tcp", "stdio"):
            asyncio.run(drive(transport))

    def test_unknown_dataset_is_refused_without_building_an_engine(
        self, imdb_factory
    ):
        async def drive():
            async with serving(imdb_factory) as tcp:
                assert tcp.server.pooled_engines == 1  # the prewarmed default
                payload = await ask(
                    tcp, protocol.encode_request("london", dataset="lyrics")
                )
                assert payload["ok"] is False
                assert payload["error"] == protocol.ERR_UNKNOWN_DATASET
                assert "lyrics" in payload["detail"]
                assert tcp.server.pooled_engines == 1  # nothing leaked
                good = await ask(
                    tcp, protocol.encode_request("london", dataset="imdb")
                )
                assert good["ok"] is True

        asyncio.run(drive())

    def test_mid_request_disconnect_leaves_server_serving(self, imdb_factory):
        async def drive():
            async with serving(imdb_factory) as tcp:
                reader, writer = await connect(tcp)
                writer.write(protocol.encode_request("hanks 2001"))
                await writer.drain()
                writer.close()  # gone before the answer can be written
                with contextlib.suppress(Exception):
                    await writer.wait_closed()
                # The listener survives; a fresh client is served normally.
                payload = await ask(tcp, protocol.encode_request("london"))
                assert payload["ok"] is True
                # The abandoned request eventually leaves the books.
                for _ in range(500):
                    if tcp.inflight == 0:
                        break
                    await asyncio.sleep(0.01)
                assert tcp.inflight == 0

        asyncio.run(drive())

    def test_engine_failure_answers_internal_error(self, imdb_db):
        class Exploding:
            backend = imdb_db  # close() target for the pool

            def run(self, *args, **kwargs):
                raise RuntimeError("engine exploded")

        def factory(dataset, backend, db_path, shards, config):
            return Exploding()

        async def drive():
            async with serving(factory) as tcp:
                reader, writer = await connect(tcp)
                try:
                    payload = await roundtrip(
                        reader, writer, protocol.encode_request("london")
                    )
                    assert payload["ok"] is False
                    assert payload["error"] == protocol.ERR_INTERNAL
                    assert "engine exploded" in payload["detail"]
                    # The loop survived; the next request is answered too.
                    again = await roundtrip(
                        reader, writer, protocol.encode_request("london")
                    )
                    assert again["error"] == protocol.ERR_INTERNAL
                finally:
                    writer.close()
                    await writer.wait_closed()

        asyncio.run(drive())


class TestStdioTransport:
    """stdin/stdout as a connection of the same admission core."""

    LINES = [
        protocol.encode_request("london", k=2),
        b"london\n",  # plain text is not a request: JSON lines only
        protocol.encode_request("london", dataset="lyrics"),
        protocol.encode_request("hanks 2001"),
    ]

    def test_stdio_answers_what_tcp_answers(self, imdb_db):
        """Same request lines, same payloads (cache off, so ``stats`` agree
        too — everything but the clock)."""
        engine = QueryEngine(imdb_db, config=EngineConfig(cache_results=False))

        async def drive():
            answers = {}
            async with serving(lambda *_key: engine) as tcp:
                for transport in ("tcp", "stdio"):
                    async with connection(tcp, transport) as (reader, writer):
                        answers[transport] = [
                            await roundtrip(reader, writer, line) for line in self.LINES
                        ]
                assert tcp.stats.connections_accepted == 2
            for payloads in answers.values():
                for payload in payloads:
                    payload.get("stats", {}).pop("seconds", None)
            assert answers["stdio"] == answers["tcp"]
            assert [p["ok"] for p in answers["stdio"]] == [True, False, False, True]

        asyncio.run(drive())

    def test_sigterm_with_stdin_open_drains_and_exits_zero(self):
        with _stdio_server() as server:
            server.stdin.write(self.LINES[0])
            assert json.loads(server.stdout.readline())["ok"] is True
            server.send_signal(signal.SIGTERM)  # stdin stays open throughout
            assert server.wait(TCPServerConfig.drain_timeout) == 0
            assert server.stderr.read() == b""

    def test_closed_stdout_stops_reading_without_a_traceback(self):
        with _stdio_server() as server:
            server.stdin.write(self.LINES[0])
            assert json.loads(server.stdout.readline())["ok"] is True
            server.stdout.close()  # e.g. piped into ``head -1``
            # A flood (``yes ... | repro serve | head -1``): far more than the
            # pipe holds, so the reader thread has a chunk in hand or in
            # flight to the loop whenever the connection ends.
            with contextlib.suppress(BrokenPipeError):  # it may be gone already
                server.stdin.write(self.LINES[0] * 20_000)
            assert server.wait(TCPServerConfig.drain_timeout) == 0
            assert server.stderr.read() == b""


class TestBackpressure:
    def test_connection_cap_rejects_explicitly(self, imdb_factory):
        async def drive():
            config = TCPServerConfig(max_connections=2)
            async with serving(imdb_factory, config) as tcp:
                first = await connect(tcp)
                second = await connect(tcp)
                reader, writer = await connect(tcp)  # one over the cap
                payload = json.loads(await asyncio.wait_for(reader.readline(), 30))
                assert payload["error"] == protocol.ERR_TOO_MANY_CONNECTIONS
                assert await reader.read() == b""  # and the socket is closed
                assert tcp.stats.connections_rejected == 1
                for r, w in (first, second):
                    answer = await roundtrip(r, w, protocol.encode_request("london"))
                    assert answer["ok"] is True
                    w.close()
                    await w.wait_closed()
                writer.close()

        asyncio.run(drive())

    def test_saturated_queue_answers_overloaded_not_hangs(self, imdb_db):
        gate = threading.Event()

        def factory(dataset, backend, db_path, shards, config):
            return GatedEngine(QueryEngine(imdb_db), gate)

        async def drive():
            config = TCPServerConfig(queue_limit=2)
            async with serving(factory, config, pool_workers=1) as tcp:
                connections = [await connect(tcp) for _ in range(3)]
                blocked = [
                    asyncio.ensure_future(
                        roundtrip(r, w, protocol.encode_request("london"))
                    )
                    for r, w in connections[:2]
                ]
                for _ in range(500):  # both admitted (one running, one queued)
                    if tcp.inflight == 2:
                        break
                    await asyncio.sleep(0.01)
                assert tcp.inflight == 2
                # The queue is full: the third request is rejected *now*.
                reader, writer = connections[2]
                rejected = await roundtrip(
                    reader, writer, protocol.encode_request("london")
                )
                assert rejected["error"] == protocol.ERR_OVERLOADED
                assert tcp.stats.requests_rejected_overload == 1
                gate.set()  # open the gate: the admitted two complete
                for payload in await asyncio.gather(*blocked):
                    assert payload["ok"] is True
                for _r, w in connections:
                    w.close()

        try:
            asyncio.run(drive())
        finally:
            gate.set()  # never leave pool workers blocked on a failed test

    def test_request_timeout_answers_timeout(self, imdb_db):
        gate = threading.Event()

        def factory(dataset, backend, db_path, shards, config):
            return GatedEngine(QueryEngine(imdb_db), gate)

        async def drive():
            config = TCPServerConfig(request_timeout=0.05, drain_timeout=30)
            async with serving(factory, config, pool_workers=1) as tcp:
                payload = await ask(tcp, protocol.encode_request("london"))
                assert payload["ok"] is False
                assert payload["error"] == protocol.ERR_TIMEOUT
                assert tcp.stats.requests_timed_out == 1
                gate.set()  # the worker finishes and discards off-path

        try:
            asyncio.run(drive())
        finally:
            gate.set()


class TestGracefulDrain:
    def test_drain_completes_inflight_and_refuses_new(self, imdb_db):
        gate = threading.Event()

        def factory(dataset, backend, db_path, shards, config):
            return GatedEngine(QueryEngine(imdb_db), gate)

        async def drive():
            config = TCPServerConfig(drain_timeout=30)
            async with serving(factory, config, pool_workers=2) as tcp:
                host, port = tcp.address
                inflight_reader, inflight_writer = await connect(tcp)
                open_reader, open_writer = await connect(tcp)  # idle but open
                pending = asyncio.ensure_future(
                    roundtrip(
                        inflight_reader,
                        inflight_writer,
                        protocol.encode_request("hanks 2001"),
                    )
                )
                for _ in range(500):
                    if tcp.inflight == 1:
                        break
                    await asyncio.sleep(0.01)
                assert tcp.inflight == 1

                drain = asyncio.ensure_future(tcp.drain())
                while not tcp.draining:
                    await asyncio.sleep(0.01)
                # New connections are refused at the kernel.
                with pytest.raises(OSError):
                    await asyncio.open_connection(host, port)
                # A request on an already-open connection answers the code.
                refused = await roundtrip(
                    open_reader, open_writer, protocol.encode_request("london")
                )
                assert refused["error"] == protocol.ERR_SHUTTING_DOWN
                # The in-flight request completes and answers.
                gate.set()
                answer = await pending
                assert answer["ok"] is True
                assert await drain is True
                open_writer.close()
                inflight_writer.close()

        try:
            asyncio.run(drive())
        finally:
            gate.set()

    def test_drain_timeout_reports_incomplete(self, imdb_db):
        gate = threading.Event()

        def factory(dataset, backend, db_path, shards, config):
            return GatedEngine(QueryEngine(imdb_db), gate)

        async def drive():
            config = TCPServerConfig(drain_timeout=0.1, request_timeout=None)
            with QueryServer(max_workers=1, engine_factory=factory) as pool:
                tcp = TCPQueryServer(pool, config)
                await tcp.start()
                reader, writer = await connect(tcp)
                writer.write(protocol.encode_request("london"))
                await writer.drain()
                for _ in range(500):
                    if tcp.inflight == 1:
                        break
                    await asyncio.sleep(0.01)
                completed = await tcp.drain()  # gate still closed
                assert completed is False
                gate.set()  # release the worker before pool.close()
                writer.close()

        try:
            asyncio.run(drive())
        finally:
            gate.set()


@contextlib.contextmanager
def _stdio_server():
    """``repro serve`` with no socket: our (unbuffered) pipes are its one
    connection."""
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--dataset", "imdb"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    try:
        yield server
    finally:
        server.kill()
        server.communicate()


def _client_ask(host: str, port: int, payload: bytes, timeout: float = 30) -> dict:
    """Synchronous one-shot client for subprocess servers."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(payload)
        buffered = b""
        while not buffered.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            buffered += chunk
    return json.loads(buffered)


class TestServerProcess:
    """The real thing: ``repro serve --tcp`` as a subprocess."""

    def test_sigterm_drains_and_exits_zero(self):
        server = spawn_tcp_server()
        try:
            payload = _client_ask(
                server.host, server.port, protocol.encode_request("london", k=5)
            )
            assert payload["ok"] is True and payload["rows"]
        finally:
            assert server.terminate() == 0

    def test_multi_worker_serves_and_drains(self):
        server = spawn_tcp_server(workers=2)
        try:
            for text in QUERIES[:4]:
                payload = _client_ask(
                    server.host, server.port, protocol.encode_request(text, k=5)
                )
                assert payload["ok"] is True, payload
        finally:
            assert server.terminate() == 0

    def test_sigint_also_drains(self):
        server = spawn_tcp_server()
        try:
            payload = _client_ask(
                server.host, server.port, protocol.encode_request("london")
            )
            assert payload["ok"] is True
        finally:
            server.process.send_signal(signal.SIGINT)
            assert server.process.wait(30) == 0
