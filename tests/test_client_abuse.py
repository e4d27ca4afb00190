"""Abusive clients get defined outcomes, on the TCP, HTTP and stdio transports.

The faults: a client that disconnects after a full request but before its
answer is written, one that disconnects mid-request, a slow-loris holding a
partial request open, a half-close (``SHUT_WR``) after a full request, and
a reset (``SO_LINGER`` 0) while its request is queued behind a busy worker.
A gated engine orders the fault against the answer where that matters.

After each fault the admission books balance — ``inflight``, the
responding counter and the connection count return to 0 — every connection
slot is free again (as many fresh clients as ``max_connections`` allows are
admitted at once and answered the rows of sequential execution), ``drain()``
returns True, and no exception reaches the event loop.  A slow-loris is
held, not timed out: it keeps its slot while other clients are served, and
the drain closes it.

The stdio transport is driven over a socketpair end standing in for the
server process's stdin and stdout, closed when the transport returns (as
the process's pipes are when it exits).  Its drain is ``repro serve``'s:
the listener drains, then the stdio connection is cancelled, or, if it has
ended, what it ended with is raised.  A socketpair
has no RST, so its reset case is a plain close: the answer's write meets
a broken pipe.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import struct
import threading

import pytest

from repro.engine import EngineConfig, QueryEngine, ResultCache
from repro.net import protocol
from repro.net.http import HTTPQueryServer, encode_query_request
from repro.net.listener import TCPQueryServer, TCPServerConfig
from repro.server import QueryServer
from tests.serving import GatedEngine, expected_wire_rows
from tests.test_http_server import read_response

TEXT = "london"


@pytest.fixture(autouse=True)
def fresh_process_cache():
    ResultCache.clear_process_cache()
    yield
    ResultCache.clear_process_cache()


@pytest.fixture(scope="module")
def expected_rows(imdb_db):
    engine = QueryEngine(imdb_db, config=EngineConfig(cache_results=False))
    return expected_wire_rows(engine, TEXT)


async def serve_stdio(tcp, theirs: socket.socket) -> None:
    """The stdio transport with ``theirs`` as stdin and stdout."""
    stdin, stdout = theirs.makefile("rb"), theirs.makefile("wb")
    try:
        await tcp.serve_stdio(stdin, stdout)
    finally:
        # Shut down before closing: it wakes a reader thread parked in
        # ``os.read`` on the descriptor, which must not outlive its number.
        with contextlib.suppress(OSError):
            theirs.shutdown(socket.SHUT_RDWR)
        stdin.close()
        with contextlib.suppress(OSError):  # unflushed bytes, peer gone
            stdout.close()
        theirs.close()


class Wire:
    """One transport's request encoding, answer framing, connection and
    drain."""

    def __init__(self, name: str):
        self.name = name
        #: stdio: one ``serve_stdio`` task per connection made.
        self.stdio_tasks: list[asyncio.Task] = []

    def request(self, text: str = TEXT) -> bytes:
        if self.name == "http":
            return encode_query_request(text, k=5)
        return protocol.encode_request(text, k=5)

    def partial(self) -> bytes:
        """A request cut short: no line end, or a body short of its length."""
        return self.request()[:-4]

    async def answer(self, reader: asyncio.StreamReader) -> dict:
        if self.name != "http":
            line = await asyncio.wait_for(reader.readline(), 30)
            assert line.endswith(b"\n"), f"closed mid-response: {line!r}"
            return json.loads(line)
        _status, _headers, payload = await read_response(reader)
        return payload

    async def connect(self, tcp, front):
        if self.name == "stdio":
            ours, theirs = socket.socketpair()
            self.stdio_tasks.append(asyncio.ensure_future(serve_stdio(tcp, theirs)))
            return await asyncio.open_connection(sock=ours)
        host, port = (front if self.name == "http" else tcp).address
        return await asyncio.open_connection(host, port)

    async def drain(self, tcp) -> bool:
        """The listener's drain; for stdio, then what ``repro serve`` does
        with its stdio connection: cancel it, or re-raise what it died of."""
        completed = await tcp.drain()
        tasks, self.stdio_tasks = self.stdio_tasks, []
        for task in tasks:
            if not task.cancel():
                task.result()  # ended on its own: a fault must not escape
        await asyncio.gather(*tasks, return_exceptions=True)
        return completed


@pytest.fixture(params=["tcp", "http", "stdio"])
def wire(request):
    return Wire(request.param)


@contextlib.asynccontextmanager
async def serving(
    imdb_db, wire: Wire, gate: threading.Event, max_connections: int = 1
):
    """One worker thread behind ``gate``, every transport, loop errors kept."""
    loop = asyncio.get_running_loop()
    loop_errors: list[dict] = []
    loop.set_exception_handler(lambda _loop, context: loop_errors.append(context))

    def factory(dataset, backend, db_path, shards, config):
        return GatedEngine(QueryEngine(imdb_db), gate)

    config = TCPServerConfig(max_connections=max_connections, drain_timeout=30)
    with QueryServer(max_workers=1, engine_factory=factory) as pool:
        tcp = TCPQueryServer(pool, config)
        await tcp.start()
        front = HTTPQueryServer(tcp)
        await front.start()
        try:
            yield tcp, front
        finally:
            gate.set()  # never leave the worker blocked on a failed test
            await wire.drain(tcp)
    assert loop_errors == []


async def until(condition, what: str) -> None:
    for _ in range(1000):
        if condition():
            return
        await asyncio.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


async def books_balance(tcp) -> None:
    """Nothing admitted, nothing being answered, no connection held."""
    await until(
        lambda: (tcp.inflight, tcp._responding, tcp._connections) == (0, 0, 0),
        "inflight, responding and connections to return to 0 "
        f"(now {tcp.inflight}, {tcp._responding}, {tcp._connections})",
    )


async def close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    with contextlib.suppress(Exception):
        await writer.wait_closed()


async def recovers(tcp, front, wire: Wire, expected_rows) -> None:
    """Books balance, every slot admits a client that gets the right rows,
    and the drain completes."""
    await books_balance(tcp)
    clients = [
        await wire.connect(tcp, front) for _ in range(tcp.config.max_connections)
    ]
    for reader, writer in clients:
        writer.write(wire.request())
    for reader, writer in clients:
        payload = await wire.answer(reader)
        assert payload["ok"] is True, payload
        assert payload["rows"] == expected_rows
        await close(writer)
    assert tcp.stats.connections_rejected == 0
    await books_balance(tcp)
    assert await wire.drain(tcp) is True


def test_disconnect_before_the_answer_is_written(imdb_db, wire, expected_rows):
    gate = threading.Event()

    async def drive():
        async with serving(imdb_db, wire, gate) as (tcp, front):
            reader, writer = await wire.connect(tcp, front)
            writer.write(wire.request())
            await until(lambda: tcp.inflight == 1, "the request to be admitted")
            await close(writer)
            await asyncio.sleep(0.05)  # the server sees the close first
            gate.set()
            await recovers(tcp, front, wire, expected_rows)
            assert tcp.stats.requests_served == 1 + 1

    asyncio.run(drive())


def test_disconnect_mid_request(imdb_db, wire, expected_rows):
    gate = threading.Event()
    gate.set()

    async def drive():
        async with serving(imdb_db, wire, gate) as (tcp, front):
            reader, writer = await wire.connect(tcp, front)
            writer.write(wire.partial())
            await writer.drain()
            await until(lambda: tcp._connections == 1, "the connection")
            await asyncio.sleep(0.05)  # the partial request is read
            await close(writer)
            await recovers(tcp, front, wire, expected_rows)
            assert tcp.stats.requests_served == 1  # the recovery client only
            assert tcp.stats.protocol_errors == 0

    asyncio.run(drive())


def test_slow_loris_is_held_until_drain_while_others_are_served(
    imdb_db, wire, expected_rows
):
    gate = threading.Event()
    gate.set()

    async def drive():
        async with serving(imdb_db, wire, gate, max_connections=2) as (tcp, front):
            loris_reader, loris_writer = await wire.connect(tcp, front)
            loris_writer.write(wire.partial())
            await loris_writer.drain()
            await until(lambda: tcp._connections == 1, "the slow client")
            reader, writer = await wire.connect(tcp, front)
            writer.write(wire.request())
            payload = await wire.answer(reader)
            assert payload["ok"] is True and payload["rows"] == expected_rows
            await close(writer)
            await until(lambda: tcp._connections == 1, "the served client to go")
            assert (tcp.inflight, tcp._responding) == (0, 0)
            # The partial request answers nothing, and the drain is not
            # held up by it: the server closes the connection under it.
            assert await wire.drain(tcp) is True
            assert await asyncio.wait_for(loris_reader.read(), 30) == b""
            await books_balance(tcp)
            assert tcp.stats.requests_served == 1
            await close(loris_writer)

    asyncio.run(drive())


def test_half_close_after_a_full_request_still_gets_its_answer(
    imdb_db, wire, expected_rows
):
    gate = threading.Event()

    async def drive():
        async with serving(imdb_db, wire, gate) as (tcp, front):
            reader, writer = await wire.connect(tcp, front)
            writer.write(wire.request())
            writer.write_eof()  # shutdown(SHUT_WR): nothing more will come
            await until(lambda: tcp.inflight == 1, "the request to be admitted")
            await asyncio.sleep(0.05)  # the end of input reaches the server
            gate.set()
            payload = await wire.answer(reader)
            assert payload["ok"] is True and payload["rows"] == expected_rows
            assert await asyncio.wait_for(reader.read(), 30) == b""
            await close(writer)
            await recovers(tcp, front, wire, expected_rows)

    asyncio.run(drive())


def test_reset_while_queued_behind_a_busy_worker(imdb_db, wire, expected_rows):
    gate = threading.Event()

    async def drive():
        async with serving(imdb_db, wire, gate, max_connections=2) as (tcp, front):
            running_reader, running_writer = await wire.connect(tcp, front)
            running_writer.write(wire.request())
            await until(lambda: tcp.inflight == 1, "the first request")
            queued_reader, queued_writer = await wire.connect(tcp, front)
            queued_writer.write(wire.request())
            await until(lambda: tcp.inflight == 2, "the queued request")
            raw = queued_writer.get_extra_info("socket")
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            queued_writer.close()  # linger 0: the close sends RST (not on stdio)
            await asyncio.sleep(0.05)
            gate.set()
            payload = await wire.answer(running_reader)
            assert payload["ok"] is True and payload["rows"] == expected_rows
            await close(running_writer)
            await recovers(tcp, front, wire, expected_rows)

    asyncio.run(drive())
