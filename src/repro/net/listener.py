"""The asyncio listener over the :class:`repro.server.QueryServer` pool.

:class:`TCPQueryServer` speaks the newline-delimited JSON protocol of
:mod:`repro.net.protocol` behind one admission-control layer, whatever
carries the bytes — TCP connections, the HTTP front end
(:mod:`repro.net.http`) or, with no socket configured, the process's own
stdin/stdout as a single client connection:

* **Connection limit** — at most ``max_connections`` concurrent clients;
  the one over the limit receives a ``too-many-connections`` error line and
  is closed immediately (an explicit answer beats a silent accept-queue
  stall).
* **Bounded in-flight queue with overload rejection** — at most
  ``queue_limit`` requests admitted at once (executing on the engine pool's
  worker threads or queued behind them).  Request ``queue_limit + 1`` gets
  an ``overloaded`` error *now*, instead of joining an unbounded queue and
  timing out later; clients retry with backoff.
* **Per-request timeout** — a request that outlives ``request_timeout``
  answers a ``timeout`` error (its engine work finishes on the worker
  thread and is discarded; thread work cannot be interrupted midway).
* **Graceful drain** — SIGTERM (or :meth:`TCPQueryServer.drain`) closes the
  listening socket so new connections are refused at the kernel, lets every
  admitted request complete and answer, then closes the remaining client
  connections.  Requests arriving on open connections during the drain get
  a ``shutting-down`` error.

Requests on one connection are served sequentially (pipelined lines queue
in the read buffer); concurrency comes from concurrent connections, which
fan out across the engine pool's worker threads via
:class:`repro.server.AsyncQueryFrontend` — the event loop never blocks on
engine work.

:func:`run_tcp_server` is the process entry point behind ``repro serve``.
With ``workers > 1`` it binds the socket once, forks one child
per worker (every child inherits the socket, so the kernel load-balances
accepts across their event loops — the classic pre-fork alternative to
``SO_REUSEPORT``, with the advantage that one ephemeral port is chosen
before the fork), builds each child's engine pool *after* the fork (SQLite
connections must not cross a fork) and forwards SIGTERM/SIGINT to the
children so the whole group drains together.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import socket
import sys
import threading
from dataclasses import dataclass, field
from typing import Awaitable, BinaryIO, Callable, Sequence

from repro.net import protocol
from repro.server import AsyncQueryFrontend, QueryServer


@dataclass(frozen=True)
class TCPServerConfig:
    """Everything one listener needs: address, storage, admission limits."""

    host: str = "127.0.0.1"
    #: 0 = ephemeral (the bound port is printed/queryable); None = no TCP
    #: socket.  With ``http_port`` None too, stdin/stdout is the connection.
    port: int | None = 0
    dataset: str = "imdb"
    backend: str = "memory"
    db_path: str | None = None
    shards: int | None = None
    k: int = 5
    #: Worker threads in the underlying engine pool (per process).
    engine_workers: int = 8
    max_connections: int = 64
    queue_limit: int = 32
    request_timeout: float | None = 30.0
    max_request_bytes: int = protocol.MAX_REQUEST_BYTES
    #: How long a drain waits for in-flight requests before force-closing.
    drain_timeout: float = 10.0
    #: Port of the HTTP/1.1 front end (:mod:`repro.net.http`); None disables
    #: it.  0 picks an ephemeral port, announced as ``http listening on ...``.
    http_port: int | None = None


@dataclass
class ListenerStats:
    """Counters the listener keeps (inspectable by tests, ops and /stats).

    The ``engine_*`` fields aggregate the per-request
    :class:`~repro.core.topk.TopKStatistics` of every served query, so the
    HTTP ``GET /stats`` endpoint can report engine work (statements issued,
    cache hit/miss split) without reaching into per-request contexts.
    """

    connections_accepted: int = 0
    connections_rejected: int = 0
    requests_served: int = 0
    requests_rejected_overload: int = 0
    requests_timed_out: int = 0
    protocol_errors: int = 0
    engine_sql_statements: int = 0
    engine_cache_hits: int = 0
    engine_cache_misses: int = 0
    engine_interpretations_executed: int = 0
    engine_rows_streamed: int = 0
    #: Read-connection-pool activity summed/maxed over served requests
    #: (zero on stores without a pool — memory, or a ``":memory:"`` SQLite).
    engine_read_pool_leases: int = 0
    engine_read_pool_waits: int = 0
    engine_read_pool_peak: int = 0
    #: Engine seconds per pipeline stage (``EngineContext.stage_timings``)
    #: summed over served requests, in pipeline order.
    stage_seconds: dict[str, float] = field(default_factory=dict)


class TCPQueryServer:
    """One asyncio listener over one engine pool.

    The pool (a :class:`~repro.server.QueryServer`) is passed in, not
    owned: callers decide its worker count and lifetime (``repro serve``
    wraps both in one context; tests reuse session-scoped engines
    through an ``engine_factory``).  Only datasets named in ``datasets``
    (default: the config's one) are servable — a request for anything else
    is answered ``unknown-dataset`` *before* it can reach the pool, so an
    arbitrary client line can never trigger a dataset build or leak an
    engine.
    """

    def __init__(
        self,
        server: QueryServer,
        config: TCPServerConfig | None = None,
        *,
        datasets: Sequence[str] | None = None,
    ):
        self.server = server
        self.config = config or TCPServerConfig()
        self.frontend = AsyncQueryFrontend(server)
        self.datasets = tuple(datasets) if datasets else (self.config.dataset,)
        self.stats = ListenerStats()
        self._storage = dict(
            backend=self.config.backend,
            db_path=self.config.db_path,
            shards=self.config.shards,
        )
        self._asyncio_server: asyncio.AbstractServer | None = None
        #: Listening servers of attached front ends (the HTTP transport);
        #: they share this instance's admission state and close on drain.
        self._frontends: list[asyncio.AbstractServer] = []
        self._connections = 0
        #: Requests admitted past the queue limit (engine-occupying work).
        self._inflight = 0
        #: Requests anywhere between parse and the delivered response —
        #: a superset of ``_inflight``; the drain waits on this one so the
        #: force-close can never cut off a computed-but-unwritten answer.
        self._responding = 0
        self._draining = False
        self._writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle -----------------------------------------------------------

    async def start(self, sock: socket.socket | None = None) -> None:
        """Prewarm the servable engines, then start accepting.

        Prewarming off the event loop keeps startup responsive to signals;
        it also makes the first request as fast as every later one and
        pins down ``pooled_engines`` for the engine-leak tests.
        """
        loop = asyncio.get_running_loop()
        for dataset in self.datasets:
            await loop.run_in_executor(
                None,
                lambda dataset=dataset: self.server.engine_for(
                    dataset, **self._storage
                ),
            )
        if sock is not None:
            self._asyncio_server = await asyncio.start_server(
                self._handle_connection, sock=sock
            )
        elif self.config.port is not None:
            self._asyncio_server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port
            )

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves an ephemeral port request)."""
        assert self._asyncio_server is not None, "server not started"
        return self._asyncio_server.sockets[0].getsockname()[:2]

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def draining(self) -> bool:
        return self._draining

    def attach_frontend(self, server: asyncio.AbstractServer) -> None:
        """Register another transport's listening server (e.g. the HTTP
        front end) so a drain closes every listening socket, not just TCP's.

        The front end shares this instance's admission state — connection
        cap, in-flight queue, drain flag, stats — by construction: there is
        exactly one queue/cap layer however many transports sit on it.
        """
        self._frontends.append(server)

    def begin_drain(self) -> None:
        """Stop accepting immediately (new connections are refused at the
        kernel once the listening sockets close); in-flight work continues."""
        self._draining = True
        if self._asyncio_server is not None:
            self._asyncio_server.close()
        for frontend in self._frontends:
            frontend.close()

    async def drain(self) -> bool:
        """Graceful shutdown: refuse new connections, finish in-flight
        requests, then close the remaining client connections.

        Returns True when every in-flight request completed inside
        ``drain_timeout``, False when the timeout force-closed stragglers.
        """
        self.begin_drain()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout
        while self._responding and loop.time() < deadline:
            await asyncio.sleep(0.01)
        completed = self._responding == 0
        for writer in list(self._writers):
            writer.close()
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        # Note: Server.wait_closed() is deliberately avoided — since 3.12 it
        # waits for all client handlers too, which is exactly the ordering
        # this method controls by hand.
        return completed

    # -- the shared admission layer (every transport goes through these) -----

    def admit_connection(self) -> str | None:
        """Admission decision for one new connection, any transport.

        Returns None when the connection is admitted (and counted — pair
        with :meth:`release_connection`), else the protocol error code
        refusing it.
        """
        if self._draining:
            return protocol.ERR_SHUTTING_DOWN
        if self._connections >= self.config.max_connections:
            self.stats.connections_rejected += 1
            return protocol.ERR_TOO_MANY_CONNECTIONS
        self._connections += 1
        self.stats.connections_accepted += 1
        return None

    def release_connection(self) -> None:
        self._connections -= 1

    @contextlib.contextmanager
    def responding(self):
        """Marks one request as parse-to-response-written in flight, so the
        drain cannot cut off an answer a transport is still writing."""
        self._responding += 1
        try:
            yield
        finally:
            self._responding -= 1

    async def serve_request(self, request: protocol.Request) -> dict:
        """One parsed request to one response payload (never raises).

        This is the whole per-request admission pipeline — drain check,
        dataset allow-list, bounded in-flight queue, per-request timeout —
        shared by every transport: the TCP listener encodes the returned
        payload as a wire line, the HTTP front end as a response body with
        the status mapped from the ``error`` code.
        """
        if self._draining:
            return protocol.error_payload(
                protocol.ERR_SHUTTING_DOWN, "server is draining"
            )
        dataset = request.dataset or self.config.dataset
        if dataset not in self.datasets:
            return protocol.error_payload(
                protocol.ERR_UNKNOWN_DATASET,
                f"dataset {dataset!r} is not served here "
                f"(serving: {', '.join(self.datasets)})",
            )
        if self._inflight >= self.config.queue_limit:
            self.stats.requests_rejected_overload += 1
            return protocol.error_payload(
                protocol.ERR_OVERLOADED,
                f"in-flight queue full ({self.config.queue_limit}); retry with backoff",
            )
        k = request.k or self.config.k
        self._inflight += 1
        try:
            pending = self.frontend.query(dataset, request.query, k, **self._storage)
            if self.config.request_timeout is not None:
                response = await asyncio.wait_for(
                    pending, self.config.request_timeout
                )
            else:
                response = await pending
        except asyncio.TimeoutError:
            self.stats.requests_timed_out += 1
            return protocol.error_payload(
                protocol.ERR_TIMEOUT,
                f"request exceeded {self.config.request_timeout} s "
                "(its engine work completes on the worker and is discarded)",
            )
        except Exception as exc:  # noqa: BLE001 - a request must never kill the loop
            return protocol.error_payload(protocol.ERR_INTERNAL, str(exc))
        finally:
            self._inflight -= 1
        self.stats.requests_served += 1
        statistics = response.context.executor_statistics
        self.stats.engine_sql_statements += statistics.sql_statements
        self.stats.engine_cache_hits += statistics.cache_hits
        self.stats.engine_cache_misses += statistics.cache_misses
        self.stats.engine_interpretations_executed += (
            statistics.interpretations_executed
        )
        self.stats.engine_rows_streamed += statistics.rows_streamed
        pool = statistics.read_pool
        if pool:
            self.stats.engine_read_pool_leases += pool.get("leases", 0)
            self.stats.engine_read_pool_waits += pool.get("waits", 0)
            self.stats.engine_read_pool_peak = max(
                self.stats.engine_read_pool_peak, pool.get("peak_concurrency", 0)
            )
        stage_seconds = self.stats.stage_seconds
        for stage, seconds in response.context.stage_timings.items():
            stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
        return protocol.ok_payload(dataset, request.query, k, response)

    # -- connection handling (the line transports: TCP and stdio) ------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        async def write(data: bytes) -> None:
            writer.write(data)
            await writer.drain()

        self._writers.add(writer)
        try:
            await self._serve_lines(lambda: reader.read(8192), write)
        finally:
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def serve_stdio(
        self, stdin: BinaryIO | None = None, stdout: BinaryIO | None = None
    ) -> None:
        """Serve stdin/stdout as one client connection, until EOF on ``stdin``
        or a closed ``stdout``.

        A *daemon* thread does the blocking reads — an executor thread parked
        on an open stdin is joined at exit and would outlive the drain — on
        the bare descriptor (a buffered reader's lock, held across exit,
        aborts the interpreter), one chunk each time the framing loop asks,
        so a flood on stdin is read no faster than it is served.  Writes
        block the loop: with no socket there is nobody else to starve.
        """
        fd = (stdin or sys.stdin).fileno()
        stdout = stdout or sys.stdout.buffer
        loop = asyncio.get_running_loop()
        chunks: asyncio.Queue[bytes] = asyncio.Queue()
        asked = threading.Semaphore(0)

        def pump() -> None:
            with contextlib.suppress(RuntimeError):  # loop closed: nobody to tell
                while asked.acquire():
                    loop.call_soon_threadsafe(chunks.put_nowait, os.read(fd, 8192))

        async def read() -> bytes:
            asked.release()
            return await chunks.get()

        async def write(data: bytes) -> None:
            stdout.write(data)
            stdout.flush()

        threading.Thread(target=pump, name="repro-stdin", daemon=True).start()
        await self._serve_lines(read, write)

    async def _serve_lines(
        self,
        read: Callable[[], Awaitable[bytes]],
        write: Callable[[bytes], Awaitable[None]],
    ) -> None:
        """One connection, admission to close: the framing loop every line
        transport shares (``read`` returns ``b""`` at end of input)."""
        refusal = self.admit_connection()
        if refusal is not None:
            detail = (
                "server is draining"
                if refusal == protocol.ERR_SHUTTING_DOWN
                else f"connection limit ({self.config.max_connections}) reached"
            )
            with contextlib.suppress(ConnectionError):
                await write(protocol.error_response(refusal, detail))
            return
        splitter = protocol.LineSplitter(self.config.max_request_bytes)
        try:
            while True:
                data = await read()
                if not data:
                    break
                for item in splitter.feed(data):
                    if item is not protocol.OVERSIZED and not item.strip():
                        continue
                    with self.responding():
                        if item is protocol.OVERSIZED:
                            self.stats.protocol_errors += 1
                            response = protocol.error_response(
                                protocol.ERR_OVERSIZED,
                                "request line exceeds "
                                f"{self.config.max_request_bytes} bytes",
                            )
                        else:
                            response = await self._serve_line(item)
                        await write(response)
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass  # mid-request client disconnect: this connection only
        finally:
            self.release_connection()

    async def _serve_line(self, line: bytes) -> bytes:
        """One request line to one response line (never raises)."""
        try:
            request = protocol.parse_request(line)
        except protocol.ProtocolError as exc:
            self.stats.protocol_errors += 1
            return protocol.error_response(exc.code, exc.detail)
        return protocol.encode_line(await self.serve_request(request))


# -- process entry point (repro serve) ----------------------------------------


def _bind(host: str, port: int) -> socket.socket:
    """A pre-bound listening socket every worker process will share."""
    sock = socket.create_server((host, port), backlog=128, reuse_port=False)
    sock.setblocking(False)
    return sock


async def _serve_async(
    sock: socket.socket | None,
    config: TCPServerConfig,
    *,
    http_sock: socket.socket | None = None,
    engine_config=None,
    engine_factory=None,
    announce: bool = True,
) -> int:
    """One worker's event loop: pool + transport(s) + signal-driven drain."""
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-main thread / platform without loop signal support
    with QueryServer(
        max_workers=config.engine_workers,
        engine_config=engine_config,
        engine_factory=engine_factory,
    ) as pool:
        tcp = TCPQueryServer(pool, config)
        await tcp.start(sock=sock)
        http_address = ""
        if http_sock is not None:
            from repro.net.http import HTTPQueryServer

            front = HTTPQueryServer(tcp)
            await front.start(sock=http_sock)
            http_address = " http={}:{}".format(*front.address)
        stdio = None
        if sock is None and http_sock is None:
            stdio = asyncio.ensure_future(tcp.serve_stdio())
            stdio.add_done_callback(lambda _task: stop.set())  # EOF drains too
        if announce and sock is not None:
            host, port = tcp.address
            print(
                f"serving dataset={config.dataset} backend={config.backend} "
                f"tcp={host}:{port}{http_address} "
                f"queue-limit={config.queue_limit} "
                f"max-connections={config.max_connections}",
                flush=True,
            )
        await stop.wait()
        completed = await tcp.drain()
        if stdio is not None and not stdio.cancel():
            stdio.result()  # it ended on its own: re-raise what it died of, if any
    return 0 if completed else 1


def _run_worker(
    sock: socket.socket | None,
    config: TCPServerConfig,
    *,
    http_sock: socket.socket | None = None,
    engine_config=None,
    engine_factory=None,
    announce: bool = True,
) -> int:
    return asyncio.run(
        _serve_async(
            sock,
            config,
            http_sock=http_sock,
            engine_config=engine_config,
            engine_factory=engine_factory,
            announce=announce,
        )
    )


def run_tcp_server(
    config: TCPServerConfig,
    *,
    workers: int = 1,
    engine_config=None,
    engine_factory=None,
) -> int:
    """Bind, announce, serve until SIGTERM/SIGINT, drain, exit.

    Prints ``listening on <host>:<port>`` first (port 0 resolves to the
    kernel's pick): the readiness line operators read and the tests'
    spawn helper parses before it connects; with ``config.http_port`` set, an
    ``http listening on <host>:<port>`` line follows for the HTTP front
    end's socket.  With neither port set nothing is bound or printed: the
    process's stdin/stdout is the one connection, and EOF on stdin drains
    like a signal does.  With ``workers > 1`` the sockets are bound once and
    one child per worker is forked to serve on them; engine pools are built
    after the fork (each child prewarms its own), and the parent forwards
    termination signals and reaps the group.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    if workers > 1 and config.port is None and config.http_port is None:
        raise ValueError("stdin is one connection; several workers need a socket")
    sock: socket.socket | None = None
    if config.port is not None:
        sock = _bind(config.host, config.port)
        host, port = sock.getsockname()[:2]
        print(f"listening on {host}:{port}", flush=True)
    http_sock: socket.socket | None = None
    if config.http_port is not None:
        http_sock = _bind(config.host, config.http_port)
        http_host, http_port = http_sock.getsockname()[:2]
        print(f"http listening on {http_host}:{http_port}", flush=True)
    sockets = [s for s in (sock, http_sock) if s is not None]
    if workers == 1 or not hasattr(os, "fork"):
        if workers > 1:  # pragma: no cover - no-fork platforms only
            print("fork unavailable; serving with 1 worker", flush=True)
        try:
            return _run_worker(
                sock,
                config,
                http_sock=http_sock,
                engine_config=engine_config,
                engine_factory=engine_factory,
            )
        finally:
            for bound in sockets:
                bound.close()

    pids: list[int] = []
    for index in range(workers):
        pid = os.fork()
        if pid == 0:  # child: serve on the inherited sockets, then hard-exit
            status = 1
            try:
                status = _run_worker(
                    sock,
                    config,
                    http_sock=http_sock,
                    engine_config=engine_config,
                    engine_factory=engine_factory,
                    announce=(index == 0),
                )
            finally:
                os._exit(status)
        pids.append(pid)
    for bound in sockets:
        bound.close()

    def forward(signum: int, _frame) -> None:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signum)

    previous = {
        signum: signal.signal(signum, forward)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        status = 0
        for pid in pids:
            _pid, raw = os.waitpid(pid, 0)
            if os.WIFEXITED(raw):
                status = max(status, os.WEXITSTATUS(raw))
            else:  # killed by an unforwarded signal
                status = max(status, 1)
        return status
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
