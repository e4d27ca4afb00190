"""The untraced load run: set-up timing, the closed-loop client, teardown.

One run spawns the program under test ``setup_repeats`` times to time its
set-up (the last instance is the one measured), drives it from a
single-process asyncio client for a fixed number of seconds, reads the
server's CPU time and peak memory from ``/proc`` and stops it with SIGTERM.
The client is closed-loop because callers of this system wait for their
reply: each connection sends its next request when the previous answer
lands.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from procstat import read_cpu_seconds, read_vm_hwm_mb
from workloads import K, Workload, imdb_sizes

HERE = Path(__file__).resolve().parent
READY_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 60.0
#: The listener's own drain timeout is 10 s; past this the child is killed
#: and the run is invalid.
STOP_TIMEOUT_S = 20.0


#: The program under test and the speed probe share this CPU.
MEASURED_CPU = max(os.sched_getaffinity(0))


class GuardError(Exception):
    """The run is not a valid measurement; nothing may be reported."""


class SpeedProbe:
    """How much slower than a reference machine this one is running, over time.

    The sandbox's effective CPU speed drifts by up to 50 % for a minute or two
    at a time (no steal time is reported; identical single-threaded work takes
    9.2 to 14.7 ms of CPU per query).  A third process times a fixed
    pure-Python loop ten times a second, about 4 % of one core; the loop's
    CPU time over a stretch of the run, divided by ``REFERENCE_S``, is that
    stretch's slowdown, and every reported duration is divided by it.
    Durations are therefore in the milliseconds of a machine on which the loop
    takes ``REFERENCE_S``, which this sandbox is when it is quiet.
    """

    REFERENCE_S = 0.004

    def __init__(self, work_dir: Path):
        self._path = work_dir / "probe.log"
        job = json.dumps({"path": str(self._path), "cpu": MEASURED_CPU})
        self._process = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "probe", job]
        )

    def slowdown(self, start: float, end: float) -> float:
        """Median loop time between two ``time.monotonic()`` instants ÷ reference.

        A stretch too short to hold a sample takes the whole run's median.
        """
        samples = [
            tuple(map(float, line.split()))
            for line in self._path.read_text(encoding="ascii").splitlines()
            if line.count(" ") == 1
        ]
        inside = [cpu for at, cpu in samples if start <= at <= end]
        chosen = inside or [cpu for _at, cpu in samples]
        if not chosen:
            raise GuardError("the speed probe recorded nothing")
        return statistics.median(chosen) / self.REFERENCE_S

    def stop(self) -> None:
        self._process.kill()
        self._process.wait()


# -- wire format ----------------------------------------------------------------
#
# The harness encodes its own request bytes instead of importing the program's
# client-side encoders, so a change to those cannot change what is sent.


def encode_request(transport: str, query: str, k: int = K) -> bytes:
    body = json.dumps({"query": query, "dataset": "imdb", "k": k}).encode("utf-8")
    if transport == "tcp":
        return body + b"\n"
    return (
        b"POST /query HTTP/1.1\r\nHost: localhost\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body)
    ) + body


async def read_response(transport: str, reader: asyncio.StreamReader) -> dict:
    if transport == "tcp":
        line = await reader.readline()
        if not line:
            raise ConnectionResetError("connection closed mid-response")
        return json.loads(line)
    head = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for header in head.split(b"\r\n")[1:]:
        name, _colon, value = header.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return json.loads(await reader.readexactly(length))


# -- the child process ----------------------------------------------------------


def child_spec(workload: Workload, store_dir: Path) -> dict:
    """What ``child.py`` needs to build this workload's program."""
    persistent = workload.backend != "memory"
    return {
        "backend": workload.backend,
        "shards": workload.shards,
        "db_path": str(store_dir / "store.sqlite") if persistent else None,
        "sizes": imdb_sizes(workload.scale),
        "cache_results": workload.cache_results,
        "cache_size": workload.cache_size,
        "reopen": workload.reopen_and_prewarm,
        "k": K,
        "cpu": MEASURED_CPU,
    }


class Child:
    """One spawned ``child.py`` process and its store directory."""

    def __init__(self, mode: str, spec: dict, store_dir: Path):
        self.store_dir = store_dir
        self.spawned_at = time.monotonic()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, json.dumps(spec)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        self._seen = b""

    def wait_for(self, marker: bytes, timeout: float = READY_TIMEOUT_S) -> str:
        """Block until a stdout line starts with ``marker``; the text so far."""
        deadline = time.monotonic() + timeout
        fd = self.process.stdout.fileno()
        while not any(line.startswith(marker) for line in self._seen.split(b"\n")[:-1]):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise GuardError(f"child printed no {marker!r} line in {timeout} s")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise GuardError(
                    f"child exited ({self.process.wait()}) before {marker!r}"
                )
            self._seen += chunk
        return self._seen.decode("utf-8", "replace")

    def stop(self, terminate: bool = True) -> None:
        """End the child and require a clean exit.

        A server gets SIGTERM and must drain; the library child (``terminate``
        off) ends when its stdin closes.
        """
        if terminate and self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        self.process.stdin.close()
        try:
            code = self.process.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise GuardError("child did not stop when asked to") from None
        finally:
            self.discard()
        if code != 0:
            raise GuardError(f"child exited with code {code} when asked to stop")

    def discard(self) -> None:
        """Unconditional cleanup: the process ends and its store is removed."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()
        with contextlib.suppress(OSError):
            self.process.stdin.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def _port(ready_text: str, prefix: str) -> int:
    for line in ready_text.splitlines():
        if line.startswith(prefix):
            return int(line.rsplit(":", 1)[1])
    raise GuardError(f"no {prefix!r} line in the child's output")


# -- the client -----------------------------------------------------------------


@dataclass
class Sample:
    query: str
    #: None, like the payload, when the request failed at the transport.
    latency_ms: float | None
    payload: dict | None
    #: Seconds from the start of the phase to the answer.
    completed_s: float = 0.0


async def _drive(
    port: int,
    transport: str,
    requests: Iterator[str],
    connections: int,
    seconds: float | None,
    server_pid: int | None = None,
    blocks: int = 1,
) -> tuple[list[Sample], float, float, list[tuple[float, float]]]:
    """Closed loop over ``connections`` persistent connections; returns
    ``(samples, phase start, phase seconds, CPU marks)``.

    Requests leave in sequence order; the phase ends when the time is up or
    the sequence is exhausted, and lasts until the last answer has landed.
    With ``server_pid``, the server's cumulative CPU seconds are read at the
    boundaries of ``blocks`` equal stretches of ``seconds`` and when the last
    answer has landed: ``(seconds into the phase, CPU seconds)`` marks.
    """
    samples: list[Sample] = []
    marks: list[tuple[float, float]] = []
    # time.monotonic() and time.perf_counter() are one clock on Linux, shared
    # by all processes: the speed probe's samples line up with these instants.
    started = time.monotonic()
    deadline = None if seconds is None else started + seconds

    def mark() -> None:
        marks.append((time.monotonic() - started, read_cpu_seconds(server_pid)))

    async def marker() -> None:
        for block in range(blocks):
            await asyncio.sleep(started + block * seconds / blocks - time.monotonic())
            mark()

    async def connection() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            while deadline is None or time.monotonic() < deadline:
                query = next(requests, None)
                if query is None:
                    break
                sent = time.monotonic()
                try:
                    writer.write(encode_request(transport, query))
                    await writer.drain()
                    payload = await asyncio.wait_for(
                        read_response(transport, reader), REQUEST_TIMEOUT_S
                    )
                except (OSError, EOFError, ValueError, asyncio.TimeoutError) as exc:
                    # The stream may be out of step: this connection is done.
                    print(f"transport error on {query!r}: {exc!r}", file=sys.stderr)
                    samples.append(Sample(query, None, None))
                    break
                done = time.monotonic()
                samples.append(
                    Sample(query, (done - sent) * 1000.0, payload, done - started)
                )
        finally:
            writer.close()
            with contextlib.suppress(OSError):
                await writer.wait_closed()

    marking = asyncio.ensure_future(marker()) if server_pid is not None else None
    try:
        await asyncio.gather(*(connection() for _ in range(connections)))
    finally:
        if marking is not None:
            marking.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await marking
    if server_pid is not None:
        mark()
    return samples, started, time.monotonic() - started, marks


def _server_stats(http_port: int) -> dict:
    """The live server's own counters (``GET /stats``)."""
    connection = http.client.HTTPConnection("127.0.0.1", http_port, timeout=30)
    try:
        connection.request("GET", "/stats")
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


# -- one run --------------------------------------------------------------------


@dataclass
class LoadRun:
    samples: list[Sample]
    #: ``time.monotonic()`` at the start of the measured phase.
    started_at: float
    measured_s: float
    #: ``(spawned, ready)`` instants of each timed set-up.
    setups: list[tuple[float, float]]
    prewarm_s: float
    #: ``(seconds into the phase, cumulative server CPU seconds)``: one mark
    #: per block boundary and one when the last answer landed.
    cpu_marks: list[tuple[float, float]]
    peak_rss_mb: float
    client_cpu_s: float
    #: Deltas of the server's ``/stats`` engine and listener counters over the
    #: measured phase (empty for the library workload).
    engine_counters: dict = field(default_factory=dict)
    listener_counters: dict = field(default_factory=dict)


def _set_up_server(workload: Workload, pool: list[str], work_dir: Path):
    """Spawn to ready-to-serve: ``(child, ports, (spawned, ready), prewarm s)``."""
    store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=work_dir))
    child = Child("serve", child_spec(workload, store_dir), store_dir)
    try:
        ready = child.wait_for(b"serving ")
        ports = (_port(ready, "listening on"), _port(ready, "http listening on"))
        prewarm_s = 0.0
        if workload.reopen_and_prewarm:
            port = ports[1] if workload.transport == "http" else ports[0]
            warmed, _started, prewarm_s, _marks = asyncio.run(
                _drive(port, workload.transport, iter(pool), workload.connections, None)
            )
            if not all(s.payload and s.payload.get("ok") for s in warmed):
                raise GuardError("the pre-warm pass had a failed request")
        return child, ports, (child.spawned_at, time.monotonic()), prewarm_s
    except BaseException:
        child.discard()
        raise


def run_server_load(
    workload: Workload,
    pool: list[str],
    requests: Iterator[str],
    seconds: float,
    work_dir: Path,
) -> LoadRun:
    setups: list[tuple[float, float]] = []
    for _repeat in range(workload.setup_repeats - 1):
        child, _ports, setup, _prewarm = _set_up_server(workload, pool, work_dir)
        setups.append(setup)
        child.stop()
    child, (tcp_port, http_port), setup, prewarm_s = _set_up_server(
        workload, pool, work_dir
    )
    setups.append(setup)
    try:
        port = http_port if workload.transport == "http" else tcp_port
        before = _server_stats(http_port)
        client_cpu = time.process_time()
        samples, started_at, measured_s, cpu_marks = asyncio.run(
            _drive(
                port, workload.transport, requests, workload.connections, seconds,
                server_pid=child.process.pid, blocks=workload.blocks,
            )
        )
        client_cpu = time.process_time() - client_cpu
        after = _server_stats(http_port)
        peak_rss_mb = read_vm_hwm_mb(child.process.pid)
    except BaseException:
        child.discard()
        raise
    child.stop()
    return LoadRun(
        samples=samples,
        started_at=started_at,
        measured_s=measured_s,
        setups=setups,
        prewarm_s=prewarm_s,
        cpu_marks=cpu_marks,
        peak_rss_mb=peak_rss_mb,
        client_cpu_s=client_cpu,
        engine_counters={
            key: after["engine"][key] - before["engine"][key] for key in after["engine"]
        },
        listener_counters={
            key: after["listener"][key] - before["listener"][key]
            for key in after["listener"]
        },
    )


def run_lib_load(
    workload: Workload, pool: list[str], seconds: float, work_dir: Path
) -> LoadRun:
    """The library workload: the child times its own ``QueryEngine.run`` calls."""
    spec = child_spec(workload, work_dir)
    setups: list[tuple[float, float]] = []
    for repeat in range(workload.setup_repeats):
        store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=work_dir))
        child = Child("lib", spec, store_dir)
        try:
            child.wait_for(b"ready")
            setups.append((child.spawned_at, time.monotonic()))
            if repeat < workload.setup_repeats - 1:
                child.stop(terminate=False)
                continue
            client_cpu = time.process_time()
            job = json.dumps({"queries": pool, "seconds": seconds}).encode() + b"\n"
            output, _ = child.process.communicate(job, timeout=seconds + READY_TIMEOUT_S)
            client_cpu = time.process_time() - client_cpu
        finally:
            child.discard()
    if child.process.returncode != 0:
        raise GuardError(f"library child exited with code {child.process.returncode}")
    result = json.loads(output)
    cpu_marks = [tuple(mark) for mark in result["cpu_marks"]]
    samples = [
        Sample(
            pool[index % len(pool)],
            latency_ms,
            {"ok": True, "rows": result["rows"][index], "scores": result["scores"][index]},
            completed_s=cpu_marks[index + 1][0],
        )
        for index, latency_ms in enumerate(result["latencies_ms"])
    ]
    return LoadRun(
        samples=samples,
        started_at=result["started_at"],
        measured_s=result["measured_s"],
        setups=setups,
        prewarm_s=0.0,
        cpu_marks=cpu_marks,
        peak_rss_mb=result["peak_rss_mb"],
        client_cpu_s=client_cpu,
    )
