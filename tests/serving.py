"""Helpers shared by the serving tests.

:func:`serve_process` starts ``repro serve`` as a child running the code
under test; :func:`spawn_tcp_server` starts ``repro serve --tcp --port 0`` as a child
process and parses the readiness line(s) it prints; :class:`SpawnedServer`
holds the child and its bound address(es) and stops it with SIGTERM, the
graceful drain an operator would use.  :class:`GatedEngine` holds requests
until a test opens its gate, and :func:`expected_wire_rows` is the oracle:
the rows of sequential in-process execution, in their wire form.
"""

from __future__ import annotations

import contextlib
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import repro
from repro.engine import QueryEngine


def expected_wire_rows(engine: QueryEngine, text: str, k: int = 5):
    """The JSON form of sequential execution's result rows."""
    results = engine.run(text, k=k).results
    return [[[table, key] for table, key in result.row_uids()] for result in results]


class GatedEngine:
    """An engine whose ``run`` blocks until the test opens the gate."""

    def __init__(self, engine, gate: threading.Event):
        self._engine = engine
        self._gate = gate

    def run(self, *args, **kwargs):
        assert self._gate.wait(30), "gate never opened"
        return self._engine.run(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._engine, name)


@dataclass
class SpawnedServer:
    """A ``repro serve --tcp`` child process and its parsed address(es)."""

    process: subprocess.Popen
    host: str
    port: int
    #: Bound port of the HTTP front end (spawned with ``http=True`` only).
    http_port: int | None = None

    @property
    def pid(self) -> int:
        return self.process.pid

    def terminate(self, timeout: float = 15.0) -> int:
        """SIGTERM (graceful drain) and reap; SIGKILL only past ``timeout``."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:  # pragma: no cover - hang guard
                self.process.kill()
                self.process.wait()
        return self.process.returncode


def serve_process(args: list[str], **popen_kwargs) -> subprocess.Popen:
    """``repro serve`` with ``args`` as a child process.

    The child runs with this interpreter and the imported ``repro`` package
    on ``PYTHONPATH``, so the spawned server always matches the code under
    test.
    """
    package_root = str(Path(repro.__file__).resolve().parents[1])  # .../src
    env = dict(os.environ)
    env["PYTHONPATH"] = package_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    argv = [sys.executable, "-m", "repro.cli", "serve", *args]
    return subprocess.Popen(argv, env=env, **popen_kwargs)


def storage_args(
    dataset: str = "imdb",
    backend: str = "memory",
    db_path: str | None = None,
    shards: int | None = None,
) -> list[str]:
    """The ``serve`` flags naming a dataset and its store."""
    args = ["--dataset", dataset, "--backend", backend]
    if db_path is not None:
        args += ["--db-path", str(db_path)]
    if shards is not None:
        args += ["--shards", str(shards)]
    return args


_LISTENING_RE = re.compile(r"listening on ([^\s:]+):(\d+)")
#: The HTTP front end's readiness line.  Checked *before* the TCP pattern on
#: every line — ``_LISTENING_RE`` substring-matches this line too.
_HTTP_LISTENING_RE = re.compile(r"http listening on ([^\s:]+):(\d+)")


def spawn_tcp_server(
    *,
    dataset: str = "imdb",
    backend: str = "memory",
    db_path: str | None = None,
    shards: int | None = None,
    workers: int = 1,
    http: bool = False,
    extra_args: list[str] | None = None,
    startup_timeout: float = 60.0,
) -> SpawnedServer:
    """Launch ``repro serve --tcp --port 0`` as a child and parse its address.

    Blocks until the readiness line appears (the socket is bound before the
    line prints, so a connect after this returns succeeds); with
    ``http=True`` the child also serves the HTTP front end on an ephemeral
    port, and this blocks for *both* readiness lines.
    """
    args = ["--tcp", "--host", "127.0.0.1", "--port", "0"]
    args += storage_args(dataset, backend, db_path, shards)
    args += ["--tcp-workers", str(workers)]
    if http:
        args += ["--http", "--http-port", "0"]
    args += extra_args or []
    process = serve_process(
        args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    deadline = time.monotonic() + startup_timeout
    assert process.stdout is not None
    address: tuple[str, int] | None = None
    http_port: int | None = None
    while True:
        line = process.stdout.readline()
        if line:
            http_match = _HTTP_LISTENING_RE.search(line)
            if http_match:
                http_port = int(http_match.group(2))
            else:
                match = _LISTENING_RE.search(line)
                if match:
                    address = (match.group(1), int(match.group(2)))
            if address is not None and (not http or http_port is not None):
                return SpawnedServer(
                    process=process,
                    host=address[0],
                    port=address[1],
                    http_port=http_port,
                )
        if process.poll() is not None or time.monotonic() > deadline:
            with contextlib.suppress(Exception):
                process.kill()
            raise RuntimeError(
                f"spawned server did not become ready: {' '.join(process.args)}"
            )
