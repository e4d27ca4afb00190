"""Spawned servers under concurrent clients, in every deployment shape.

One case per transport {TCP, HTTP, both at once} x store {memory, a sqlite
file with a pool of 8 readers, a 3-shard sqlite-sharded file} x serving
processes {1, 2}.  Each case spawns ``repro serve`` on a copy of a store
built once per session, runs 8 concurrent keep-alive clients of 15 workload
queries each over raw sockets (with both transports, alternate clients use
TCP and HTTP), and requires every answer to be ``ok`` with the rows of
sequential in-process execution.  SIGTERM must then drain the server
(every forked worker included) to exit status 0.

Served over stdio, one process per store answers the same queries written
to its stdin at once, in order, and exits 0 at end of input.
"""

from __future__ import annotations

import json
import shutil
import socket
import subprocess
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.datasets.workload import workload_texts
from repro.engine import EngineConfig, QueryEngine
from repro.net import protocol
from repro.net.http import encode_query_request
from tests.serving import (
    expected_wire_rows,
    serve_process,
    spawn_tcp_server,
    storage_args,
)

CLIENTS = 8
QUERIES = 15
STORE = "store.sqlite"

#: Store name -> (``serve`` storage flags, extra ``serve`` flags).
STORES = {
    "memory": ({"backend": "memory"}, []),
    "sqlite": ({"backend": "sqlite"}, ["--read-pool-size", "8"]),
    "sharded": ({"backend": "sqlite-sharded", "shards": 3}, []),
}


@pytest.fixture(scope="module")
def texts(imdb_db):
    return workload_texts(imdb_db, "imdb", n_queries=QUERIES)


@pytest.fixture(scope="module")
def expected(imdb_db, texts):
    """Wire rows of sequential in-process execution, per text."""
    engine = QueryEngine(imdb_db, config=EngineConfig(cache_results=False))
    return {text: expected_wire_rows(engine, text) for text in texts}


@pytest.fixture(scope="session")
def built_stores(tmp_path_factory):
    """Store name -> directory holding that store's files, built on first use."""
    built = {}

    def directory(name):
        if name not in built:
            storage, _extra = STORES[name]
            folder = tmp_path_factory.mktemp(f"store-{name}")
            engine = QueryEngine.for_dataset(
                "imdb", db_path=str(folder / STORE), **storage
            )
            engine.backend.close()
            built[name] = folder
        return built[name]

    return directory


def _store_copy(store: str, built_stores, tmp_path) -> str | None:
    """A private copy of the store's files; None for the memory store."""
    if store == "memory":
        return None
    for path in built_stores(store).glob(f"{STORE}*"):
        shutil.copy(path, tmp_path / path.name)
    return str(tmp_path / STORE)


def _read_http_payload(stream) -> dict:
    status = int(stream.readline().split()[1])
    length = 0
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _separator, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    payload = json.loads(stream.read(length))
    assert status == 200, payload
    return payload


def _client(host: str, port: int, transport: str, texts: list[str]) -> list[dict]:
    """One keep-alive connection asking every text in turn."""
    answers = []
    with socket.create_connection((host, port), timeout=60) as sock:
        with sock.makefile("rb") as stream:
            for text in texts:
                if transport == "http":
                    sock.sendall(encode_query_request(text, dataset="imdb", k=5))
                    answers.append(_read_http_payload(stream))
                else:
                    sock.sendall(protocol.encode_request(text, dataset="imdb", k=5))
                    answers.append(json.loads(stream.readline()))
    return answers


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("transport", ["tcp", "http", "both"])
def test_concurrent_clients_match_sequential_rows(
    transport, store, workers, texts, expected, built_stores, tmp_path
):
    storage, extra_args = STORES[store]
    server = spawn_tcp_server(
        db_path=_store_copy(store, built_stores, tmp_path),
        workers=workers,
        http=transport != "tcp",
        extra_args=extra_args,
        **storage,
    )
    if transport == "both":
        transports = ["tcp", "http"] * (CLIENTS // 2)
    else:
        transports = [transport] * CLIENTS
    ports = {"tcp": server.port, "http": server.http_port}
    try:
        plans = [texts[index:] + texts[:index] for index in range(CLIENTS)]
        with ThreadPoolExecutor(CLIENTS) as pool:
            answers = list(
                pool.map(
                    lambda plan, via: _client(server.host, ports[via], via, plan),
                    plans,
                    transports,
                )
            )
    finally:
        code = server.terminate()
        server.process.stdout.close()
    for plan, payloads in zip(plans, answers):
        assert len(payloads) == QUERIES
        for text, payload in zip(plan, payloads):
            assert payload["ok"] is True, payload
            assert payload["rows"] == expected[text], text
    assert code == 0


@pytest.mark.parametrize("store", sorted(STORES))
def test_stdio_answers_a_pipelined_workload_in_order(
    store, texts, expected, built_stores, tmp_path
):
    storage, extra_args = STORES[store]
    process = serve_process(
        storage_args(db_path=_store_copy(store, built_stores, tmp_path), **storage)
        + extra_args,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    requests = b"".join(
        protocol.encode_request(text, dataset="imdb", k=5) for text in texts
    )
    try:
        stdout, stderr = process.communicate(requests, timeout=120)
    finally:
        if process.poll() is None:  # timed out: leave nothing running
            process.kill()
            process.communicate()
    lines = stdout.splitlines()
    assert len(lines) == QUERIES
    for text, line in zip(texts, lines):
        payload = json.loads(line)
        assert payload["ok"] is True, payload
        assert payload["query"] == text
        assert payload["rows"] == expected[text], text
    assert process.returncode == 0, stderr
    assert stderr == b""
