"""The program under test, launched by the harness in a child process.

``child.py serve <json>`` builds the configured store and serves it through
the public ``repro.net.listener.run_tcp_server`` (an ``engine_factory``
supplies the scaled dataset, so no CLI change is needed).  ``child.py lib
<json>`` calls ``QueryEngine.run`` in a loop with no network.  ``child.py
trace <json>`` runs the traced in-process replay of :mod:`tracing`, and
``child.py probe <json>`` is the machine-speed probe.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.engine import EngineConfig, QueryEngine  # noqa: E402


def engine_config(spec: dict) -> EngineConfig:
    return EngineConfig(
        cache_results=spec["cache_results"], result_cache_size=spec["cache_size"]
    )


def build_engine(spec: dict, config: EngineConfig) -> QueryEngine:
    sizes = {f"dataset_{name}": value for name, value in spec["sizes"].items()}
    return QueryEngine.for_dataset(
        "imdb",
        backend=spec["backend"],
        db_path=spec["db_path"],
        shards=spec["shards"],
        config=config,
        **sizes,
    )


def serve(spec: dict) -> int:
    from repro.net.listener import TCPServerConfig, run_tcp_server

    if spec["reopen"]:
        # Build, close, and let the server's own factory call reopen it: the
        # cold-open path (persisted index and statistics) is part of set-up.
        build_engine(spec, engine_config(spec)).backend.close()
    config = TCPServerConfig(
        port=0,
        http_port=0,
        dataset="imdb",
        backend=spec["backend"],
        db_path=spec["db_path"],
        shards=spec["shards"],
        k=spec["k"],
    )
    return run_tcp_server(
        config,
        engine_config=engine_config(spec),
        engine_factory=lambda _dataset, _backend, _path, _shards, engine_config: (
            build_engine(spec, engine_config)
        ),
    )


def lib(spec: dict) -> int:
    """Ready line, one job line in, one result line out.

    The loop times each ``QueryEngine.run`` call itself: a library user's
    latency is the call, with no transport around it.
    """
    from procstat import read_vm_hwm_mb

    engine = build_engine(spec, engine_config(spec))
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line:  # a set-up repetition: the harness only timed the start
        return 0
    job = json.loads(line)
    latencies_ms, results = [], []
    # (seconds into the phase, cumulative CPU seconds) after every call.
    cpu_marks = [(0.0, time.process_time())]
    started_at = time.monotonic()
    started = time.perf_counter()
    deadline = started + job["seconds"]
    for query in itertools.cycle(job["queries"]):
        before = time.perf_counter()
        if before >= deadline:
            break
        context = engine.run(query, k=spec["k"])
        after = time.perf_counter()
        latencies_ms.append((after - before) * 1000.0)
        cpu_marks.append((after - started, time.process_time()))
        results.append(context.results)
    measured = time.perf_counter() - started
    peak_rss_mb = read_vm_hwm_mb()  # before the result rows are serialised
    print(
        json.dumps(
            {
                "latencies_ms": latencies_ms,
                "cpu_marks": cpu_marks,
                "rows": [
                    [[list(uid) for uid in result.row_uids()] for result in found]
                    for found in results
                ],
                "scores": [[result.score for result in found] for found in results],
                "started_at": started_at,
                "measured_s": measured,
                "peak_rss_mb": peak_rss_mb,
            }
        ),
        flush=True,
    )
    return 0


def probe(spec: dict) -> int:
    """Time a fixed loop ten times a second until killed.

    The loop's CPU time is the harness's measure of how fast this machine is
    running right now (see ``loadrun.SpeedProbe``).
    """
    with open(spec["path"], "w", encoding="ascii") as out:
        while True:
            started = time.process_time()
            total = 0
            for index in range(60_000):
                total += index * index % 7
            out.write(f"{time.monotonic()} {time.process_time() - started}\n")
            out.flush()
            time.sleep(0.1)


def trace(spec: dict) -> int:
    import tracing

    print(json.dumps(tracing.run_traced_replay(spec)), flush=True)
    return 0


if __name__ == "__main__":
    modes = {"serve": serve, "lib": lib, "trace": trace, "probe": probe}
    job = json.loads(sys.argv[2])
    if job.get("cpu") is not None:
        os.sched_setaffinity(0, {job["cpu"]})
    sys.exit(modes[sys.argv[1]](job))
