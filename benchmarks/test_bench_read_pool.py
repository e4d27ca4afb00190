"""Read-pool throughput guard: a reader per client must not lose badly to a
pool of one reader, on rows that verify.

The read-connection pool (ISSUE 10) wins on a file-backed store with >= 4
concurrent server clients because SQLite releases the GIL inside
``sqlite3_step``: a reader per client lets that C-level work overlap across
cores, while ``read_pool_size=1`` — a pool of one, on the same code path —
makes every read wait its turn for the one reader.

That is a scaling claim, and a 0.5 s run cannot carry it: the strict
``pooled > serial`` assertion this file used to make on >= 2 cores failed
intermittently on 2-core machines at an unchanged commit.  The claim is
measured where runs are long enough to measure it, by the harness in
``benchmarks/layered/``.  This guard prints both arms and enforces, at every core
count, the side of the contract a short run *can* decide: the pool's lease
bookkeeping stays cheap (throughput within a bounded factor of the
one-reader arm), and every concurrent response still verifies against
sequential execution.

Both arms run on ONE shared store (built once, reopened), with the result
cache off so every request actually reads the backend, and every response is
verified row-for-row against the engine's own sequential answers — the guard
cannot pass on wrong rows.  Each arm takes its best-of-N to shed scheduler
noise, and the arms' attempts interleave (pooled, serial, pooled, …): run one
arm's attempts after the other's and a machine that slows down halfway
through — as it does inside a full test-suite run — charges the whole drift
to one arm.
"""

from __future__ import annotations

import os
import time
from contextlib import ExitStack
from itertools import cycle, islice
from typing import Callable

from repro.datasets.workload import workload_texts
from repro.engine import EngineConfig
from repro.server import QueryServer

CLIENTS = 8
QUERIES_PER_CLIENT = 12
ATTEMPTS = 3
#: Max tolerated pooled-arm slowdown (lease overhead plus per-reader
#: page/statement caches warming, as seen on a single core where the pool
#: cannot win); anything past this is a pool implementation regression.
SINGLE_CORE_OVERHEAD_FACTOR = 0.60


def _arm(stack: ExitStack, db_path, read_pool_size: int) -> Callable[[], float]:
    """One arm's server, open until ``stack`` closes, as a callable timing
    one attempt: the throughput of CLIENTS x QUERIES_PER_CLIENT verified
    requests."""
    storage = dict(backend="sqlite", db_path=db_path)
    config = EngineConfig(cache_results=False, read_pool_size=read_pool_size)
    server = stack.enter_context(QueryServer(max_workers=CLIENTS, engine_config=config))
    engine = server.engine_for("imdb", **storage)
    texts = workload_texts(engine.backend, "imdb")
    expected = {
        text: [result.row_uids() for result in engine.run(text, k=5).results]
        for text in texts
    }
    requests = list(islice(cycle(texts), CLIENTS * QUERIES_PER_CLIENT))

    def attempt() -> float:
        started = time.perf_counter()
        futures = [server.submit("imdb", text, k=5, **storage) for text in requests]
        responses = [future.result() for future in futures]
        seconds = time.perf_counter() - started
        for response in responses:  # verified after the clock stopped
            assert response.result_uids() == expected[response.query], (
                f"read_pool_size={read_pool_size}: {response.query!r} differs "
                "from sequential execution"
            )
        return len(requests) / seconds

    return attempt


def test_pooled_readers_vs_single_connection(tmp_path):
    db_path = tmp_path / "read-pool-bench.sqlite"
    best = {CLIENTS: 0.0, 1: 0.0}
    with ExitStack() as stack:
        arms = {size: _arm(stack, db_path, size) for size in best}
        for _attempt in range(ATTEMPTS):
            for size, attempt in arms.items():  # pooled, serial, pooled, …
                best[size] = max(best[size], attempt())
    pooled, serial = best[CLIENTS], best[1]
    cores = os.cpu_count() or 1
    print(
        f"\n[{cores} core(s)] read pool {CLIENTS}: {pooled:.1f} q/s   "
        f"read pool 1: {serial:.1f} q/s   ratio x{pooled / serial:.2f}"
    )
    assert pooled >= SINGLE_CORE_OVERHEAD_FACTOR * serial, (
        f"pool overhead exceeds the budget on {cores} core(s): "
        f"{pooled:.1f} q/s pooled vs {serial:.1f} q/s serial "
        f"(floor x{SINGLE_CORE_OVERHEAD_FACTOR})"
    )
