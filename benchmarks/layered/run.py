"""Layered serving benchmark: the one command of ``BENCHMARK.json``.

``run.py --workload W --seed N --seconds S --trace 0|1`` measures one
workload and prints, as its last line, one JSON object with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  Without
``--workload`` it measures all four and prints every metric by name with its
unit; ``--repeat N`` repeats that over N seeds and compares the spread of
each end-to-end metric with its bound.  See README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'}: the program under test is not in this checkout")
sys.path.insert(0, str(ROOT / "src"))

import loadrun  # noqa: E402
import queries  # noqa: E402
from loadrun import GuardError, LoadRun  # noqa: E402
from oracle import Oracle  # noqa: E402
from workloads import POOL_SEED, WORKLOADS, Workload, imdb_sizes, smoke  # noqa: E402

from repro.datasets.imdb import build_imdb  # noqa: E402
from repro.engine import EngineConfig, QueryEngine  # noqa: E402

#: Scratch space of the runs (stores, span files); inside the checkout
#: because the benchmark may write nowhere else, and always removed.
WORK_ROOT = HERE / ".work"

#: A measured phase must have this many ok samples: p95 then has at least ten
#: samples beyond it.
MIN_OK_SAMPLES = 100
#: Above this share of one core the load generator, not the server, may be
#: what limits throughput.
MAX_CLIENT_CPU_SHARE = 0.5


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1)]


def tail_percentile(ordered: list[float], fraction: float, band: float = 0.02) -> float:
    """Mean of the order statistics from ``fraction - band`` to ``fraction + band``.

    A tail percentile of a few hundred samples is one order statistic, and
    per-query cost here comes in clusters: on ``cold_once_sharded`` the ten
    slowest of 200 queries take over 320 ms and the next under 180 ms, so the
    nearest-rank p95 flipped between the two from one run to the next.  The
    band averages across such a gap; on a large sample it is the percentile.
    """
    low = math.ceil((fraction - band) * len(ordered)) - 1
    high = math.ceil((fraction + band) * len(ordered))
    return statistics.fmean(ordered[max(low, 0) : max(high, 1)])


@dataclass
class Measurement:
    end_to_end: dict[str, float]
    per_layer: dict[str, float] | None
    attempted: int
    failed: int
    problems: list[str]


def make_pool(workload: Workload, reference_db, seed: int) -> list[str]:
    """The workload's query pool, in the order run ``seed`` sends it."""
    pool = queries.query_pool(
        reference_db, workload.pool_size, POOL_SEED, workload.long_queries
    )
    if workload.sequence == "zipf":
        return pool  # the Zipf draws are what the seed decides
    return queries.shuffled(pool, seed, workload.shuffle_window)


def request_sequence(workload: Workload, pool: list[str], seed: int):
    """A fresh iterator over the run's requests: a pure function of the seed."""
    if workload.sequence == "zipf":
        return queries.zipf_requests(pool, seed)
    return iter(pool) if workload.sequence == "once" else itertools.cycle(pool)


def _ok(sample) -> bool:
    return bool(sample.payload and sample.payload.get("ok"))


def _cpu_at(marks: list[tuple[float, float]], at_s: float) -> float:
    """Cumulative server CPU seconds at the last mark not after ``at_s``."""
    return max((mark for mark in marks if mark[0] <= at_s), default=marks[0])[1]


def block_statistics(
    load: LoadRun, seconds: float, count: int, probe: loadrun.SpeedProbe
) -> list[dict[str, float]]:
    """Throughput, latency and CPU per query of each block that has samples,
    each divided by the machine's slowdown over that block.

    The last block also takes the answers that landed after the deadline (at
    most one per connection).
    """
    # A phase that ran out of requests early is cut over the time it lasted.
    span = min(seconds, load.measured_s)
    edges = [block * span / count for block in range(count + 1)]
    blocks = []
    for index, (low, high) in enumerate(zip(edges, edges[1:])):
        last = index == count - 1
        latencies = sorted(
            s.latency_ms
            for s in load.samples
            if _ok(s) and low <= s.completed_s and (last or s.completed_s < high)
        )
        if not latencies:
            continue
        cpu_s = _cpu_at(load.cpu_marks, math.inf if last else high) - _cpu_at(
            load.cpu_marks, low
        )
        slowdown = probe.slowdown(load.started_at + low, load.started_at + high)
        blocks.append(
            {
                "throughput_qps": len(latencies) / (high - low) * slowdown,
                "latency_p50_ms": percentile(latencies, 0.50) / slowdown,
                "latency_p95_ms": tail_percentile(latencies, 0.95) / slowdown,
                "cpu_ms_per_query": cpu_s * 1000.0 / len(latencies) / slowdown,
            }
        )
    return blocks


def end_to_end_metrics(
    load: LoadRun,
    seconds: float,
    block_count: int,
    failed: int,
    probe: loadrun.SpeedProbe,
) -> dict[str, float]:
    blocks = block_statistics(load, seconds, block_count, probe)
    if not blocks:
        raise GuardError("no request succeeded")
    metrics = {
        "setup_s": statistics.median(
            (ready - spawned) / probe.slowdown(spawned, ready)
            for spawned, ready in load.setups
        )
    }
    for name in blocks[0]:
        metrics[name] = statistics.median(block[name] for block in blocks)
    metrics["peak_rss_mb"] = load.peak_rss_mb
    metrics["ok_share"] = 1.0 - failed / len(load.samples)
    return metrics


def loadgen_metrics(load: LoadRun, slowdown: float) -> dict[str, float]:
    """The load run's own health, unscaled; ``slowdown`` is the phase's."""
    latencies = sorted(s.latency_ms for s in load.samples if _ok(s))
    return {
        "loadgen.machine_slowdown": slowdown,
        "loadgen.latency_p99_ms": percentile(latencies, 0.99),
        "loadgen.latency_max_ms": latencies[-1],
        "loadgen.measured_s": load.measured_s,
        "loadgen.prewarm_s": load.prewarm_s,
        "loadgen.client_cpu_share": load.client_cpu_s / load.measured_s,
        "net.listener.overloaded": float(
            load.listener_counters.get("requests_rejected_overload", 0)
        ),
        "net.listener.timeouts": float(
            load.listener_counters.get("requests_timed_out", 0)
        ),
    }


def check_guards(
    workload: Workload, load: LoadRun, seconds: float, exhausted: bool
) -> None:
    """Refuse to report a run that is not the measurement it claims to be."""
    ok = sum(1 for s in load.samples if _ok(s))
    if ok < MIN_OK_SAMPLES:
        raise GuardError(f"{ok} ok samples, fewer than {MIN_OK_SAMPLES}")
    if load.measured_s < 0.8 * seconds and not exhausted:
        raise GuardError(f"measured phase lasted {load.measured_s:.1f} of {seconds} s")
    share = load.client_cpu_s / load.measured_s
    if share > MAX_CLIENT_CPU_SHARE:
        raise GuardError(f"load generator used {share:.2f} of a core")
    counters = load.engine_counters
    if not counters:
        return
    lookups = counters["cache_hits"] + counters["cache_misses"]
    hit_share = counters["cache_hits"] / lookups if lookups else 0.0
    statements = counters["sql_statements"] / ok
    if workload.reopen_and_prewarm:
        if hit_share < 0.95 or statements > 0.05:
            raise GuardError(
                f"warm workload ran cold: hit share {hit_share:.3f}, "
                f"{statements:.3f} statements per request"
            )
    elif hit_share > 0.2:
        raise GuardError(f"cold workload ran warm: hit share {hit_share:.3f}")


def run_traced_child(
    workload: Workload,
    pool: list[str],
    requests: list[str],
    work_dir: Path,
    out_dir: Path,
) -> dict:
    trace_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=work_dir))
    spec = loadrun.child_spec(workload, trace_dir)
    spec.update(
        name=workload.name,
        transport=workload.transport,
        requests=requests,
        prewarm=pool if workload.reopen_and_prewarm else [],
        work_dir=str(trace_dir),
        out=str(out_dir),
    )
    try:
        completed = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "trace", json.dumps(spec)],
            stdout=subprocess.PIPE,
            timeout=600,
        )
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    if completed.returncode != 0:
        raise GuardError(f"traced child exited with code {completed.returncode}")
    return json.loads(completed.stdout.splitlines()[-1])


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path | None = None,
    guards: bool = True,
) -> Measurement:
    """One run of one workload: load run, row oracle, optional traced replay."""
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    probe = loadrun.SpeedProbe(work_dir)
    try:
        reference_db = build_imdb(**imdb_sizes(workload.scale))
        pool = make_pool(workload, reference_db, seed)
        requests = request_sequence(workload, pool, seed)
        if workload.transport == "lib":
            load = loadrun.run_lib_load(workload, pool, seconds, work_dir)
        else:
            load = loadrun.run_server_load(workload, pool, requests, seconds, work_dir)
        exhausted = workload.sequence == "once" and next(requests, None) is None
        oracle = Oracle(
            QueryEngine(reference_db, config=EngineConfig(cache_results=False)), seed
        )
        failed, problems = oracle.check(
            ((s.query, s.payload) for s in load.samples), workload.oracle_sample
        )
        attempted = len(load.samples)
        end_to_end = end_to_end_metrics(load, seconds, workload.blocks, failed, probe)
        phase_slowdown = probe.slowdown(
            load.started_at, load.started_at + load.measured_s
        )
        print(f"machine slowdown over the measured phase: {phase_slowdown:.3f}")
        if guards:
            check_guards(workload, load, seconds, exhausted)
        per_layer = None
        if trace:
            replayed = list(
                itertools.islice(
                    request_sequence(workload, pool, seed),
                    max(1, int(workload.trace_requests_per_second * seconds)),
                )
            )
            traced = run_traced_child(
                workload, pool, replayed, work_dir, out_dir or work_dir
            )
            # The load run's sample already paid for its reference rows; the
            # replay is compared on the queries the two have in common.
            traced_failed, traced_problems = oracle.check(
                zip(replayed, traced["payloads"]), 0
            )
            attempted += len(replayed)
            failed += traced_failed
            problems += traced_problems
            slowdown = {
                label: probe.slowdown(*span) for label, span in traced["spans"].items()
            }
            per_layer = {
                name: value / slowdown["traced"] if name.endswith(("_us", "_s")) else value
                for name, value in traced["metrics"].items()
            }
            per_layer["trace.overhead_share"] = (
                traced["walls"]["traced"] / slowdown["traced"]
            ) / (traced["walls"]["untraced"] / slowdown["untraced"]) - 1.0
            per_layer.update(loadgen_metrics(load, phase_slowdown))
        return Measurement(end_to_end, per_layer, attempted, failed, problems)
    finally:
        probe.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
        if not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()


# -- output -----------------------------------------------------------------------


def with_units(values: dict[str, float], declared: list[dict]) -> dict[str, dict]:
    """Exactly the declared metrics, each ``{"value", "unit"}``."""
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }


def print_metrics(title: str, metrics: dict[str, dict]) -> None:
    print(title)
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.4f} {metric['unit']}")


def print_spread(name: str, runs: list[dict[str, float]], declared: list[dict]) -> bool:
    """Median, quartiles and spread of each end-to-end metric over ``runs``.

    Returns False when some metric's spread exceeds its bound: a comparison
    on that metric could not tell a regression from noise.
    """
    print(f"== {name}: spread over {len(runs)} runs ==")
    print(
        f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
        f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}"
    )
    resolved = True
    for metric in declared:
        values = [run[metric["name"]] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        iqr, spread = (q3 - q1) / median, (max(values) - min(values)) / median
        flag = ""
        if metric["name"] != "setup_s" and iqr > metric["bound"]:
            flag, resolved = "  UNRESOLVED: spread exceeds the bound", False
        elif iqr > metric["bound"] / 3:
            flag = "  (above a third of the bound)"
        print(
            f"  {metric['name']:<20} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} "
            f"{iqr:>8.4f} {spread:>9.4f} {metric['bound']:>6}{flag}"
        )
    return resolved


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1, help="seeds per workload")
    parser.add_argument("--smoke", action="store_true", help="tiny counts, no guards")
    parser.add_argument("--out", type=Path, help="keep spans-<workload>.jsonl here")
    args = parser.parse_args(argv)
    # The program under test and the speed probe share one CPU; the harness
    # (load generator, oracle) keeps off it when there is another.
    others = os.sched_getaffinity(0) - {loadrun.MEASURED_CPU}
    if others:
        os.sched_setaffinity(0, others)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    chosen = [WORKLOADS[args.workload]] if args.workload else list(WORKLOADS.values())
    if args.smoke:
        chosen, args.seconds = [smoke(w) for w in chosen], min(args.seconds, 0.3)

    # With --workload and --trace this is the call BENCHMARK.json describes:
    # one run, one result line.  Otherwise it is a report over the chosen
    # workloads, whose first run of each is traced.
    contract = args.workload is not None and args.trace is not None
    report: dict[str, dict] = {}
    status = 0
    for workload in chosen:
        try:
            runs = [
                measure(
                    workload,
                    args.seed + repeat,
                    args.seconds,
                    bool(args.trace) if contract else repeat == 0,
                    args.out,
                    guards=not args.smoke,
                )
                for repeat in range(1 if contract else args.repeat)
            ]
        except GuardError as error:
            print(f"invalid run of {workload.name}: {error}", file=sys.stderr)
            return 2
        print(f"== {workload.name} (seed {args.seed}, {args.seconds} s) ==")
        for run in runs:
            for problem in run.problems:
                print(f"failed: {problem}")
        first = runs[0]
        if contract:
            metrics = (
                with_units(first.per_layer, benchmark["per_layer"])
                if args.trace
                else with_units(first.end_to_end, benchmark["end_to_end"])
            )
            print_metrics("metrics", metrics)
            print(
                json.dumps(
                    {
                        "correct": first.failed == 0,
                        "attempted": first.attempted,
                        "failed": first.failed,
                        "metrics": metrics,
                    }
                )
            )
            return 0
        report[workload.name] = {
            "end_to_end": with_units(first.end_to_end, benchmark["end_to_end"]),
            "per_layer": with_units(first.per_layer, benchmark["per_layer"]),
            "attempted": sum(run.attempted for run in runs),
            "failed": sum(run.failed for run in runs),
        }
        print_metrics("end-to-end (untraced load run)", report[workload.name]["end_to_end"])
        print_metrics("per-layer (traced replay)", report[workload.name]["per_layer"])
        if args.repeat > 1 and not print_spread(
            workload.name, [run.end_to_end for run in runs], benchmark["end_to_end"]
        ):
            status = 1
    print(json.dumps(report))
    return status


if __name__ == "__main__":
    sys.exit(main())
