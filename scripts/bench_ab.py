#!/usr/bin/env python3
"""Same-machine A/B of two commits on one workload of the layered benchmark.

    python scripts/bench_ab.py BASE HEAD --workload warm_zipf_http --pairs 10

BASE and HEAD are commits (each checked out as a detached ``git worktree``
that is removed afterwards) or directories holding a checkout (used in place:
``.`` measures the uncommitted working tree).  Every pair runs each side's own
unchanged ``benchmarks/layered/run.py`` once, with one seed per pair and the
side that goes first alternating, so a slow spell of the machine lands on both
sides equally often.

Per metric it prints each side's median and quartiles, the share of pairs HEAD
won, and a verdict by the rule of the choosing-metrics guide (section 8):

* ``better`` — HEAD won at least nine tenths of the pairs and the medians
  differ by more than the distance between BASE's own quartiles;
* ``worse`` — HEAD's median is worse than BASE's by more than the metric's
  bound in ``BENCHMARK.json``;
* ``unresolved`` — neither, and BASE's quartiles are further apart than the
  bound, so the runs cannot tell;
* ``same`` — neither, within the bound.

``--trace 1`` compares the per-layer metrics of the traced replay instead
(they have no bounds: only ``better`` or ``-`` is printed).  Each side's
failed operations and row-oracle verdicts (``correct: n/n``) follow the table.
The verdicts are report only; the exit code is 1 when no pair produced a
result on both sides or when any run's rows were not ``correct``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles
from typing import Iterator

REPO = Path(__file__).resolve().parents[1]


@contextlib.contextmanager
def checkout(ref: str, scratch: Path, side: str) -> Iterator[Path]:
    """``ref`` as a directory: itself if it is one, else a detached worktree."""
    if Path(ref).is_dir():
        yield Path(ref).resolve()
        return
    target = scratch / side
    subprocess.run(
        ["git", "-C", str(REPO), "worktree", "add", "--detach", str(target), ref],
        check=True, stdout=subprocess.DEVNULL,
    )
    try:
        yield target
    finally:
        subprocess.run(
            ["git", "-C", str(REPO), "worktree", "remove", "--force", str(target)],
            check=False, stdout=subprocess.DEVNULL,
        )


def run_once(tree: Path, workload: str, seed: int, seconds: float | None, trace: int):
    """One ``run.py`` result (the JSON of its last stdout line), or ``None``."""
    command = [
        sys.executable, "benchmarks/layered/run.py",
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float]:
    """``(first quartile, median, third quartile)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _middle, third = quantiles(values, n=4, method="inclusive")
    return first, median(values), third


def verdict(
    base: list[float], head: list[float], wins: int, sign: float, bound: float | None
) -> str:
    """``sign`` is +1 when higher is better, -1 when lower is."""
    base_q1, base_median, base_q3 = spread(base)
    gain = sign * (median(head) - base_median)
    if wins >= 0.9 * len(base) and gain > base_q3 - base_q1:
        return "better"
    if bound is None:
        return "-"
    if -gain > bound * abs(base_median):
        return "worse"
    if base_q3 - base_q1 > bound * abs(base_median):
        return "unresolved"
    return "same"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("base", metavar="BASE", help="commit or checkout directory")
    parser.add_argument("head", metavar="HEAD", help="commit or checkout directory")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, help="run length (default: the benchmark's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results: dict[str, list[dict]] = {"base": [], "head": []}
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as scratch, \
            checkout(args.base, Path(scratch), "base") as base_tree, \
            checkout(args.head, Path(scratch), "head") as head_tree:
        trees = {"base": base_tree, "head": head_tree}
        declared = json.loads((base_tree / "BENCHMARK.json").read_text())
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            seed = args.seed + pair
            outcome = {
                side: run_once(trees[side], args.workload, seed, args.seconds, args.trace)
                for side in order
            }
            if None in outcome.values():
                refused = [side for side in order if outcome[side] is None]
                print(f"pair {pair + 1} (seed {seed}): no result on {', '.join(refused)}; dropped")
                continue
            print(f"pair {pair + 1} (seed {seed}, {order[0]} first): done")
            for side in order:
                results[side].append(outcome[side])

    pairs = len(results["base"])
    if not pairs:
        print("no pair produced a result on both sides")
        return 1
    metrics = declared["per_layer" if args.trace else "end_to_end"]
    print(f"\n{args.workload}: {pairs} pair(s), BASE={args.base} HEAD={args.head}")
    header = ("metric", "unit", "base median [q1, q3]", "head median [q1, q3]", "change", "head wins", "verdict")
    rows = [header]
    for metric in metrics:
        name = metric["name"]
        if any(name not in run["metrics"] for runs in results.values() for run in runs):
            continue
        base = [run["metrics"][name]["value"] for run in results["base"]]
        head = [run["metrics"][name]["value"] for run in results["head"]]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        ties = sum(h == b for b, h in zip(base, head))
        (b1, bm, b3), (h1, hm, h3) = spread(base), spread(head)
        rows.append((
            name,
            metric["unit"],
            f"{bm:.4g} [{b1:.4g}, {b3:.4g}]",
            f"{hm:.4g} [{h1:.4g}, {h3:.4g}]",
            f"{(hm - bm) / bm:+.1%}" if bm else "n/a",
            f"{wins}/{pairs}" + (f" ({ties} tied)" if ties else ""),
            verdict(base, head, wins, sign, metric.get("bound")),
        ))
    widths = [max(len(row[column]) for row in rows) for column in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    all_correct = True
    for side in ("base", "head"):
        attempted = sum(run["attempted"] for run in results[side])
        failed = sum(run["failed"] for run in results[side])
        correct = sum(run["correct"] is True for run in results[side])
        all_correct = all_correct and correct == pairs
        print(
            f"{side}: {failed} of {attempted} operations failed, "
            f"correct: {correct}/{pairs}"
        )
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
