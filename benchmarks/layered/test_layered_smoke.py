"""Tier-1 smoke test of the layered benchmark.

Runs ``run.py --smoke`` as a user would: all four workloads and their traced
replays at tiny counts with the run-length guards off, then checks what was
printed against ``BENCHMARK.json``.  The harness is driven as a subprocess,
so its plainly named modules never enter pytest's ``sys.modules``.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_smoke_run_prints_every_declared_metric():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(benchmark["workloads"]) <= 8
    assert 1 <= len(benchmark["end_to_end"]) <= 16
    assert 1 <= len(benchmark["per_layer"]) <= 128
    declared = {
        kind: {metric["name"]: metric["unit"] for metric in benchmark[kind]}
        for kind in ("end_to_end", "per_layer")
    }
    names = [w["name"] for w in benchmark["workloads"]] + [
        name for kind in declared.values() for name in kind
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in declared["end_to_end"]
    assert all(0 < metric["bound"] <= 0.25 for metric in benchmark["end_to_end"])

    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.splitlines()[-1])
    assert list(report) == [w["name"] for w in benchmark["workloads"]]
    for workload, result in report.items():
        assert result["failed"] == 0 and result["attempted"] > 0, workload
        for kind, metrics in declared.items():
            assert set(result[kind]) == set(metrics), (workload, kind)
            for name, unit in metrics.items():
                printed = result[kind][name]
                assert printed["unit"] == unit and UNIT.fullmatch(unit), name
                assert math.isfinite(printed["value"]), (workload, name)
    assert not (HERE / ".work").exists(), "temp stores were left behind"
