"""``scripts/bench_ab.py``: pairing, alternation and the verdict rule.

The two sides here are fake checkouts whose ``benchmarks/layered/run.py``
prints a canned result, so the test exercises the driver, not the benchmark.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_FAKE_RUN = '''\
import json, sys
from pathlib import Path
root = Path(__file__).resolve().parents[2]
seed = int(sys.argv[sys.argv.index("--seed") + 1])
with open(root.parent / "order.log", "a") as log:
    log.write(f"{root.name} {seed}\\n")
qps = json.loads((root / "qps.json").read_text())
if qps is None:
    sys.exit(2)
wrong_seed = json.loads((root / "wrong_seed.json").read_text())
print("noise before the result line")
print(json.dumps({"correct": seed != wrong_seed, "attempted": 10,
                  "failed": int(seed == wrong_seed), "metrics": {
    "throughput_qps": {"value": qps + seed, "unit": "1/s"},
    "ok_share": {"value": 1.0, "unit": "ratio"}}}))
'''

_DECLARED = {
    "end_to_end": [
        {"name": "throughput_qps", "unit": "1/s", "better": "higher", "bound": 0.2},
        {"name": "ok_share", "unit": "ratio", "better": "higher", "bound": 0.001},
    ],
    "per_layer": [],
}


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "bench_ab", REPO_ROOT / "scripts" / "bench_ab.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_ab = _load_script()


def _fake_checkout(
    parent: Path, name: str, qps: float | None, wrong_seed: int | None = None
) -> Path:
    """``wrong_seed``: the run with that seed reports ``"correct": false``."""
    tree = parent / name
    (tree / "benchmarks" / "layered").mkdir(parents=True)
    (tree / "benchmarks" / "layered" / "run.py").write_text(_FAKE_RUN)
    (tree / "BENCHMARK.json").write_text(json.dumps(_DECLARED))
    (tree / "qps.json").write_text(json.dumps(qps))
    (tree / "wrong_seed.json").write_text(json.dumps(wrong_seed))
    return tree


def test_pairs_alternate_and_a_clear_gain_reads_better(tmp_path, capsys):
    slow = _fake_checkout(tmp_path, "slow", 100.0)
    fast = _fake_checkout(tmp_path, "fast", 300.0)
    status = bench_ab.main(
        [str(slow), str(fast), "--workload", "w", "--pairs", "4", "--seed", "5"]
    )
    assert status == 0
    order = (tmp_path / "order.log").read_text().split("\n")[:-1]
    assert order == [
        "slow 5", "fast 5", "fast 6", "slow 6", "slow 7", "fast 7", "fast 8", "slow 8"
    ]
    out = capsys.readouterr().out
    rows = {line.split()[0]: line.split() for line in out.splitlines() if line}
    assert rows["throughput_qps"][-2:] == ["4/4", "better"]
    assert rows["ok_share"][-1] == "same"
    assert "base: 0 of 40 operations failed, correct: 4/4" in out
    assert "head: 0 of 40 operations failed, correct: 4/4" in out


def test_a_wrong_answer_on_either_side_fails_the_comparison(tmp_path, capsys):
    base = _fake_checkout(tmp_path, "base", 100.0)
    wrong = _fake_checkout(tmp_path, "wrong", 300.0, wrong_seed=2)
    arguments = ["--workload", "w", "--pairs", "3"]
    assert bench_ab.main([str(base), str(wrong), *arguments]) == 1
    out = capsys.readouterr().out
    assert "base: 0 of 30 operations failed, correct: 3/3" in out
    assert "head: 1 of 30 operations failed, correct: 2/3" in out
    assert bench_ab.main([str(wrong), str(base), *arguments]) == 1


def test_a_refused_run_drops_its_pair(tmp_path, capsys):
    base = _fake_checkout(tmp_path, "base", 100.0)
    refused = _fake_checkout(tmp_path, "refused", None)
    assert bench_ab.main([str(base), str(refused), "--workload", "w", "--pairs", "2"]) == 1
    assert "no pair produced a result" in capsys.readouterr().out


def test_verdict_rule():
    base = [100.0, 104.0, 96.0, 102.0, 98.0, 100.0, 101.0, 99.0, 103.0, 97.0]
    wins = lambda head: sum(h > b for b, h in zip(base, head))  # noqa: E731
    better = [value * 1.5 for value in base]
    assert bench_ab.verdict(base, better, wins(better), 1.0, 0.2) == "better"
    # Wins every pair, but by less than the base's own quartile distance.
    nudged = [value + 0.5 for value in base]
    assert bench_ab.verdict(base, nudged, wins(nudged), 1.0, 0.2) == "same"
    worse = [value * 0.7 for value in base]
    assert bench_ab.verdict(base, worse, wins(worse), 1.0, 0.2) == "worse"
    noisy = [100.0, 160.0, 60.0, 150.0, 70.0, 100.0, 140.0, 65.0, 155.0, 75.0]
    assert bench_ab.verdict(noisy, noisy, 0, 1.0, 0.2) == "unresolved"
    # Lower is better: the same numbers, mirrored.
    assert bench_ab.verdict(base, worse, 10, -1.0, 0.2) == "better"
    assert bench_ab.verdict(base, better, 0, -1.0, None) == "-"
