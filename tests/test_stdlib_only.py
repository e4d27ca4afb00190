"""The library imports nothing outside the standard library.

networkx and the other development dependencies are test tools only; a
third-party import anywhere under ``repro`` would break the stdlib-only
install README promises (the paper's reports included), and one in the
serving path would also cost every process its resident memory (networkx
alone was ~20 MB).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(
    name for name in loaded if name != "repro" and name not in sys.stdlib_module_names
)))
"""


def test_every_module_loads_only_stdlib_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
