"""``scripts/reach.py``: the probed entry points and the unreached-function audit.

The full probe runs every report, example and transcript (tens of seconds),
so these tests drive its parts: the transcripts must stay valid ``repro``
invocations, the compiled-code inventory must key functions exactly as the
profile hook sees them, and the report must add up.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_reach():
    spec = importlib.util.spec_from_file_location("reach", REPO_ROOT / "scripts" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _load_reach()

SAMPLE = textwrap.dedent(
    """\
    def top(x):
        squares = [y * y for y in range(x)]
        return sum(squares)


    class Box:
        size = len([1, 2])

        def grow(self, by):
            return self.size + by

        @staticmethod
        def name():
            return "box"


    double = lambda v: v * 2


    def outer():
        def inner():
            return 1

        return inner
    """
)


@pytest.fixture
def sample_module(tmp_path, monkeypatch):
    path = tmp_path / "reach_sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    spec = importlib.util.spec_from_file_location("reach_sample", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return path, module


@pytest.mark.parametrize("argv", reach.TRANSCRIPTS, ids=" ".join)
def test_each_transcript_is_a_valid_repro_invocation(argv, tmp_path):
    args = build_parser().parse_args([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert args.command == argv[0]
    assert callable(args.func)


def test_module_functions_lists_defs_methods_and_lambdas_in_line_order(sample_module):
    path, _module = sample_module
    names = [code.co_name for code in reach.module_functions(path)]
    assert names == ["top", "grow", "name", "<lambda>", "outer", "inner"]


def test_compiled_and_imported_functions_share_one_key(sample_module):
    """The audit matches compiled code to what the profile hook saw by key."""
    path, module = sample_module
    compiled = {
        reach._function_key(code) for code in reach.module_functions(path)
    }
    imported = {
        reach._function_key(function.__code__)
        for function in (
            module.top,
            module.Box.grow,
            module.Box.name,
            module.double,
            module.outer,
            module.outer(),
        )
    }
    assert imported == compiled


def test_span_counts_a_functions_lines(sample_module):
    path, _module = sample_module
    spans = {code.co_name: reach._span(code) for code in reach.module_functions(path)}
    assert spans == {"top": 3, "grow": 2, "name": 3, "<lambda>": 1, "outer": 5, "inner": 2}


def test_entry_points_are_run_all_the_examples_the_transcripts_and_serve(tmp_path):
    points = list(reach.entry_points(str(tmp_path)))
    examples = sorted((REPO_ROOT / "examples").glob("*.py"))
    labels = [label for label, _run in points]
    assert labels[0] == "run_all"
    assert labels[1 : 1 + len(examples)] == [f"examples/{p.name}" for p in examples]
    assert len(points) == 1 + len(examples) + len(reach.TRANSCRIPTS) + 2
    assert labels[-2:] == ["repro serve (stdio)", "repro serve (http)"]
    transcripts = [run.__defaults__[0] for _label, run in points[1 + len(examples) : -2]]
    assert all("{tmp}" not in arg for argv in transcripts for arg in argv)
    assert [argv[0] for argv in transcripts] == [argv[0] for argv in reach.TRANSCRIPTS]


def test_the_http_exchange_gets_200_to_every_request():
    """``GET /healthz``, ``POST /query`` and ``GET /stats`` against an
    in-process server; a non-200 answer raises."""
    reach._serve_http()


def test_probe_keeps_only_the_src_functions_an_entry_point_entered(monkeypatch):
    module = importlib.import_module("repro.divq.diversify")

    def tiny_entry_points(_tmp):
        yield "relevance_pool", lambda: module.relevance_pool([("a", 1.0)])

    monkeypatch.setattr(reach, "entry_points", tiny_entry_points)
    reached = reach.probe()
    assert reach._function_key(module.relevance_pool.__code__) in reached
    assert reach._function_key(module.diversify.__code__) not in reached
    src = str(reach.SRC.resolve())
    assert all(path.startswith(src) for path, _line, _name in reached)
    assert sys.getprofile() is None


def test_main_reports_unreached_functions_and_totals(monkeypatch, capsys):
    module = importlib.import_module("repro.divq.diversify")

    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(
        reach, "probe", lambda: {reach._function_key(module.relevance_pool.__code__)}
    )
    assert reach.main() == 0
    out = capsys.readouterr().out
    total = sum(len(reach.module_functions(p)) for p in reach.SRC.rglob("*.py"))
    assert f"reached 1 of {total} src/ functions" in out
    assert f"unreached: {total - 1} functions," in out
    listing = out.split("repro/divq/diversify.py: ", 1)[1].split("\n\n", 1)[0]
    assert "  divq_model (" in listing
    assert "  relevance_pool (" not in listing
