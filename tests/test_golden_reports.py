"""Golden paper reports: every reproduced table and figure, pinned.

``repro.experiments.run_all.collect_reports()`` regenerates the thesis' 29
tables and figures; each must equal ``tests/golden/<name>.txt``.  Wall-clock
columns (every column whose header contains ``ms``) are masked to ``-`` on
both sides, so everything else is compared exactly.  A change that moves a
golden report is either a bug or a result: say which, and in which direction
the thesis expects it to move.

After an intended change, rewrite the golden set with::

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import difflib
import re
from pathlib import Path

import pytest

from repro.experiments.reporting import format_table
from repro.experiments.run_all import collect_reports

GOLDEN = Path(__file__).parent / "golden"

#: A table's rule line under its header: runs of dashes, two spaces apart.
_RULE = re.compile(r"-+(  -+)*")

#: The only columns that hold wall-clock readings: Tables 3.2/3.3 and Fig. 5.5.
TIMING_HEADERS = {
    "ms_per_step@10",
    "ms_per_step@20",
    "ms_per_step@30",
    "ms/step",
    "top-k ms",
}


def _cells(line: str, starts: list[int]) -> list[str]:
    ends = [start - 2 for start in starts[1:]] + [len(line)]
    return [line[start:end].rstrip() for start, end in zip(starts, ends)]


def _tables(lines: list[str]):
    """``(header_at, end, column_starts)`` of each :func:`format_table` block.

    A block is a header line, a rule line and the rows under it: every line
    of it is exactly as wide as the rule, since each cell is padded.
    """
    for at in range(1, len(lines)):
        rule = lines[at]
        if _RULE.fullmatch(rule) and len(lines[at - 1]) == len(rule):
            end = at + 1
            while end < len(lines) and len(lines[end]) == len(rule):
                end += 1
            yield at - 1, end, [m.start() for m in re.finditer(r"-+", rule)]


def masked_headers(text: str) -> set[str]:
    """Headers of the columns :func:`mask_timings` blanks in ``text``."""
    lines = text.split("\n")
    return {
        name
        for header_at, _end, starts in _tables(lines)
        for name in _cells(lines[header_at], starts)
        if "ms" in name
    }


def mask_timings(text: str) -> str:
    """``text`` with every ``ms`` column of its tables blanked to ``-``.

    A table with such a column is re-rendered with :func:`format_table`, so
    the masked column's width no longer depends on its readings.
    """
    lines = text.split("\n")
    for header_at, end, starts in reversed(list(_tables(lines))):
        header = _cells(lines[header_at], starts)
        timed = [c for c, name in enumerate(header) if "ms" in name]
        if not timed:
            continue
        rows = [_cells(line, starts) for line in lines[header_at + 2 : end]]
        for row in rows:
            for c in timed:
                row[c] = "-"
        lines[header_at:end] = format_table(header, rows).split("\n")
    return "\n".join(lines)


def _golden_names() -> list[str]:
    return sorted(path.stem for path in GOLDEN.glob("*.txt"))


@pytest.fixture(scope="module")
def reports() -> dict[str, str]:
    return collect_reports()


def test_the_golden_set_names_every_report(reports):
    assert _golden_names() == sorted(reports)


def test_only_the_wall_clock_columns_are_masked(reports):
    found: set[str] = set()
    for text in reports.values():
        found |= masked_headers(text)
    assert found == TIMING_HEADERS


@pytest.mark.parametrize("name", _golden_names())
def test_report_matches_its_golden_copy(name, reports):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    actual = mask_timings(reports[name]) + "\n"
    if actual != expected:
        diff = difflib.unified_diff(
            expected.splitlines(),
            actual.splitlines(),
            f"tests/golden/{name}.txt",
            f"{name} (this checkout)",
            lineterm="",
        )
        pytest.fail(f"{name} moved:\n" + "\n".join(diff), pytrace=False)


def test_masking_blanks_ms_columns_and_keeps_the_rest():
    report = "Title\n" + format_table(
        ["n", "ms/step", "label"], [[1, 0.123456, "a b"], [20, 12.5, "c"]]
    ) + "\nfootnote"
    assert mask_timings(report) == "Title\n" + format_table(
        ["n", "ms/step", "label"], [[1, "-", "a b"], [20, "-", "c"]]
    ) + "\nfootnote"
    assert mask_timings(mask_timings(report)) == mask_timings(report)


def test_a_report_without_a_timed_table_is_left_alone():
    prose = "Figure X\nms are mentioned here\n----  --\nno header above"
    assert mask_timings(prose) == prose
    untimed = "Title\n" + format_table(["q", "rank"], [["a", 1.5], ["b", 12]])
    assert mask_timings(untimed) == untimed
    assert masked_headers(untimed) == set()


def test_only_the_timed_table_of_two_is_rerendered():
    untimed = format_table(["model", "mean"], [["ATF", 1.25], ["IDF", 3.0]])
    timed = format_table(["k", "top-k ms"], [[10, 123.456], [20, 7.0]])
    report = "A\n" + untimed + "\n\nB\n" + timed
    assert mask_timings(report) == "A\n" + untimed + "\n\nB\n" + format_table(
        ["k", "top-k ms"], [[10, "-"], [20, "-"]]
    )
    assert masked_headers(report) == {"top-k ms"}


def test_a_masked_column_no_longer_depends_on_its_readings():
    fast = format_table(["n", "ms/step"], [[1, 0.5]])
    slow = format_table(["n", "ms/step"], [[1, 123456.789]])
    assert fast != slow
    assert mask_timings(fast) == mask_timings(slow)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    fresh = collect_reports()
    for stale in set(_golden_names()) - set(fresh):
        (GOLDEN / f"{stale}.txt").unlink()
    for name, text in fresh.items():
        (GOLDEN / f"{name}.txt").write_text(mask_timings(text) + "\n", encoding="utf-8")
    print(f"wrote {len(fresh)} golden reports to {GOLDEN}")
