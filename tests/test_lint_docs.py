"""The docs linter's coverage checks: flags and routes cannot go
undocumented.

``scripts/lint_docs.py`` already refuses docs that reference nonexistent
CLI commands, modules or paths; these tests pin the *reverse* direction —
every real CLI long option must appear in ``docs/cli.md``, every served
HTTP route in ``docs/http_api.md`` — including the negative cases: the
linter must fail on an intentionally undocumented flag or route (the
acceptance criterion), and the full ``main()`` must pass on the repo as
committed.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_linter():
    spec = importlib.util.spec_from_file_location(
        "lint_docs", REPO_ROOT / "scripts" / "lint_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


linter = _load_linter()


class TestFlagCoverage:
    def test_real_docs_cover_every_flag(self):
        cli_doc = (REPO_ROOT / "docs" / "cli.md").read_text(encoding="utf-8")
        errors: list[str] = []
        linter.check_cli_flag_coverage(cli_doc, errors)
        assert errors == []

    def test_undocumented_flag_fails(self):
        """Negative: a docs/cli.md missing one real flag must be reported."""
        cli_doc = (REPO_ROOT / "docs" / "cli.md").read_text(encoding="utf-8")
        stripped = cli_doc.replace("--http-port", "--SCRUBBED")
        errors: list[str] = []
        linter.check_cli_flag_coverage(stripped, errors)
        assert any("--http-port" in error for error in errors)

    @pytest.mark.parametrize(
        "stale",
        [
            "| `--semantic-cache` | off | A table row. |",
            "| `--backend`, `--semantic-cache` | | A list of flags in one cell. |",
            "Prose: rows never change with --semantic-cache on.",
        ],
    )
    def test_a_flag_no_subcommand_has_fails(self, stale):
        """Negative, forward: a deleted flag left anywhere in the page is
        reported, not only on a ``python -m repro.cli`` line."""
        cli_doc = (REPO_ROOT / "docs" / "cli.md").read_text(encoding="utf-8")
        errors: list[str] = []
        linter.check_cli_flag_coverage(f"{cli_doc}\n{stale}\n", errors)
        assert errors == ["docs/cli.md: no subcommand has the flag --semantic-cache"]

    def test_option_enumeration_sees_new_serve_flags(self):
        options = {
            option for _sub, option in linter.iter_cli_option_strings()
        }
        assert {"--http", "--http-port", "--tcp", "--queue-limit"} <= options
        assert "--help" not in options

    def test_empty_doc_reports_every_flag(self):
        errors: list[str] = []
        linter.check_cli_flag_coverage("", errors)
        assert len(errors) == len(set(linter.iter_cli_option_strings()))


class TestRouteCoverage:
    def test_real_docs_cover_every_route(self):
        http_doc = (REPO_ROOT / "docs" / "http_api.md").read_text(
            encoding="utf-8"
        )
        errors: list[str] = []
        linter.check_http_route_coverage(http_doc, errors)
        assert errors == []

    def test_undocumented_route_fails(self):
        """Negative: a docs/http_api.md without /healthz must be reported."""
        http_doc = (REPO_ROOT / "docs" / "http_api.md").read_text(
            encoding="utf-8"
        )
        stripped = http_doc.replace("/healthz", "/SCRUBBED")
        errors: list[str] = []
        linter.check_http_route_coverage(stripped, errors)
        assert any("/healthz" in error for error in errors)

    def test_empty_doc_reports_every_route(self):
        from repro.net.http import ROUTES

        errors: list[str] = []
        linter.check_http_route_coverage("", errors)
        assert len(errors) == len(ROUTES)


class TestContractMembers:
    def test_real_contract_names_only_existing_members(self):
        architecture = (REPO_ROOT / "docs" / "architecture.md").read_text(
            encoding="utf-8"
        )
        assert "close" in linter.contract_members(architecture)
        errors: list[str] = []
        linter.check_contract_members(architecture, errors)
        assert errors == []

    def test_a_row_naming_removed_hooks_fails(self):
        """Negative: a contract row for hooks the backend no longer has is
        reported once per expanded name."""
        architecture = (REPO_ROOT / "docs" / "architecture.md").read_text(
            encoding="utf-8"
        )
        stale = architecture.replace(
            "| `close()` |",
            "| `cached_result_get/flush(fingerprint, key)` | Gone. |\n| `close()` |",
            1,
        )
        errors: list[str] = []
        linter.check_contract_members(stale, errors)
        assert errors == [
            "docs/architecture.md: the contract names a missing member: cached_result_get",
            "docs/architecture.md: the contract names a missing member: cached_result_flush",
        ]

    def test_abstract_tags_name_exactly_the_abstract_methods(self):
        """Both directions: an abstract method whose row lost its tag, and
        a tag on a member the base class implements, are each reported."""
        architecture = (REPO_ROOT / "docs" / "architecture.md").read_text(
            encoding="utf-8"
        )
        untagged = architecture.replace(
            "| `_stream_plan(plan, execution)` | *(abstract)* ",
            "| `_stream_plan(plan, execution)` | ",
            1,
        )
        mistagged = architecture.replace(
            "| `execute_path(path, edges, selections, limit)` | *(shared)* ",
            "| `execute_path(path, edges, selections, limit)` | *(abstract)* ",
            1,
        )
        for text, error in (
            (untagged, "abstract member without an *(abstract)* tag: _stream_plan"),
            (mistagged, "*(abstract)* tag on a concrete member: execute_path"),
        ):
            assert text != architecture
            errors: list[str] = []
            linter.check_contract_members(text, errors)
            assert errors == [f"docs/architecture.md: {error}"]

    def test_names_are_expanded_and_only_the_contract_section_counts(self):
        text = (
            "## The contract\n\n| Member | Contract |\n|---|---|\n"
            "| `a_b/c(x, y)` / `d` | . |\n\n## Invariants\n\n| `e` | . |\n"
        )
        assert linter.contract_members(text) == ["a_b", "a_c", "d"]


def test_full_linter_passes_on_the_repo(capsys):
    """The committed docs and code agree end to end (what CI runs)."""
    assert linter.main() == 0
    assert "OK" in capsys.readouterr().out


def test_full_linter_fails_on_an_invalid_cli_command(tmp_path, monkeypatch):
    """A doc referencing a flag the parser does not accept fails main()."""
    bad = tmp_path / "bad.md"
    bad.write_text(
        "```bash\npython -m repro.cli serve --no-such-flag\n```\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(linter, "DOC_FILES", [bad])
    monkeypatch.setattr(linter, "REPO_ROOT", tmp_path)
    assert linter.main() == 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(linter.main())
