#!/usr/bin/env python
"""Docs lint: fail if the docs reference nonexistent CLI flags, modules or files.

Checks, over README.md and docs/*.md:

1. Every ``python -m repro.cli ...`` command in a fenced code block parses
   against the real argparse parser (subcommand, flags, choices, arity).
2. Every dotted ``repro.*`` name in code blocks or inline code resolves to an
   importable module, or a module attribute thereof.
3. Every repo-relative path mentioned (``src/...``, ``tests/...``,
   ``benchmarks/...``, ``docs/...``, ``examples/...``, ``scripts/...``)
   exists.

And two coverage checks in the opposite direction — code the docs must
not *omit*:

4. Every long option of every ``repro`` subcommand appears in
   ``docs/cli.md`` (an undocumented flag fails the lint) — and, forward,
   every ``--long-option`` token in ``docs/cli.md`` is an option of some
   subcommand (a deleted flag cannot linger in a table row).
5. Every HTTP route in ``repro.net.http.ROUTES`` appears in
   ``docs/http_api.md``, method and path both.

And one check that a documented interface still exists:

6. Every member named in the first column of the tables under
   ``## The contract`` in ``docs/architecture.md`` exists on
   ``StorageBackend`` or ``RelationView`` (``cached_result_get/put`` names
   ``cached_result_get`` and ``cached_result_put``), and the rows tagged
   *(abstract)* name exactly ``StorageBackend.__abstractmethods__``.

Run as ``PYTHONPATH=src python scripts/lint_docs.py`` (CI runs it on every
push, so the docs cannot drift from the code).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import re
import shlex
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]

FENCED_RE = re.compile(r"```[a-z]*\n(.*?)```", re.DOTALL)
INLINE_CODE_RE = re.compile(r"`([^`\n]+)`")
MODULE_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
PATH_RE = re.compile(r"\b(?:src|tests|benchmarks|docs|examples|scripts)/[\w./-]*\w")
LONG_OPTION_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
CONTRACT_RE = re.compile(r"^## The contract\n(.*?)(?=^## |\Z)", re.DOTALL | re.MULTILINE)


def iter_code(text: str):
    """All code content: fenced blocks and inline spans."""
    for match in FENCED_RE.finditer(text):
        yield match.group(1)
    without_fences = FENCED_RE.sub("", text)
    for match in INLINE_CODE_RE.finditer(without_fences):
        yield match.group(1)


def check_cli_commands(text: str, source: str, errors: list[str]) -> None:
    from repro.cli import build_parser

    for block in FENCED_RE.finditer(text):
        for line in block.group(1).splitlines():
            line = line.strip()
            if not line.startswith("python -m repro.cli"):
                continue
            if "<" in line:  # usage placeholders like <subcommand>
                continue
            argv = shlex.split(line)[3:]  # drop "python -m repro.cli"
            if not argv:
                errors.append(f"{source}: bare repro.cli invocation: {line}")
                continue
            parser = build_parser()
            try:
                with contextlib.redirect_stderr(io.StringIO()) as stderr:
                    parser.parse_args(argv)
            except SystemExit:
                detail = stderr.getvalue().strip().splitlines()
                errors.append(
                    f"{source}: invalid CLI command: {line}"
                    + (f" ({detail[-1]})" if detail else "")
                )


def check_module_references(text: str, source: str, errors: list[str]) -> None:
    for code in iter_code(text):
        for dotted in set(MODULE_RE.findall(code)):
            if not _resolves(dotted):
                errors.append(f"{source}: unresolvable reference: {dotted}")


def _resolves(dotted: str) -> bool:
    """True if ``dotted`` is an importable module or an attribute of one."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        obj = module
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def check_paths(text: str, source: str, errors: list[str]) -> None:
    for code in iter_code(text):
        for path in set(PATH_RE.findall(code)):
            if not (REPO_ROOT / path).exists():
                errors.append(f"{source}: missing file or directory: {path}")


def iter_cli_option_strings():
    """Every ``(subcommand, long option)`` the real parser accepts.

    Subparser aliases are deduplicated by parser identity; ``--help`` is
    skipped (argparse adds it everywhere, the docs need not).
    """
    import argparse

    from repro.cli import build_parser

    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    seen: set[int] = set()
    for name, sub in subparsers.choices.items():
        if id(sub) in seen:
            continue
        seen.add(id(sub))
        for action in sub._actions:
            for option in action.option_strings:
                if option.startswith("--") and option != "--help":
                    yield name, option


def check_cli_flag_coverage(cli_doc_text: str, errors: list[str]) -> None:
    """Every CLI long option must appear somewhere in docs/cli.md, and every
    long option docs/cli.md names must be a real one."""
    options = set()
    for subcommand, option in iter_cli_option_strings():
        options.add(option)
        if option not in cli_doc_text:
            errors.append(
                f"docs/cli.md: undocumented flag: {subcommand} {option}"
            )
    for option in sorted(set(LONG_OPTION_RE.findall(cli_doc_text)) - options):
        errors.append(f"docs/cli.md: no subcommand has the flag {option}")


def check_http_route_coverage(http_doc_text: str, errors: list[str]) -> None:
    """Every served route must appear in docs/http_api.md, method and path."""
    from repro.net.http import ROUTES

    for method, path in ROUTES:
        if method not in http_doc_text or path not in http_doc_text:
            errors.append(
                f"docs/http_api.md: undocumented route: {method} {path}"
            )


def contract_rows(architecture_text: str) -> list[tuple[list[str], str]]:
    """``(member names, contract cell)`` of every contract table row, in
    order, with ``prefix_a/b/c`` spelled out and argument lists dropped."""
    section = CONTRACT_RE.search(architecture_text)
    rows: list[tuple[list[str], str]] = []
    for line in section.group(1).splitlines() if section else []:
        cells = line.split("|")
        if not line.startswith("|") or len(cells) < 3:
            continue
        names: list[str] = []
        for code in INLINE_CODE_RE.findall(cells[1]):
            first, *rest = code.split("(", 1)[0].strip().split("/")
            prefix = first.rsplit("_", 1)[0] + "_" if "_" in first else ""
            names += [first, *(prefix + suffix for suffix in rest)]
        rows.append((names, cells[2]))
    return rows


def contract_members(architecture_text: str) -> list[str]:
    """Member names in the first column of the contract tables, in order."""
    rows = contract_rows(architecture_text)
    return [name for names, _contract in rows for name in names]


def check_contract_members(architecture_text: str, errors: list[str]) -> None:
    """Every member the contract tables name must exist on the interface,
    and the *(abstract)* tags must name exactly the abstract methods."""
    from repro.db.backends.base import RelationView, StorageBackend

    for name in contract_members(architecture_text):
        if not (hasattr(StorageBackend, name) or hasattr(RelationView, name)):
            errors.append(
                f"docs/architecture.md: the contract names a missing member: {name}"
            )
    tagged = {
        name
        for names, contract in contract_rows(architecture_text)
        if contract.strip().startswith("*(abstract)*")
        for name in names
    }
    abstract = set(StorageBackend.__abstractmethods__)
    for name in sorted(abstract - tagged):
        errors.append(
            f"docs/architecture.md: abstract member without an *(abstract)* tag: {name}"
        )
    for name in sorted(tagged - abstract):
        errors.append(
            f"docs/architecture.md: *(abstract)* tag on a concrete member: {name}"
        )


def main() -> int:
    errors: list[str] = []
    texts: dict[str, str] = {}
    for doc in DOC_FILES:
        text = doc.read_text(encoding="utf-8")
        source = doc.relative_to(REPO_ROOT).as_posix()
        texts[source] = text
        check_cli_commands(text, source, errors)
        check_module_references(text, source, errors)
        check_paths(text, source, errors)
    check_cli_flag_coverage(texts.get("docs/cli.md", ""), errors)
    check_http_route_coverage(texts.get("docs/http_api.md", ""), errors)
    check_contract_members(texts.get("docs/architecture.md", ""), errors)
    if errors:
        print(f"docs lint: {len(errors)} error(s)", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    print(f"docs lint: OK ({len(DOC_FILES)} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
