#!/usr/bin/env python
"""Reachability probe: which functions under ``src/`` does anything run?

    PYTHONPATH=src python scripts/reach.py

Runs, in this one process and under a ``sys.setprofile`` +
``threading.setprofile`` hook, every entry point a reader of this
repository is pointed at:

* ``python -m repro.experiments.run_all`` (all 29 reproduced tables and
  figures);
* every ``examples/*.py``;
* the one-shot ``repro`` transcripts of README.md and docs/cli.md
  (``search`` ×6, ``construct``, ``diversify`` ×2, ``stats`` ×3,
  ``report --chapter 3/4/5/6``), one stdio ``serve`` exchange and one
  HTTP exchange (``GET /healthz``, ``POST /query``, ``GET /stats``) with an
  in-process server on a free localhost port.

Then it compiles every module under ``src/repro`` and prints, per module,
the functions (``def`` and ``lambda``) no entry point entered, with their
line spans, followed by the totals.

This is an audit aid, not a gate: a function it lists is a candidate for
deletion only if no test of behaviour that stays needs it and the thesis
does not name it.  The serving set (``repro.net``, ``repro.server``,
``repro.engine``, ``repro.db.backends`` under concurrent TCP/HTTP load) is
measured by ``benchmarks/layered/``, whose tracer enters it far more
thoroughly than the two exchanges here do.
"""

from __future__ import annotations

import asyncio
import contextlib
import inspect
import io
import os
import re
import runpy
import sys
import tempfile
import threading
from pathlib import Path
from types import CodeType
from unittest import mock

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"

#: The documented one-shot transcripts; ``{tmp}`` becomes a scratch directory.
TRANSCRIPTS = [
    ["search", "--dataset", "imdb", "hanks 2001"],
    ["search", "--dataset", "imdb", "--explain", "hanks 2001"],
    ["search", "--dataset", "imdb", "--backend", "sqlite", "--db-path", "{tmp}/imdb.sqlite", "hanks 2001"],
    ["search", "--dataset", "imdb", "--backend", "sqlite", "--db-path", "{tmp}/imdb.sqlite", "--explain", "hanks 2001"],
    ["search", "--dataset", "imdb", "--backend", "sqlite-sharded", "--shards", "3",
     "--db-path", "{tmp}/imdb-sharded.sqlite", "hanks 2001"],
    ["search", "--dataset", "imdb", "--backend", "sqlite-sharded", "--shards", "3", "--explain", "london"],
    ["construct", "--dataset", "imdb", "hanks 2001", "--answers", "y", "n", "y"],
    ["diversify", "--dataset", "lyrics", "london", "--k", "5"],
    ["diversify", "--dataset", "lyrics", "london", "--k", "5", "--tradeoff", "0.5"],
    ["stats", "--dataset", "imdb"],
    ["stats", "--dataset", "imdb", "--backend", "sqlite", "--db-path", "{tmp}/imdb.sqlite"],
    ["stats", "--dataset", "lyrics", "--backend", "sqlite-sharded", "--shards", "3",
     "--db-path", "{tmp}/lyrics.sqlite"],
    ["report", "--chapter", "3"],
    ["report", "--chapter", "4"],
    ["report", "--chapter", "5"],
    ["report", "--chapter", "6"],
]

#: What the stdio ``serve`` transcript pipes in.
SERVE_INPUT = b'{"query": "london", "k": 3}\n'

_HELPERS = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")


def _function_key(code: CodeType) -> tuple[str, int, str]:
    return (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)


def _is_function(code: CodeType) -> bool:
    # Class bodies run without new locals; comprehensions are their function's.
    return bool(code.co_flags & inspect.CO_NEWLOCALS) and code.co_name not in _HELPERS


def _quiet(run) -> None:
    """Run ``run()`` with its stdout discarded (``serve`` writes to ``.buffer``)."""
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO(), write_through=True)):
        run()


def _serve_stdio() -> None:
    from repro.cli import main

    read_fd, write_fd = os.pipe()
    os.write(write_fd, SERVE_INPUT)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe, mock.patch("sys.stdin", pipe):
        main(["serve", "--dataset", "imdb"])


def _serve_http() -> None:
    from repro.net.http import HTTPQueryServer, encode_query_request
    from repro.net.listener import TCPQueryServer, TCPServerConfig
    from repro.server import QueryServer

    requests = [
        b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n",
        encode_query_request("london", dataset="imdb", k=3),
        b"GET /stats HTTP/1.1\r\nHost: localhost\r\n\r\n",
    ]

    async def exchange() -> None:
        with QueryServer(max_workers=1) as pool:
            core = TCPQueryServer(pool, TCPServerConfig(port=None))
            await core.start()
            front = HTTPQueryServer(core)
            await front.start(port=0)
            reader, writer = await asyncio.open_connection(*front.address)
            try:
                for raw in requests:
                    writer.write(raw)
                    head = await reader.readuntil(b"\r\n\r\n")
                    if not head.startswith(b"HTTP/1.1 200 "):
                        raise RuntimeError(head.decode("ascii"))
                    length = re.search(rb"Content-Length: (\d+)", head)
                    await reader.readexactly(int(length.group(1)))
            finally:
                writer.close()
                await writer.wait_closed()
                await core.drain()

    asyncio.run(exchange())


def entry_points(tmp: str):
    """``(label, run)`` for every probed entry point."""
    def run_all():
        from repro.experiments.run_all import main

        main([])

    yield "run_all", run_all
    for example in sorted((REPO_ROOT / "examples").glob("*.py")):
        yield f"examples/{example.name}", lambda path=str(example): runpy.run_path(
            path, run_name="__main__"
        )
    for argv in TRANSCRIPTS:
        argv = [arg.replace("{tmp}", tmp) for arg in argv]

        def transcript(argv=argv):
            from repro.cli import main

            main(argv)

        yield "repro " + " ".join(argv[:4]), transcript
    yield "repro serve (stdio)", _serve_stdio
    yield "repro serve (http)", _serve_http


def probe() -> set[tuple[str, int, str]]:
    """Keys of every ``src/`` function the entry points enter."""
    reached: set[CodeType] = set()

    def hook(frame, event, _arg):
        if event == "call":
            reached.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        for label, run in entry_points(tmp):
            print(f"probing {label}", file=sys.stderr)
            sys.setprofile(hook)
            threading.setprofile(hook)
            try:
                _quiet(run)
            finally:
                sys.setprofile(None)
                threading.setprofile(None)
    root = str(SRC.resolve())
    return {
        key for key in map(_function_key, reached) if key[0].startswith(root)
    }


def module_functions(path: Path) -> list[CodeType]:
    """Every function code object compiled from ``path``, in line order."""
    found: list[CodeType] = []
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        if _is_function(code):
            found.append(code)
        pending.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return sorted(found, key=lambda c: c.co_firstlineno)


def _span(code: CodeType) -> int:
    last = max((line for _s, _e, line in code.co_lines() if line), default=code.co_firstlineno)
    return last - code.co_firstlineno + 1


def main() -> int:
    sys.path.insert(0, str(SRC.parent))
    reached = probe()
    total = unreached_count = unreached_lines = 0
    untouched: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        functions = module_functions(path)
        missed = [c for c in functions if _function_key(c) not in reached]
        total += len(functions)
        unreached_count += len(missed)
        unreached_lines += sum(map(_span, missed))
        name = path.relative_to(SRC.parent).as_posix()
        if functions and len(missed) == len(functions):
            untouched.append(name)
        if missed:
            print(f"{name}: {len(missed)} of {len(functions)} functions unreached")
            for code in missed:
                qualname = getattr(code, "co_qualname", code.co_name)
                print(f"  {code.co_firstlineno:>5}  {qualname} ({_span(code)} lines)")
    print()
    print(f"reached {total - unreached_count} of {total} src/ functions")
    print(f"unreached: {unreached_count} functions, {unreached_lines} lines")
    print(f"modules with no function reached ({len(untouched)}): {', '.join(untouched) or '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
