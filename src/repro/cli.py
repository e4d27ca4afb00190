"""Command-line interface.

Exposes the library's main flows on the bundled synthetic datasets:

    python -m repro.cli search    --dataset imdb "hanks 2001"
    python -m repro.cli search    --dataset imdb --explain "hanks 2001"
    python -m repro.cli search    --dataset imdb --backend sqlite --db-path imdb.sqlite "hanks 2001"
    python -m repro.cli construct --dataset imdb "hanks 2001" --answers y n y
    python -m repro.cli diversify --dataset lyrics "london" --k 5
    python -m repro.cli serve     --dataset imdb
    python -m repro.cli serve     --dataset imdb --tcp --port 7341
    python -m repro.cli report    --chapter 3

Every query flow routes through one :class:`repro.engine.QueryEngine`
(segment → generate → rank → execute); ``query`` is an alias of ``search``.
``--explain`` prints the rendered SQL of the top interpretations, per-stage
timings and the result-cache hit/miss counters from the engine context.
``construct`` runs the IQP dialogue: with ``--answers`` the given y/n
sequence answers the options (cycling); without it the session is driven
interactively from stdin.  ``serve`` is one server with three transports
(see :mod:`repro.net`): newline-delimited JSON requests on stdin/stdout by
default, on a TCP listener with ``--tcp``, over HTTP/1.1 with ``--http`` —
all behind the same connection limit, bounded-queue overload rejection,
per-request timeout and SIGTERM graceful drain; ``--tcp-workers N`` forks N
serving processes over one listening socket.
``--backend``/``--db-path``/``--shards`` select
the storage engine (see ``docs/cli.md``); a persistent SQLite file is reused
on subsequent runs — including its persisted index postings and planner
statistics — instead of re-generating the dataset.
``--backend sqlite-sharded`` hash-partitions the store across ``--shards``
attached database files and still runs one statement per executed
interpretation (every join slot a ``UNION ALL`` of its partitions; the union
and the sort are SQLite's); ``--cache-size`` bounds
the process-level result-cache LRU, which starts empty on every run.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.hierarchy import QueryHierarchy
from repro.core.keywords import KeywordQuery
from repro.core.snippets import make_snippet
from repro.db.backends import available_backends
from repro.db.errors import DatabaseError
from repro.divq.diversify import diversify, divq_model, relevance_pool
from repro.engine import EngineConfig, QueryEngine
from repro.iqp.infogain import information_gain


def _engine_config(args: argparse.Namespace) -> EngineConfig | None:
    """Engine knobs from the shared storage/engine flags (None = defaults)."""
    overrides: dict[str, object] = {}
    if getattr(args, "cache_size", None) is not None:
        overrides["result_cache_size"] = args.cache_size
    if getattr(args, "read_pool_size", None) is not None:
        overrides["read_pool_size"] = args.read_pool_size
    if not overrides:
        return None
    return EngineConfig(**overrides)  # type: ignore[arg-type]


@contextmanager
def _engine(args: argparse.Namespace) -> Iterator[QueryEngine]:
    """The one pipeline entry point every query subcommand uses.

    Closes the engine's backend on the way out: a one-shot run on a
    ``--db-path`` store commits its pending writes (and re-saves a stale
    index or statistics) in ``close()``.
    """
    config = _engine_config(args)
    try:
        engine = QueryEngine.for_dataset(
            args.dataset,
            backend=args.backend,
            db_path=args.db_path,
            shards=args.shards,
            **({} if config is None else {"config": config}),
        )
    except ValueError as exc:  # unknown dataset / --db-path / --shards misuse
        raise SystemExit(f"error: {exc}") from None
    except DatabaseError as exc:  # unreadable/mismatched --db-path file
        raise SystemExit(f"error: {exc}") from None
    try:
        yield engine
    finally:
        engine.backend.close()


def cmd_search(args: argparse.Namespace) -> int:
    with _engine(args) as engine:
        context = engine.run(args.query, k=args.k, explain=args.explain)
    if not context.ranked:
        print("no interpretations found")
        return 1
    ranked = context.ranked
    print(f"{len(ranked)} interpretations; top {min(args.k, len(ranked))}:")
    for i, (interp, p) in enumerate(ranked[: args.k], start=1):
        print(f"  {i}. P={p:.3f}  {interp.to_structured_query().algebra()}")
    executed = context.executor_statistics.interpretations_executed
    print(f"\ntop-{args.k} results ({executed} interpretations executed):")
    for r in context.results:
        print(f"  [{r.score:.3f}] {make_snippet(context.query, r.row).text}")
    if args.explain:
        print()
        print("\n".join(context.explain_lines()))
    return 0


@dataclass
class _ScriptedUser:
    """Answers construction options from a y/n script (cycling)."""

    answers: list[str]
    position: int = 0
    evaluations: int = 0
    log: list[tuple[str, bool]] = field(default_factory=list)

    def decide(self, description: str) -> bool:
        answer = self.answers[self.position % len(self.answers)]
        self.position += 1
        self.evaluations += 1
        accepted = answer.lower().startswith("y")
        self.log.append((description, accepted))
        return accepted


def cmd_construct(args: argparse.Namespace) -> int:
    with _engine(args) as engine:
        return _construct(args, engine)


def _construct(args: argparse.Namespace, engine: QueryEngine) -> int:
    query = KeywordQuery.parse(args.query)
    hierarchy = QueryHierarchy(query, engine.generator, engine.model)
    scripted = _ScriptedUser(args.answers) if args.answers else None
    steps = 0
    while steps < args.max_steps:
        steps += 1
        while hierarchy.can_expand() and len(hierarchy) < 20:
            hierarchy.expand_once()
        if hierarchy.at_complete_level() and len(hierarchy) <= args.stop_size:
            break
        weights = [n.weight for n in hierarchy.frontier]
        best, best_gain = None, 0.0
        for option in hierarchy.frontier_atoms():
            pattern = [option.matches(n.atoms) for n in hierarchy.frontier]
            if all(pattern) or not any(pattern):
                continue
            gain = information_gain(weights, pattern)
            if gain > best_gain:
                best, best_gain = option, gain
        if best is None:
            if hierarchy.can_expand():
                hierarchy.expand_once()
                continue
            break
        prompt = f"{best.describe()}? [y/n] "
        if scripted is not None:
            accepted = scripted.decide(best.describe())
            print(prompt + ("y" if accepted else "n"))
        else:  # pragma: no cover - interactive path
            reply = input(prompt).strip().lower()
            accepted = reply.startswith("y")
        if accepted:
            hierarchy.accept(best)
        else:
            hierarchy.reject(best)
        if not hierarchy.frontier:
            print("no interpretation consistent with the answers")
            return 1
    hierarchy.expand_to_complete()
    candidates = hierarchy.complete_interpretations()
    print(f"\n{len(candidates)} candidate interpretation(s):")
    for i, interp in enumerate(candidates[:5], start=1):
        print(f"  {i}. {interp.to_structured_query().algebra()}")
    return 0


def cmd_diversify(args: argparse.Namespace) -> int:
    with _engine(args) as engine:
        # Chapter 4's pipeline: rank by DivQ's model, pool the non-empty top 25.
        ranked = relevance_pool(engine.with_model(divq_model).rank(args.query))
    if not ranked:
        print("no interpretations found")
        return 1
    result = diversify(ranked, k=args.k, tradeoff=args.tradeoff)
    print(f"top-{args.k} diversified interpretations (lambda={args.tradeoff}):")
    for i, interp in enumerate(result.selected, start=1):
        print(f"  {i}. {interp.to_structured_query().algebra()}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """One server, three transports over one admission core.

    Newline-delimited JSON (:mod:`repro.net.protocol`) through
    :func:`repro.net.listener.run_tcp_server`: connection cap, bounded
    in-flight queue with explicit ``overloaded`` rejections, per-request
    timeouts, and a drain on SIGTERM/SIGINT.  Without ``--tcp``/``--http``
    no socket is bound and the process's stdin/stdout is the one client
    connection (request line in, response line out, EOF drains and exits);
    ``--tcp`` listens on ``--port``, ``--http`` adds the HTTP/1.1 front end
    (:mod:`repro.net.http`) on ``--http-port`` beside it, and
    ``--tcp-workers N`` forks N serving processes over the bound sockets.
    """
    from repro.net.listener import TCPServerConfig, run_tcp_server

    config = TCPServerConfig(
        host=args.host,
        port=args.port if args.tcp or args.http else None,
        dataset=args.dataset,
        backend=args.backend,
        db_path=args.db_path,
        shards=args.shards,
        k=args.k,
        engine_workers=args.workers,
        max_connections=args.max_connections,
        queue_limit=args.queue_limit,
        request_timeout=args.request_timeout,
        http_port=args.http_port if args.http else None,
    )
    try:
        return run_tcp_server(
            config, workers=args.tcp_workers, engine_config=_engine_config(args)
        )
    except (ValueError, DatabaseError, OSError) as exc:
        raise SystemExit(f"error: {exc}") from None


def cmd_stats(args: argparse.Namespace) -> int:
    """Print the planner-statistics catalog of one dataset's store.

    Shows per-relation row counts (what the sharded seed-slot chooser reads),
    per-attribute distinct-value counts and heaviest-value frequencies, plus
    whether a persistent store's ``_repro_stats_*`` side tables are
    fresh against the live content fingerprint.
    """
    from repro.datasets.imdb import build_imdb
    from repro.datasets.lyrics import build_lyrics
    from repro.experiments.reporting import format_table

    builders = {"imdb": build_imdb, "lyrics": build_lyrics}
    try:
        builder = builders[args.dataset]
    except KeyError:
        raise SystemExit(
            f"error: unknown dataset {args.dataset!r} "
            f"(use {' or '.join(sorted(builders))})"
        ) from None
    try:
        db = builder(backend=args.backend, db_path=args.db_path, shards=args.shards)
    except (ValueError, DatabaseError) as exc:
        raise SystemExit(f"error: {exc}") from None
    db.require_index()  # collects (or reloads) the statistics catalog
    catalog = db.statistics_catalog()
    fingerprint = db.content_fingerprint()
    print(f"dataset: {args.dataset} (backend {db.name})")
    print(f"content fingerprint: {fingerprint}")
    stored_fingerprint = getattr(db, "persisted_stats_fingerprint", lambda: None)()
    if stored_fingerprint is None:
        print("persisted statistics: none (collected in memory this open)")
    elif stored_fingerprint == fingerprint:
        print("persisted statistics: fresh (fingerprint matches)")
    else:
        print(
            "persisted statistics: stale "
            f"(stored under {stored_fingerprint}; will be recollected)"
        )
    print()
    print(
        format_table(
            ["table", "rows"],
            [[name, rows] for name, rows in catalog.iter_rows()],
        )
    )
    print()
    print(
        format_table(
            ["table", "attribute", "distinct", "max frequency"],
            [list(entry) for entry in catalog.iter_attributes()],
        )
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments import ch3, ch4, ch5, ch6

    mains = {3: ch3.main, 4: ch4.main, 5: ch5.main, 6: ch6.main}
    if args.chapter not in mains:
        raise SystemExit("chapter must be 3, 4, 5 or 6")
    mains[args.chapter]()
    return 0


def _add_storage_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default="memory",
        choices=available_backends(),
        help="storage engine for the dataset (default: memory)",
    )
    parser.add_argument(
        "--db-path",
        default=None,
        dest="db_path",
        help="file path for persistent backends; reused (no re-generation) "
        "when it already holds the dataset",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="partition count for sharding backends (sqlite-sharded); a "
        "reopened store must be given its original shard count",
    )
    parser.add_argument(
        "--read-pool-size",
        type=int,
        default=None,
        dest="read_pool_size",
        help="reader connections a file-backed SQLite store may lease for "
        "concurrent read-only queries (default: backend default, 4; N "
        "readers on a sharded store too, each with every partition attached; "
        "1 is a pool of one reader, on the same code path); rows are "
        "identical at every size",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=None,
        dest="cache_size",
        help="capacity (entries) of the process-level result-cache LRU "
        "(default: 4096)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser(
        "search",
        aliases=["query"],
        help="rank interpretations and fetch top-k results",
    )
    p_search.add_argument("query")
    p_search.add_argument("--dataset", default="imdb")
    p_search.add_argument("--k", type=int, default=5)
    p_search.add_argument(
        "--explain",
        action="store_true",
        help="print rendered SQL, per-stage timings and cache hit/miss counters",
    )
    _add_storage_options(p_search)
    p_search.set_defaults(func=cmd_search)

    p_construct = sub.add_parser("construct", help="run an IQP construction dialogue")
    p_construct.add_argument("query")
    p_construct.add_argument("--dataset", default="imdb")
    p_construct.add_argument("--answers", nargs="*", default=None, help="scripted y/n answers")
    p_construct.add_argument("--stop-size", type=int, default=5, dest="stop_size")
    p_construct.add_argument("--max-steps", type=int, default=100, dest="max_steps")
    _add_storage_options(p_construct)
    p_construct.set_defaults(func=cmd_construct)

    p_div = sub.add_parser("diversify", help="diversified interpretation ranking")
    p_div.add_argument("query")
    p_div.add_argument("--dataset", default="imdb")
    p_div.add_argument("--k", type=int, default=5, help="interpretations to select")
    p_div.add_argument(
        "--tradeoff",
        type=float,
        default=0.5,
        help="lambda of Eq. 4.4: 1 = pure relevance, 0 = pure novelty (default: 0.5)",
    )
    _add_storage_options(p_div)
    p_div.set_defaults(func=cmd_diversify)

    p_serve = sub.add_parser(
        "serve",
        help="serve newline-delimited JSON keyword queries over a concurrent "
        "engine pool: on stdin/stdout by default, on sockets with --tcp/--http",
    )
    p_serve.add_argument("--dataset", default="imdb")
    p_serve.add_argument("--k", type=int, default=5)
    p_serve.add_argument(
        "--workers", type=int, default=8, help="worker threads in the serving pool"
    )
    p_serve.add_argument(
        "--tcp",
        action="store_true",
        help="listen on TCP instead of serving stdin/stdout as the one "
        "client connection",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="TCP bind address (default: 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port; 0 picks an ephemeral port, printed as "
        "'listening on <host>:<port>' (default: 0)",
    )
    p_serve.add_argument(
        "--http",
        action="store_true",
        help="also serve the HTTP/1.1 front end (POST /query, GET /healthz, "
        "GET /stats; see docs/http_api.md) over the same admission layer",
    )
    p_serve.add_argument(
        "--http-port",
        type=int,
        default=0,
        dest="http_port",
        help="HTTP port (with --http); 0 picks an ephemeral port, printed "
        "as 'http listening on <host>:<port>' (default: 0)",
    )
    p_serve.add_argument(
        "--tcp-workers",
        type=int,
        default=1,
        dest="tcp_workers",
        help="serving processes forked over one listening socket "
        "(each with its own engine pool; needs --tcp or --http; default: 1)",
    )
    p_serve.add_argument(
        "--max-connections",
        type=int,
        default=64,
        dest="max_connections",
        help="concurrent TCP connections before new ones are rejected "
        "with 'too-many-connections' (default: 64)",
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=32,
        dest="queue_limit",
        help="in-flight requests admitted per process before requests are "
        "rejected with 'overloaded' (default: 32)",
    )
    p_serve.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        dest="request_timeout",
        help="seconds before an in-flight request answers a 'timeout' "
        "error (default: 30)",
    )
    _add_storage_options(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_stats = sub.add_parser(
        "stats",
        help="print the planner-statistics catalog (per-relation rows, "
        "per-attribute cardinalities, persisted-stats staleness)",
    )
    p_stats.add_argument("--dataset", default="imdb")
    _add_storage_options(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_report = sub.add_parser("report", help="print a chapter's reproduced tables/figures")
    p_report.add_argument("--chapter", type=int, required=True)
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
