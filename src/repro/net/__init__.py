"""Network serving and load generation.

The one serving stack over :class:`repro.server.QueryServer`, and the
tools that measure it:

* :mod:`repro.net.protocol` — the newline-delimited JSON wire protocol
  (request/response shapes, error codes, incremental line framing with an
  oversize guard).
* :mod:`repro.net.listener` — the asyncio listener with admission
  control: connection limits, a bounded in-flight queue with explicit
  overload rejection, per-request timeouts, graceful drain on SIGTERM and
  a fork-per-worker multi-process mode; its line transport runs over TCP
  or, with no socket configured, over the process's stdin/stdout.
* :mod:`repro.net.http` — the HTTP/1.1 front end (``serve --http``):
  a hand-rolled ``Content-Length``-framed parser and a request router
  composing over the same listener admission core, so curl and the TCP
  protocol share one connection cap, queue, drain and stats block.
* :mod:`repro.net.loadgen` — open- and closed-loop asyncio load clients
  behind ``repro bench-load`` (TCP and HTTP transports).
* :mod:`repro.net.monitor` — CPU/RSS sampling of the server process from
  ``/proc`` (stdlib only).
* :mod:`repro.net.results` — schema-versioned ``BENCH_serve_*.json``
  records: build, persist, validate.
"""

from importlib import import_module

#: Public name -> defining submodule.  Resolved lazily so ``python -m
#: repro.net.results`` (the CI validation entry point) does not import the
#: whole serving stack first — runpy would warn about the double import.
_EXPORTS = {
    "HTTPQueryServer": "repro.net.http",
    "TCPQueryServer": "repro.net.listener",
    "TCPServerConfig": "repro.net.listener",
    "run_tcp_server": "repro.net.listener",
    "run_bench_load": "repro.net.loadgen",
    "ResourceMonitor": "repro.net.monitor",
    "BENCH_SCHEMA_VERSION": "repro.net.results",
    "build_bench_report": "repro.net.results",
    "validate_bench_report": "repro.net.results",
    "write_bench_report": "repro.net.results",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value  # cache: subsequent lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "BENCH_SCHEMA_VERSION",
    "HTTPQueryServer",
    "ResourceMonitor",
    "TCPQueryServer",
    "TCPServerConfig",
    "build_bench_report",
    "run_bench_load",
    "run_tcp_server",
    "validate_bench_report",
    "write_bench_report",
]
