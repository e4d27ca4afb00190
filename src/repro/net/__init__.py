"""Network serving.

The one serving stack over :class:`repro.server.QueryServer`:

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

The server is measured from outside, by the harness under
``benchmarks/layered/``.
"""
