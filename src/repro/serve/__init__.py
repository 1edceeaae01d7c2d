"""repro.serve: a crash-safe, backpressured experiment service.

A long-lived daemon around the experiment harness: clients submit figure
sweeps, fault sweeps and contention runs over a unix-socket JSON-lines
protocol; the daemon keeps the scenario cache and one warm execution pool
across requests, journals every accepted request so a ``kill -9`` costs
the trials in flight rather than the request, and applies explicit
backpressure (bounded queue, watermark shedding) instead of unbounded
buffering.  See docs/serving.md for the protocol and the recovery
semantics, and :mod:`repro.serve.service` for the lifecycle internals.
"""

from importlib import import_module

from repro.serve.protocol import MAX_REQUEST_BYTES, ServeError, parse_request

__all__ = [
    "MAX_REQUEST_BYTES",
    "ServeError",
    "ServeServer",
    "ServeService",
    "parse_request",
]


def __getattr__(name: str):
    # The service imports the experiment adapters, which import this
    # package's protocol module: loading it on first use keeps
    # ``import repro.workload.serve_adapters`` free of an import cycle.
    if name in ("ServeService", "ServeServer"):
        module = "service" if name == "ServeService" else "server"
        return getattr(import_module(f"repro.serve.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
