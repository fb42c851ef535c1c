"""Validation as a service: session facade, HTTP server, caching client.

One request/response contract (:mod:`repro.service.api`) shared by the CLI,
the in-process :class:`ValidationSession` facade, the ``repro serve`` HTTP
server and the :class:`ServiceClient`.  See ``docs/architecture.md``,
"Validation as a service".

The submodules load on first use (PEP 562): importing
``repro.service.api`` for :class:`ServiceError` does not pull in the HTTP
client, the server or the multiprocessing shard fleet.
"""

from __future__ import annotations

from .._lazy import lazy_exports

_EXPORTS = {
    "API_VERSION": "api",
    "DeltaRequest": "api",
    "DeltaResponse": "api",
    "ServiceError": "api",
    "ServiceStats": "api",
    "ValidationRequest": "api",
    "VerdictResponse": "api",
    "RetryPolicy": "client",
    "ServiceClient": "client",
    "VerdictCache": "client",
    "FAULT_POINTS": "faults",
    "FaultInjector": "faults",
    "FaultPlan": "faults",
    "FaultSpec": "faults",
    "ShardFleet": "fleet",
    "ReproServer": "server",
    "ValidationService": "server",
    "serve": "server",
    "ValidationSession": "session",
    "ShardedValidator": "sharding",
    "shard_of": "sharding",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
