"""A thin blocking client with a generation-invalidated verdict cache.

Modelled on the GerryDB client (profile-based sessions whose persistent
client-side cache is a first-class object): :class:`VerdictCache` can be
constructed, inspected, shared between clients and handed back in — it is
not an anonymous dict hidden in the transport.

The invalidation contract is the graph ``generation`` every server response
carries: a cached verdict is served only while its generation equals the
latest generation the client has seen for that graph; the moment a delta
response (or any response) reports a newer generation, older entries stop
being answers.  ``offline=True`` flips the client into cache-only mode —
hits are served locally, misses raise ``offline-cache-miss`` (HTTP never
happens), so a warmed client keeps answering point queries through server
downtime, at the freshness of its last contact.

Transport (since the resilience PR):

* **one persistent connection**, reconnected on error, instead of a fresh
  TCP handshake per request;
* a :class:`RetryPolicy` (exponential backoff + deterministic jitter,
  bounded attempt count *and* wall-clock budget, honors ``Retry-After``)
  drives retries of transport failures and 503/408 responses; exhaustion is
  a typed ``retries-exhausted`` error chaining the last underlying failure;
* retry *safety* is classified per failure: a request that provably never
  reached the server (connect refused, stale keep-alive) is always
  retryable, while an after-send failure (response dropped mid-air) is
  retried only for idempotent requests — and deltas are made idempotent by
  construction, because :meth:`ServiceClient.apply_delta` stamps each one
  with a fresh ``delta_id`` + the cache's ``expected_generation`` so the
  server's applied-delta ledger replays instead of re-applying.
"""

from __future__ import annotations

import json
import random
import time
import uuid
from dataclasses import dataclass, replace
from http.client import HTTPConnection, HTTPException, RemoteDisconnected
from typing import Any, Dict, Optional, Tuple, Union

from .api import (
    DeltaRequest,
    DeltaResponse,
    ServiceError,
    ServiceStats,
    ValidationRequest,
    VerdictResponse,
)

__all__ = ["VerdictCache", "RetryPolicy", "ServiceClient"]


class VerdictCache:
    """A first-class local verdict store keyed ``(graph_id, node, shape)``.

    Entries remember the generation they describe.  :meth:`get` answers only
    when the entry's generation equals the requested one; :meth:`observe`
    advances a graph's high-water generation and drops every entry the
    advance invalidated.  Counters (hits / misses / invalidations) make the
    cache's behaviour testable and benchmarkable.
    """

    def __init__(self):
        self._entries: Dict[Tuple[str, str, str], VerdictResponse] = {}
        self._generations: Dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def latest_generation(self, graph_id: str) -> Optional[int]:
        return self._generations.get(graph_id)

    def observe(self, graph_id: str, generation: int) -> None:
        """Record that ``graph_id`` is now at ``generation``; invalidate."""
        known = self._generations.get(graph_id)
        if known is not None and generation <= known:
            return
        self._generations[graph_id] = generation
        stale = [key for key, verdict in self._entries.items()
                 if key[0] == graph_id and verdict.generation != generation]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)

    def get(self, graph_id: str, node: str, shape: str,
            generation: Optional[int] = None) -> Optional[VerdictResponse]:
        wanted = generation if generation is not None \
            else self._generations.get(graph_id)
        verdict = self._entries.get((graph_id, node, shape))
        if verdict is not None and (wanted is None
                                    or verdict.generation == wanted):
            self.hits += 1
            return verdict
        self.misses += 1
        return None

    def put(self, graph_id: str, verdict: VerdictResponse,
            shape_key: Optional[str] = None) -> None:
        """Store ``verdict``; ``shape_key`` overrides the cache key's shape
        component (the client uses ``""`` for default-shape queries so the
        next default-shape lookup hits)."""
        self.observe(graph_id, verdict.generation)
        if verdict.generation == self._generations.get(graph_id):
            key_shape = verdict.shape if shape_key is None else shape_key
            self._entries[(graph_id, verdict.node, key_shape)] = verdict

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses, "invalidations": self.invalidations}


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and a hard budget.

    ``delay(attempt)`` grows ``base_delay * multiplier**attempt`` capped at
    ``max_delay``, stretched by up to ``jitter`` (a fraction) of itself —
    the jitter stream comes from ``random.Random(seed)``, so a seeded
    policy replays the exact same backoff sequence (chaos tests depend on
    it).  ``budget`` bounds the *total* wall-clock time spent sleeping
    between attempts; whichever of ``max_attempts``/``budget`` runs out
    first ends the retry loop with a typed ``retries-exhausted`` error.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    budget: float = 15.0
    seed: Optional[int] = None

    def delay(self, attempt: int, rng: Optional[random.Random]) -> float:
        value = min(self.base_delay * (self.multiplier ** attempt),
                    self.max_delay)
        if self.jitter and rng is not None:
            value *= 1.0 + self.jitter * rng.random()
        return min(value, self.max_delay)


class _TransportFailure(Exception):
    """Internal: one failed send/receive, tagged with retry safety."""

    def __init__(self, message: str, *, retryable: bool,
                 cause: Optional[BaseException]):
        super().__init__(message)
        self.retryable = retryable
        self.cause = cause


class ServiceClient:
    """Blocking HTTP client for a ``repro serve`` endpoint.

    Parameters
    ----------
    host, port:
        the server address.
    cache:
        a :class:`VerdictCache` to use (default: a private fresh one);
        passing one in shares or persists it across clients, GerryDB-style.
    offline:
        answer verdict queries from the cache only and never touch the
        network; a miss raises ``offline-cache-miss`` (503).
    retry:
        the :class:`RetryPolicy` for transport failures and 503/408
        responses (default: a stock policy); ``None`` disables retries
        entirely — every failure surfaces raw and typed on first strike.
    faults:
        an optional :class:`~repro.service.faults.FaultInjector` whose
        ``client.*`` points fire after a request has been fully sent
        (``client.send-then-die``, ``client.timeout``) — deterministic
        stand-ins for the network eating a response.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 80, *,
                 cache: Optional[VerdictCache] = None,
                 offline: bool = False, timeout: float = 60.0,
                 retry: Optional[RetryPolicy] = RetryPolicy(),
                 faults=None):
        self.host = host
        self.port = port
        self.offline = offline
        self.timeout = timeout
        self.cache = cache if cache is not None else VerdictCache()
        self.retry = retry
        self.faults = faults
        self._conn: Optional[HTTPConnection] = None
        self._retry_rng = (random.Random(retry.seed)
                           if retry is not None else None)

    # -- transport -----------------------------------------------------------------
    def _close_connection(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._conn = None

    def close(self) -> None:
        """Release the persistent connection (the client stays usable)."""
        self._close_connection()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _send_once(self, method: str, path: str, body: Optional[bytes],
                   headers: Dict[str, str], idempotent: bool,
                   ) -> Tuple[int, str, Optional[str]]:
        """One attempt on the persistent connection.

        Returns ``(status, body_text, retry_after)``.  Transport failures
        raise :class:`_TransportFailure` with ``retryable`` already
        classified: a failure *before* the request was sent can always be
        retried; a stale keep-alive (the server closed our idle reused
        connection before this request arrived — ``RemoteDisconnected``
        with nothing read) likewise; any *after-send* failure means the
        server may have processed the request, so it is retried only when
        the request is idempotent.  Every failure drops the connection so
        the next attempt reconnects fresh.
        """
        conn = self._conn
        reused = conn is not None
        if conn is None:
            conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
            self._conn = conn
        sent = False
        try:
            conn.request(method, path, body=body, headers=headers)
            sent = True
            if self.faults is not None:
                if self.faults.fire("client.send-then-die") is not None:
                    self._close_connection()
                    raise _TransportFailure(
                        "connection dropped after the request was fully "
                        "sent (injected fault)",
                        retryable=idempotent, cause=None)
                if self.faults.fire("client.timeout") is not None:
                    self._close_connection()
                    raise _TransportFailure(
                        "timed out waiting for the response (injected "
                        "fault)", retryable=idempotent, cause=None)
            response = conn.getresponse()
            text = response.read().decode("utf-8")
            retry_after = response.getheader("Retry-After")
            if response.will_close:
                self._close_connection()
            return response.status, text, retry_after
        except RemoteDisconnected as error:
            self._close_connection()
            if sent and reused:
                # stale keep-alive: the server closed the idle connection
                # before this request arrived, so it was never processed —
                # always safe to retry, idempotent or not.
                raise _TransportFailure(str(error), retryable=True,
                                        cause=error) from error
            raise _TransportFailure(str(error),
                                    retryable=(not sent) or idempotent,
                                    cause=error) from error
        except (HTTPException, OSError) as error:
            self._close_connection()
            raise _TransportFailure(str(error),
                                    retryable=(not sent) or idempotent,
                                    cause=error) from error

    def _request(self, method: str, path: str,
                 payload: Optional[Dict[str, Any]] = None,
                 idempotent: bool = True) -> Dict[str, Any]:
        if self.offline:
            raise ServiceError("offline-cache-miss",
                               f"client is offline; cannot {method} {path}",
                               503)
        body = json.dumps(payload).encode("utf-8") \
            if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        policy = self.retry
        deadline = (time.monotonic() + policy.budget
                    if policy is not None else None)
        attempt = 0
        last_failure: Optional[BaseException] = None
        while True:
            delay: Optional[float] = None
            try:
                status, text, retry_after = self._send_once(
                    method, path, body, headers, idempotent)
            except _TransportFailure as failure:
                if policy is None or not failure.retryable:
                    raise ServiceError(
                        "connection-failed",
                        f"cannot reach {self.host}:{self.port}: {failure}",
                        503) from failure.cause
                last_failure = failure
                delay = policy.delay(attempt, self._retry_rng)
            else:
                if status < 400:
                    data = json.loads(text)
                    generation = data.get("generation")
                    graph_id = data.get("graph_id")
                    if isinstance(generation, int) \
                            and isinstance(graph_id, str):
                        self.cache.observe(graph_id, generation)
                    return data
                error = ServiceError.from_json(text)
                if policy is None or status not in (503, 408):
                    raise error
                last_failure = error
                delay = policy.delay(attempt, self._retry_rng)
                if retry_after is not None:
                    try:
                        delay = max(delay, min(float(retry_after),
                                               policy.max_delay))
                    except ValueError:
                        pass
            attempt += 1
            if attempt >= policy.max_attempts \
                    or (deadline is not None
                        and time.monotonic() + delay > deadline):
                raise ServiceError(
                    "retries-exhausted",
                    f"{method} {path} failed after {attempt} attempt(s): "
                    f"{last_failure}", 503) from last_failure
            time.sleep(delay)

    # -- the lifecycle, client-side --------------------------------------------------
    def load_graph(self, request: ValidationRequest) -> Dict[str, Any]:
        """``POST /graphs``: load + initial full validation on the server.

        Not idempotent (a retried create could register the graph twice),
        so only before-send transport failures are retried.
        """
        data = self._request("POST", "/graphs", request.to_json(),
                             idempotent=False)
        graph_id = data.get("graph_id")
        generation = data.get("generation")
        if isinstance(graph_id, str) and isinstance(generation, int):
            self.cache.observe(graph_id, generation)
        return data

    def apply_delta(self, graph_id: str,
                    request: DeltaRequest) -> DeltaResponse:
        """``POST /graphs/{id}/delta``; the response generation invalidates
        every cached verdict the mutation may have changed.

        Unless the caller already stamped them, the request gets a fresh
        ``delta_id`` and the cache's last-seen generation as
        ``expected_generation`` — which makes the POST *idempotent by
        construction* (the server's ledger replays a retried id) and safe
        to retry even after the request was sent.
        """
        if request.delta_id is None:
            stamp: Dict[str, Any] = {"delta_id": uuid.uuid4().hex}
            if request.expected_generation is None:
                known = self.cache.latest_generation(graph_id)
                if known is not None:
                    stamp["expected_generation"] = known
            request = replace(request, **stamp)
        try:
            data = self._request("POST", f"/graphs/{graph_id}/delta",
                                 request.to_json(), idempotent=True)
        except ServiceError as error:
            # applied but not revalidated: the graph moved all the same
            if error.generation is not None:
                self.cache.observe(graph_id, error.generation)
            raise
        response = DeltaResponse.from_json(data)
        self.cache.observe(graph_id, response.generation)
        return response

    def verdict(self, graph_id: str, node: str,
                shape: Optional[str] = None,
                include_reason: bool = False,
                allow_degraded: bool = False) -> VerdictResponse:
        """One ``(node, shape)`` verdict, cache first.

        A cache hit never touches the network.  A miss fetches, stores and
        returns; in offline mode a miss raises ``offline-cache-miss``.

        ``allow_degraded=True`` bypasses the cache in both directions: the
        query always reaches the server (a locally cached verdict could
        mask the very staleness being asked about) and a degraded response
        is never cached (it describes a moment mid-outage, not a
        generation the cache can key on).
        """
        shape_key = shape or ""
        if not allow_degraded:
            cached = self.cache.get(graph_id, node, shape_key)
            if cached is not None and (include_reason is False
                                       or cached.reason is not None):
                return cached
        if self.offline:
            raise ServiceError(
                "offline-cache-miss",
                f"offline client has no cached verdict for ({node!r}, "
                f"{shape or '<start>'!r}) at the current generation", 503)
        query = f"node={_quote(node)}"
        if shape:
            query += f"&shape={_quote(shape)}"
        if include_reason:
            query += "&reason=1"
        if allow_degraded:
            query += "&allow_degraded=1"
        data = self._request("GET", f"/graphs/{graph_id}/verdicts?{query}")
        verdict = VerdictResponse.from_json(data)
        if not verdict.degraded:
            self.cache.put(graph_id, verdict, shape_key=shape_key)
            if shape is not None:
                self.cache.put(graph_id, verdict)
        return verdict

    def graph_stats(self, graph_id: str) -> ServiceStats:
        data = self._request("GET", f"/graphs/{graph_id}/stats")
        return ServiceStats.from_json(data)

    def server_stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def healthz(self) -> Dict[str, Any]:
        """``GET /healthz``: liveness + per-graph fleet health."""
        return self._request("GET", "/healthz")

    def drop_graph(self, graph_id: str) -> None:
        """``DELETE /graphs/{id}``.

        A retried drop whose first response was dropped would see
        ``graph-not-found``, so only before-send failures are retried.
        """
        self._request("DELETE", f"/graphs/{graph_id}", idempotent=False)


def _quote(value: str) -> str:
    from urllib.parse import quote

    return quote(value, safe="")
