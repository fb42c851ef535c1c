"""``repro serve``: validation-as-a-service over stdlib HTTP/1.1.

The server loads a schema once, keeps each graph's
:class:`~repro.service.session.ValidationSession` warm (shared context,
compiled schema, global derivative cache, maintained baseline) and answers:

========  ==============================  =======================================
method    path                            body / query → response
========  ==============================  =======================================
POST      ``/graphs``                     :class:`ValidationRequest` → graph id,
                                          generation, conforms (runs the initial
                                          full validation)
POST      ``/graphs/{id}/delta``          :class:`DeltaRequest` →
                                          :class:`DeltaResponse` (journal →
                                          closure → retract → re-run)
GET       ``/graphs/{id}/verdicts``       ``?node=&shape=&reason=&allow_degraded=``
                                          → :class:`VerdictResponse`, served
                                          from the maintained entry table —
                                          never a fresh run.
                                          ``allow_degraded=1`` lets a
                                          stale-baseline read fall back to
                                          live shard replicas (response carries
                                          ``degraded``/``missing_shards``)
GET       ``/graphs/{id}/stats``          :class:`ServiceStats`
GET       ``/stats``                      server-wide stats (per-graph blocks)
GET       ``/healthz``                    liveness + per-graph fleet health;
                                          always 200, never takes a session
                                          lock (liveness ≠ readiness)
========  ==============================  =======================================

Transport is a small HTTP/1.1 handler on
:class:`socketserver.ThreadingTCPServer`, one OS thread per connection:
GET, POST and DELETE with ``Content-Length`` bodies, keep-alive unless the
request is HTTP/1.0 or says ``Connection: close``, and ``100 Continue`` for
``Expect: 100-continue``.  Malformed framing (400, 414, 431, 501, 505; see
:class:`ServiceError`) gets a typed JSON error and a close.  So does any
answer to a request with a body, unless it is a successful POST: the route
may have left the body unread.  Without ``http.server`` the process never
loads ``http.client``, ``email`` or ``ssl``.  The connection path is
bounded and timeout-guarded so hostile or unlucky clients cannot pin the
server:

* every connection carries a **socket timeout** (``connection_timeout``): a
  client that connects and never sends is dropped cleanly instead of pinning
  a handler thread forever;
* request bodies are read in a **loop until Content-Length bytes arrive** —
  a slow client's short reads no longer truncate the payload into a
  confusing parse error; a stall mid-body maps to a typed 408, a premature
  EOF to a typed 400, and bodies over ``max_body_bytes`` to a typed 413;
* concurrent connections are **bounded** (``max_connections``): past the
  bound the accept loop blocks, so a connection flood degrades into queueing
  at the listener instead of unbounded thread growth;
* ``shutdown`` detects a serve thread that outlives its deadline,
  force-closes the listener socket and raises a structured
  ``shutdown-timeout`` error instead of silently leaking the listener.

Per-graph mutual exclusion lives in the session lock, so concurrent delta
posts serialize and verdict reads never observe a half-retracted baseline.
:class:`ServiceError` maps to its ``http_status`` with the error JSON as the
body; every success response carries the graph ``generation`` for
client-side cache invalidation.
"""

from __future__ import annotations

import itertools
import json
import re
import socketserver
import threading
import time
from http import HTTPStatus
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..shex.schema import Schema
from .api import (
    API_VERSION,
    DeltaRequest,
    ServiceError,
    ValidationRequest,
)
from .session import ValidationSession

__all__ = ["ValidationService", "ReproServer", "serve"]

_GRAPH_PATH = re.compile(r"^/graphs/([A-Za-z0-9_.-]+)(?:/([a-z]+))?$")

#: default cap on request bodies (64 MiB): far above any sane delta, far
#: below what would let one request exhaust the process.
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024

#: bounds on a request line or header line, and on the number of headers
_MAX_LINE = 65536
_MAX_HEADERS = 100
_DAYS = "Mon Tue Wed Thu Fri Sat Sun".split()
_MONTHS = "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()
#: the Content-Length syntax (RFC 9110 §8.6): ASCII digits only, so no sign,
#: underscore or other spelling ``int()`` would accept
_CONTENT_LENGTH = re.compile(r"[0-9]+")


class ValidationService:
    """The transport-independent core: a registry of warm sessions.

    The HTTP handler (and tests, directly) call these methods; every
    failure is a :class:`ServiceError`, never a bare exception.
    """

    def __init__(self, schema: Optional[Schema] = None, *,
                 shards: int = 0,
                 fleet_response_timeout: float = 120.0,
                 fault_plan=None,
                 delta_ledger_size: int = 256):
        self.schema = schema
        self.shards = shards
        self.fleet_response_timeout = fleet_response_timeout
        self.fault_plan = fault_plan
        self.delta_ledger_size = delta_ledger_size
        self._sessions: Dict[str, ValidationSession] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def create_graph(self, request: ValidationRequest) -> Dict[str, Any]:
        """Load a graph, run the initial full validation, register it.

        The request is dropped once the graph is parsed, so its payload
        text is freed before the validation runs (unless the caller keeps it).
        """
        labels = request.labels
        session = ValidationSession.from_request(
            request, default_schema=self.schema,
            default_shards=self.shards,
            fleet_response_timeout=self.fleet_response_timeout,
            fault_plan=self.fault_plan,
            delta_ledger_size=self.delta_ledger_size)
        del request
        report = session.validate(labels=labels)
        with self._lock:
            graph_id = f"g{next(self._ids)}"
            self._sessions[graph_id] = session
        return {
            "version": API_VERSION,
            "graph_id": graph_id,
            "generation": session.generation,
            "conforms": report.conforms,
            "triples": len(session.graph),
            "pairs": len(report),
        }

    def register(self, session: ValidationSession) -> str:
        """Adopt an already-built session (the CLI's ``--data`` preload)."""
        with self._lock:
            graph_id = f"g{next(self._ids)}"
            self._sessions[graph_id] = session
        return graph_id

    def session(self, graph_id: str) -> ValidationSession:
        with self._lock:
            session = self._sessions.get(graph_id)
        if session is None:
            raise ServiceError("graph-not-found",
                               f"no graph {graph_id!r} on this server", 404)
        return session

    def drop_graph(self, graph_id: str) -> None:
        with self._lock:
            session = self._sessions.pop(graph_id, None)
        if session is None:
            raise ServiceError("graph-not-found",
                               f"no graph {graph_id!r} on this server", 404)
        session.close()

    def close(self) -> None:
        """Close every session (releases resident shard fleets)."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()

    def stats(self) -> Dict[str, Any]:
        """Server-wide stats: one :class:`ServiceStats` block per graph."""
        with self._lock:
            sessions = dict(self._sessions)
        return {
            "version": API_VERSION,
            "graphs": {graph_id: session.stats().to_json()
                       for graph_id, session in sorted(sessions.items())},
        }

    def healthz(self) -> Dict[str, Any]:
        """Liveness + coarse per-graph fleet health.

        Deliberately takes **no session lock** (the registry lock guards one
        dict copy): a probe must answer even while a long delta holds every
        session busy.  Always served as HTTP 200 — ``status`` says ``ok`` or
        ``degraded`` (some fleet worker down); *liveness* is the fact the
        response arrived at all, readiness is the caller's judgement.
        """
        with self._lock:
            sessions = dict(self._sessions)
        status = "ok"
        graphs: Dict[str, Any] = {}
        for graph_id, session in sorted(sessions.items()):
            info = session.health()
            fleet = info.get("fleet")
            if fleet and fleet.get("workers_alive", 0) < fleet.get("shards", 0):
                status = "degraded"
            graphs[graph_id] = info
        return {"version": API_VERSION, "status": status,
                "graphs": graphs}


def _http_date() -> str:
    """The current time as an IMF-fixdate, with English names in any locale."""
    now = time.gmtime()
    return (f"{_DAYS[now.tm_wday]}, {now.tm_mday:02d} "
            f"{_MONTHS[now.tm_mon - 1]} {now.tm_year} "
            f"{now.tm_hour:02d}:{now.tm_min:02d}:{now.tm_sec:02d} GMT")


def _make_handler(service: ValidationService):
    class _Handler(socketserver.StreamRequestHandler):
        # -- plumbing -----------------------------------------------------------
        def setup(self):
            # StreamRequestHandler applies self.timeout as the connection's
            # socket timeout; a client that connects and never sends (or
            # stalls mid-request-line) trips it and the request loop closes
            # the connection instead of pinning this thread forever.
            self.timeout = getattr(self.server, "connection_timeout", None)
            super().setup()

        def handle(self):
            self.close_connection = False
            while not self.close_connection:
                self.close_connection = True  # until a request head parses
                try:
                    if not self._read_head():
                        return  # the client closed between requests
                except ServiceError as error:  # framing: answer, then close
                    self._send_json(error.http_status, error.to_json())
                    return
                except OSError:  # idle timeout or reset: close silently
                    return
                self._dispatch(self.command)

        def _read_head(self) -> bool:
            """Parse a request line and its headers; ``False`` on EOF.

            Sets ``command``, ``path``, ``headers`` and ``close_connection``.
            Malformed framing raises a typed :class:`ServiceError`.
            """
            line = self.rfile.readline(_MAX_LINE + 1)
            if not line:
                return False
            if len(line) > _MAX_LINE:
                raise ServiceError(
                    "uri-too-long",
                    f"request line longer than {_MAX_LINE} bytes", 414)
            text = line.decode("latin-1").strip()
            words = text.split()
            if len(words) != 3:
                raise ServiceError("bad-request",
                                   f"malformed request line {text!r}", 400)
            self.command, self.path, version = words
            if version not in ("HTTP/1.0", "HTTP/1.1"):
                if re.fullmatch(r"HTTP/\d+\.\d+", version):
                    raise ServiceError(
                        "http-version-not-supported",
                        f"{version} is not supported; use HTTP/1.1", 505)
                raise ServiceError("bad-request",
                                   f"malformed HTTP version {version!r}", 400)
            # title() maps every spelling of a name to one key, so
            # ``headers.get("Content-Length")`` is case-insensitive
            self.headers = headers = {}
            for _ in range(_MAX_HEADERS + 1):
                line = self.rfile.readline(_MAX_LINE + 1)
                if len(line) > _MAX_LINE:
                    raise ServiceError(
                        "headers-too-large",
                        f"header line longer than {_MAX_LINE} bytes", 431)
                if line in (b"\r\n", b"\n", b""):
                    break
                text = line.decode("latin-1")
                name, colon, value = text.partition(":")
                name, value = name.strip().title(), value.strip()
                if not colon or not name:
                    raise ServiceError(
                        "bad-request",
                        f"malformed header line {text.strip()!r}", 400)
                if name == "Content-Length" and headers.get(name, value) != value:
                    raise ServiceError(
                        "bad-request",
                        f"conflicting Content-Length headers "
                        f"{headers[name]!r} and {value!r}", 400)
                headers.setdefault(name, value)
            else:
                raise ServiceError(
                    "headers-too-large",
                    f"more than {_MAX_HEADERS} headers", 431)
            length = headers.get("Content-Length")
            if length is not None and not _CONTENT_LENGTH.fullmatch(length):
                raise ServiceError(
                    "bad-request", f"invalid Content-Length {length!r}", 400)
            if "Transfer-Encoding" in headers:
                raise ServiceError(
                    "not-implemented",
                    f"Transfer-Encoding {headers['Transfer-Encoding']!r} is "
                    "not supported; send the body with Content-Length", 501)
            if self.command not in ("GET", "POST", "DELETE"):
                raise ServiceError(
                    "not-implemented",
                    f"method {self.command} is not supported", 501)
            tokens = {token.strip().lower()
                      for token in headers.get("Connection", "").split(",")}
            self.close_connection = "close" in tokens or (
                version == "HTTP/1.0" and "keep-alive" not in tokens)
            if version == "HTTP/1.1" \
                    and headers.get("Expect", "").lower() == "100-continue":
                self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            return True

        def _drop_connection(self) -> None:
            self.close_connection = True
            try:
                self.connection.close()
            except OSError:
                pass

        def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
            truncate = False
            injector = getattr(self.server, "fault_injector", None)
            if injector is not None:
                if injector.fire("server.connection-reset") is not None:
                    # hard-close before a single response byte: the client
                    # sees a reset/EOF with the request's fate unknown.
                    self._drop_connection()
                    return
                spec = injector.fire("server.delay-response")
                if spec is not None and spec.delay > 0:
                    time.sleep(spec.delay)
                truncate = injector.fire("server.truncate-response") is not None
            body = json.dumps(payload).encode("utf-8")
            try:
                self._write_response(status, body, truncate)
            except OSError:  # TimeoutError included
                # the client is gone (or too slow to take the response);
                # drop the connection rather than crash the handler thread.
                self.close_connection = True
                return
            if truncate:
                # declared the full length but delivered half: the client's
                # read fails mid-body, exercising its reconnect path.
                self._drop_connection()

        def _write_response(self, status: int, body: bytes,
                            truncate: bool) -> None:
            """Send the head, then the body: two writes on the unbuffered
            ``wfile``, so the body waits for the client to acknowledge the
            head (Nagle's algorithm is on)."""
            head = (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
                    f"Server: repro-serve/1\r\nDate: {_http_date()}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n")
            if status == 503:
                # overload/outage responses tell retrying clients when to
                # come back instead of letting them hammer the server
                head += "Retry-After: 1\r\n"
            if self.close_connection:
                head += "Connection: close\r\n"
            self.wfile.write(head.encode("latin-1") + b"\r\n")
            self.wfile.write(body[:len(body) // 2] if truncate else body)

        def _read_body(self) -> str:
            """Read exactly Content-Length bytes, or fail with a typed error.

            A single ``rfile.read(length)`` silently hands a *truncated*
            body to the JSON codec when the client disconnects mid-body —
            the resulting parse error points at the payload instead of the
            transport.  Reading in a loop attributes each failure mode
            precisely: premature EOF → 400 (with byte counts), a stall that
            trips the socket timeout → 408, an oversized declaration → 413
            before a single body byte is read.
            """
            # digits only: _read_head refused any other spelling
            length = int(self.headers.get("Content-Length", "0"))
            if length == 0:
                return ""
            max_bytes = getattr(self.server, "max_body_bytes", None)
            if max_bytes is not None and length > max_bytes:
                self.close_connection = True
                raise ServiceError(
                    "payload-too-large",
                    f"request body of {length} bytes exceeds this server's "
                    f"{max_bytes}-byte bound", 413)
            # one buffer, grown as bytes arrive (never sized from the header);
            # ``read1`` returns what one receive delivers, so the bytes that
            # came before a stall are counted
            body = bytearray()
            try:
                while len(body) < length:
                    chunk = self.rfile.read1(min(length - len(body), 65536))
                    if not chunk:
                        self.close_connection = True
                        raise ServiceError(
                            "bad-request",
                            f"request body truncated: Content-Length "
                            f"promised {length} bytes but the connection "
                            f"closed after {len(body)}", 400)
                    body += chunk
            except TimeoutError as error:  # socket.timeout alias (3.10+)
                self.close_connection = True
                raise ServiceError(
                    "request-timeout",
                    f"client stalled mid-body: received "
                    f"{len(body)} of {length} bytes before the "
                    "connection timeout", 408) from error
            try:
                return body.decode("utf-8")
            except UnicodeDecodeError as error:
                raise ServiceError(
                    "bad-request",
                    f"request body is not valid UTF-8: {error}", 400) \
                    from None

        def _dispatch(self, method: str) -> None:
            try:
                status, payload = self._route(method)
            except ServiceError as error:
                status, payload = error.http_status, error.to_json()
            except Exception as error:  # noqa: BLE001 - the service boundary
                status = 500
                payload = ServiceError(
                    "internal", f"{type(error).__name__}: {error}",
                    500).to_json()
            if self.headers.get("Content-Length", "0") != "0" \
                    and (status >= 400 or method != "POST"):
                # only a successful POST surely read its body: close rather
                # than parse what is left of it as the next request
                self.close_connection = True
            self._send_json(status, payload)

        # -- routing ------------------------------------------------------------
        def _route(self, method: str) -> Tuple[int, Dict[str, Any]]:
            split = urlsplit(self.path)
            path = split.path.rstrip("/") or "/"
            query = parse_qs(split.query)
            if method == "GET" and path == "/stats":
                return 200, service.stats()
            if method == "GET" and path == "/healthz":
                return 200, service.healthz()
            if method == "POST" and path == "/graphs":
                # unnamed: create_graph frees it once the graph is parsed
                return 201, service.create_graph(
                    ValidationRequest.from_json(self._read_body()))
            match = _GRAPH_PATH.match(path)
            if not match:
                raise ServiceError("not-found",
                                   f"no route {method} {path}", 404)
            graph_id, tail = match.group(1), match.group(2)
            session = service.session(graph_id)
            if method == "POST" and tail == "delta":
                request = DeltaRequest.from_json(self._read_body())
                response = session.apply_delta(request)
                return 200, response.to_json()
            if method == "GET" and tail == "verdicts":
                node = (query.get("node") or [None])[0]
                if not node:
                    raise ServiceError("bad-request",
                                       "query parameter 'node' is required",
                                       400)
                shape = (query.get("shape") or [None])[0]
                reason = (query.get("reason") or ["0"])[0]
                degraded = (query.get("allow_degraded") or ["0"])[0]
                verdict = session.verdict(
                    node, shape,
                    include_reason=reason in ("1", "true", "yes"),
                    allow_degraded=degraded in ("1", "true", "yes"))
                return 200, verdict.to_json()
            if method == "GET" and tail == "stats":
                return 200, session.stats().to_json()
            if method == "DELETE" and tail is None:
                service.drop_graph(graph_id)
                return 200, {"version": API_VERSION, "graph_id": graph_id,
                             "dropped": True}
            raise ServiceError("not-found", f"no route {method} {path}", 404)

    return _Handler


class _HardenedHTTPServer(socketserver.ThreadingTCPServer):
    """Thread-per-connection, but bounded and timeout-guarded.

    A :class:`~threading.BoundedSemaphore` caps the number of in-flight
    connections: past ``max_connections`` the accept loop blocks until a
    handler finishes, so a connection flood queues at the listener backlog
    instead of growing threads without bound.  ``connection_timeout`` and
    ``max_body_bytes`` are read by the handler (see ``_make_handler``).
    """

    allow_reuse_address = True
    daemon_threads = True
    request_queue_size = 128

    def __init__(self, server_address, handler_class, *,
                 connection_timeout: Optional[float] = None,
                 max_connections: Optional[int] = None,
                 max_body_bytes: Optional[int] = DEFAULT_MAX_BODY_BYTES,
                 fault_injector=None):
        self.connection_timeout = connection_timeout
        self.max_body_bytes = max_body_bytes
        #: shared across handler threads (the injector is thread-safe);
        #: ``None`` keeps the fault hooks to one attribute lookup.
        self.fault_injector = fault_injector
        self._connection_slots = (
            threading.BoundedSemaphore(max_connections)
            if max_connections else None)
        super().__init__(server_address, handler_class)

    def process_request(self, request, client_address):
        if self._connection_slots is not None:
            self._connection_slots.acquire()
        try:
            super().process_request(request, client_address)
        except BaseException:
            if self._connection_slots is not None:
                self._connection_slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            if self._connection_slots is not None:
                self._connection_slots.release()


class ReproServer:
    """The HTTP front: bind, serve (foreground or background), shut down.

    ``port=0`` binds an ephemeral port (tests, benchmarks); read it back
    from :attr:`port` after construction.
    """

    def __init__(self, service: ValidationService,
                 host: str = "127.0.0.1", port: int = 0, *,
                 connection_timeout: Optional[float] = 30.0,
                 max_connections: Optional[int] = 64,
                 max_body_bytes: Optional[int] = DEFAULT_MAX_BODY_BYTES,
                 shutdown_timeout: float = 5.0,
                 faults=None):
        self.service = service
        self.shutdown_timeout = shutdown_timeout
        self.faults = faults
        self._httpd = _HardenedHTTPServer(
            (host, port), _make_handler(service),
            connection_timeout=connection_timeout,
            max_connections=max_connections,
            max_body_bytes=max_body_bytes,
            fault_injector=faults)
        self._thread: Optional[threading.Thread] = None
        self._serving = threading.Event()

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def serve_forever(self) -> None:
        self._serving.set()
        self._httpd.serve_forever()

    def start_background(self) -> "ReproServer":
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop serving, close the listener, release every session.

        ``BaseServer.shutdown()`` blocks until the serve loop acknowledges —
        *forever*, if the loop is stuck (or was never entered).  It therefore
        runs on a disposable thread bounded by ``shutdown_timeout``; a serve
        thread that outlives the deadline is reported as a structured
        ``shutdown-timeout`` error **after** the listener socket has been
        force-closed and the sessions released, so nothing leaks even on the
        failure path.
        """
        stuck = False
        if self._serving.is_set():
            closer = threading.Thread(target=self._httpd.shutdown,
                                      name="repro-serve-closer", daemon=True)
            closer.start()
            closer.join(timeout=self.shutdown_timeout)
            stuck = closer.is_alive()
            if not stuck and self._thread is not None:
                self._thread.join(timeout=self.shutdown_timeout)
                stuck = self._thread.is_alive()
        try:
            self._httpd.server_close()
        except OSError:  # pragma: no cover - already closed
            pass
        self._thread = None
        self.service.close()
        if stuck:
            raise ServiceError(
                "shutdown-timeout",
                f"the serve thread survived shutdown for "
                f"{self.shutdown_timeout}s; the listener socket was "
                "force-closed and every session released, but the thread "
                "may still hold a stuck in-flight request", 500)

    def __enter__(self) -> "ReproServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def serve(schema: Optional[Schema] = None, *, host: str = "127.0.0.1",
          port: int = 0, shards: int = 0,
          connection_timeout: Optional[float] = 30.0,
          max_connections: Optional[int] = 64,
          max_body_bytes: Optional[int] = DEFAULT_MAX_BODY_BYTES,
          shutdown_timeout: float = 5.0,
          fleet_response_timeout: float = 120.0,
          faults=None) -> ReproServer:
    """Build a ready-to-start server (the CLI and tests both enter here).

    ``faults`` is an optional :class:`~repro.service.faults.FaultInjector`:
    its ``server.*`` points hook the HTTP response path in-process, and its
    plan is shipped to every resident shard worker (the ``fleet.*`` points).
    """
    service = ValidationService(
        schema, shards=shards,
        fleet_response_timeout=fleet_response_timeout,
        fault_plan=faults.plan if faults is not None else None)
    return ReproServer(service, host=host, port=port,
                       connection_timeout=connection_timeout,
                       max_connections=max_connections,
                       max_body_bytes=max_body_bytes,
                       shutdown_timeout=shutdown_timeout,
                       faults=faults)
