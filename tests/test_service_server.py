"""End-to-end tests for ``repro serve``: HTTP round-trips through
:class:`ServiceClient`, typed wire errors, and the client verdict cache."""

from __future__ import annotations

import http.client
import json
import socket
import time

import pytest

from repro.service import (
    DeltaRequest,
    ServiceClient,
    ServiceError,
    ValidationRequest,
    VerdictCache,
    serve,
)
from repro.shex import Validator
from repro.workloads import (
    PAPER_EXAMPLE_TURTLE,
    PERSON_SCHEMA_SHEXC,
    paper_example_graph,
    person_schema,
)

MARY_FIX_ADD = ('<http://example.org/mary> '
                '<http://xmlns.com/foaf/0.1/name> "Mary" .\n')
MARY_FIX_REMOVE = ('<http://example.org/mary> <http://xmlns.com/foaf/0.1/age> '
                   '"65"^^<http://www.w3.org/2001/XMLSchema#integer> .\n')
JOHN = "<http://example.org/john>"
MARY = "<http://example.org/mary>"


@pytest.fixture
def server():
    with serve(person_schema()) as srv:
        srv.start_background()
        yield srv


@pytest.fixture
def client(server):
    return ServiceClient(server.host, server.port)


def load_paper_graph(client):
    return client.load_graph(ValidationRequest(data=PAPER_EXAMPLE_TURTLE))


class TestRoundTrip:
    def test_load_delta_verdict_stats(self, client):
        loaded = client.load_graph(ValidationRequest(
            data=PAPER_EXAMPLE_TURTLE, schema=PERSON_SCHEMA_SHEXC))
        graph_id = loaded["graph_id"]
        assert loaded["conforms"] is False and loaded["triples"] == 8

        mary = client.verdict(graph_id, MARY)
        assert not mary.conforms

        delta = client.apply_delta(graph_id, DeltaRequest(
            add=MARY_FIX_ADD, remove=MARY_FIX_REMOVE))
        assert delta.generation > loaded["generation"]
        assert delta.conforms and not delta.full_rebuild

        fixed = client.verdict(graph_id, MARY)
        assert fixed.conforms and fixed.generation == delta.generation

        stats = client.graph_stats(graph_id)
        assert stats.generation == delta.generation
        assert stats.session["delta_rounds"] == 1
        wide = client.server_stats()
        assert graph_id in wide["graphs"]

    def test_uses_the_preloaded_server_schema(self, client):
        loaded = load_paper_graph(client)  # request carries no schema text
        assert client.verdict(loaded["graph_id"], JOHN).conforms

    def test_verdicts_match_a_direct_validator_run(self, client):
        graph_id = load_paper_graph(client)["graph_id"]
        direct = Validator(paper_example_graph(),
                           person_schema()).validate_graph()
        for entry in direct.entries:
            verdict = client.verdict(graph_id, entry.node.n3(),
                                     entry.label.name)
            assert verdict.conforms == entry.conforms

    def test_reason_is_opt_in_over_the_wire(self, client):
        graph_id = load_paper_graph(client)["graph_id"]
        assert client.verdict(graph_id, MARY).reason is None
        explained = client.verdict(graph_id, MARY, include_reason=True)
        assert explained.reason

    def test_drop_graph(self, client):
        graph_id = load_paper_graph(client)["graph_id"]
        client.drop_graph(graph_id)
        with pytest.raises(ServiceError) as exc:
            client.verdict(graph_id, JOHN)
        assert exc.value.code == "graph-not-found"


class TestWireErrors:
    def _raw(self, server, method, path, body=None):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()

    def test_unknown_graph_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.verdict("g999", JOHN)
        assert exc.value.code == "graph-not-found"
        assert exc.value.http_status == 404

    def test_unknown_route_is_404(self, server):
        status, payload = self._raw(server, "GET", "/nope")
        assert status == 404 and payload["error"] == "not-found"

    def test_malformed_body_is_400(self, server):
        status, payload = self._raw(server, "POST", "/graphs", body="{nope")
        assert status == 400 and payload["error"] == "bad-request"

    def test_missing_node_param_is_400(self, client, server):
        graph_id = load_paper_graph(client)["graph_id"]
        status, payload = self._raw(server, "GET",
                                    f"/graphs/{graph_id}/verdicts")
        assert status == 400 and payload["error"] == "bad-request"

    def test_delta_parse_error_is_400(self, client):
        graph_id = load_paper_graph(client)["graph_id"]
        with pytest.raises(ServiceError) as exc:
            client.apply_delta(graph_id, DeltaRequest(add="<broken"))
        assert exc.value.code == "parse-error"
        assert exc.value.http_status == 400

    def test_schema_error_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.load_graph(ValidationRequest(data="", schema="<S> { nope"))
        assert exc.value.code == "schema-error"

    def test_too_deep_nesting_is_a_typed_400_not_a_500(self, client):
        deep = 1000  # far past both parsers' nesting bounds
        data = ("<http://example.org/s> <http://example.org/p> "
                + "[ <http://example.org/p> " * deep + "1" + " ]" * deep
                + " .\n")
        with pytest.raises(ServiceError) as exc:
            client.load_graph(ValidationRequest(data=data))
        assert (exc.value.code, exc.value.http_status) == ("parse-error", 400)
        schema = "<S> { " + "( " * deep + "<http://example.org/p> ." \
            + " )" * deep + " }"
        with pytest.raises(ServiceError) as exc:
            client.load_graph(ValidationRequest(data="", schema=schema))
        assert (exc.value.code, exc.value.http_status) == ("schema-error", 400)

    def test_oversized_schema_expansion_is_a_typed_400(self, client):
        body = "<http://example.org/p> ."
        for _ in range(24):  # ~10^8 nodes if expanded
            body = f"( {body} ; <http://example.org/q> . )+"
        with pytest.raises(ServiceError) as exc:
            client.load_graph(ValidationRequest(data="", schema="<S> { " + body + " }"))
        assert (exc.value.code, exc.value.http_status) == ("schema-error", 400)
        assert "expression nodes" in str(exc.value)

    def test_verdict_not_found_is_404(self, client):
        graph_id = load_paper_graph(client)["graph_id"]
        with pytest.raises(ServiceError) as exc:
            client.verdict(graph_id, "<http://example.org/nobody>")
        assert exc.value.code == "verdict-not-found"

    def test_connection_refused_is_typed(self):
        # retry=None: surface the raw transport error on first strike
        dead = ServiceClient("127.0.0.1", 9, retry=None)
        with pytest.raises(ServiceError) as exc:
            dead.server_stats()
        assert exc.value.code == "connection-failed"
        assert exc.value.http_status == 503

    def test_connection_refused_exhausts_retries(self):
        from repro.service import RetryPolicy

        dead = ServiceClient("127.0.0.1", 9, retry=RetryPolicy(
            max_attempts=2, base_delay=0.01, jitter=0.0, seed=7))
        with pytest.raises(ServiceError) as exc:
            dead.server_stats()
        assert exc.value.code == "retries-exhausted"
        assert exc.value.http_status == 503


class TestClientCache:
    def test_verdict_cache_hit_skips_the_wire(self, client):
        graph_id = load_paper_graph(client)["graph_id"]
        first = client.verdict(graph_id, JOHN)
        second = client.verdict(graph_id, JOHN)
        assert first == second
        stats = client.cache.stats()
        assert stats["hits"] == 1 and stats["entries"] >= 1

    def test_generation_bump_invalidates_cached_verdicts(self, client):
        graph_id = load_paper_graph(client)["graph_id"]
        stale = client.verdict(graph_id, MARY)
        assert not stale.conforms
        client.apply_delta(graph_id, DeltaRequest(
            add=MARY_FIX_ADD, remove=MARY_FIX_REMOVE))
        assert client.cache.stats()["invalidations"] >= 1
        fresh = client.verdict(graph_id, MARY)  # refetched, not served stale
        assert fresh.conforms
        assert fresh.generation > stale.generation

    def test_offline_mode_serves_warm_hits_only(self, server):
        cache = VerdictCache()
        online = ServiceClient(server.host, server.port, cache=cache)
        graph_id = load_paper_graph(online)["graph_id"]
        online.verdict(graph_id, JOHN)

        offline = ServiceClient(server.host, server.port, cache=cache,
                                offline=True)
        assert offline.verdict(graph_id, JOHN).conforms  # warm hit
        with pytest.raises(ServiceError) as exc:
            offline.verdict(graph_id, MARY)  # cold miss
        assert exc.value.code == "offline-cache-miss"
        assert exc.value.http_status == 503

    def test_cache_is_per_graph(self, client):
        first = load_paper_graph(client)["graph_id"]
        second = load_paper_graph(client)["graph_id"]
        assert first != second
        client.verdict(first, JOHN)
        client.verdict(second, JOHN)
        assert client.cache.stats()["hits"] == 0  # distinct keys, no collision


def raw_request_lines(body_bytes, content_length=None):
    """A POST /graphs request as raw bytes, body length spoofable."""
    length = len(body_bytes) if content_length is None else content_length
    head = (f"POST /graphs HTTP/1.1\r\n"
            f"Host: localhost\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {length}\r\n"
            f"\r\n").encode("ascii")
    return head, body_bytes


def read_http_response(sock):
    """Read one HTTP response (status, parsed JSON body) off a raw socket."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError(f"connection closed mid-response: {data!r}")
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError("connection closed mid-body")
        rest += chunk
    return status, json.loads(rest[:length].decode("utf-8"))


class TestHardenedRequestPath:
    """Regression tests for the short-read, stalled-client and oversized-body
    failure modes of the HTTP front."""

    def test_slow_chunked_body_is_accumulated(self, server):
        """A client trickling the body in small chunks must not be truncated:
        ``_read_body`` loops until Content-Length bytes have arrived."""
        body = json.dumps(ValidationRequest(
            data=PAPER_EXAMPLE_TURTLE).to_json()).encode("utf-8")
        head, payload = raw_request_lines(body)
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as sock:
            sock.sendall(head)
            for start in range(0, len(payload), 64):
                sock.sendall(payload[start:start + 64])
                time.sleep(0.005)
            status, response = read_http_response(sock)
        assert status == 201
        assert response["triples"] == 8

    def test_truncated_body_is_typed_400(self, server):
        """Content-Length promises more bytes than the client ever sends:
        the server must answer a typed 400 naming the byte counts, not feed
        a truncated payload to the JSON parser."""
        head, payload = raw_request_lines(b'{"data": "', content_length=500)
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as sock:
            sock.sendall(head + payload)
            sock.shutdown(socket.SHUT_WR)  # premature EOF mid-body
            status, response = read_http_response(sock)
        assert status == 400
        assert response["error"] == "bad-request"
        assert "truncated" in response["message"]
        assert "500" in response["message"]

    def test_stall_mid_body_is_typed_408(self):
        """A client that sends headers plus a body prefix and then stalls
        trips the per-connection timeout and gets a typed 408."""
        with serve(person_schema(), connection_timeout=0.5) as srv:
            srv.start_background()
            head, payload = raw_request_lines(b'{"data": "', content_length=500)
            with socket.create_connection((srv.host, srv.port),
                                          timeout=10) as sock:
                sock.sendall(head + payload)  # ...and never send the rest
                status, response = read_http_response(sock)
            assert status == 408
            assert response["error"] == "request-timeout"
            assert "stalled" in response["message"]

    def test_silent_client_is_dropped_and_server_stays_responsive(self):
        """A connection that never sends a byte must not pin a handler
        thread: the socket timeout closes it, and other clients are
        unaffected."""
        with serve(person_schema(), connection_timeout=0.5) as srv:
            srv.start_background()
            with socket.create_connection((srv.host, srv.port),
                                          timeout=10) as stalled:
                deadline = time.monotonic() + 10
                closed = b"x"
                while time.monotonic() < deadline:
                    try:
                        closed = stalled.recv(1)
                        break
                    except TimeoutError:
                        continue
                assert closed == b""  # server closed the idle connection
                # and the server still answers a well-behaved client
                client = ServiceClient(srv.host, srv.port)
                assert load_paper_graph(client)["triples"] == 8

    def test_oversized_body_is_typed_413(self):
        with serve(person_schema(), max_body_bytes=64) as srv:
            srv.start_background()
            client = ServiceClient(srv.host, srv.port)
            with pytest.raises(ServiceError) as excinfo:
                client.load_graph(ValidationRequest(data=PAPER_EXAMPLE_TURTLE))
            assert excinfo.value.code == "payload-too-large"
            assert excinfo.value.http_status == 413


class TestHardenedShutdown:
    def test_shutdown_closes_sessions_and_listener(self):
        srv = serve(person_schema())
        srv.start_background()
        client = ServiceClient(srv.host, srv.port)
        load_paper_graph(client)
        host, port = srv.host, srv.port
        srv.shutdown()
        assert srv.service._sessions == {}  # sessions (and fleets) released
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1).close()

    def test_stuck_serve_thread_is_detected_and_listener_force_closed(self):
        """A serve loop that never acknowledges shutdown must not silently
        leak the listener: the socket is force-closed, the sessions are
        released and a structured ``shutdown-timeout`` error is raised."""
        srv = serve(person_schema(), shutdown_timeout=0.3)
        host, port = srv.host, srv.port
        # simulate a wedged serve loop: it "started" but will never service
        # the shutdown request (BaseServer.shutdown would block forever).
        srv._serving.set()
        try:
            with pytest.raises(ServiceError) as excinfo:
                srv.shutdown()
            assert excinfo.value.code == "shutdown-timeout"
            assert excinfo.value.http_status == 500
            assert srv.service._sessions == {}
            with pytest.raises(OSError):  # listener was force-closed anyway
                socket.create_connection((host, port), timeout=1).close()
        finally:
            # release the disposable closer thread blocked in
            # BaseServer.shutdown() so it does not outlive the test.
            srv._httpd._BaseServer__is_shut_down.set()
