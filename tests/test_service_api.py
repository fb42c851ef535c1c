"""Property tests for the service API contract (``repro.service.api``).

The core promise: every dataclass round-trips losslessly through its
versioned JSON codec (``from_json(to_json(x)) == x``), the payloads are
actually JSON-serialisable, and malformed/wrong-version payloads are
rejected with typed :class:`ServiceError`\\ s, never bare exceptions.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service.api import (
    API_VERSION,
    DeltaRequest,
    DeltaResponse,
    ServiceError,
    ServiceStats,
    ValidationRequest,
    VerdictResponse,
)

# -- strategies ---------------------------------------------------------------------
text = st.text(max_size=40)
labels = st.one_of(
    st.none(),
    st.lists(st.text(min_size=1, max_size=12), max_size=4).map(tuple),
)
opt_int = st.one_of(st.none(), st.integers(min_value=0, max_value=128))
counter = st.integers(min_value=0, max_value=2**40)
counters = st.dictionaries(
    st.text(min_size=1, max_size=12), counter, max_size=4)

validation_requests = st.builds(
    ValidationRequest,
    data=text,
    data_format=st.sampled_from(["turtle", "ntriples"]),
    schema=text,
    labels=labels,
    shards=opt_int,
)

delta_requests = st.builds(
    DeltaRequest,
    add=text,
    remove=text,
    labels=labels,
    allow_full_rebuild=st.booleans(),
    delta_id=st.one_of(st.none(), st.text(min_size=1, max_size=16)),
    expected_generation=opt_int,
)

verdict_responses = st.builds(
    VerdictResponse,
    node=text,
    shape=text,
    conforms=st.booleans(),
    generation=counter,
    reason=st.one_of(st.none(), text),
)

# degraded verdicts carry missing_shards only when the flag is set (the
# codec omits both fields at their defaults, so they round-trip as a pair)
degraded_verdict_responses = st.builds(
    VerdictResponse,
    node=text,
    shape=text,
    conforms=st.booleans(),
    generation=counter,
    degraded=st.just(True),
    missing_shards=st.lists(st.integers(min_value=0, max_value=15),
                            unique=True, max_size=4).map(tuple),
)

delta_responses = st.builds(
    DeltaResponse,
    generation=counter,
    added=counter,
    removed=counter,
    dirty_subjects=counter,
    affected_nodes=counter,
    revalidated_pairs=counter,
    reused_pairs=counter,
    retracted_verdicts=counter,
    full_rebuild=st.booleans(),
    conforms=st.booleans(),
)

service_stats = st.builds(
    ServiceStats,
    generation=counter,
    store=counters,
    journal=counters,
    prefilter=counters,
    cache=counters,
    verdicts=counters,
    session=counters,
    fleet=counters,
)

service_errors = st.builds(
    ServiceError,
    code=st.sampled_from(["bad-request", "parse-error", "schema-error",
                          "graph-not-found", "journal-overflow",
                          "stale-baseline", "request-timeout",
                          "payload-too-large", "shutdown-timeout",
                          "fleet-worker-died", "offline-cache-miss"]),
    message=text,
    http_status=st.sampled_from([400, 404, 408, 409, 413, 500, 503]),
    generation=st.none() | st.integers(0, 10**6),
)


class TestRoundTrips:
    """``from_json(to_json(x)) == x`` for every api dataclass."""

    @given(validation_requests)
    def test_validation_request(self, request):
        assert ValidationRequest.from_json(request.to_json()) == request
        # and through an actual wire encoding
        assert ValidationRequest.from_json(
            json.dumps(request.to_json())) == request

    @given(delta_requests)
    def test_delta_request(self, request):
        assert DeltaRequest.from_json(request.to_json()) == request
        assert DeltaRequest.from_json(json.dumps(request.to_json())) == request

    @given(verdict_responses)
    def test_verdict_response(self, response):
        assert VerdictResponse.from_json(response.to_json()) == response
        assert VerdictResponse.from_json(
            json.dumps(response.to_json())) == response

    @given(degraded_verdict_responses)
    def test_degraded_verdict_response(self, response):
        assert VerdictResponse.from_json(response.to_json()) == response
        assert VerdictResponse.from_json(
            json.dumps(response.to_json())) == response

    @given(verdict_responses)
    def test_healthy_verdict_omits_degraded_fields(self, response):
        payload = response.to_json()
        assert "degraded" not in payload
        assert "missing_shards" not in payload

    @given(delta_responses)
    def test_delta_response(self, response):
        assert DeltaResponse.from_json(response.to_json()) == response
        assert DeltaResponse.from_json(
            json.dumps(response.to_json())) == response

    @given(service_stats)
    def test_service_stats(self, stats):
        assert ServiceStats.from_json(stats.to_json()) == stats
        assert ServiceStats.from_json(json.dumps(stats.to_json())) == stats

    @given(service_errors)
    def test_service_error(self, error):
        rebuilt = ServiceError.from_json(error.to_json())
        assert rebuilt == error
        assert rebuilt.http_status == error.http_status

    @given(verdict_responses)
    def test_payloads_are_version_stamped_json(self, response):
        payload = response.to_json()
        assert payload["version"] == API_VERSION
        json.dumps(payload)  # must not raise


class TestRejection:
    """Malformed payloads become typed errors, not bare exceptions."""

    def test_non_object_payload_is_bad_request(self):
        with pytest.raises(ServiceError) as exc:
            ValidationRequest.from_json("[]")
        assert exc.value.code == "bad-request"
        assert exc.value.http_status == 400

    def test_invalid_json_text_is_bad_request(self):
        with pytest.raises(ServiceError) as exc:
            DeltaRequest.from_json("{nope")
        assert exc.value.code == "bad-request"

    def test_wrong_version_is_rejected(self):
        payload = VerdictResponse(node="<urn:a>", shape="S", conforms=True,
                                  generation=1).to_json()
        payload["version"] = API_VERSION + 1
        with pytest.raises(ServiceError) as exc:
            VerdictResponse.from_json(payload)
        assert exc.value.code == "bad-request"

    def test_missing_required_field(self):
        with pytest.raises(ServiceError) as exc:
            VerdictResponse.from_json({"version": API_VERSION, "node": "<urn:a>"})
        assert exc.value.code == "bad-request"

    def test_wrong_field_type(self):
        with pytest.raises(ServiceError) as exc:
            DeltaResponse.from_json({"version": API_VERSION,
                                     "generation": "three"})
        assert exc.value.code == "bad-request"

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ServiceError):
            DeltaResponse.from_json({"version": API_VERSION, "generation": True})

    def test_labels_must_be_strings(self):
        with pytest.raises(ServiceError):
            ValidationRequest.from_json({"version": API_VERSION, "labels": [1]})

    def test_removed_store_field_is_ignored_like_any_unknown_key(self):
        for store in ("dict", "sqlite"):
            request = ValidationRequest.from_json(
                {"version": API_VERSION, "data": "<urn:a> <urn:p> 1 .",
                 "store": store})
            assert request == ValidationRequest(data="<urn:a> <urn:p> 1 .")
            assert "store" not in request.to_json()

    def test_unknown_data_format_is_rejected(self):
        with pytest.raises(ServiceError):
            ValidationRequest(data_format="rdfxml")

    def test_removed_jobs_field_is_ignored_like_any_unknown_key(self):
        request = ValidationRequest.from_json(
            {"version": API_VERSION, "data": "", "jobs": 4, "shards": 2})
        assert request == ValidationRequest(shards=2)
        assert "jobs" not in request.to_json()


class TestVerdictByteIdentity:
    def test_reason_is_excluded_by_default(self):
        """Default responses omit ``reason`` so serial/parallel/sharded modes
        serialise byte-identically despite order-dependent failure wording."""
        verdict = VerdictResponse(node="<urn:a>", shape="S", conforms=False,
                                  generation=3)
        assert "reason" not in verdict.to_json()
        with_reason = VerdictResponse(node="<urn:a>", shape="S", conforms=False,
                                      generation=3, reason="because")
        assert with_reason.to_json()["reason"] == "because"


class TestServiceStatsFormat:
    """``format_text`` keeps the classic ``--cache-stats`` stderr contract."""

    def _stats(self):
        return ServiceStats(
            generation=7,
            store={"triples": 10, "cached_neighbourhoods": 2,
                   "reverse_predicates": 1},
            journal={"tracked_subjects": 3, "records": 4, "overflows": 0,
                     "max_entries": 1024},
            prefilter={"accepts": 1, "rejects": 2, "reference_checks": 3,
                       "schema": {"labels": 1}},
            cache={"hits": 5, "misses": 7, "evictions": 0, "derivatives": 9,
                   "max_entries": 0,
                   "hit_rate": 0.4167},
            session={"shards": 0},
        )

    def test_line_prefixes_and_keys(self):
        rendered = self._stats().format_text()
        assert ("store-stats: triples=10 cached_neighbourhoods=2 "
                "reverse_predicates=1") in rendered
        assert "dictionary-stats:" not in rendered
        assert "journal-stats: tracked_subjects=3" in rendered
        assert "prefilter-stats: accepts=1 rejects=2" in rendered
        assert "cache-stats: hits=5 misses=7 evictions=0" in rendered
        assert "max_entries=unbounded" in rendered  # 0 renders as unbounded

    def test_disabled_subsystems_render_explicitly(self):
        rendered = ServiceStats().format_text()
        assert "prefilter-stats: disabled" in rendered
        assert "cache-stats: no derivative cache active" in rendered
