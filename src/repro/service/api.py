"""The service API: one typed request/response contract for every surface.

The CLI, the HTTP server (:mod:`repro.service.server`) and the python client
(:mod:`repro.service.client`) all speak these types — a request built in
process is byte-for-byte the request that travels over the wire, and the
stats the CLI prints under ``--cache-stats`` are the stats ``GET /stats``
serves.

Every dataclass carries a versioned JSON codec: ``to_json()`` returns a
plain-dict payload stamped with :data:`API_VERSION`, and the matching
``from_json`` classmethod rebuilds an equal object
(``from_json(to_json(x)) == x``, property-tested).  Malformed or
wrong-version payloads raise :class:`ServiceError` with a stable ``code`` —
the same error type the server maps to non-200 HTTP statuses — so parsing a
request body and rejecting it are one code path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

__all__ = [
    "API_VERSION",
    "ServiceError",
    "ValidationRequest",
    "DeltaRequest",
    "VerdictResponse",
    "DeltaResponse",
    "ServiceStats",
]

#: version stamp carried by every payload; bumped on incompatible changes.
API_VERSION = 1


@dataclass
class ServiceError(Exception):
    """A typed service failure with a stable machine-readable ``code``.

    Codes are part of the API contract (clients branch on them, tests pin
    them):

    ==================== ====== =============================================
    code                 status meaning
    ==================== ====== =============================================
    ``bad-request``      400    malformed payload / missing parameter
    ``parse-error``      400    RDF data or an N-Triples term failed to parse
    ``schema-error``     400    ShExC schema failed to parse / resolve
    ``graph-not-found``  404    unknown graph id
    ``verdict-not-found`` 404   (node, shape) outside the maintained baseline
    ``no-baseline``      409    verdict/delta before any full validation run
    ``stale-baseline``   409    graph mutated behind the maintained table
    ``journal-overflow`` 409    change journal overflowed; the delta was
                                applied but incremental revalidation refused
                                the unbounded rebuild (retry with
                                ``allow_full_rebuild``)
    ``limit-exceeded``   422    matching one neighbourhood took more than
                                the derivative-step budget
                                (``MAX_DERIVATIVE_STEPS``); on a delta the
                                triples were applied but not revalidated
    ``request-timeout``  408    the client stalled mid-request-body
    ``payload-too-large`` 413   request body exceeds the server's bound
    ``uri-too-long``     414    request line over 65,536 bytes
    ``headers-too-large`` 431   a header line over 65,536 bytes, or more
                                than 100 headers
    ``not-implemented``  501    a method other than GET, POST and DELETE, or
                                any ``Transfer-Encoding``
    ``http-version-not-supported`` 505 a version other than HTTP/1.0 or 1.1
    ``shutdown-timeout`` 500    the serve thread outlived its shutdown
                                deadline; the listener socket was force-closed
    ``generation-conflict`` 409 the delta's ``expected_generation`` does not
                                match the graph (another writer got there
                                first, or a retried delta fell out of the
                                bounded ledger); re-read and re-derive the
                                delta before retrying
    ``session-closed``   409    the graph's session was closed/dropped while
                                the request was in flight
    ``fleet-closed``     409    spawn/respawn attempted on a shut-down fleet
    ``fleet-worker-died`` 503   a resident shard worker died or went
                                unresponsive mid-request; it is respawned and
                                warm-loaded on the next fleet operation
    ``verdict-unavailable`` 503 a degraded read could not serve the pair from
                                any live shard or the coordinator's stale
                                baseline
    ``connection-failed`` 503   client could not reach the server at all
    ``retries-exhausted`` 503   client retry policy ran out of attempts or
                                budget; the last underlying error is chained
    ``offline-cache-miss`` 503  offline client had no cached verdict
    ==================== ====== =============================================

    ``generation`` is set when a failed request still moved the graph (a
    delta applied but not revalidated).
    """

    code: str = "internal"
    message: str = ""
    http_status: int = 500
    generation: Optional[int] = None

    def __post_init__(self):
        # populate BaseException.args so str()/traceback rendering work;
        # BaseException.__init__ writes through a C slot, not __setattr__.
        Exception.__init__(self, self.message)

    def to_json(self) -> Dict[str, Any]:
        payload = {"version": API_VERSION, "error": self.code,
                   "message": self.message, "http_status": self.http_status}
        if self.generation is not None:
            payload["generation"] = self.generation
        return payload

    @classmethod
    def from_json(cls, payload: Union[str, Mapping[str, Any]]) -> "ServiceError":
        data = _load(payload)
        _check_version(data)
        return cls(code=_get(data, "error", str),
                   message=_get(data, "message", str, ""),
                   http_status=_get(data, "http_status", int, 500),
                   generation=_opt_int(data, "generation"))


def _load(payload: Union[str, Mapping[str, Any]]) -> Mapping[str, Any]:
    if isinstance(payload, str):
        try:
            payload = json.loads(payload)
        except ValueError as error:
            raise ServiceError("bad-request", f"invalid JSON: {error}", 400) \
                from None
    if not isinstance(payload, Mapping):
        raise ServiceError("bad-request",
                           f"expected a JSON object, got {type(payload).__name__}",
                           400)
    return payload


def _check_version(data: Mapping[str, Any]) -> None:
    version = data.get("version", API_VERSION)
    if version != API_VERSION:
        raise ServiceError(
            "bad-request",
            f"unsupported api version {version!r} (this build speaks "
            f"{API_VERSION})", 400)


_MISSING = object()


def _get(data: Mapping[str, Any], key: str, kind, default=_MISSING):
    value = data.get(key, _MISSING)
    if value is _MISSING:
        if default is _MISSING:
            raise ServiceError("bad-request", f"missing field {key!r}", 400)
        return default
    # bool is an int subclass; keep the two distinct in the contract
    if kind is int and isinstance(value, bool):
        raise ServiceError("bad-request", f"field {key!r} must be an integer", 400)
    if not isinstance(value, kind):
        wanted = kind.__name__ if isinstance(kind, type) else "/".join(
            k.__name__ for k in kind)
        raise ServiceError("bad-request",
                           f"field {key!r} must be {wanted}, "
                           f"got {type(value).__name__}", 400)
    return value


def _opt_labels(data: Mapping[str, Any]) -> Optional[Tuple[str, ...]]:
    raw = data.get("labels")
    if raw is None:
        return None
    if not isinstance(raw, (list, tuple)) \
            or not all(isinstance(item, str) for item in raw):
        raise ServiceError("bad-request",
                           "field 'labels' must be a list of strings", 400)
    return tuple(raw)


def _opt_int(data: Mapping[str, Any], key: str) -> Optional[int]:
    value = data.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError("bad-request",
                           f"field {key!r} must be an integer or null", 400)
    return value


@dataclass(frozen=True)
class ValidationRequest:
    """Load a graph and run the initial full validation (``POST /graphs``).

    ``data`` is the RDF payload itself (the wire carries content, not
    paths); ``schema`` is ShExC text, empty to use the server's preloaded
    schema.  ``labels`` restricts validation to the named shapes (default:
    every shape).  ``shards`` of ``None`` defers to the server's
    configuration; an explicit value from 0 up to the server's own shard
    count overrides it per graph (more is a ``400 bad-request``).
    """

    data: str = ""
    data_format: str = "turtle"
    schema: str = ""
    labels: Optional[Tuple[str, ...]] = None
    shards: Optional[int] = None

    def __post_init__(self):
        if self.data_format not in ("turtle", "ntriples"):
            raise ServiceError("bad-request",
                               f"unknown data_format {self.data_format!r}", 400)

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "version": API_VERSION,
            "data": self.data,
            "data_format": self.data_format,
            "schema": self.schema,
        }
        if self.labels is not None:
            payload["labels"] = list(self.labels)
        if self.shards is not None:
            payload["shards"] = self.shards
        return payload

    @classmethod
    def from_json(cls, payload: Union[str, Mapping[str, Any]]
                  ) -> "ValidationRequest":
        data = _load(payload)
        _check_version(data)
        return cls(data=_get(data, "data", str, ""),
                   data_format=_get(data, "data_format", str, "turtle"),
                   schema=_get(data, "schema", str, ""),
                   labels=_opt_labels(data),
                   shards=_opt_int(data, "shards"))


@dataclass(frozen=True)
class DeltaRequest:
    """A batched graph mutation (``POST /graphs/{id}/delta``).

    ``add``/``remove`` are N-Triples text blocks; the whole edit lands as
    one batch in the graph's change journal, then incremental revalidation
    runs.  ``allow_full_rebuild`` opts into the unbounded full re-run the
    service otherwise refuses with a ``journal-overflow``/``no-baseline``
    error when the change set is unknowable.

    ``delta_id`` is an idempotency key: the session remembers applied ids
    in a bounded ledger, and a retried delta with a seen id replays the
    original :class:`DeltaResponse` instead of re-applying the triples —
    this is what makes retrying a dropped response safe.
    ``expected_generation``, when set, is an optimistic-concurrency guard:
    the delta only applies if the graph is still at that generation
    (``generation-conflict`` 409 otherwise).  The client stamps both
    automatically.
    """

    add: str = ""
    remove: str = ""
    labels: Optional[Tuple[str, ...]] = None
    allow_full_rebuild: bool = False
    delta_id: Optional[str] = None
    expected_generation: Optional[int] = None

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "version": API_VERSION,
            "add": self.add,
            "remove": self.remove,
            "allow_full_rebuild": self.allow_full_rebuild,
        }
        if self.labels is not None:
            payload["labels"] = list(self.labels)
        if self.delta_id is not None:
            payload["delta_id"] = self.delta_id
        if self.expected_generation is not None:
            payload["expected_generation"] = self.expected_generation
        return payload

    @classmethod
    def from_json(cls, payload: Union[str, Mapping[str, Any]]) -> "DeltaRequest":
        data = _load(payload)
        _check_version(data)
        delta_id = data.get("delta_id")
        if delta_id is not None and not isinstance(delta_id, str):
            raise ServiceError("bad-request",
                               "field 'delta_id' must be a string or null",
                               400)
        return cls(add=_get(data, "add", str, ""),
                   remove=_get(data, "remove", str, ""),
                   labels=_opt_labels(data),
                   allow_full_rebuild=_get(data, "allow_full_rebuild",
                                           bool, False),
                   delta_id=delta_id,
                   expected_generation=_opt_int(data, "expected_generation"))


@dataclass(frozen=True)
class VerdictResponse:
    """One ``(node, shape)`` verdict served from the maintained entry table.

    ``node`` is the N-Triples rendering of the term, ``shape`` the label
    name, ``generation`` the graph generation the verdict describes —
    clients key their caches on it and invalidate when it moves.

    ``reason`` is ``None`` unless explicitly requested: failure-message
    wording is processing-order-dependent across the serial and sharded
    schedulers, so the *default* response is byte-identical across modes and
    the explanatory text is opt-in (``?reason=1``).

    ``degraded``/``missing_shards`` are set only on degraded reads
    (``?allow_degraded=1`` during a shard outage): the verdict was served
    from a live shard replica or the coordinator's stale baseline while the
    dead shards heal, and ``missing_shards`` names the shard indices that
    could not answer.  Both are omitted from JSON at their defaults, so a
    healthy response stays byte-identical to pre-degraded builds.
    """

    node: str
    shape: str
    conforms: bool
    generation: int
    reason: Optional[str] = None
    degraded: bool = False
    missing_shards: Tuple[int, ...] = ()

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "version": API_VERSION,
            "node": self.node,
            "shape": self.shape,
            "conforms": self.conforms,
            "generation": self.generation,
        }
        if self.reason is not None:
            payload["reason"] = self.reason
        if self.degraded:
            payload["degraded"] = True
            payload["missing_shards"] = list(self.missing_shards)
        return payload

    @classmethod
    def from_json(cls, payload: Union[str, Mapping[str, Any]]
                  ) -> "VerdictResponse":
        data = _load(payload)
        _check_version(data)
        reason = data.get("reason")
        if reason is not None and not isinstance(reason, str):
            raise ServiceError("bad-request",
                               "field 'reason' must be a string or null", 400)
        missing = data.get("missing_shards", [])
        if not isinstance(missing, (list, tuple)) \
                or not all(isinstance(item, int) and not isinstance(item, bool)
                           for item in missing):
            raise ServiceError("bad-request",
                               "field 'missing_shards' must be a list of "
                               "integers", 400)
        return cls(node=_get(data, "node", str),
                   shape=_get(data, "shape", str),
                   conforms=_get(data, "conforms", bool),
                   generation=_get(data, "generation", int),
                   reason=reason,
                   degraded=_get(data, "degraded", bool, False),
                   missing_shards=tuple(missing))


@dataclass(frozen=True)
class DeltaResponse:
    """The outcome of one delta round: journal/closure/rebuild counters.

    ``generation`` is the graph generation *after* the batch — every client
    cache entry stamped with an older generation is invalid from here on.
    """

    generation: int
    added: int = 0
    removed: int = 0
    dirty_subjects: int = 0
    affected_nodes: int = 0
    revalidated_pairs: int = 0
    reused_pairs: int = 0
    retracted_verdicts: int = 0
    full_rebuild: bool = False
    conforms: bool = True

    def to_json(self) -> Dict[str, Any]:
        payload = {"version": API_VERSION}
        for spec in fields(self):
            payload[spec.name] = getattr(self, spec.name)
        return payload

    @classmethod
    def from_json(cls, payload: Union[str, Mapping[str, Any]]) -> "DeltaResponse":
        data = _load(payload)
        _check_version(data)
        kwargs: Dict[str, Any] = {"generation": _get(data, "generation", int)}
        for name in ("added", "removed", "dirty_subjects", "affected_nodes",
                     "revalidated_pairs", "reused_pairs", "retracted_verdicts"):
            kwargs[name] = _get(data, name, int, 0)
        kwargs["full_rebuild"] = _get(data, "full_rebuild", bool, False)
        kwargs["conforms"] = _get(data, "conforms", bool, True)
        return cls(**kwargs)


def _counter_dict(data: Mapping[str, Any], key: str) -> Dict[str, Any]:
    value = data.get(key, {})
    if not isinstance(value, Mapping):
        raise ServiceError("bad-request",
                           f"field {key!r} must be an object", 400)
    return dict(value)


@dataclass(frozen=True)
class ServiceStats:
    """Every observability counter the system keeps, as one typed object.

    One structure serves all surfaces: ``GET /stats`` returns its JSON,
    ``--cache-stats`` prints :meth:`format_text` (the same prefixed
    ``key=value`` stderr lines the CLI has always emitted), and
    ``--cache-stats=json`` prints the JSON.  The groups mirror the
    subsystems: ``store`` (triple and reverse-bucket counts),
    ``journal`` (change journal), ``prefilter`` (compiled-schema counters),
    ``cache`` (derivative cache), ``signature`` (neighbourhood-signature
    verdict cache) — the last three empty for the
    ``--reference`` run, the cache also for non-derivative engines —
    ``profile`` (per-phase hot-path wall-clock counters from
    :class:`~repro.shex.results.MatchStats`, empty until a run recorded
    any), ``verdicts`` (settled confirmed/failed context counts +
    maintained baseline size), ``session`` (request counters of the owning session)
    and ``fleet`` (resident shard fleet health: worker liveness, respawns,
    per-shard replica counters — empty for unsharded sessions).
    """

    generation: int = 0
    store: Dict[str, Any] = field(default_factory=dict)
    journal: Dict[str, Any] = field(default_factory=dict)
    prefilter: Dict[str, Any] = field(default_factory=dict)
    cache: Dict[str, Any] = field(default_factory=dict)
    signature: Dict[str, Any] = field(default_factory=dict)
    profile: Dict[str, Any] = field(default_factory=dict)
    verdicts: Dict[str, Any] = field(default_factory=dict)
    session: Dict[str, Any] = field(default_factory=dict)
    fleet: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": API_VERSION,
            "generation": self.generation,
            "store": dict(self.store),
            "journal": dict(self.journal),
            "prefilter": dict(self.prefilter),
            "cache": dict(self.cache),
            "signature": dict(self.signature),
            "profile": dict(self.profile),
            "verdicts": dict(self.verdicts),
            "session": dict(self.session),
            "fleet": dict(self.fleet),
        }

    @classmethod
    def from_json(cls, payload: Union[str, Mapping[str, Any]]) -> "ServiceStats":
        data = _load(payload)
        _check_version(data)
        return cls(generation=_get(data, "generation", int, 0),
                   store=_counter_dict(data, "store"),
                   journal=_counter_dict(data, "journal"),
                   prefilter=_counter_dict(data, "prefilter"),
                   cache=_counter_dict(data, "cache"),
                   signature=_counter_dict(data, "signature"),
                   profile=_counter_dict(data, "profile"),
                   verdicts=_counter_dict(data, "verdicts"),
                   session=_counter_dict(data, "session"),
                   fleet=_counter_dict(data, "fleet"))

    def format_text(self) -> str:
        """Render the classic ``--cache-stats`` stderr block.

        Line prefixes and key names are stable (tests and scripts grep for
        them): ``store-stats:``, ``journal-stats:``,
        ``prefilter-stats:``, ``cache-stats:``.
        """
        lines: List[str] = []
        if self.store:
            rendered = " ".join(f"{key}={value}"
                                for key, value in self.store.items())
            lines.append(f"store-stats: {rendered}")
        if self.journal:
            journal = self.journal
            lines.append("journal-stats: "
                         f"tracked_subjects={journal.get('tracked_subjects', 0)} "
                         f"records={journal.get('records', 0)} "
                         f"overflows={journal.get('overflows', 0)} "
                         f"max_entries={journal.get('max_entries', 0)}")
        if self.prefilter:
            prefilter = self.prefilter
            lines.append("prefilter-stats: "
                         f"accepts={prefilter.get('accepts', 0)} "
                         f"rejects={prefilter.get('rejects', 0)} "
                         f"reference_checks={prefilter.get('reference_checks', 0)} "
                         f"schema={prefilter.get('schema', {})}")
        else:
            lines.append("prefilter-stats: disabled "
                         "(--reference or no schema)")
        if self.cache:
            cache = self.cache
            hit_rate = cache.get("hit_rate", 0.0)
            lines.append("cache-stats: "
                         f"hits={cache.get('hits', 0)} "
                         f"misses={cache.get('misses', 0)} "
                         f"evictions={cache.get('evictions', 0)} "
                         f"derivatives={cache.get('derivatives', 0)} "
                         f"max_entries={cache.get('max_entries', 0)} "
                         f"hit_rate={hit_rate:.1%}")
        else:
            lines.append("cache-stats: no derivative cache active")
        if self.signature:
            signature = self.signature
            hit_rate = signature.get("hit_rate", 0.0)
            lines.append("signature-stats: "
                         f"hits={signature.get('hits', 0)} "
                         f"misses={signature.get('misses', 0)} "
                         f"dedupes={signature.get('dedupes', 0)} "
                         f"evictions={signature.get('evictions', 0)} "
                         f"signatures={signature.get('signatures', 0)} "
                         f"max_entries={signature.get('max_entries', 0)} "
                         f"hit_rate={hit_rate:.1%}")
        else:
            lines.append("signature-stats: no signature cache active")
        if self.profile:
            profile = self.profile
            rendered = " ".join(
                f"{key}={value:.4f}" if isinstance(value, float)
                else f"{key}={value}"
                for key, value in profile.items())
            lines.append(f"profile-stats: {rendered}")
        if self.fleet.get("started"):
            fleet = self.fleet
            lines.append("fleet-stats: "
                         f"shards={fleet.get('shards', 0)} "
                         f"workers_alive={fleet.get('workers_alive', 0)} "
                         f"workers_loaded={fleet.get('workers_loaded', 0)} "
                         f"respawns={fleet.get('respawns', 0)}")
        return "\n".join(lines)
