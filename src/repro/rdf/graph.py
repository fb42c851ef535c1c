"""In-memory RDF graph with triple indexes and the graph algebra of the paper.

Section 2 of the paper defines the operations the matchers rely on:

* ``t ∘ ts`` — adding a triple to a graph,
* ``g1 ⊕ g2`` — union of two graphs (preserving blank-node identity),
* ``Σgₙ`` — the *shape of a node*: all triples whose subject is ``n``,
* the *decomposition* of a graph — every pair ``(g1, g2)`` with
  ``g1 ⊕ g2 = g`` (Example 3), which the backtracking matcher enumerates and
  which is the source of its exponential behaviour.

The :class:`Graph` class stores the triples once, in a subject → predicate →
objects hash index (SPO) that answers ``Σgₙ`` directly.  Reverse lookups use
an object → subjects bucket per predicate, built by the first query binding
that predicate (every predicate, for an object-only pattern) and kept exact.
A bucket is a tuple while it is small and a set past that
(:func:`bucket_add`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (Collection, Dict, FrozenSet, Hashable, Iterable, Iterator,
                    List, Mapping, Optional, Set, Tuple)

from .errors import GraphError
from .namespaces import NamespaceManager
from .terms import IRI, ObjectTerm, SubjectTerm, Triple

__all__ = [
    "ChangeJournal",
    "Graph",
    "decompositions",
    "decomposition_count",
]

#: default bound on the number of subjects a change journal tracks before it
#: overflows (consumers then fall back to a full rebuild).  Generous enough
#: for interactive editing sessions, small enough that the journal never
#: rivals the triple indexes in memory.
DEFAULT_JOURNAL_BOUND = 1 << 17

#: the most items a bucket keeps in a tuple.  A one-item tuple costs 48 B and
#: the smallest set 216 B, and most buckets of a real graph hold one to a few
#: items; past this size a tuple's linear ``in`` and copy-on-add would cost
#: more than the set's bytes save.
_SMALL = 8


def bucket_add(bucket: Collection, item: Hashable) -> Collection:
    """``bucket`` with ``item`` in it; ``()`` is the empty bucket.

    A bucket is a tuple of at most :data:`_SMALL` items; one more item turns
    it into a set, which then grows in place.  The caller stores the bucket
    this returns.
    """
    if type(bucket) is tuple:
        if item in bucket:
            return bucket
        if len(bucket) < _SMALL:
            return bucket + (item,)
        bucket = set(bucket)
    bucket.add(item)
    return bucket


def bucket_discard(bucket: Collection, item: Hashable) -> Collection:
    """``bucket`` without ``item`` (empty buckets are falsy); the caller
    stores the result.  A set shrinks in place and stays a set."""
    if type(bucket) is tuple:
        return tuple(other for other in bucket if other != item)
    bucket.discard(item)
    return bucket


class ChangeJournal:
    """A bounded per-subject dirty log with generation epochs.

    Every effective graph mutation dirties the triple's subject; the journal
    records, per subject, the *generation* of its most recent mutation.  A
    consumer that finished deriving state at generation ``g`` (a validation
    run, say) can later ask :meth:`changes_since` ``(g)`` for exactly the
    subjects whose neighbourhoods may differ from what it saw.

    The journal is **bounded**: once more than ``max_entries`` distinct
    subjects are tracked it overflows — the log is dropped and a floor is
    raised so that questions about pre-overflow generations honestly answer
    ``None`` ("I don't know, rebuild from scratch") instead of under-reporting
    changes.  Batches (:meth:`Graph.begin_batch` / :meth:`Graph.end_batch`)
    coalesce their mutations into one journal record per touched subject —
    not one per triple — so bulk loads do not pay per-triple journalling
    (the generation itself still counts every effective mutation).
    """

    __slots__ = ("max_entries", "_epochs", "_floor", "records", "overflows")

    def __init__(self, max_entries: int = DEFAULT_JOURNAL_BOUND):
        if max_entries < 1:
            raise ValueError("a change journal needs room for at least one entry")
        self.max_entries = max_entries
        #: subject → generation of its latest mutation.
        self._epochs: Dict[SubjectTerm, int] = {}
        #: generations ``< _floor`` are unanswerable (pre-overflow history).
        self._floor = 0
        #: total mutations recorded (batch = one record per touched subject).
        self.records = 0
        #: times the bound was hit and the log was dropped.
        self.overflows = 0

    def record(self, subject: SubjectTerm, generation: int) -> None:
        """Note that ``subject`` was mutated at ``generation``."""
        self.records += 1
        self._epochs[subject] = generation
        if len(self._epochs) > self.max_entries:
            self.truncate(generation)
            self.overflows += 1

    def truncate(self, generation: int) -> None:
        """Drop the log; only generations ``>= generation`` stay answerable."""
        self._epochs.clear()
        self._floor = generation

    def changes_since(self, generation: int) -> Optional[FrozenSet[SubjectTerm]]:
        """Subjects mutated after ``generation``, or ``None`` if unknowable.

        ``None`` means the journal overflowed (or was truncated) since
        ``generation``: the caller must treat *everything* as dirty.
        """
        if generation < self._floor:
            return None
        return frozenset(
            subject for subject, epoch in self._epochs.items() if epoch > generation
        )

    def stats(self) -> Dict[str, int]:
        """Summary counters for ``--cache-stats`` and benchmarks."""
        return {
            "tracked_subjects": len(self._epochs),
            "max_entries": self.max_entries,
            "records": self.records,
            "overflows": self.overflows,
            "floor": self._floor,
        }

    def __repr__(self) -> str:
        return (f"ChangeJournal(<{len(self._epochs)} subjects, "
                f"floor={self._floor}, bound={self.max_entries}>)")


class Graph:
    """A set of RDF triples with pattern-matching indexes.

    The class behaves like a set of :class:`~repro.rdf.terms.Triple` (supports
    ``in``, ``len``, iteration) and adds RDF-specific operations: triple
    pattern queries, namespace management, node neighbourhoods and union.

    Every effective mutation bumps :attr:`generation` and records the
    subject in the bounded change journal; :meth:`batch` coalesces the
    journal records of a bulk edit.
    """

    def __init__(self, triples: Optional[Iterable[Triple]] = None,
                 namespaces: Optional[NamespaceManager] = None,
                 journal_max_entries: int = DEFAULT_JOURNAL_BOUND):
        #: subject → predicate → its objects, a bucket (:func:`bucket_add`).
        self._spo: Dict[SubjectTerm, Dict[IRI, Collection[ObjectTerm]]] = {}
        self._count = 0
        #: predicate → object → subjects, per predicate once a query bound it
        #: (:meth:`_reverse`), for every predicate once ``_pos_complete``.
        self._pos: Dict[IRI, Dict[ObjectTerm, Collection[SubjectTerm]]] = {}
        self._pos_complete = False
        #: mutation counter; bumps on every effective add/discard/clear so
        #: derived state (e.g. a shared ValidationContext) can notice change.
        self._generation = 0
        #: bounded per-subject dirty log (see :class:`ChangeJournal`).
        self._journal = ChangeJournal(max_entries=journal_max_entries)
        #: batch nesting depth; > 0 coalesces journal records (see ``batch``).
        self._batch_depth = 0
        #: subjects dirtied inside the current outermost batch.
        self._batch_dirty: Set[SubjectTerm] = set()
        self.namespaces = namespaces if namespaces is not None else NamespaceManager(
            bind_defaults=True
        )
        if triples is not None:
            self.add_all(triples)

    # ------------------------------------------------------------------ set API
    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Triple]:
        return (tuple.__new__(Triple, (s, p, o)) for s, by_pred in self._spo.items()
                for p, objects in by_pred.items() for o in objects)

    def __contains__(self, triple: object) -> bool:
        if not isinstance(triple, tuple) or len(triple) != 3:
            return False
        return triple[2] in self._spo.get(triple[0], {}).get(triple[1], ())

    def __bool__(self) -> bool:
        return bool(self._spo)

    def __eq__(self, other) -> bool:
        # membership, not bucket equality: a small bucket's tuple keeps
        # insertion order
        if isinstance(other, (Graph, set, frozenset)):
            return len(other) == self._count and all(t in self for t in other)
        return NotImplemented

    def __hash__(self):  # pragma: no cover - mutable container
        raise TypeError("Graph is mutable and unhashable; use frozenset(graph)")

    def __repr__(self) -> str:
        return f"Graph(<{self._count} triples>)"

    # ------------------------------------------------------------- modification
    def add(self, triple: Triple) -> "Graph":
        """Add a triple (the ``t ∘ ts`` operation).  Returns ``self``."""
        if not isinstance(triple, Triple):
            raise GraphError(f"can only add Triple instances, got {type(triple).__name__}")
        s, p, o = triple
        by_pred = self._spo.setdefault(s, {})
        objects = by_pred.get(p, ())
        size = len(objects)
        objects = by_pred[p] = bucket_add(objects, o)
        if len(objects) == size:
            return self
        self._count += 1
        bucket = self._pos.setdefault(p, {}) if self._pos_complete else self._pos.get(p)
        if bucket is not None:
            bucket[o] = bucket_add(bucket.get(o, ()), s)
        self._record_change(s)
        return self

    def discard(self, triple: Triple) -> "Graph":
        """Remove ``triple`` if present.  Returns ``self``."""
        if triple not in self:
            return self
        s, p, o = triple
        by_pred = self._spo[s]
        objects = by_pred[p] = bucket_discard(by_pred[p], o)
        if not objects:
            del by_pred[p]
            if not by_pred:
                del self._spo[s]
        self._count -= 1
        bucket = self._pos.get(p)
        if bucket is not None:
            subjects = bucket[o] = bucket_discard(bucket[o], s)
            if not subjects:
                del bucket[o]
        self._record_change(s)
        return self

    def clear(self) -> None:
        """Remove every triple."""
        self._spo.clear()
        self._count = 0
        for bucket in self._pos.values():
            bucket.clear()
        self._generation += 1
        # every subject changed: no bounded log can say *which*, so the
        # journal honestly forgets and answers None for earlier generations.
        self._journal.truncate(self._generation)
        self._batch_dirty.clear()

    def _record_change(self, subject: SubjectTerm) -> None:
        # only the journal record is coalesced to the end of a batch; the
        # generation counts every effective mutation, batch or not: an
        # integer bump is nearly free, and anything derived from the graph
        # (shared contexts, maintained baselines) stays stale-detectable even
        # mid-batch.
        self._generation += 1
        if self._batch_depth:
            self._batch_dirty.add(subject)
        else:
            self._journal.record(subject, self._generation)

    def remove(self, triple: Triple) -> "Graph":
        """Remove ``triple``; raise :class:`GraphError` if absent."""
        if triple not in self:
            raise GraphError(f"triple not in graph: {triple}")
        return self.discard(triple)

    def add_triple(self, subject: SubjectTerm, predicate: IRI,
                   obj: ObjectTerm) -> "Graph":
        """Convenience wrapper building the :class:`Triple` for the caller."""
        return self.add(Triple(subject, predicate, obj))

    def update(self, triples: Iterable[Triple]) -> "Graph":
        """Add every triple from ``triples``.  Returns ``self``."""
        return self.add_all(triples)

    def add_all(self, triples: Iterable[Triple]) -> "Graph":
        """Add every triple inside one batch (one journal record per touched
        subject).  Returns ``self``."""
        # materialise first: the natural call sites hand in live generators
        # over this very graph (``graph.add_all(other.triples(...))`` where
        # ``other is graph``), which would otherwise mutate the indexes
        # they are iterating.
        with self.batch():
            for triple in list(triples):
                self.add(triple)
        return self

    def fill(self, triples: Iterable[Triple]) -> "Graph":
        """Fill a new graph from ``triples`` in one pass.  Returns ``self``.

        The parsers' build path: it streams its input (a parse reads text,
        never a live view of this graph) and leaves the graph, its
        :attr:`generation` and its journal as ``add`` inside one
        :meth:`batch` would, without the per-triple call.  The input is
        trusted: ``(subject, predicate, object)`` tuples of the right term
        kinds, unchecked.  A run of triples that share one subject object
        shares its SPO entry.
        """
        if self._generation or self._batch_depth:
            raise GraphError("fill builds a new graph; use add_all to edit one")
        spo = self._spo
        count = 0
        subject = by_pred = None
        try:
            for s, p, o in triples:
                if s is not subject:
                    by_pred = spo.get(s)
                    if by_pred is None:
                        by_pred = spo[s] = {}
                    subject = s
                objects = by_pred.get(p, ())
                size = len(objects)
                objects = by_pred[p] = bucket_add(objects, o)
                count += len(objects) - size
        finally:
            self._count = self._generation = count
            for s in spo:
                self._journal.record(s, count)
        return self

    def remove_all(self, triples: Iterable[Triple]) -> "Graph":
        """Discard every triple inside one batch.  Returns ``self``.

        Absent triples are ignored (``discard`` semantics), so a removal
        batch can be replayed idempotently.  The iterable is materialised
        first, so ``graph.remove_all(graph.triples(subject=s))`` — deleting
        a subject through a live query over the same graph — is safe.
        """
        with self.batch():
            for triple in list(triples):
                self.discard(triple)
        return self

    # ------------------------------------------------------------ change journal
    @property
    def generation(self) -> int:
        """Monotonic mutation counter (changes whenever the triples change)."""
        return self._generation

    @property
    def journal(self) -> ChangeJournal:
        """The graph's bounded :class:`ChangeJournal`."""
        return self._journal

    def changes_since(self, generation: int) -> Optional[FrozenSet[SubjectTerm]]:
        """Subjects whose neighbourhoods may have changed after ``generation``.

        Returns ``None`` when the journal cannot answer (it overflowed or was
        truncated since ``generation``, or ``generation`` predates it): the
        caller must assume everything changed.  Asking from inside a batch is
        an error — the batch's mutations have not been journalled yet, so any
        answer would under-report.
        """
        if self._batch_depth:
            raise GraphError("changes_since inside an open batch would "
                             "under-report; close the batch first")
        return self._journal.changes_since(generation)

    def begin_batch(self) -> None:
        """Enter batch mode: coalesce journal records until ``end_batch``.

        Nestable; only the outermost pair takes effect.  While a batch is
        open, triple reads see every mutation immediately (and the
        generation still counts every effective mutation — derived state
        stays stale-detectable mid-batch), but the journal
        receives one record per touched *subject* instead of one per triple,
        all stamped with the batch's final generation.  A batch that changes
        nothing (empty, or a fully idempotent replay) leaves the generation
        untouched, so derived state stays valid.
        """
        self._batch_depth += 1

    def end_batch(self) -> None:
        """Leave batch mode, journalling the coalesced per-subject changes."""
        if self._batch_depth == 0:
            raise GraphError("end_batch without a matching begin_batch")
        self._batch_depth -= 1
        if self._batch_depth == 0 and self._batch_dirty:
            # stamping with the final generation over-approximates soundly:
            # a consumer that derived state mid-batch sees every batch
            # subject as changed, including those mutated before its read.
            for subject in self._batch_dirty:
                self._journal.record(subject, self._generation)
            self._batch_dirty.clear()

    @contextmanager
    def batch(self):
        """Context manager around ``begin_batch`` / ``end_batch``::

            with graph.batch():
                for triple in bulk:
                    graph.add(triple)
        """
        self.begin_batch()
        try:
            yield self
        finally:
            self.end_batch()

    # ---------------------------------------------------------------- querying
    def triples(
        self,
        subject: Optional[SubjectTerm] = None,
        predicate: Optional[IRI] = None,
        obj: Optional[ObjectTerm] = None,
    ) -> Iterator[Triple]:
        """Iterate over triples matching a pattern; ``None`` is a wildcard."""
        if subject is not None and predicate is not None and obj is not None:
            candidate = Triple(subject, predicate, obj)
            if candidate in self:
                yield candidate
            return
        if subject is not None:
            by_pred = self._spo.get(subject)
            if not by_pred:
                return
            if predicate is not None:
                for o in by_pred.get(predicate, ()):
                    if obj is None or obj == o:
                        yield Triple(subject, predicate, o)
            else:
                for p, objects in by_pred.items():
                    for o in objects:
                        if obj is None or obj == o:
                            yield Triple(subject, p, o)
            return
        if predicate is not None:
            by_obj = self._reverse(predicate)
            if obj is not None:
                for s in by_obj.get(obj, ()):
                    yield Triple(s, predicate, obj)
            else:
                for o, subjects in by_obj.items():
                    for s in subjects:
                        yield Triple(s, predicate, o)
            return
        if obj is not None:
            if not self._pos_complete:
                for p in {p for by_pred in self._spo.values() for p in by_pred}:
                    self._reverse(p)
                self._pos_complete = True
            for p, by_obj in self._pos.items():
                for s in by_obj.get(obj, ()):
                    yield Triple(s, p, obj)
            return
        yield from self

    def _reverse(self, predicate: IRI) -> Dict[ObjectTerm, Collection[SubjectTerm]]:
        """The object → subjects bucket of ``predicate``, built from SPO on
        first use and maintained by every mutation after that."""
        bucket = self._pos.get(predicate)
        if bucket is None:
            bucket = self._pos[predicate] = {}
            for s, by_pred in self._spo.items():
                for o in by_pred.get(predicate, ()):
                    bucket[o] = bucket_add(bucket.get(o, ()), s)
        return bucket

    def nodes(self) -> Iterator[SubjectTerm]:
        """Iterate over every distinct subject node in the graph."""
        return iter(list(self._spo.keys()))

    def degree(self, node: SubjectTerm) -> int:
        """Return the out-degree of ``node`` (size of its neighbourhood)."""
        by_pred = self._spo.get(node)
        if not by_pred:
            return 0
        return sum(len(objects) for objects in by_pred.values())

    def predicate_objects(self, node: SubjectTerm) -> Mapping[IRI, Collection[ObjectTerm]]:
        """Out-edge objects of ``node``, grouped by predicate, zero-copy.

        Returns the store's live SPO bucket — callers MUST treat it as
        read-only and must not hold it across mutations.  Neighbourhood
        signatures and the compiled-schema prefilter read this view:
        grouping by predicate lets the signature builder resolve each
        predicate's candidate atoms once, gives the prefilter each
        predicate's count as a bucket size, and skips :class:`Triple`
        construction entirely.
        """
        by_pred = self._spo.get(node)
        return by_pred if by_pred is not None else {}

    def subjects(self, predicate: Optional[IRI] = None,
                 obj: Optional[ObjectTerm] = None) -> Iterator[SubjectTerm]:
        """Iterate over distinct subjects of triples matching the pattern."""
        seen: Set[SubjectTerm] = set()
        for triple in self.triples(None, predicate, obj):
            if triple.subject not in seen:
                seen.add(triple.subject)
                yield triple.subject

    def predicates(self, subject: Optional[SubjectTerm] = None,
                   obj: Optional[ObjectTerm] = None) -> Iterator[IRI]:
        """Iterate over distinct predicates of triples matching the pattern."""
        seen: Set[IRI] = set()
        for triple in self.triples(subject, None, obj):
            if triple.predicate not in seen:
                seen.add(triple.predicate)
                yield triple.predicate

    def objects(self, subject: Optional[SubjectTerm] = None,
                predicate: Optional[IRI] = None) -> Iterator[ObjectTerm]:
        """Iterate over distinct objects of triples matching the pattern."""
        seen: Set[ObjectTerm] = set()
        for triple in self.triples(subject, predicate, None):
            if triple.object not in seen:
                seen.add(triple.object)
                yield triple.object

    def value(self, subject: SubjectTerm, predicate: IRI) -> Optional[ObjectTerm]:
        """Return one object for ``(subject, predicate)`` or ``None``."""
        for obj in self.objects(subject, predicate):
            return obj
        return None

    def all_nodes(self) -> Iterator[ObjectTerm]:
        """Iterate over every distinct node (subjects and objects)."""
        seen: Set[ObjectTerm] = set()
        for triple in self:
            for term in (triple.subject, triple.object):
                if term not in seen:
                    seen.add(term)
                    yield term

    # ------------------------------------------------------ paper-level algebra
    def neighbourhood(self, node: SubjectTerm) -> FrozenSet[Triple]:
        """Return ``Σgₙ``: the set of triples whose subject is ``node``.

        Built from the SPO index on each call; production asks for it only
        when the matching engine runs, on a signature-cache miss.
        """
        return frozenset(
            Triple(node, p, o)
            for p, objects in self._spo.get(node, {}).items() for o in objects)

    def union(self, other: "Graph") -> "Graph":
        """Return a new graph ``self ⊕ other`` (blank-node identity preserved)."""
        result = Graph(namespaces=self.namespaces.copy())
        result.update(self)
        result.update(other)
        for prefix, base in other.namespaces.prefixes():
            if prefix not in result.namespaces:
                result.namespaces.bind(prefix, base)
        return result

    def __or__(self, other: "Graph") -> "Graph":
        return self.union(other)

    def __add__(self, other: "Graph") -> "Graph":
        return self.union(other)

    def copy(self) -> "Graph":
        """Return an independent copy of the graph."""
        return Graph(self, namespaces=self.namespaces.copy())

    def to_set(self) -> FrozenSet[Triple]:
        """Return the triples as an immutable frozenset."""
        return frozenset(self)

    def sorted_triples(self) -> List[Triple]:
        """Return triples in a deterministic (term-ordered) list."""
        return sorted(self, key=Triple.sort_key)

    # ------------------------------------------------------------ observability
    def store_stats(self) -> Dict[str, object]:
        """Store-level counters surfaced by ``--cache-stats``."""
        return {
            "triples": self._count,
            "reverse_predicates": len(self._pos),
        }

    # ------------------------------------------------------------ serialisation
    def serialize(self, format: str = "turtle") -> str:
        """Serialise the graph (formats: ``turtle``, ``ntriples``)."""
        if format in ("turtle", "ttl"):
            from .turtle import serialize_turtle

            return serialize_turtle(self)
        if format in ("ntriples", "nt"):
            from .ntriples import serialize_ntriples

            return serialize_ntriples(self)
        raise GraphError(f"unknown serialisation format: {format!r}")

    @classmethod
    def parse(cls, data: str, format: str = "turtle",
              base: Optional[str] = None) -> "Graph":
        """Parse ``data`` into a new graph (formats: ``turtle``, ``ntriples``)."""
        if format in ("turtle", "ttl"):
            from .turtle import parse_turtle

            return parse_turtle(data, base=base)
        if format in ("ntriples", "nt"):
            from .ntriples import parse_ntriples

            return parse_ntriples(data)
        raise GraphError(f"unknown parse format: {format!r}")


def decompositions(triples: FrozenSet[Triple] | Set[Triple]) -> Iterator[
    Tuple[FrozenSet[Triple], FrozenSet[Triple]]
]:
    """Enumerate every decomposition ``(g1, g2)`` with ``g1 ⊕ g2 = g``.

    Reproduces Example 3 of the paper.  A graph with ``n`` triples yields
    ``2ⁿ`` pairs; this is the operation that makes the naïve backtracking
    matcher exponential and that the derivative algorithm avoids entirely.
    """
    ordered = sorted(triples, key=Triple.sort_key)
    n = len(ordered)
    for mask in range(2 ** n):
        left = frozenset(ordered[i] for i in range(n) if mask & (1 << i))
        right = frozenset(ordered[i] for i in range(n) if not mask & (1 << i))
        yield left, right


def decomposition_count(triples: FrozenSet[Triple] | Set[Triple]) -> int:
    """Return the number of decompositions of ``triples`` (``2ⁿ``)."""
    return 2 ** len(triples)
