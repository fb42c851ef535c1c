"""Dictionary-encoded columnar triple store with sorted int-array segments.

The dict-backed :class:`~repro.rdf.graph.Graph` keeps three nested hash
indexes of term objects — fast, but every triple costs several dict entries,
set slots and object headers, which caps graph size far below the millions
of triples the target workloads need.  :class:`ColumnarGraph` implements the
same store contract (:class:`~repro.rdf.graph.TripleStore`) on top of
:class:`~repro.rdf.dictionary.TermDictionary` ids and an LSM-flavoured
layout:

* **segments** — immutable, each holding up to ``segment_size`` triples as
  three sorted ``array('q')`` column sets (SPO, POS and OSP order).  A
  neighbourhood scan binary-searches the subject range in each segment's SPO
  columns and slices it out; no per-triple Python objects exist until a scan
  decodes its results,
* a **mutable tail** — triples added since the last flush, held as id rows
  with a small per-subject index; flushing sorts the tail into a fresh
  segment once it reaches ``segment_size``,
* **tombstones** — removals of segment-resident rows are recorded in a side
  set (segments are never rewritten); removals of tail rows drop them
  directly.

Streaming ingest (:meth:`ColumnarGraph.ingest_ntriples`) parses one
N-Triples line at a time, encodes it and lets the term objects go, so peak
memory during a load is one open segment plus the dictionary — never the
decoded triple list.

Everything above the store (validators, partitioners, the change journal)
works on this class unchanged because the mutation bookkeeping, batch
semantics and query helpers are inherited from ``TripleStore``; the journal
is keyed by subject *id* here and decoded only at the ``changes_since``
boundary.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .dictionary import TermDictionary
from .errors import GraphError
from .graph import DEFAULT_JOURNAL_BOUND, OrderedTriples, TripleStore
from .namespaces import NamespaceManager
from .terms import IRI, ObjectTerm, SubjectTerm, Triple, unchecked_triple

__all__ = ["ColumnarGraph", "DEFAULT_SEGMENT_SIZE"]

#: default number of triples per segment: large enough that segment count
#: stays small on million-triple graphs, small enough that an open tail
#: never dominates memory during streaming ingest.
DEFAULT_SEGMENT_SIZE = 1 << 16

#: an id-level triple: ``(subject_id, predicate_id, object_id)``.
_Row = Tuple[int, int, int]


def _sorted_columns(rows: List[_Row], a: int, b: int, c: int
                    ) -> Tuple[array, array, array]:
    """Three parallel ``array('q')`` columns sorted by positions (a, b, c)."""
    ordered = sorted(rows, key=lambda row: (row[a], row[b], row[c]))
    return (
        array("q", [row[a] for row in ordered]),
        array("q", [row[b] for row in ordered]),
        array("q", [row[c] for row in ordered]),
    )


class _Segment:
    """An immutable sorted run of id triples in SPO, POS and OSP order."""

    __slots__ = ("size", "spo", "pos", "osp")

    def __init__(self, rows: List[_Row]):
        self.size = len(rows)
        self.spo = _sorted_columns(rows, 0, 1, 2)
        self.pos = _sorted_columns(rows, 1, 2, 0)
        self.osp = _sorted_columns(rows, 2, 0, 1)

    def nbytes(self) -> int:
        """Total bytes held by the nine columns."""
        return sum(len(col) * col.itemsize
                   for index in (self.spo, self.pos, self.osp)
                   for col in index)


def _key_range(column: array, key: int, lo: int, hi: int) -> Tuple[int, int]:
    """The half-open row range of ``column[lo:hi]`` equal to ``key``."""
    left = bisect_left(column, key, lo, hi)
    if left == hi or column[left] != key:
        return left, left
    return left, bisect_right(column, key, left, hi)


class ColumnarGraph(TripleStore):
    """A :class:`~repro.rdf.graph.TripleStore` over dictionary-encoded
    sorted int-array segments.

    Drop-in verdict-identical replacement for the dict store: same
    triples/neighbourhood/generation/journal contract, a fraction of the
    resident memory per triple, and binary-search neighbourhood scans.
    """

    store_name = "columnar"

    def __init__(self, triples: Optional[Iterable[Triple]] = None,
                 namespaces: Optional[NamespaceManager] = None,
                 segment_size: int = DEFAULT_SEGMENT_SIZE,
                 journal_max_entries: int = DEFAULT_JOURNAL_BOUND):
        super().__init__(namespaces=namespaces,
                         journal_max_entries=journal_max_entries)
        if segment_size < 1:
            raise GraphError("segment_size must be at least 1")
        self.segment_size = segment_size
        self._dict = TermDictionary()
        self._segments: List[_Segment] = []
        #: rows added since the last flush, in insertion order …
        self._tail: List[_Row] = []
        #: … with a membership set and a per-subject (pid, oid) index so the
        #: tail never degrades neighbourhood scans to linear probes.
        self._tail_set: Set[_Row] = set()
        self._tail_spo: Dict[int, List[Tuple[int, int]]] = {}
        #: tombstones: segment-resident rows that were removed (segments are
        #: immutable, so removals are recorded on the side).  Tail rows are
        #: never tombstoned — they are dropped from the tail directly.
        self._dead: Set[_Row] = set()
        #: live out-degree per subject id (also the subject-node directory).
        self._out_degree: Dict[int, int] = {}
        #: id-order neighbourhoods for :meth:`neighbourhood_any` — kept apart
        #: from the term-sorted cache because the any-path skips the sort.
        self._neigh_any: Dict[int, OrderedTriples] = {}
        self._count = 0
        #: high-water mark of the tail during ingest — the streaming tests
        #: assert loads stay segment-bounded through this counter.
        self._peak_tail = 0
        self._segments_built = 0
        if triples is not None:
            self.add_all(triples)

    # ------------------------------------------------------------------ set API
    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Triple]:
        decode = self._dict.decode
        dead = self._dead
        for segment in self._segments:
            s_col, p_col, o_col = segment.spo
            for i in range(segment.size):
                if dead and (s_col[i], p_col[i], o_col[i]) in dead:
                    continue
                yield unchecked_triple(decode(s_col[i]), decode(p_col[i]),
                                       decode(o_col[i]))
        for s, p, o in self._tail:
            yield unchecked_triple(decode(s), decode(p), decode(o))

    def __contains__(self, triple: object) -> bool:
        if not isinstance(triple, Triple):
            return False
        row = self._lookup_row(triple)
        return row is not None and self._row_present(row)

    def __repr__(self) -> str:
        return (f"ColumnarGraph(<{self._count} triples, "
                f"{len(self._segments)} segments>)")

    # ------------------------------------------------------------- id plumbing
    def _lookup_row(self, triple: Triple) -> Optional[_Row]:
        """The id row of ``triple``, or ``None`` if any term is unknown."""
        lookup = self._dict.lookup
        sid = lookup(triple.subject)
        if sid is None:
            return None
        pid = lookup(triple.predicate)
        if pid is None:
            return None
        oid = lookup(triple.object)
        if oid is None:
            return None
        return (sid, pid, oid)

    def _in_segments(self, row: _Row) -> bool:
        """True if some segment holds ``row`` (live or tombstoned)."""
        sid, pid, oid = row
        for segment in self._segments:
            first, second, third = segment.spo
            lo, hi = _key_range(first, sid, 0, segment.size)
            if lo == hi:
                continue
            lo, hi = _key_range(second, pid, lo, hi)
            if lo == hi:
                continue
            i = bisect_left(third, oid, lo, hi)
            if i < hi and third[i] == oid:
                return True
        return False

    def _row_present(self, row: _Row) -> bool:
        if row in self._tail_set:
            return True
        if row in self._dead:
            return False
        return self._in_segments(row)

    def _bump_degree(self, sid: int, delta: int) -> None:
        degree = self._out_degree.get(sid, 0) + delta
        if degree:
            self._out_degree[sid] = degree
        else:
            self._out_degree.pop(sid, None)

    def _decode_journal_keys(self, keys: FrozenSet) -> FrozenSet[SubjectTerm]:
        decode = self._dict.decode
        return frozenset(decode(sid) for sid in keys)

    # ------------------------------------------------------------- modification
    def add(self, triple: Triple) -> "ColumnarGraph":
        """Add a triple (the ``t ∘ ts`` operation).  Returns ``self``."""
        if not isinstance(triple, Triple):
            raise GraphError(
                f"can only add Triple instances, got {type(triple).__name__}")
        encode = self._dict.encode
        row = (encode(triple.subject), encode(triple.predicate),
               encode(triple.object))
        if row in self._tail_set:
            return self
        if row in self._dead:
            # the row still sits in a segment: reviving it is un-tombstoning
            self._dead.remove(row)
            self._count += 1
            self._bump_degree(row[0], 1)
            self._invalidate_key(row[0])
            return self
        if self._in_segments(row):
            return self
        self._tail.append(row)
        self._tail_set.add(row)
        self._tail_spo.setdefault(row[0], []).append((row[1], row[2]))
        self._count += 1
        self._bump_degree(row[0], 1)
        self._invalidate_key(row[0])
        if len(self._tail) > self._peak_tail:
            self._peak_tail = len(self._tail)
        if len(self._tail) >= self.segment_size:
            self._flush_tail()
        return self

    def discard(self, triple: Triple) -> "ColumnarGraph":
        """Remove ``triple`` if present.  Returns ``self``."""
        if not isinstance(triple, Triple):
            return self
        row = self._lookup_row(triple)
        if row is None:
            return self
        if row in self._tail_set:
            self._tail_set.remove(row)
            self._tail.remove(row)
            pairs = self._tail_spo[row[0]]
            pairs.remove((row[1], row[2]))
            if not pairs:
                del self._tail_spo[row[0]]
        elif row not in self._dead and self._in_segments(row):
            self._dead.add(row)
        else:
            return self
        self._count -= 1
        self._bump_degree(row[0], -1)
        self._invalidate_key(row[0])
        return self

    def _invalidate_key(self, key: int) -> None:
        self._neigh_any.pop(key, None)
        super()._invalidate_key(key)

    def clear(self) -> None:
        """Remove every triple (the dictionary keeps its interned terms)."""
        self._segments.clear()
        self._tail = []
        self._tail_set = set()
        self._tail_spo = {}
        self._dead.clear()
        self._out_degree.clear()
        self._count = 0
        self._neigh_sets.clear()
        self._neigh_ordered.clear()
        self._neigh_any.clear()
        self._generation += 1
        # every subject changed: no bounded log can say *which*, so the
        # journal honestly forgets and answers None for earlier generations.
        self._journal.truncate(self._generation)
        self._batch_dirty.clear()

    def _flush_tail(self) -> None:
        """Sort the tail into a fresh immutable segment."""
        if not self._tail:
            return
        self._segments.append(_Segment(self._tail))
        self._segments_built += 1
        self._tail = []
        self._tail_set = set()
        self._tail_spo = {}

    # ---------------------------------------------------------------- querying
    def _subject_pairs(self, sid: int) -> List[Tuple[int, int]]:
        """Live ``(predicate_id, object_id)`` pairs of subject ``sid``."""
        pairs: List[Tuple[int, int]] = []
        dead = self._dead
        for segment in self._segments:
            first, second, third = segment.spo
            lo, hi = _key_range(first, sid, 0, segment.size)
            if lo == hi:
                continue
            if dead:
                for i in range(lo, hi):
                    if (sid, second[i], third[i]) in dead:
                        continue
                    pairs.append((second[i], third[i]))
            else:
                pairs.extend(zip(second[lo:hi], third[lo:hi]))
        tail_pairs = self._tail_spo.get(sid)
        if tail_pairs:
            pairs.extend(tail_pairs)
        return pairs

    def signature_pairs(self, node: SubjectTerm
                        ) -> Optional[Tuple[int, Tuple[Tuple[int, int], ...]]]:
        """Id-native raw material for a neighbourhood signature.

        Returns ``(subject_id, sorted (predicate_id, object_id) pairs)`` for
        ``node``, or ``None`` when the node is unknown to the dictionary
        (its neighbourhood is empty and the caller should fall back to the
        term path).  The pairs are sorted by integer id — a canonical order
        that costs an int sort instead of term comparisons — and the ids let
        :meth:`ValidationContext.node_signature` key its object-class memo
        by ``(pid, oid)`` ints instead of term objects.
        """
        sid = self._dict.lookup(node)
        if sid is None:
            return None
        return sid, tuple(sorted(self._subject_pairs(sid)))

    def decode_id(self, tid: int):
        """Materialise the term for ``tid`` (dictionary passthrough)."""
        return self._dict.decode(tid)

    def triples(
        self,
        subject: Optional[SubjectTerm] = None,
        predicate: Optional[IRI] = None,
        obj: Optional[ObjectTerm] = None,
    ) -> Iterator[Triple]:
        """Iterate over triples matching a pattern; ``None`` is a wildcard."""
        lookup = self._dict.lookup
        decode = self._dict.decode
        sid = pid = oid = None
        if subject is not None:
            sid = lookup(subject)
            if sid is None:
                return
        if predicate is not None:
            pid = lookup(predicate)
            if pid is None:
                return
        if obj is not None:
            oid = lookup(obj)
            if oid is None:
                return
        if sid is not None and pid is not None and oid is not None:
            if self._row_present((sid, pid, oid)):
                yield Triple(subject, predicate, obj)
            return
        if sid is not None:
            for p, o in self._subject_pairs(sid):
                if pid is not None and p != pid:
                    continue
                if oid is not None and o != oid:
                    continue
                yield unchecked_triple(subject, decode(p), decode(o))
            return
        dead = self._dead
        if pid is not None:
            for segment in self._segments:
                first, second, third = segment.pos
                lo, hi = _key_range(first, pid, 0, segment.size)
                if oid is not None:
                    lo, hi = _key_range(second, oid, lo, hi)
                for i in range(lo, hi):
                    if dead and (third[i], pid, second[i]) in dead:
                        continue
                    yield unchecked_triple(decode(third[i]), predicate,
                                           decode(second[i]))
            for s, p, o in self._tail:
                if p != pid or (oid is not None and o != oid):
                    continue
                yield unchecked_triple(decode(s), predicate, decode(o))
            return
        if oid is not None:
            for segment in self._segments:
                first, second, third = segment.osp
                lo, hi = _key_range(first, oid, 0, segment.size)
                for i in range(lo, hi):
                    if dead and (second[i], third[i], oid) in dead:
                        continue
                    yield unchecked_triple(decode(second[i]), decode(third[i]),
                                           obj)
            for s, p, o in self._tail:
                if o != oid:
                    continue
                yield unchecked_triple(decode(s), decode(p), obj)
            return
        yield from self

    def in_edges(self, node: ObjectTerm) -> Iterator[Tuple[IRI, SubjectTerm]]:
        """Iterate ``(predicate, subject)`` over the in-edges of ``node``.

        The id-native reverse scan the ``affected_nodes`` BFS runs on: one
        binary search per segment on the OSP columns, and only the predicate
        and subject ids that survive are decoded (memoised in the
        dictionary, so a predicate is materialised once, not once per edge).
        """
        oid = self._dict.lookup(node)
        if oid is None:
            return
        decode = self._dict.decode
        dead = self._dead
        for segment in self._segments:
            first, second, third = segment.osp
            lo, hi = _key_range(first, oid, 0, segment.size)
            for i in range(lo, hi):
                if dead and (second[i], third[i], oid) in dead:
                    continue
                yield decode(third[i]), decode(second[i])
        for s, p, o in self._tail:
            if o == oid:
                yield decode(p), decode(s)

    def nodes(self) -> Iterator[SubjectTerm]:
        """Iterate over every distinct subject node in the graph."""
        decode = self._dict.decode
        return iter([decode(sid) for sid in self._out_degree])

    def degree(self, node: SubjectTerm) -> int:
        """Return the out-degree of ``node`` (size of its neighbourhood)."""
        sid = self._dict.lookup(node)
        if sid is None:
            return 0
        return self._out_degree.get(sid, 0)

    def predicate_counts(self, node: SubjectTerm) -> Dict[IRI, int]:
        """Out-edge multiplicities of ``node``, grouped by predicate.

        Counted over id pairs; only the distinct predicates are decoded
        (and those hit the dictionary's memoised term cache).
        """
        sid = self._dict.lookup(node)
        if sid is None:
            return {}
        counts: Dict[int, int] = {}
        for p, _ in self._subject_pairs(sid):
            counts[p] = counts.get(p, 0) + 1
        decode = self._dict.decode
        return {decode(p): count for p, count in counts.items()}

    # ------------------------------------------------------ paper-level algebra
    def neighbourhood(self, node: SubjectTerm) -> FrozenSet[Triple]:
        """Return ``Σgₙ`` as a frozenset (cached per subject id)."""
        sid = self._dict.lookup(node)
        if sid is None:
            return frozenset()
        cached = self._neigh_sets.get(sid)
        if cached is not None:
            return cached
        result = frozenset(self.neighbourhood_ordered(node))
        self._neigh_sets[sid] = result
        return result

    def neighbourhood_ordered(self, node: SubjectTerm) -> OrderedTriples:
        """Return ``Σgₙ`` as a predicate-sorted :class:`OrderedTriples`.

        The scan slices the subject's row range out of each segment's SPO
        columns, sorts the id pairs by memoised term sort keys and only then
        decodes — triples are materialised exactly once per (cached) result.
        """
        sid = self._dict.lookup(node)
        if sid is None:
            return OrderedTriples()
        cached = self._neigh_ordered.get(sid)
        if cached is not None:
            return cached
        pairs = self._subject_pairs(sid)
        sort_key = self._dict.sort_key
        pairs.sort(key=lambda pair: (sort_key(pair[0]), sort_key(pair[1])))
        decode = self._dict.decode
        result = OrderedTriples(
            unchecked_triple(node, decode(p), decode(o)) for p, o in pairs
        )
        self._neigh_ordered[sid] = result
        return result

    def neighbourhood_any(self, node: SubjectTerm) -> OrderedTriples:
        """``Σgₙ`` in the cheapest representation: id-order triples.

        Unlike the dict store there is no hash index to reuse (a frozenset
        would cost an extra hash of every triple), and no caller of the
        any-form relies on term order — so this path decodes the id pairs in
        index order and skips both the hashing and the sort.
        """
        sid = self._dict.lookup(node)
        if sid is None:
            return OrderedTriples()
        cached = self._neigh_any.get(sid)
        if cached is not None:
            return cached
        ordered = self._neigh_ordered.get(sid)
        if ordered is not None:
            # a term-sorted neighbourhood is already materialised: reuse it.
            self._neigh_any[sid] = ordered
            return ordered
        terms = self._dict._terms
        decode = self._dict.decode
        new = tuple.__new__
        result = OrderedTriples([
            new(Triple, (node,
                         terms.get(p) or decode(p),
                         terms.get(o) or decode(o)))
            for p, o in self._subject_pairs(sid)
        ])
        self._neigh_any[sid] = result
        return result

    def copy(self) -> "ColumnarGraph":
        """Return an independent copy (same store kind and segment size)."""
        return ColumnarGraph(self, namespaces=self.namespaces.copy(),
                             segment_size=self.segment_size)

    # ------------------------------------------------------------ observability
    def store_stats(self) -> Dict[str, object]:
        """Store counters: segments, bytes per index family, decode counts."""
        stats = super().store_stats()
        index_bytes = sum(segment.nbytes() for segment in self._segments)
        stats.update({
            "segments": len(self._segments),
            "segments_built": self._segments_built,
            "segment_size": self.segment_size,
            "segment_rows": sum(segment.size for segment in self._segments),
            "tail_rows": len(self._tail),
            "peak_tail_rows": self._peak_tail,
            "tombstones": len(self._dead),
            # nine columns split evenly across the three index families
            "index_bytes": index_bytes,
            "bytes_per_index": index_bytes // 3 if index_bytes else 0,
            "dictionary": self._dict.stats(),
        })
        return stats

    # ------------------------------------------------------------ serialisation
    def ingest_ntriples(self, lines: Iterable[str]) -> int:
        """Stream N-Triples ``lines`` into the store; returns triples added.

        ``lines`` may be an open file handle or any lazy line source.  Each
        line is parsed, encoded and released: peak memory is one open tail
        (≤ ``segment_size`` id rows) plus the term dictionary — the decoded
        triple list never exists.
        """
        from .ntriples import iter_ntriples_lines

        before = self._count
        with self.batch():
            for triple in iter_ntriples_lines(lines):
                self.add(triple)
        return self._count - before

    @classmethod
    def parse(cls, data: str, format: str = "turtle",
              base: Optional[str] = None,
              segment_size: int = DEFAULT_SEGMENT_SIZE) -> "ColumnarGraph":
        """Parse ``data`` into a new columnar graph.

        N-Triples goes through the streaming ingest path line by line.
        Turtle needs whole-document prefix context, so it is parsed into a
        dict graph first and re-encoded (buffered; prefer N-Triples for
        large loads).
        """
        if format in ("ntriples", "nt"):
            from .ntriples import split_ntriples_lines

            graph = cls(segment_size=segment_size)
            graph.ingest_ntriples(split_ntriples_lines(data))
            return graph
        if format in ("turtle", "ttl"):
            from .turtle import parse_turtle

            parsed = parse_turtle(data, base=base)
            graph = cls(segment_size=segment_size,
                        namespaces=parsed.namespaces.copy())
            graph.add_all(parsed)
            return graph
        raise GraphError(f"unknown parse format: {format!r}")
