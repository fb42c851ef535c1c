"""Cross-node derivative caching for bulk validation.

The derivative engine consumes a neighbourhood one triple at a time, and the
seed implementation memoised ``(expression, triple)`` pairs *within* one
neighbourhood only.  That misses the dominant redundancy of whole-graph
validation: different nodes have structurally identical neighbourhoods
(every Person has an ``age``, a ``name`` and some ``knows`` arcs), so the
very same derivative chains are recomputed for every node.

The key observation making a *global* cache sound is that ``∂t(e)`` depends
on the triple ``t`` only through its **verdict vector**: for each distinct
``(predicate-set, object-constraint)`` atom occurring in ``e``, whether
``t``'s predicate is admitted by the predicate set and ``t``'s object
satisfies the constraint.  Two triples with equal verdict vectors produce
structurally identical derivatives — regardless of which node they hang off.
Because expressions are hash-consed (:mod:`repro.shex.expressions`), the
cache key ``(expression, verdict-vector)`` hashes in O(1).

Shape references (``@label``) stay sound because the verdict for a reference
atom is obtained through the context's ``check_reference`` *before* the
cache is consulted: the reference is answered (from the typing by a
:class:`~repro.shex.schema.FixpointContext` in production, by the recursive
descent of a :class:`~repro.shex.reference.ReferenceContext`) per triple
exactly as in the uncached engine — only the purely structural
``verdicts → derivative`` mapping is reused.

Nothing else is memoised here: the engine tests each atom's predicate set
and object constraint directly.  Production reaches the engine only on a
:class:`SignatureCache` miss, so a verdict memo below that cache would
save almost nothing.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .expressions import Arc, ShapeExpr, iter_subexpressions
from .node_constraints import NodeConstraint, PredicateSet

__all__ = ["DerivativeCache", "SignatureCache"]

#: one ``(predicate-set, object-constraint)`` atom of an expression.
ArcAtom = Tuple[PredicateSet, NodeConstraint]


class DerivativeCache:
    """Persistent ``(expression, verdict-vector) → derivative`` memo table.

    One instance can be shared by any number of nodes, labels, validation
    runs and even graphs: every entry is keyed purely by expression structure
    and constraint verdicts, never by a node or a graph.  Every production
    :class:`~repro.shex.validator.Validator` owns one; to share one across
    validators, attach it to a
    :class:`~repro.shex.derivatives.DerivativeEngine` via its ``cache``
    option and pass that engine.  It holds no constraint verdicts: the
    engine tests each atom's predicate set and object constraint directly.

    ``max_entries`` bounds both tables (per-expression atoms and
    derivatives) for long-running services: when set, the derivative table
    evicts its least-recently-used entry and the atom table its oldest entry
    once the bound is exceeded.  Eviction can only cost recomputation, never
    correctness — every entry is a pure function of its key.  The default
    (``None``) keeps today's unbounded behaviour.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be at least 1 (or None for unbounded)")
        self.max_entries = max_entries
        #: expression → its distinct arc atoms, in deterministic first-seen order.
        self._atoms: Dict[ShapeExpr, Tuple[ArcAtom, ...]] = {}
        #: (expression, verdict vector) → derivative expression; insertion
        #: order doubles as the LRU order when ``max_entries`` is set.
        self._derivatives: Dict[Tuple[ShapeExpr, Tuple[bool, ...]], ShapeExpr] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- bookkeeping -----------------------------------------------------------
    def clear(self) -> None:
        """Drop every cached entry (counters included)."""
        self._atoms.clear()
        self._derivatives.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> Dict[str, int]:
        """Return cache sizes and hit/miss/eviction counters (for benchmarks)."""
        return {
            "expressions": len(self._atoms),
            "derivatives": len(self._derivatives),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "max_entries": self.max_entries if self.max_entries is not None else 0,
        }

    @property
    def hit_rate(self) -> float:
        """Fraction of derivative lookups answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- atoms -----------------------------------------------------------------
    def atoms_for(self, expr: ShapeExpr) -> Tuple[ArcAtom, ...]:
        """Return the distinct arc atoms of ``expr`` (computed once per expression)."""
        atoms = self._atoms.get(expr)
        if atoms is None:
            seen: Dict[ArcAtom, None] = {}
            for sub in iter_subexpressions(expr):
                if isinstance(sub, Arc):
                    seen.setdefault((sub.predicate, sub.object), None)
            atoms = tuple(seen)
            self._atoms[expr] = atoms
            if self.max_entries is not None and len(self._atoms) > self.max_entries:
                # the atom table also pins its expression keys alive, so it
                # must honour the bound too (FIFO; recomputation is cheap).
                self._atoms.pop(next(iter(self._atoms)))
                self.evictions += 1
        return atoms

    # -- derivatives -----------------------------------------------------------
    def lookup(self, expr: ShapeExpr, signature: Tuple[bool, ...]) -> Optional[ShapeExpr]:
        """Return the cached derivative for ``(expr, signature)``, if any."""
        key = (expr, signature)
        cached = self._derivatives.get(key)
        if cached is not None:
            self.hits += 1
            if self.max_entries is not None:
                # refresh recency: dict order is the LRU order when bounded.
                del self._derivatives[key]
                self._derivatives[key] = cached
        else:
            self.misses += 1
        return cached

    def store(self, expr: ShapeExpr, signature: Tuple[bool, ...],
              result: ShapeExpr) -> None:
        """Record the derivative of ``expr`` under the given verdict vector."""
        self._derivatives[(expr, signature)] = result
        if self.max_entries is not None and len(self._derivatives) > self.max_entries:
            self._derivatives.pop(next(iter(self._derivatives)))
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._derivatives)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DerivativeCache({len(self._derivatives)} derivatives, "
                f"{self.hits} hits / {self.misses} misses)")


class SignatureCache:
    """Bounded ``(typed neighbourhood signature, shape label) → verdict`` memo.

    The dominant redundancy of whole-graph validation lives one level
    *above* the derivative cache: whole subjects share identical
    neighbourhood structure, so even a perfectly cached derivative chain is
    replayed once per node.  This cache short-circuits the entire engine run
    for a pair whose canonical *typed signature* — a sorted multiset of
    ``(predicate, object-class)`` pairs, see
    :meth:`FixpointContext.node_signature` — was already matched against
    the same shape label.  An object's class holds one bit per candidate
    atom: the constraint verdict for a value atom, and for a ``@label``
    atom the object's bit in the typing the match read.

    Soundness: one-step matching of a pair — the engine's verdict under a
    typing, and the prefilter's, which never reads the typing — is a pure
    function of the signature and the label, because the bits fix the
    verdict of every atom a triple can touch.  So every verdict the
    production fixpoint computes may be stored (the greatest-fixpoint solve
    keys each match by the signature it read), recursive subjects included,
    and the stored reason names no node.

    Entries are keyed by signature structure only, so one instance may serve
    any number of nodes, validation runs and graph generations over the same
    schema: a mutated node, or a changed typing, simply produces a different
    signature.  When ``max_entries`` is set the table evicts
    least-recently-used entries, mirroring :class:`DerivativeCache`.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be at least 1 (or None for unbounded)")
        self.max_entries = max_entries
        #: (signature, label) → (conforms, failure reason)
        self._verdicts: Dict[Tuple[object, object], Tuple[bool, str]] = {}
        self.hits = 0
        self.misses = 0
        self.dedupes = 0
        self.evictions = 0

    def clear(self) -> None:
        """Drop every cached verdict (counters included)."""
        self._verdicts.clear()
        self.hits = 0
        self.misses = 0
        self.dedupes = 0
        self.evictions = 0

    def lookup(self, signature: object, label: object) -> Optional[Tuple[bool, str]]:
        """Return the cached ``(conforms, reason)`` verdict, if any."""
        key = (signature, label)
        cached = self._verdicts.get(key)
        if cached is not None:
            self.hits += 1
            if self.max_entries is not None:
                # refresh recency: dict order is the LRU order when bounded.
                del self._verdicts[key]
                self._verdicts[key] = cached
        else:
            self.misses += 1
        return cached

    def store(self, signature: object, label: object,
              conforms: bool, reason: str = "") -> None:
        """Record a settled verdict for every node sharing this signature."""
        self._verdicts[(signature, label)] = (conforms, reason)
        self.dedupes += 1
        if self.max_entries is not None and len(self._verdicts) > self.max_entries:
            self._verdicts.pop(next(iter(self._verdicts)))
            self.evictions += 1

    @property
    def hit_rate(self) -> float:
        """Fraction of signature lookups answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, int]:
        """Return table size and hit/miss/dedupe/eviction counters."""
        return {
            "signatures": len(self._verdicts),
            "hits": self.hits,
            "misses": self.misses,
            "dedupes": self.dedupes,
            "evictions": self.evictions,
            "max_entries": self.max_entries if self.max_entries is not None else 0,
        }

    def __len__(self) -> int:
        return len(self._verdicts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SignatureCache({len(self._verdicts)} signatures, "
                f"{self.hits} hits / {self.misses} misses)")
