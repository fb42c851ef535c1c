"""Compiled schemas: static per-label fast paths for the hot validation loop.

The derivative algorithm decides each ``(node, label)`` pair by walking the
label's expression once per neighbourhood triple.  For realistic schemas most
pairs are decidable — or at least heavily prunable — from *static* properties
of the schema alone, computed **once per schema** instead of once per node:

* **nullability** — ``ν(δ(label))`` decides the empty neighbourhood outright,
* **first-predicate sets** — predicates that can begin a match; a non-empty
  neighbourhood avoiding them entirely cannot match a non-nullable shape,
* **required-predicate bounds** — sound per-predicate ``[min, max]`` triple
  counts (:func:`~repro.shex.analysis.cardinality_bounds`);
  a count outside the bounds rejects before any derivative is taken,
* **allowed-predicate sets** — the algebra is closed-world (every triple must
  be consumed by some arc), so a triple whose predicate no arc admits makes
  every derivative ``∅``,
* **value screens** — for predicates whose consuming arcs all carry trivially
  decidable object constraints, a triple satisfying none of them rejects,
* **signature atoms** — each label's arc atoms, hash-consed, and per data
  predicate the schema's atoms that can touch it, in a fixed order: one bit
  each in a typed neighbourhood signature.

Soundness of each fast path is argued in ``docs/architecture.md`` ("Schema
compilation").  Two properties keep the prefilter compatible with the
greatest-fixpoint typing: decisions depend only on the neighbourhood's
per-predicate buckets, trivially-screened objects and the schema — never on the
typing — so every prefilter verdict is **definitive** (safe to cache under a
typed signature, safe to share across processes), and shape-reference arcs
are never screened, so typing-dependent outcomes always fall through to the
full engine.

A :class:`CompiledSchema` is picklable: resident shard workers receive the
coordinator's compiled tables once per process instead of recompiling them.
"""

from __future__ import annotations

from typing import Collection, Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..rdf.terms import IRI, ObjectTerm
from .analysis import cardinality_bounds, first_predicates
from .cache import ArcAtom, bounded_store
from .derivatives import nullable
from .expressions import Arc, ShapeExpr, iter_subexpressions
from .node_constraints import (
    AnyValue,
    DatatypeConstraint,
    IRIStem,
    LanguageTag,
    NodeConstraint,
    NodeKindConstraint,
    ShapeRef,
    ValueSet,
)
from .schema import Schema
from .typing import ShapeLabel

__all__ = [
    "MAX_SIGNATURE_ATOM_ENTRIES",
    "CompiledShape",
    "CompiledSchema",
    "PrefilterDecision",
]


class PrefilterDecision:
    """A definitive verdict reached without running a matching engine."""

    __slots__ = ("matched", "reason")

    def __init__(self, matched: bool, reason: str = ""):
        self.matched = matched
        self.reason = reason

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PrefilterDecision({self.matched}, {self.reason!r})"


#: shared accept decision: accepts carry no reason, so one instance suffices.
_ACCEPT = PrefilterDecision(True)

#: entries the per-predicate signature-atom memo
#: (:meth:`CompiledSchema.signature_atoms`) holds.  It is keyed by *data*
#: predicates, so a long-lived service meeting ever-new vocabulary would
#: otherwise grow it without limit.  An entry retains about 60 B; perfbench
#: kb fills 10.
MAX_SIGNATURE_ATOM_ENTRIES = 1 << 12


def _is_screenable(constraint: NodeConstraint) -> bool:
    """True for constraints the value screen may evaluate ahead of the engine.

    "Trivially decidable" means: constant-time, context-free, and cheap
    enough that evaluating it twice (prefilter + engine on the unknown path)
    never dominates.  Shape references are context-dependent and therefore
    never screenable; boolean combinators and faceted constraints are left to
    the engine.
    """
    if isinstance(constraint, ValueSet):
        return True
    if isinstance(constraint, IRIStem) or isinstance(constraint, LanguageTag):
        return True
    if isinstance(constraint, DatatypeConstraint):
        return constraint.facets.is_trivial()
    if isinstance(constraint, NodeKindConstraint):
        return constraint.facets.is_trivial()
    return False


class CompiledShape:
    """Everything statically known about one label, computed once per schema."""

    __slots__ = (
        "label", "expr", "nullable", "first_exact", "first_open",
        "required", "max_counts", "allowed_exact", "allowed_stems",
        "allows_any", "screens", "atoms", "has_references",
    )

    def __init__(self, label: ShapeLabel, expr: ShapeExpr):
        self.label = label
        self.expr = expr
        self.nullable: bool = nullable(expr)
        self.first_exact, self.first_open = first_predicates(expr)

        # the distinct arc atoms, in the deterministic first-seen order of
        # DerivativeCache.atoms_for
        seen: Dict[ArcAtom, None] = {}
        allowed_exact: set = set()
        allowed_stems: set = set()
        allows_any = False
        has_references = False
        for sub in iter_subexpressions(expr):
            if not isinstance(sub, Arc):
                continue
            seen.setdefault((sub.predicate, sub.object), None)
            predicate_set = sub.predicate
            allowed_exact.update(predicate_set.predicates)
            if predicate_set.stem is not None:
                allowed_stems.add(predicate_set.stem)
            if predicate_set.any_predicate:
                allows_any = True
            if isinstance(sub.object, ShapeRef):
                has_references = True
        self.atoms: Tuple[ArcAtom, ...] = tuple(seen)
        self.allowed_exact: FrozenSet[IRI] = frozenset(allowed_exact)
        self.allowed_stems: Tuple[str, ...] = tuple(sorted(allowed_stems))
        self.allows_any: bool = allows_any
        self.has_references: bool = has_references

        bounds = cardinality_bounds(expr)
        self.required: Tuple[Tuple[IRI, int], ...] = tuple(
            (predicate, bound.minimum)
            for predicate, bound in sorted(bounds.items(),
                                           key=lambda item: item[0].value)
            if bound.minimum > 0
        )
        self.max_counts: Dict[IRI, int] = {
            predicate: bound.maximum
            for predicate, bound in bounds.items()
            if bound.maximum is not None
        }

        # value screens: predicate → the constraints of every arc that could
        # consume a triple with that predicate.  Only built when *all* such
        # constraints are trivially decidable, none is the wildcard (which
        # can never reject) and no wildcard-predicate arc could absorb the
        # triple instead.
        # Without a wildcard, and with no stem admitting the predicate, an
        # arc consumes it exactly when it lists it, so one pass over the
        # atoms groups the constraints (linear in the shape's width).
        self.screens: Dict[IRI, Tuple[NodeConstraint, ...]] = {}
        if not allows_any:
            consumers: Dict[IRI, List[NodeConstraint]] = {}
            for predicate_set, constraint in self.atoms:
                for predicate in predicate_set.predicates:
                    consumers.setdefault(predicate, []).append(constraint)
            for predicate, constraints in consumers.items():
                if not any(predicate.value.startswith(stem)
                           for stem in self.allowed_stems) \
                        and all(not isinstance(constraint, AnyValue)
                                and _is_screenable(constraint)
                                for constraint in constraints):
                    self.screens[predicate] = tuple(constraints)

    # -- the prefilter ---------------------------------------------------------
    def prefilter(self, buckets: Mapping[IRI, Collection[ObjectTerm]]
                  ) -> Optional[PrefilterDecision]:
        """Decide a neighbourhood statically, or return ``None`` (unknown).

        ``buckets`` is the node's ``predicate → objects`` view
        (:meth:`Graph.predicate_objects`): a predicate's count is its
        bucket's size, and the value screens walk its objects.  The rules
        run in a fixed order — empty, first predicates, allowed and maximum
        counts, required counts, value screens — and the count and screen
        rules walk the buckets in insertion order, so the reason a reject
        names does not depend on hashing.  Every returned decision agrees with the
        derivative engine by the soundness arguments in
        ``docs/architecture.md``; ``None`` means the engine must run.
        Decisions never consult the typing context, so they are definitive
        even inside recursive validations.
        """
        if not buckets:
            if self.nullable:
                return _ACCEPT
            return PrefilterDecision(
                False, "empty neighbourhood but the shape requires arcs")
        if not self.nullable and not self.first_open \
                and self.first_exact.isdisjoint(buckets):
            return PrefilterDecision(
                False, "no triple's predicate is in the shape's "
                       "first-predicate set, so nothing can begin a match")
        allowed_exact = self.allowed_exact
        allows_any = self.allows_any
        allowed_stems = self.allowed_stems
        max_counts = self.max_counts
        for predicate, objects in buckets.items():
            if predicate not in allowed_exact and not allows_any \
                    and not any(predicate.value.startswith(stem)
                                for stem in allowed_stems):
                return PrefilterDecision(
                    False, f"predicate {predicate.n3()} is not allowed by the shape")
            if max_counts:
                maximum = max_counts.get(predicate)
                if maximum is not None and len(objects) > maximum:
                    return PrefilterDecision(
                        False, f"more {predicate.n3()} arcs than the shape allows")
        for predicate, minimum in self.required:
            if len(buckets.get(predicate, ())) < minimum:
                return PrefilterDecision(
                    False, f"missing required {predicate.n3()} arc(s)")
        screens = self.screens
        if screens:
            for predicate, objects in buckets.items():
                screen = screens.get(predicate)
                if screen is not None and not all(
                        any(constraint.matches(obj) for constraint in screen)
                        for obj in objects):
                    return PrefilterDecision(
                        False, f"a {predicate.n3()} triple's object satisfies "
                               "no constraint able to consume it")
        return None


class CompiledSchema:
    """Per-label static tables for a whole schema, plus the shared atom index.

    Build one per :class:`~repro.shex.schema.Schema` (the
    :class:`~repro.shex.validator.Validator` does this by default) and thread
    it through validation contexts; resident shard workers receive it pickled
    instead of recompiling.  A context reads two things from it: the
    per-label prefilter (only from the signature lane, on a signature-cache
    miss) and the ordered signature atoms (typed neighbourhood signatures,
    which never consult the prefilter).
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self._shapes: Dict[ShapeLabel, CompiledShape] = {
            label: CompiledShape(label, expr) for label, expr in schema.items()
        }
        # the schema-wide predicate → atom index behind the signature atoms:
        # exact entries resolve in one dict lookup, stem/wildcard atoms are
        # the (rare) general tail evaluated per predicate.
        exact: Dict[IRI, set] = {}
        general: Dict[ArcAtom, None] = {}
        for shape in self._shapes.values():
            for atom in shape.atoms:
                predicate_set = atom[0]
                if predicate_set.any_predicate or predicate_set.stem is not None:
                    general.setdefault(atom, None)
                else:
                    for predicate in predicate_set.predicates:
                        exact.setdefault(predicate, set()).add(atom)
        self._exact_atoms: Dict[IRI, FrozenSet[ArcAtom]] = {
            predicate: frozenset(atoms) for predicate, atoms in exact.items()
        }
        self._general_atoms: Tuple[ArcAtom, ...] = tuple(general)
        #: memoised *ordered* candidate tuples per predicate (signature
        #: path), bounded by :data:`MAX_SIGNATURE_ATOM_ENTRIES`, and the
        #: entries its clears dropped.
        self._signature_atoms: Dict[IRI, Tuple[ArcAtom, ...]] = {}
        self.signature_atom_evictions = 0

    # -- accessors -------------------------------------------------------------
    def shape(self, label: ShapeLabel | str) -> CompiledShape:
        """Return the compiled tables for ``label``."""
        label = label if isinstance(label, ShapeLabel) else ShapeLabel(label)
        return self._shapes[label]

    def shape_or_none(self, label: ShapeLabel) -> Optional[CompiledShape]:
        """One-lookup variant of :meth:`shape` for the hot path."""
        return self._shapes.get(label)

    def __contains__(self, label: object) -> bool:
        if isinstance(label, str):
            label = ShapeLabel(label)
        return label in self._shapes

    def __len__(self) -> int:
        return len(self._shapes)

    # -- the predicate-indexed atoms ---------------------------------------------
    def candidate_atoms(self, predicate: IRI) -> FrozenSet[ArcAtom]:
        """The atoms (schema-wide) whose predicate set admits ``predicate``.

        Not memoised: :meth:`signature_atoms`, its one caller, memoises per
        predicate.
        """
        atoms = set(self._exact_atoms.get(predicate, ()))
        for atom in self._general_atoms:
            if atom[0].matches(predicate):
                atoms.add(atom)
        return frozenset(atoms)

    def signature_atoms(self, predicate: IRI) -> Tuple[ArcAtom, ...]:
        """:meth:`candidate_atoms` in a *deterministic* order.

        Neighbourhood signatures record one verdict bit per candidate atom, so
        the bit order must be identical every time a signature is built — a
        ``frozenset`` iterates in hash-table order, which can differ between
        processes and even between rebuilds after the memo is cleared.  This
        accessor sorts the atoms by their (stable) textual form once per
        predicate.
        """
        cached = self._signature_atoms.get(predicate)
        if cached is not None:
            return cached
        result = tuple(sorted(
            self.candidate_atoms(predicate),
            key=lambda atom: (atom[0].describe(), atom[1].describe(), repr(atom)),
        ))
        self.signature_atom_evictions += bounded_store(
            self._signature_atoms, predicate, result, MAX_SIGNATURE_ATOM_ENTRIES)
        return result

    # -- the prefilter ---------------------------------------------------------
    def prefilter(self, label: ShapeLabel | str,
                  buckets: Mapping[IRI, Collection[ObjectTerm]]
                  ) -> Optional[PrefilterDecision]:
        """Statically decide ``buckets`` against ``label``, or ``None``."""
        return self.shape(label).prefilter(buckets)

    def _atom_count(self) -> int:
        """The number of distinct arc atoms across the schema."""
        return len({atom for shape in self._shapes.values() for atom in shape.atoms})

    def stats(self) -> Dict[str, int]:
        """Summary counters (for benchmarks and the CLI)."""
        return {
            "labels": len(self._shapes),
            "atoms": self._atom_count(),
            "indexed_predicates": len(self._exact_atoms),
            "general_atoms": len(self._general_atoms),
            "screened_predicates": sum(
                len(shape.screens) for shape in self._shapes.values()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledSchema({len(self._shapes)} labels, {self._atom_count()} atoms)"
