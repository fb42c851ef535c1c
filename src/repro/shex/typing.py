"""Shape typings: the ``τ`` objects of Section 8.

A *shape typing* maps nodes of an RDF graph to the set of shape labels they
have been shown to satisfy.  The paper manipulates typings with three
operations, reproduced here:

* `` `` (the empty typing),
* ``n → s : τ`` (adding the association of shape ``s`` to node ``n``),
* ``τ1 ⊎ τ2`` (combining two typings).

Typings are immutable value objects; adding or combining returns a new
typing, which keeps backtracking branches independent of each other.  They
are backed by a persistent HAMT (:mod:`repro.shex.hamt`), so ``add`` is
O(log n) with full structural sharing — confirming the ``k`` members of one
recursive component is O(k log k) instead of the O(k²) a copied dict costs —
and ``combine`` skips subtries the two typings share.  ``hash`` is computed
once and cached (typings are hashed on hot paths), and equality, repr and
iteration order are value-based: independent of the order in which
associations were added.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Tuple

from ..rdf.terms import ObjectTerm
from .hamt import HamtMap

__all__ = ["ShapeLabel", "ShapeTyping", "typing_of"]


class ShapeLabel:
    """A label ``λ ∈ Λ`` naming a shape in a schema.

    Labels compare by name, so ``ShapeLabel("Person")`` constructed in a test
    equals the label produced by the ShExC parser for ``<Person>``.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise ValueError("a shape label needs a non-empty name")
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ShapeLabel is immutable")

    def __reduce__(self):
        # the immutability guard breaks slot-based pickling; rebuild through
        # the constructor (sharded validation ships labels across processes)
        return (ShapeLabel, (self.name,))

    def __eq__(self, other) -> bool:
        if isinstance(other, ShapeLabel):
            return other.name == self.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("ShapeLabel", self.name))

    def __repr__(self) -> str:
        return f"ShapeLabel({self.name!r})"

    def __str__(self) -> str:
        return self.name

    def __lt__(self, other: "ShapeLabel") -> bool:
        if not isinstance(other, ShapeLabel):
            return NotImplemented
        return self.name < other.name


def _as_label(label: "ShapeLabel | str") -> ShapeLabel:
    return label if isinstance(label, ShapeLabel) else ShapeLabel(label)


def _union_labels(left: FrozenSet[ShapeLabel],
                  right: FrozenSet[ShapeLabel]) -> FrozenSet[ShapeLabel]:
    """The per-node value merge of ``⊎``; returns an *operand itself* (not a
    fresh equal set) whenever one side covers the other, so the HAMT merge
    can keep that side's nodes shared in either direction."""
    if left is right or right.issubset(left):
        return left
    if left.issubset(right):
        return right
    return left | right


def _rebuild_typing(items: tuple) -> "ShapeTyping":
    """Unpickling entry point (the HAMT regrows under the local hash seed)."""
    typing = _EMPTY_TYPING
    mapping = typing._map
    for node, labels in items:
        mapping = mapping.assoc(node, labels)
    return ShapeTyping._from_map(mapping)


class ShapeTyping:
    """An immutable mapping from graph nodes to sets of shape labels."""

    __slots__ = ("_map", "_hash")

    def __init__(self, assignments: Mapping[ObjectTerm, Iterable[ShapeLabel]] | None = None):
        mapping = HamtMap.empty()
        if assignments:
            for node, labels in assignments.items():
                label_set = frozenset(_as_label(label) for label in labels)
                if label_set:
                    mapping = mapping.assoc(node, label_set)
        object.__setattr__(self, "_map", mapping)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ShapeTyping is immutable")

    # -- constructors -----------------------------------------------------
    @classmethod
    def _from_map(cls, mapping: HamtMap) -> "ShapeTyping":
        """Wrap an already-built HAMT (internal fast path)."""
        if not mapping:
            return _EMPTY_TYPING
        typing = object.__new__(cls)
        object.__setattr__(typing, "_map", mapping)
        object.__setattr__(typing, "_hash", None)
        return typing

    @classmethod
    def empty(cls) -> "ShapeTyping":
        """The empty typing `` ``."""
        return _EMPTY_TYPING

    @classmethod
    def single(cls, node: ObjectTerm, label: "ShapeLabel | str") -> "ShapeTyping":
        """The typing containing exactly ``node → label``."""
        return cls._from_map(
            HamtMap.empty().assoc(node, frozenset((_as_label(label),)))
        )

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[ObjectTerm, "ShapeLabel | str"]]
                   ) -> "ShapeTyping":
        """Build a typing from ``(node, label)`` pairs in one accretion pass."""
        typing = _EMPTY_TYPING
        for node, label in pairs:
            typing = typing.add(node, label)
        return typing

    # -- paper operations ---------------------------------------------------
    def add(self, node: ObjectTerm, label: "ShapeLabel | str") -> "ShapeTyping":
        """``n → s : τ`` — return a typing extended with one association.

        O(log n): only the nodes on ``node``'s hash path are rebuilt; the
        rest of the trie is shared with this typing.  Adding an association
        already present returns ``self``.
        """
        label = _as_label(label)
        mapping = self._map.upsert(node, frozenset((label,)), _union_labels)
        if mapping is self._map:
            return self
        return ShapeTyping._from_map(mapping)

    def combine(self, other: "ShapeTyping") -> "ShapeTyping":
        """``τ1 ⊎ τ2`` — the union of two typings.

        Subtries the two typings share (typical when one was derived from
        the other by ``add``) are skipped, not re-merged.
        """
        if other is self or not other._map:
            return self
        if not self._map:
            return other
        merged = self._map.merge(other._map, _union_labels)
        if merged is self._map:
            return self
        if merged is other._map:
            return other
        return ShapeTyping._from_map(merged)

    def __or__(self, other: "ShapeTyping") -> "ShapeTyping":
        return self.combine(other)

    def without_nodes(self, nodes: Iterable[ObjectTerm]) -> "ShapeTyping":
        """Return a typing with every association of ``nodes`` removed.

        The retraction half of incremental revalidation: dropping a node
        costs one O(log n) persistent ``dissoc`` (everything off the hash
        path stays shared), and removing a node that has no associations is
        a no-op, so retracting an affected closure is linear in its size —
        never in the size of the typing.  Returns ``self`` when nothing
        changes.
        """
        mapping = self._map
        for node in nodes:
            mapping = mapping.dissoc(node)
        if mapping is self._map:
            return self
        return ShapeTyping._from_map(mapping)

    # -- queries ---------------------------------------------------------------
    def labels_for(self, node: ObjectTerm) -> FrozenSet[ShapeLabel]:
        """Return the labels assigned to ``node`` (empty set if none)."""
        labels = self._map.get(node)
        return labels if labels is not None else frozenset()

    def has(self, node: ObjectTerm, label: "ShapeLabel | str") -> bool:
        """True if ``node → label`` is part of this typing."""
        labels = self._map.get(node)
        return labels is not None and _as_label(label) in labels

    def nodes(self) -> Iterator[ObjectTerm]:
        """Iterate over the nodes that have at least one label."""
        return iter(self._map)

    def items(self) -> Iterator[Tuple[ObjectTerm, FrozenSet[ShapeLabel]]]:
        """Iterate over ``(node, labels)`` pairs."""
        return self._map.items()

    def __len__(self) -> int:
        return len(self._map)

    def __bool__(self) -> bool:
        return bool(self._map)

    def __contains__(self, node: object) -> bool:
        return node in self._map

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShapeTyping):
            return NotImplemented
        return other._map == self._map

    def __hash__(self) -> int:
        # typings are hashed on hot paths; the underlying HAMT caches an
        # order-independent content hash per node, so this is O(n) once and
        # O(1) on every later call.
        cached = self._hash
        if cached is None:
            cached = hash(("ShapeTyping", self._map))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __reduce__(self):
        # the HAMT layout is keyed to this process's hash seed; ship the
        # items and regrow on the receiving side (see hamt.py)
        return (_rebuild_typing, (tuple(self._map.items()),))

    def __repr__(self) -> str:
        parts = []
        for node, labels in sorted(self._map.items(),
                                   key=lambda item: item[0].sort_key()):
            rendered = ", ".join(sorted(str(label) for label in labels))
            parts.append(f"{node.n3()} → {{{rendered}}}")
        return "ShapeTyping(" + "; ".join(parts) + ")"

    def to_dict(self) -> Dict[str, list]:
        """Return a JSON-friendly representation (node n3 → sorted label names).

        Nodes are emitted in ``sort_key`` order so the serialisation is
        deterministic across runs (HAMT iteration order depends on the
        per-process hash seed).
        """
        return {
            node.n3(): sorted(str(label) for label in labels)
            for node, labels in sorted(self._map.items(),
                                       key=lambda item: item[0].sort_key())
        }


def typing_of(context) -> ShapeTyping:
    """The confirmed typing of ``context``, or the empty typing without one.

    Shared by the matching engines, which accept ``context=None`` for bare
    expression-level matching.
    """
    return context.typing if context is not None else _EMPTY_TYPING


_EMPTY_TYPING = ShapeTyping()
