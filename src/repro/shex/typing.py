"""Shape typings: the ``τ`` objects of Section 8.

A *shape typing* maps nodes of an RDF graph to the set of shape labels they
have been shown to satisfy.  The paper manipulates typings with three
operations, reproduced here:

* `` `` (the empty typing),
* ``n → s : τ`` (adding the association of shape ``s`` to node ``n``),
* ``τ1 ⊎ τ2`` (combining two typings).

Typings are immutable value objects; adding or combining returns a new
typing, so a published typing never changes under its reader.  They are
backed by a plain dict of frozensets and copy it on write, so ``add`` and
``combine`` are O(n).  A validation run does not pay that per confirmation:
the context accretes its verdicts into a mutable dict, and a report derives
its typing from its conforming entries through
:meth:`ShapeTyping.from_pairs` when asked.  ``hash`` is computed once and
cached, and equality, repr and ``to_dict`` are value-based: independent of
the order in which associations were added.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Set, Tuple

from ..rdf.terms import ObjectTerm

__all__ = ["ShapeLabel", "ShapeTyping"]


class ShapeLabel:
    """A label ``λ ∈ Λ`` naming a shape in a schema.

    Labels compare by name, so ``ShapeLabel("Person")`` constructed in a test
    equals the label produced by the ShExC parser for ``<Person>``.
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise ValueError("a shape label needs a non-empty name")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("ShapeLabel", name)))

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
        return self._hash

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




def _wrap(mapping: Dict[ObjectTerm, FrozenSet[ShapeLabel]]) -> "ShapeTyping":
    """Wrap a freshly built dict the caller hands over (no copy, no checks)."""
    if not mapping:
        return _EMPTY_TYPING
    typing = object.__new__(ShapeTyping)
    object.__setattr__(typing, "_map", mapping)
    object.__setattr__(typing, "_hash", None)
    return typing


class ShapeTyping:
    """An immutable mapping from graph nodes to sets of shape labels."""

    __slots__ = ("_map", "_hash")

    def __init__(self, assignments: Mapping[ObjectTerm, Iterable[ShapeLabel]] | None = None):
        mapping: Dict[ObjectTerm, FrozenSet[ShapeLabel]] = {}
        if assignments:
            for node, labels in assignments.items():
                if isinstance(labels, (str, ShapeLabel)):
                    # a bare string would otherwise be split into one
                    # label per character
                    raise TypeError(
                        f"the labels of {node.n3()} must be a collection of "
                        f"labels, not the single label {labels!r}")
                label_set = frozenset(_as_label(label) for label in labels)
                if label_set:
                    mapping[node] = label_set
        object.__setattr__(self, "_map", mapping)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ShapeTyping is immutable")

    # -- constructors -----------------------------------------------------
    @classmethod
    def empty(cls) -> "ShapeTyping":
        """The empty typing `` ``."""
        return _EMPTY_TYPING

    @classmethod
    def single(cls, node: ObjectTerm, label: "ShapeLabel | str") -> "ShapeTyping":
        """The typing containing exactly ``node → label``."""
        return _wrap({node: frozenset((_as_label(label),))})

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[ObjectTerm, "ShapeLabel | str"]]
                   ) -> "ShapeTyping":
        """Build a typing from ``(node, label)`` pairs in one pass."""
        building: Dict[ObjectTerm, Set[ShapeLabel]] = {}
        for node, label in pairs:
            building.setdefault(node, set()).add(_as_label(label))
        return _wrap({node: frozenset(labels)
                      for node, labels in building.items()})

    # -- paper operations ---------------------------------------------------
    def add(self, node: ObjectTerm, label: "ShapeLabel | str") -> "ShapeTyping":
        """``n → s : τ`` — return a typing extended with one association.

        Copies the mapping (O(n)); adding an association already present
        returns ``self``.
        """
        label = _as_label(label)
        labels = self._map.get(node)
        if labels is not None and label in labels:
            return self
        mapping = dict(self._map)
        mapping[node] = labels | {label} if labels else frozenset((label,))
        return _wrap(mapping)

    def combine(self, other: "ShapeTyping") -> "ShapeTyping":
        """``τ1 ⊎ τ2`` — the union of two typings."""
        if other is self or not other._map:
            return self
        if not self._map:
            return other
        mapping = dict(self._map)
        for node, labels in other._map.items():
            mine = mapping.get(node)
            if mine is None:
                mapping[node] = labels
            elif not labels <= mine:
                mapping[node] = mine | labels
        return _wrap(mapping)

    def __or__(self, other: "ShapeTyping") -> "ShapeTyping":
        return self.combine(other)

    # -- queries ---------------------------------------------------------------
    def labels_for(self, node: ObjectTerm) -> FrozenSet[ShapeLabel]:
        """Return the labels assigned to ``node`` (empty set if none)."""
        return self._map.get(node, frozenset())

    def has(self, node: ObjectTerm, label: "ShapeLabel | str") -> bool:
        """True if ``node → label`` is part of this typing."""
        labels = self._map.get(node)
        return labels is not None and _as_label(label) in labels

    def nodes(self) -> Iterator[ObjectTerm]:
        """Iterate over the nodes that have at least one label."""
        return iter(self._map)

    def items(self) -> Iterator[Tuple[ObjectTerm, FrozenSet[ShapeLabel]]]:
        """Iterate over ``(node, labels)`` pairs."""
        return iter(self._map.items())

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
        # O(n) on the first call, cached for every later one
        cached = self._hash
        if cached is None:
            cached = hash(("ShapeTyping", frozenset(self._map.items())))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __reduce__(self):
        # the immutability guard breaks slot-based pickling; rebuild through
        # the constructor (sharded validation ships typings across processes)
        return (ShapeTyping, (self._map,))

    def __repr__(self) -> str:
        parts = []
        for node, labels in sorted(self._map.items(),
                                   key=lambda item: item[0].sort_key()):
            rendered = ", ".join(sorted(str(label) for label in labels))
            parts.append(f"{node.n3()} → {{{rendered}}}")
        return "ShapeTyping(" + "; ".join(parts) + ")"

    def to_dict(self) -> Dict[str, list]:
        """Return a JSON-friendly representation (node n3 → sorted label names).

        Nodes are emitted in ``sort_key`` order so the serialisation does not
        depend on the order in which associations were added.
        """
        return {
            node.n3(): sorted(str(label) for label in labels)
            for node, labels in sorted(self._map.items(),
                                       key=lambda item: item[0].sort_key())
        }


_EMPTY_TYPING = ShapeTyping()
