"""Regular Shape Expressions: the algebra of Section 4 of the paper.

The abstract syntax is::

    E, F ::= ∅            empty (no shape at all)
           | ε            the empty set of triples
           | vp → vo      an arc with predicate in vp and object in vo
           | E*            Kleene closure (zero or more E)
           | E ‖ F         And — unordered concatenation / interleave
           | E | F         Or — alternative

Derived operators (defined exactly as in the paper):

* ``E+  = E ‖ E*``
* ``E?  = E | ε``
* ``E{m,n}`` — between ``m`` and ``n`` repetitions, by recursive expansion.

The classes are immutable and hashable so that derivative computations can be
memoised.  ``‖`` and ``|`` are associative and commutative, so :class:`And`
and :class:`Or` are n-ary nodes over an ``operands`` tuple.  The *smart
constructors* :func:`interleave` and :func:`alternative` build them in one
canonical form: nested nodes of the same kind are flattened, the
simplification rules listed at the end of Section 4 are applied (``∅ | x =
x``, ``∅ ‖ x = ∅``, ``ε ‖ x = x``, ``x | x = x``) and the operands are
sorted.  ``‖`` keeps repeated operands (a multiset: ``E{2}`` is ``E ‖ E``),
``|`` drops them (a set).  Residuals that differ only in operand order or
grouping are therefore one expression, which keeps the derivatives of
repeated predicates polynomial; the ablation benchmark B8 switches the
rules off (``simplify=False``) to measure their effect.

Expressions are additionally *hash-consed*: every constructor interns the
node in a module-level table, so structurally-equal expressions are the same
object.  Hashes and sizes are computed once at construction time, which
makes expressions O(1) dictionary keys — the property the global derivative
cache (:mod:`repro.shex.cache`) relies on.  The table holds its nodes
weakly: an expression nothing references any more drops out by itself, so
a long-lived process interning many unrelated schemas needs no bound and no
``clear``.  A node gets a serial number when it is first interned, and
canonical operands are sorted by serial, never by hash: the order is
consistent among live nodes (a live node's operands are live, so their
serials cannot change) and does not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import itertools
import sys
import weakref
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..rdf.terms import IRI, Literal, ObjectTerm
from .node_constraints import (
    AnyValue,
    NodeConstraint,
    PredicateSet,
    ShapeRef,
    ValueSet,
)

__all__ = [
    "ShapeExpr",
    "Empty",
    "EmptyTriples",
    "Arc",
    "Star",
    "And",
    "Or",
    "EMPTY",
    "EPSILON",
    "arc",
    "interleave",
    "alternative",
    "interleave_all",
    "alternative_all",
    "star",
    "plus",
    "optional",
    "repeat",
    "expression_size",
    "expression_depth",
    "iter_subexpressions",
    "referenced_labels",
    "expression_cache_stats",
]


#: interning table: structural key → the live canonical instance for that key.
_INTERN: "weakref.WeakValueDictionary[tuple, ShapeExpr]" = weakref.WeakValueDictionary()
#: serial numbers, handed out as nodes are first interned.
_SERIALS = itertools.count()
_serial_of = attrgetter("_serial")


def expression_cache_stats() -> Dict[str, int]:
    """Return the number of live interned expressions."""
    return {"interned": len(_INTERN)}


class ShapeExpr:
    """Base class of every regular shape expression node."""

    __slots__ = ("__weakref__",)

    # -- operator sugar ------------------------------------------------------
    def __or__(self, other: "ShapeExpr") -> "ShapeExpr":
        """``e1 | e2`` builds the alternative of two expressions."""
        return alternative(self, other)

    def __and__(self, other: "ShapeExpr") -> "ShapeExpr":
        """``e1 & e2`` builds the unordered concatenation ``e1 ‖ e2``."""
        return interleave(self, other)

    def star(self) -> "ShapeExpr":
        """``E*`` — zero or more repetitions."""
        return star(self)

    def plus(self) -> "ShapeExpr":
        """``E+ = E ‖ E*``."""
        return plus(self)

    def optional(self) -> "ShapeExpr":
        """``E? = E | ε``."""
        return optional(self)

    def repeat(self, minimum: int, maximum: Optional[int]) -> "ShapeExpr":
        """``E{m,n}`` by the paper's recursive expansion."""
        return repeat(self, minimum, maximum)

    # -- introspection ---------------------------------------------------------
    def children(self) -> Tuple["ShapeExpr", ...]:
        """Return the direct sub-expressions."""
        return ()

    def to_str(self) -> str:
        """Return a compact textual rendering (used in traces and reports)."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_str()


class Empty(ShapeExpr):
    """``∅`` — the expression matching no graph at all."""

    __slots__ = ()
    _instance: Optional["Empty"] = None
    _size = 1
    #: ``∅`` and ``ε`` sort after every interned node, so ``E?`` reads
    #: ``E | ε`` (``∅`` never stays an operand of a canonical node).
    _serial = sys.maxsize

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def to_str(self) -> str:
        return "∅"

    def __reduce__(self):
        return (Empty, ())

    def __repr__(self) -> str:
        return "EMPTY"

    def __eq__(self, other) -> bool:
        return isinstance(other, Empty)

    def __hash__(self) -> int:
        return hash("Empty")


class EmptyTriples(ShapeExpr):
    """``ε`` — the expression matching exactly the empty set of triples."""

    __slots__ = ()
    _instance: Optional["EmptyTriples"] = None
    _size = 1
    _serial = sys.maxsize

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def to_str(self) -> str:
        return "ε"

    def __reduce__(self):
        return (EmptyTriples, ())

    def __repr__(self) -> str:
        return "EPSILON"

    def __eq__(self, other) -> bool:
        return isinstance(other, EmptyTriples)

    def __hash__(self) -> int:
        return hash("EmptyTriples")


#: Singleton instance of ``∅``.
EMPTY = Empty()
#: Singleton instance of ``ε``.
EPSILON = EmptyTriples()


#: captured before ``Arc.__init__`` shadows the ``object`` builtin with its
#: parameter name (kept to mirror the paper's ``vp → vo`` terminology).
_set_attr = object.__setattr__


def _intern(cls, key: tuple, attrs: Tuple[Tuple[str, object], ...],
            size: int) -> "ShapeExpr":
    """Look up or build the canonical instance for a structural ``key``.

    The single interning protocol shared by every compound node: find the
    live instance, or construct one with the given attributes plus the
    precomputed ``_hash``, its ``size`` and a fresh serial number, and
    register it.  A cached instance is only reused for the exact same
    class — a subclass constructor builds its own (uninterned) instance
    rather than returning, or shadowing, the base class entry.
    """
    cached = _INTERN.get(key)
    if cached is not None and type(cached) is cls:
        return cached
    self = object.__new__(cls)
    for name, value in attrs:
        _set_attr(self, name, value)
    _set_attr(self, "_hash", hash(key))
    _set_attr(self, "_size", size)
    _set_attr(self, "_serial", next(_SERIALS))
    if cached is None:
        _INTERN[key] = self
    return self


class Arc(ShapeExpr):
    """``vp → vo`` — one arc with predicate in ``vp`` and object in ``vo``.

    Instances are hash-consed: constructing the same ``(vp, vo)`` pair twice
    returns the same object, and the hash is computed once.
    """

    __slots__ = ("predicate", "object", "_hash", "_size", "_serial")

    def __new__(cls, predicate: PredicateSet, object: NodeConstraint):
        if not isinstance(predicate, PredicateSet):
            raise TypeError("Arc predicate must be a PredicateSet")
        if not isinstance(object, NodeConstraint):
            raise TypeError("Arc object must be a NodeConstraint")
        return _intern(cls, ("Arc", predicate, object),
                       (("predicate", predicate), ("object", object)), 1)

    def __init__(self, predicate: PredicateSet, object: NodeConstraint):
        pass  # fully constructed (and possibly reused) in __new__

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Arc is immutable")

    def __reduce__(self):
        # rebuilding through __new__ re-interns the node, so unpickled
        # expressions keep O(1) pointer equality inside the target process
        return (Arc, (self.predicate, self.object))

    def to_str(self) -> str:
        return f"{self.predicate.describe()}→{self.object.describe()}"

    def __repr__(self) -> str:
        return f"Arc({self.predicate!r}, {self.object!r})"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Arc)
            and other.predicate == self.predicate
            and other.object == self.object
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_reference(self) -> bool:
        """True if the object constraint is a shape reference ``@label``."""
        return isinstance(self.object, ShapeRef)


class Star(ShapeExpr):
    """``E*`` — Kleene closure (zero or more occurrences of ``E``)."""

    __slots__ = ("expr", "_hash", "_size", "_serial")

    def __new__(cls, expr: ShapeExpr):
        if not isinstance(expr, ShapeExpr):
            raise TypeError("Star operand must be a ShapeExpr")
        return _intern(cls, ("Star", expr), (("expr", expr),), 1 + expr._size)

    def __init__(self, expr: ShapeExpr):
        pass  # fully constructed (and possibly reused) in __new__

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Star is immutable")

    def __reduce__(self):
        return (Star, (self.expr,))

    def children(self) -> Tuple[ShapeExpr, ...]:
        return (self.expr,)

    def to_str(self) -> str:
        return f"({self.expr.to_str()})*"

    def __repr__(self) -> str:
        return f"Star({self.expr!r})"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, Star) and other.expr == self.expr

    def __hash__(self) -> int:
        return self._hash


class _Nary(ShapeExpr):
    """An n-ary node over an ``operands`` tuple (``‖`` or ``|``).

    The class constructor builds the node exactly as given (at least two
    operands, in the given order); :func:`interleave` and
    :func:`alternative` build the canonical form.
    """

    __slots__ = ("operands", "_hash", "_size", "_serial")
    _symbol = ""

    def __new__(cls, *operands: ShapeExpr):
        if len(operands) < 2:
            raise TypeError(f"{cls.__name__} needs at least two operands")
        if not all(isinstance(operand, ShapeExpr) for operand in operands):
            raise TypeError(f"{cls.__name__} operands must be ShapeExprs")
        return _intern(cls, (cls.__name__, operands), (("operands", operands),),
                       1 + sum(operand._size for operand in operands))

    def __init__(self, *operands: ShapeExpr):
        pass  # fully constructed (and possibly reused) in __new__

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), self.operands)

    def children(self) -> Tuple[ShapeExpr, ...]:
        return self.operands

    def to_str(self) -> str:
        return "(" + self._symbol.join(operand.to_str() for operand in self.operands) + ")"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self.operands))})"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return type(other) is type(self) and other.operands == self.operands

    def __hash__(self) -> int:
        return self._hash


class And(_Nary):
    """``E₁ ‖ … ‖ Eₙ`` — unordered concatenation (interleave)."""

    __slots__ = ()
    _symbol = " ‖ "


class Or(_Nary):
    """``E₁ | … | Eₙ`` — alternative."""

    __slots__ = ()
    _symbol = " | "


# --------------------------------------------------------------- smart constructors
def arc(predicate: Union[IRI, PredicateSet],
        object: Union[NodeConstraint, ObjectTerm, int, str, bool, None] = None) -> Arc:
    """Build an :class:`Arc`, accepting friendly Python arguments.

    * ``predicate`` may be an IRI (wrapped into a singleton
      :class:`PredicateSet`) or a ready :class:`PredicateSet`.
    * ``object`` may be a :class:`NodeConstraint`, a single RDF term or plain
      Python value (wrapped into a singleton :class:`ValueSet`), or ``None``
      for the wildcard.
    """
    if isinstance(predicate, IRI):
        predicate = PredicateSet.single(predicate)
    if object is None:
        constraint: NodeConstraint = AnyValue()
    elif isinstance(object, NodeConstraint):
        constraint = object
    elif isinstance(object, (int, str, bool, float)):
        constraint = ValueSet([Literal(object)])
    else:
        constraint = ValueSet([object])
    return Arc(predicate, constraint)


def _flatten(cls, exprs: Iterable[ShapeExpr]) -> Iterator[ShapeExpr]:
    """Yield the operands of ``exprs``, splicing in nested ``cls`` nodes."""
    stack = list(exprs)
    while stack:
        expr = stack.pop()
        if isinstance(expr, cls):
            stack.extend(expr.operands)
        else:
            yield expr


def _canonical(cls, operands: List[ShapeExpr], unit: ShapeExpr) -> ShapeExpr:
    if not operands:
        return unit
    if len(operands) == 1:
        return operands[0]
    operands.sort(key=_serial_of)
    return cls(*operands)


def interleave(*exprs: ShapeExpr, simplify: bool = True) -> ShapeExpr:
    """``e₁ ‖ … ‖ eₙ`` in canonical form (``ε`` for no operands).

    Nested ``‖`` nodes are flattened, ``∅ ‖ x = ∅`` and ``ε ‖ x = x`` are
    applied, repeats are kept and the operands sorted by serial; a lone
    operand is returned as itself.  Passing ``simplify=False`` builds the
    raw node from the operands as given (used by the ablation benchmark).
    """
    if not simplify:
        return And(*exprs)
    operands = []
    for expr in _flatten(And, exprs):
        if isinstance(expr, Empty):
            return EMPTY
        if not isinstance(expr, EmptyTriples):
            operands.append(expr)
    return _canonical(And, operands, EPSILON)


def alternative(*exprs: ShapeExpr, simplify: bool = True) -> ShapeExpr:
    """``e₁ | … | eₙ`` in canonical form (``∅`` for no operands).

    Nested ``|`` nodes are flattened, ``∅ | x = x`` is applied, identical
    branches are collapsed (``x | x = x``, sound because alternation is
    idempotent, and it keeps derivatives small) and the operands sorted by
    serial; a lone operand is returned as itself.  ``simplify=False``
    builds the raw node.
    """
    if not simplify:
        return Or(*exprs)
    operands = dict.fromkeys(expr for expr in _flatten(Or, exprs)
                             if not isinstance(expr, Empty))
    return _canonical(Or, list(operands), EMPTY)


#: the n-ary names of the two smart constructors.
interleave_all = interleave
alternative_all = alternative


def star(expr: ShapeExpr) -> ShapeExpr:
    """``E*`` with the obvious simplifications ``∅* = ε* = ε`` and ``(E*)* = E*``."""
    if isinstance(expr, (Empty, EmptyTriples)):
        return EPSILON
    if isinstance(expr, Star):
        return expr
    return Star(expr)


def plus(expr: ShapeExpr) -> ShapeExpr:
    """``E+ = E ‖ E*`` (Section 4)."""
    return interleave(expr, star(expr))


def optional(expr: ShapeExpr) -> ShapeExpr:
    """``E? = E | ε`` (Section 4)."""
    return alternative(expr, EPSILON)


def repeat(expr: ShapeExpr, minimum: int, maximum: Optional[int]) -> ShapeExpr:
    """``E{m,n}`` by the paper's recursive expansion.

    * ``E{m, n} = E{m, n-1} | E``   when ``m < n``  (note: the paper's case;
      interpreted as ``E{m, n-1} ‖ E?`` would be unsound, the expansion below
      follows the standard reading: at least ``m``, at most ``n``),
    * ``E{m, n} = E{m-1, n-1} ‖ E`` when ``m = n > 0``,
    * ``E{0, 0} = ε``.

    ``maximum=None`` means unbounded (``E{m,}``), which expands to
    ``E{m,m} ‖ E*``.  The copies form one ``‖`` multiset.
    """
    if minimum < 0:
        raise ValueError("minimum repetition count must be >= 0")
    if maximum is None:
        return interleave(*[expr] * minimum, star(expr))
    if maximum < minimum:
        raise ValueError("maximum repetition count must be >= minimum")
    # between m and n: exactly m copies interleaved with (n - m) optional copies
    return interleave(*[expr] * minimum, *[optional(expr)] * (maximum - minimum))


# ----------------------------------------------------------------- introspection
def iter_subexpressions(expr: ShapeExpr) -> Iterator[ShapeExpr]:
    """Yield ``expr`` and every sub-expression (pre-order)."""
    stack = [expr]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(current.children()))


def expression_size(expr: ShapeExpr) -> int:
    """Return the number of AST nodes in ``expr`` (a proxy for memory use).

    Each node counts its size once, at construction: 1 plus the sizes of
    its operands, so an n-ary ``‖`` or ``|`` counts 1 however wide it is.
    """
    return expr._size


def expression_depth(expr: ShapeExpr) -> int:
    """Return the height of the expression tree.

    An iterative post-order over the interned sub-expressions: deep chains
    cannot overflow the stack, and a sub-expression shared by several
    parents (``E+`` is ``E ‖ E*``) is measured once.
    """
    local: Dict["ShapeExpr", int] = {}
    stack = [(expr, False)]
    while stack:
        current, expanded = stack.pop()
        if current in local:
            continue
        children = current.children()
        if expanded or not children:
            local[current] = 1 + max((local[child] for child in children), default=0)
        else:
            stack.append((current, True))
            stack.extend((child, False) for child in children)
    return local[expr]


def referenced_labels(expr: ShapeExpr):
    """Return the set of shape labels referenced by ``@label`` arcs in ``expr``."""
    labels = set()
    for sub in iter_subexpressions(expr):
        if isinstance(sub, Arc) and isinstance(sub.object, ShapeRef):
            labels.add(sub.object.label)
    return labels
