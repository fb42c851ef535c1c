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
memoised.  The *smart constructors* :func:`interleave` and :func:`alternative`
apply the simplification rules listed at the end of Section 4 (``∅ | x = x``,
``∅ ‖ x = ∅``, ``ε ‖ x = x`` …); these rules are what keeps the derivative
representation small, and the ablation benchmark B8 switches them off to
measure their effect.

Expressions are additionally *hash-consed*: every constructor interns the
node in a module-level table, so structurally-equal expressions are the same
object.  Hashes are computed once at construction time, which makes
expressions O(1) dictionary keys — the property the global derivative cache
(:mod:`repro.shex.cache`) relies on.  :func:`clear_expression_caches` drops
the interning table (long-lived processes validating many unrelated schemas
may want to call it between runs); structural equality keeps working across
a clear because ``__eq__`` falls back to comparing children.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple, Union

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
    "clear_expression_caches",
    "clear_intern_tables",
    "expression_cache_stats",
    "set_intern_limit",
]


#: interning table: structural key → the canonical instance for that key.
_INTERN: Dict[tuple, "ShapeExpr"] = {}
#: memoised AST node counts, keyed by interned expression.
_SIZE_CACHE: Dict["ShapeExpr", int] = {}
#: optional bound on either table (None = unbounded, the historical default).
_INTERN_LIMIT: Optional[int] = None
#: entries dropped to honour the bound, for observability.
_INTERN_EVICTIONS = 0


def set_intern_limit(limit: Optional[int]) -> None:
    """Bound the interning and size tables to at most ``limit`` entries.

    Long-running services interning many unrelated schemas can cap the
    module-level tables; once full, the oldest entry is dropped (FIFO —
    entries are pure functions of their key, so eviction can only cost a
    re-construction, never correctness: structural equality keeps working
    for evicted expressions, they just stop being pointer-equal to new
    ones).  ``None`` restores the unbounded default.
    """
    global _INTERN_LIMIT
    if limit is not None and limit < 1:
        raise ValueError("intern limit must be at least 1 (or None for unbounded)")
    _INTERN_LIMIT = limit
    if limit is not None:
        while len(_INTERN) > limit:
            _evict_one(_INTERN)
        while len(_SIZE_CACHE) > limit:
            _evict_one(_SIZE_CACHE)


def _evict_one(table: Dict) -> None:
    global _INTERN_EVICTIONS
    table.pop(next(iter(table)))
    _INTERN_EVICTIONS += 1


def clear_expression_caches() -> None:
    """Drop the interning table and the memoised size cache.

    Existing expressions stay valid (equality falls back to a structural
    comparison), but new structurally-equal constructions will no longer be
    pointer-equal to the old ones.  Any long-lived
    :class:`~repro.shex.cache.DerivativeCache` should be cleared alongside
    (``cache.clear()``): its entries keep pre-clear expressions alive and,
    without pointer equality, every lookup pays a structural comparison.
    """
    global _INTERN_EVICTIONS
    _INTERN.clear()
    _SIZE_CACHE.clear()
    _INTERN_EVICTIONS = 0


#: explicit alias for tests and services that reason about the intern bound.
clear_intern_tables = clear_expression_caches


def expression_cache_stats() -> Dict[str, int]:
    """Return the sizes (and bound counters) of the expression caches."""
    return {
        "interned": len(_INTERN),
        "sizes": len(_SIZE_CACHE),
        "limit": _INTERN_LIMIT if _INTERN_LIMIT is not None else 0,
        "evictions": _INTERN_EVICTIONS,
    }


class ShapeExpr:
    """Base class of every regular shape expression node."""

    __slots__ = ()

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


def _intern(cls, key: tuple, attrs: Tuple[Tuple[str, object], ...]) -> "ShapeExpr":
    """Look up or build the canonical instance for a structural ``key``.

    The single interning protocol shared by every compound node: find the
    cached instance, or construct one with the given attributes plus the
    precomputed ``_hash``, and register it.  A cached instance is only
    reused for the exact same class — a subclass constructor builds its own
    (uninterned) instance rather than returning, or shadowing, the base
    class entry.
    """
    cached = _INTERN.get(key)
    if cached is not None and type(cached) is cls:
        return cached
    self = object.__new__(cls)
    for name, value in attrs:
        _set_attr(self, name, value)
    _set_attr(self, "_hash", hash(key))
    if cached is None:
        _INTERN[key] = self
        if _INTERN_LIMIT is not None and len(_INTERN) > _INTERN_LIMIT:
            _evict_one(_INTERN)
    return self


class Arc(ShapeExpr):
    """``vp → vo`` — one arc with predicate in ``vp`` and object in ``vo``.

    Instances are hash-consed: constructing the same ``(vp, vo)`` pair twice
    returns the same object, and the hash is computed once.
    """

    __slots__ = ("predicate", "object", "_hash")

    def __new__(cls, predicate: PredicateSet, object: NodeConstraint):
        if not isinstance(predicate, PredicateSet):
            raise TypeError("Arc predicate must be a PredicateSet")
        if not isinstance(object, NodeConstraint):
            raise TypeError("Arc object must be a NodeConstraint")
        return _intern(cls, ("Arc", predicate, object),
                       (("predicate", predicate), ("object", object)))

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

    __slots__ = ("expr", "_hash")

    def __new__(cls, expr: ShapeExpr):
        if not isinstance(expr, ShapeExpr):
            raise TypeError("Star operand must be a ShapeExpr")
        return _intern(cls, ("Star", expr), (("expr", expr),))

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


class And(ShapeExpr):
    """``E ‖ F`` — unordered concatenation (interleave)."""

    __slots__ = ("left", "right", "_hash")

    def __new__(cls, left: ShapeExpr, right: ShapeExpr):
        if not isinstance(left, ShapeExpr) or not isinstance(right, ShapeExpr):
            raise TypeError("And operands must be ShapeExprs")
        return _intern(cls, ("And", left, right),
                       (("left", left), ("right", right)))

    def __init__(self, left: ShapeExpr, right: ShapeExpr):
        pass  # fully constructed (and possibly reused) in __new__

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("And is immutable")

    def __reduce__(self):
        return (And, (self.left, self.right))

    def children(self) -> Tuple[ShapeExpr, ...]:
        return (self.left, self.right)

    def to_str(self) -> str:
        return f"({self.left.to_str()} ‖ {self.right.to_str()})"

    def __repr__(self) -> str:
        return f"And({self.left!r}, {self.right!r})"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, And) and other.left == self.left and other.right == self.right

    def __hash__(self) -> int:
        return self._hash


class Or(ShapeExpr):
    """``E | F`` — alternative."""

    __slots__ = ("left", "right", "_hash")

    def __new__(cls, left: ShapeExpr, right: ShapeExpr):
        if not isinstance(left, ShapeExpr) or not isinstance(right, ShapeExpr):
            raise TypeError("Or operands must be ShapeExprs")
        return _intern(cls, ("Or", left, right),
                       (("left", left), ("right", right)))

    def __init__(self, left: ShapeExpr, right: ShapeExpr):
        pass  # fully constructed (and possibly reused) in __new__

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Or is immutable")

    def __reduce__(self):
        return (Or, (self.left, self.right))

    def children(self) -> Tuple[ShapeExpr, ...]:
        return (self.left, self.right)

    def to_str(self) -> str:
        return f"({self.left.to_str()} | {self.right.to_str()})"

    def __repr__(self) -> str:
        return f"Or({self.left!r}, {self.right!r})"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, Or) and other.left == self.left and other.right == self.right

    def __hash__(self) -> int:
        return self._hash


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


def interleave(left: ShapeExpr, right: ShapeExpr, simplify: bool = True) -> ShapeExpr:
    """``left ‖ right`` with the paper's simplification rules applied.

    ``∅ ‖ x = x ‖ ∅ = ∅`` and ``ε ‖ x = x ‖ ε = x``.  Passing
    ``simplify=False`` builds the raw node (used by the ablation benchmark).
    """
    if not simplify:
        return And(left, right)
    if isinstance(left, Empty) or isinstance(right, Empty):
        return EMPTY
    if isinstance(left, EmptyTriples):
        return right
    if isinstance(right, EmptyTriples):
        return left
    return And(left, right)


def alternative(left: ShapeExpr, right: ShapeExpr, simplify: bool = True) -> ShapeExpr:
    """``left | right`` with the paper's simplification rules applied.

    ``∅ | x = x`` and ``x | ∅ = x``; identical branches are collapsed
    (``x | x = x``), which is sound because alternation is idempotent and it
    keeps derivatives small.
    """
    if not simplify:
        return Or(left, right)
    if isinstance(left, Empty):
        return right
    if isinstance(right, Empty):
        return left
    if left == right:
        return left
    return Or(left, right)


def balanced(combine: Callable[[ShapeExpr, ShapeExpr], ShapeExpr],
             exprs: Sequence[ShapeExpr], unit: ShapeExpr) -> ShapeExpr:
    """Fold ``exprs`` with the associative ``combine`` into a balanced tree.

    Adjacent pairs are combined level by level, so ``n`` operands nest
    ``⌈log2 n⌉`` deep instead of ``n`` — a shape with thousands of
    interleaved constraints stays shallow enough for the recursive
    derivative and compile passes.  Up to three operands the tree equals the
    left fold (``(a ‖ b) ‖ c``).  ``unit`` is the result for no operands.
    """
    level = list(exprs)
    if not level:
        return unit
    while len(level) > 1:
        paired = [combine(level[i], level[i + 1])
                  for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


def interleave_all(*exprs: ShapeExpr) -> ShapeExpr:
    """Interleave any number of expressions (``ε`` when called with none)."""
    return balanced(interleave, exprs, EPSILON)


def alternative_all(*exprs: ShapeExpr) -> ShapeExpr:
    """Alternate any number of expressions (``∅`` when called with none)."""
    return balanced(alternative, exprs, EMPTY)


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
    ``E{m,m} ‖ E*``.
    """
    if minimum < 0:
        raise ValueError("minimum repetition count must be >= 0")
    if maximum is None:
        return interleave_all(*[expr] * minimum, star(expr))
    if maximum < minimum:
        raise ValueError("maximum repetition count must be >= minimum")
    # between m and n: exactly m copies interleaved with (n - m) optional copies
    return interleave_all(*[expr] * minimum,
                          *[optional(expr)] * (maximum - minimum))


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

    Sizes are memoised per interned expression: engines call this after every
    derivative step, and hash-consing makes repeated lookups O(1) instead of
    a full tree walk.
    """
    cached = _SIZE_CACHE.get(expr)
    if cached is not None:
        return cached
    # iterative post-order so deep expressions cannot overflow the stack; the
    # local overlay keeps the walk correct even when a bounded _SIZE_CACHE
    # evicts an entry the pending parents still need
    local: Dict["ShapeExpr", int] = {}
    stack = [(expr, False)]
    while stack:
        current, expanded = stack.pop()
        if current in local:
            continue
        known = _SIZE_CACHE.get(current)
        if known is not None:
            local[current] = known
            continue
        if expanded:
            size = 1 + sum(local[child] for child in current.children())
            local[current] = size
            _SIZE_CACHE[current] = size
            if _INTERN_LIMIT is not None and len(_SIZE_CACHE) > _INTERN_LIMIT:
                _evict_one(_SIZE_CACHE)
        else:
            stack.append((current, True))
            for child in current.children():
                stack.append((child, False))
    return local[expr]


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
