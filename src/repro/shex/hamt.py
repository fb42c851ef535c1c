"""A persistent hash-array-mapped trie: the substrate of :class:`ShapeTyping`.

The Section 8 typing operations (``n → s : τ``, ``τ1 ⊎ τ2``) were originally
backed by a dict that was fully copied on every ``add``, so confirming the
``k`` members of one recursive component cost O(k²).  :class:`HamtMap` is a
persistent (immutable, structurally-sharing) map in the Bagwell HAMT style —
`Ideal Hash Trees`, 2001 — that makes the same accretion O(k log k) while
keeping the value-object semantics the backtracking engine relies on:

* ``assoc``/``get`` are O(log₃₂ n): an ``assoc`` rebuilds only the ≤ 12
  nodes on the key's hash path and shares every other subtrie with its
  parent map,
* ``merge`` walks both tries simultaneously and **skips identical
  subtries** (``left is right``), so combining a typing with one derived
  from it touches only the differing paths,
* the structure is *canonical*: a map's tree shape depends only on its
  key set (hash-colliding entries are kept in a canonically-sorted bucket),
  never on insertion order, so iteration, equality and the cached content
  hash are value-based,
* every node caches an order-independent content hash, making ``hash(map)``
  O(1) after the first call and giving ``__eq__`` a cheap mismatch test.

Implementation notes.  Keys are placed by ``hash(key)`` masked to 60 bits,
consumed 5 bits per level (32-way branching, ≤ 12 levels); keys whose full
60-bit hashes collide share a :class:`_Collision` bucket sorted by
``sort_key()``/``repr``.  Because ``str`` hashes are randomised per process
(PYTHONHASHSEED), a pickled map does **not** ship its tree: ``__reduce__``
serialises the items and the receiving process rebuilds the trie under its
own hash seed — sharded validation ships typings across processes, and a
layout keyed to the sender's seed would be silently unsearchable.

No new dependencies: pure python, stdlib only.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional, Tuple

__all__ = ["HamtMap"]

_BITS = 5                      # branching factor 2**5 = 32
_LEVEL_MASK = (1 << _BITS) - 1
_HASH_BITS = 60                # 12 full levels before collision buckets
_HASH_MASK = (1 << _HASH_BITS) - 1
_M64 = (1 << 64) - 1


def _key_hash(key: Any) -> int:
    return hash(key) & _HASH_MASK


def _mix(h: int) -> int:
    """Finalise one entry hash (splitmix64) so the commutative combination
    of entry hashes below doesn't collapse on structured inputs."""
    h &= _M64
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _M64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _M64
    h ^= h >> 33
    return h


def _canonical_key(key: Any):
    """A total order for hash-colliding keys, independent of insertion.

    RDF terms and shape labels expose ``sort_key()``; anything else falls
    back to ``(type name, repr)``, which is deterministic for the value
    types a persistent map should hold.
    """
    sort_key = getattr(key, "sort_key", None)
    if sort_key is not None:
        return (0, sort_key())
    return (1, type(key).__name__, repr(key))


class _Leaf:
    """One ``key → value`` entry, addressed by its 60-bit key hash."""

    __slots__ = ("khash", "key", "value", "chash")
    count = 1

    def __init__(self, khash: int, key: Any, value: Any):
        self.khash = khash
        self.key = key
        self.value = value
        self.chash: Optional[int] = None


class _Collision:
    """Entries whose full 60-bit hashes collide, canonically sorted."""

    __slots__ = ("khash", "entries", "chash")

    def __init__(self, khash: int, entries: Tuple[Tuple[Any, Any], ...]):
        self.khash = khash
        self.entries = entries
        self.chash: Optional[int] = None

    @property
    def count(self) -> int:
        return len(self.entries)


class _Bitmap:
    """An interior node: a 32-bit occupancy bitmap over packed children."""

    __slots__ = ("bitmap", "children", "count", "chash")

    def __init__(self, bitmap: int, children: tuple):
        self.bitmap = bitmap
        self.children = children
        self.count = sum(child.count for child in children)
        self.chash: Optional[int] = None


def _content_hash(node) -> int:
    """The cached, order-independent hash of a subtrie's entries.

    Entry hashes are combined with addition mod 2⁶⁴ — commutative, so the
    result is a pure function of the entry *set* (the canonical structure
    already guarantees that, but the commutative combination keeps the hash
    honest even across structurally different tries).
    """
    h = node.chash
    if h is None:
        if type(node) is _Leaf:
            h = _mix(hash((node.key, node.value)))
        elif type(node) is _Collision:
            h = 0
            for key, value in node.entries:
                h = (h + _mix(hash((key, value)))) & _M64
        else:
            h = 0
            for child in node.children:
                h = (h + _content_hash(child)) & _M64
        node.chash = h
    return h


def _bitpos_index(bitmap: int, bit: int) -> int:
    """Index of ``bit``'s child in the packed array: popcount below it."""
    return (bitmap & (bit - 1)).bit_count()


def _pair_nodes(shift: int, a, b):
    """Combine two leaf-ish nodes with distinct key hashes into a subtrie."""
    ia = (a.khash >> shift) & _LEVEL_MASK
    ib = (b.khash >> shift) & _LEVEL_MASK
    if ia == ib:
        return _Bitmap(1 << ia, (_pair_nodes(shift + _BITS, a, b),))
    if ia < ib:
        return _Bitmap((1 << ia) | (1 << ib), (a, b))
    return _Bitmap((1 << ia) | (1 << ib), (b, a))


def _collision_from(khash: int, entries) -> _Collision:
    return _Collision(khash, tuple(sorted(entries,
                                          key=lambda kv: _canonical_key(kv[0]))))


def _leafish_entries(node):
    """The ``(key, value)`` pairs of a leaf or collision bucket."""
    if type(node) is _Leaf:
        return ((node.key, node.value),)
    return node.entries


def _node_assoc(node, shift: int, khash: int, key: Any, value: Any,
                merge_value: Optional[Callable[[Any, Any], Any]] = None):
    """Return ``node`` with ``key → value`` set (``node`` itself if a no-op).

    With ``merge_value``, an existing value is replaced by
    ``merge_value(existing, value)`` instead — the single-walk upsert the
    hot confirmation path uses (one hash-path traversal, not get + assoc).
    """
    kind = type(node)
    if kind is _Leaf:
        if node.khash == khash:
            if node.key == key:
                new_value = (merge_value(node.value, value)
                             if merge_value is not None else value)
                if new_value is node.value:
                    return node
                return _Leaf(khash, key, new_value)
            return _collision_from(khash, (*(_leafish_entries(node)), (key, value)))
        return _pair_nodes(shift, node, _Leaf(khash, key, value))
    if kind is _Collision:
        if node.khash == khash:
            for position, (existing_key, existing_value) in enumerate(node.entries):
                if existing_key == key:
                    new_value = (merge_value(existing_value, value)
                                 if merge_value is not None else value)
                    if new_value is existing_value:
                        return node
                    entries = list(node.entries)
                    entries[position] = (key, new_value)
                    return _Collision(khash, tuple(entries))
            return _collision_from(khash, (*node.entries, (key, value)))
        return _pair_nodes(shift, node, _Leaf(khash, key, value))
    # _Bitmap
    index = (khash >> shift) & _LEVEL_MASK
    bit = 1 << index
    position = _bitpos_index(node.bitmap, bit)
    if node.bitmap & bit:
        child = node.children[position]
        new_child = _node_assoc(child, shift + _BITS, khash, key, value,
                                merge_value)
        if new_child is child:
            return node
        children = list(node.children)
        children[position] = new_child
        return _Bitmap(node.bitmap, tuple(children))
    children = list(node.children)
    children.insert(position, _Leaf(khash, key, value))
    return _Bitmap(node.bitmap | bit, tuple(children))


def _node_dissoc(node, shift: int, khash: int, key: Any):
    """Return ``node`` without ``key`` — ``node`` itself if absent, ``None``
    if the removal empties the subtrie.

    The result is *canonical* for its remaining key set (the shape ``assoc``
    would have built): a collision bucket left with one entry becomes a leaf,
    and a bitmap node left with a single leaf-ish child returns that child so
    the leaf lifts back to the highest level where its hash index is unique.
    Single-child bitmaps whose child is another bitmap stay — that chain is
    exactly how ``_pair_nodes`` lays out keys with a shared hash prefix.
    """
    kind = type(node)
    if kind is _Leaf:
        if node.khash == khash and node.key == key:
            return None
        return node
    if kind is _Collision:
        if node.khash != khash:
            return node
        entries = tuple(kv for kv in node.entries if kv[0] != key)
        if len(entries) == len(node.entries):
            return node
        if len(entries) == 1:
            remaining_key, value = entries[0]
            return _Leaf(khash, remaining_key, value)
        # removal preserves the canonical sort order of the survivors
        return _Collision(khash, entries)
    # _Bitmap
    bit = 1 << ((khash >> shift) & _LEVEL_MASK)
    if not node.bitmap & bit:
        return node
    position = _bitpos_index(node.bitmap, bit)
    child = node.children[position]
    new_child = _node_dissoc(child, shift + _BITS, khash, key)
    if new_child is child:
        return node
    if new_child is None:
        children = node.children[:position] + node.children[position + 1:]
        if not children:
            return None
        if len(children) == 1 and type(children[0]) is not _Bitmap:
            return children[0]
        return _Bitmap(node.bitmap & ~bit, children)
    if len(node.children) == 1 and type(new_child) is not _Bitmap:
        return new_child
    children = list(node.children)
    children[position] = new_child
    return _Bitmap(node.bitmap, tuple(children))


def _node_get(node, shift: int, khash: int, key: Any, default: Any):
    while True:
        kind = type(node)
        if kind is _Bitmap:
            bit = 1 << ((khash >> shift) & _LEVEL_MASK)
            if not node.bitmap & bit:
                return default
            node = node.children[_bitpos_index(node.bitmap, bit)]
            shift += _BITS
            continue
        if kind is _Leaf:
            if node.khash == khash and node.key == key:
                return node.value
            return default
        if node.khash == khash:
            for existing_key, value in node.entries:
                if existing_key == key:
                    return value
        return default


def _node_items(node) -> Iterator[Tuple[Any, Any]]:
    kind = type(node)
    if kind is _Leaf:
        yield node.key, node.value
    elif kind is _Collision:
        yield from node.entries
    else:
        for child in node.children:
            yield from _node_items(child)


def _node_eq(a, b) -> bool:
    """Structural equality; sound because equal key sets ⇒ equal tree shape."""
    if a is b:
        return True
    kind = type(a)
    if kind is not type(b):
        return False
    if a.count != b.count:
        return False
    if a.chash is not None and b.chash is not None and a.chash != b.chash:
        return False
    if kind is _Leaf:
        return a.khash == b.khash and a.key == b.key and a.value == b.value
    if kind is _Collision:
        if a.khash != b.khash:
            return False
        for (ka, va), (kb, vb) in zip(a.entries, b.entries):
            if ka != kb or va != vb:
                return False
        return True
    if a.bitmap != b.bitmap:
        return False
    for child_a, child_b in zip(a.children, b.children):
        if not _node_eq(child_a, child_b):
            return False
    return True


def _merge_leafish(a, b, shift: int, merge_value) -> Any:
    """Merge two leaf-ish nodes; values of common keys via ``merge_value``."""
    if a.khash != b.khash:
        return _pair_nodes(shift, a, b)
    a_entries = _leafish_entries(a)
    b_entries = _leafish_entries(b)
    merged = list(a_entries)
    changed = False
    for key, b_value in b_entries:
        for position, (existing_key, a_value) in enumerate(merged):
            if existing_key == key:
                value = merge_value(a_value, b_value)
                if value is not a_value:
                    merged[position] = (key, value)
                    changed = True
                break
        else:
            merged.append((key, b_value))
            changed = True
    if not changed:
        return a
    if len(merged) == len(b_entries) and all(
        any(key == b_key and value is b_value for b_key, b_value in b_entries)
        for key, value in merged
    ):
        # b covered a entirely (merge_value handed back b's values): keep
        # b's node shared instead of rebuilding an equal one
        return b
    if len(merged) == 1:
        key, value = merged[0]
        return _Leaf(a.khash, key, value)
    return _collision_from(a.khash, merged)


def _merge_into_bitmap(node: _Bitmap, leafish, shift: int, merge_value,
                       leafish_is_right: bool):
    """Merge a leaf-ish node into a bitmap node, preserving orientation.

    ``merge_value(left, right)`` must see the bitmap side as *left* when the
    leaf came from the right operand, and vice versa.
    """
    index = (leafish.khash >> shift) & _LEVEL_MASK
    bit = 1 << index
    position = _bitpos_index(node.bitmap, bit)
    if node.bitmap & bit:
        child = node.children[position]
        if leafish_is_right:
            new_child = _node_merge(child, leafish, shift + _BITS, merge_value)
        else:
            new_child = _node_merge(leafish, child, shift + _BITS, merge_value)
        if new_child is child:
            return node
        children = list(node.children)
        children[position] = new_child
        return _Bitmap(node.bitmap, tuple(children))
    children = list(node.children)
    children.insert(position, leafish)
    return _Bitmap(node.bitmap | bit, tuple(children))


def _node_merge(a, b, shift: int, merge_value):
    """Merge two subtries.  Identical subtries are skipped outright, which
    is sound because ``merge_value`` is required to be idempotent
    (``merge_value(v, v) == v`` — set union in the typing algebra)."""
    if a is b:
        return a
    a_is_bitmap = type(a) is _Bitmap
    b_is_bitmap = type(b) is _Bitmap
    if a_is_bitmap and b_is_bitmap:
        bitmap = a.bitmap | b.bitmap
        children = []
        all_from_a = bitmap == a.bitmap
        all_from_b = bitmap == b.bitmap
        bits = bitmap
        while bits:
            bit = bits & -bits
            bits ^= bit
            in_a = a.bitmap & bit
            in_b = b.bitmap & bit
            if in_a and in_b:
                child_a = a.children[_bitpos_index(a.bitmap, bit)]
                child_b = b.children[_bitpos_index(b.bitmap, bit)]
                child = _node_merge(child_a, child_b, shift + _BITS, merge_value)
                all_from_a &= child is child_a
                all_from_b &= child is child_b
            elif in_a:
                child = a.children[_bitpos_index(a.bitmap, bit)]
                all_from_b = False
            else:
                child = b.children[_bitpos_index(b.bitmap, bit)]
                all_from_a = False
            children.append(child)
        if all_from_a:
            return a
        if all_from_b:
            return b
        return _Bitmap(bitmap, tuple(children))
    if a_is_bitmap:
        return _merge_into_bitmap(a, b, shift, merge_value, leafish_is_right=True)
    if b_is_bitmap:
        return _merge_into_bitmap(b, a, shift, merge_value, leafish_is_right=False)
    return _merge_leafish(a, b, shift, merge_value)


def _rebuild(items: tuple) -> "HamtMap":
    """Unpickling entry point: regrow the trie under this process's seed."""
    return HamtMap.from_items(items)


class HamtMap:
    """An immutable, persistent ``key → value`` map (see module docstring).

    Values are never interpreted except by ``merge``'s ``merge_value``
    callable; keys need ``__hash__``/``__eq__`` (plus ``sort_key()`` or a
    deterministic ``repr`` to order hash-colliding buckets canonically).
    """

    __slots__ = ("_root", "_count")

    def __init__(self):
        self._root = None
        self._count = 0

    @classmethod
    def _wrap(cls, root, count: int) -> "HamtMap":
        if root is None or count == 0:
            return _EMPTY_MAP
        wrapped = object.__new__(cls)
        wrapped._root = root
        wrapped._count = count
        return wrapped

    @classmethod
    def empty(cls) -> "HamtMap":
        return _EMPTY_MAP

    @classmethod
    def from_items(cls, items) -> "HamtMap":
        mapping = _EMPTY_MAP
        for key, value in items:
            mapping = mapping.assoc(key, value)
        return mapping

    # -- queries ---------------------------------------------------------------
    def get(self, key: Any, default: Any = None) -> Any:
        if self._root is None:
            return default
        return _node_get(self._root, 0, _key_hash(key), key, default)

    def __contains__(self, key: Any) -> bool:
        sentinel = _SENTINEL
        return self.get(key, sentinel) is not sentinel

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __iter__(self) -> Iterator[Any]:
        for key, _ in self.items():
            yield key

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Iterate ``(key, value)`` pairs in canonical (hash-path) order."""
        if self._root is not None:
            yield from _node_items(self._root)

    # -- persistent updates -----------------------------------------------------
    def assoc(self, key: Any, value: Any) -> "HamtMap":
        """Return a map with ``key → value`` set; shares all untouched paths."""
        khash = _key_hash(key)
        if self._root is None:
            return HamtMap._wrap(_Leaf(khash, key, value), 1)
        root = _node_assoc(self._root, 0, khash, key, value)
        if root is self._root:
            return self
        return HamtMap._wrap(root, root.count)

    def upsert(self, key: Any, value: Any,
               merge_value: Callable[[Any, Any], Any]) -> "HamtMap":
        """Insert ``key → value``, or set ``merge_value(existing, value)``.

        One hash-path walk instead of the ``get`` + ``assoc`` pair; returns
        ``self`` when ``merge_value`` hands back the existing value object.
        """
        khash = _key_hash(key)
        if self._root is None:
            return HamtMap._wrap(_Leaf(khash, key, value), 1)
        root = _node_assoc(self._root, 0, khash, key, value, merge_value)
        if root is self._root:
            return self
        return HamtMap._wrap(root, root.count)

    def dissoc(self, key: Any) -> "HamtMap":
        """Return a map without ``key``; ``self`` when the key is absent.

        O(log n) like ``assoc``: only the nodes on the key's hash path are
        rebuilt, and the result's tree shape is canonical for the remaining
        key set — equal to the map that never contained ``key`` at all.
        """
        if self._root is None:
            return self
        root = _node_dissoc(self._root, 0, _key_hash(key), key)
        if root is self._root:
            return self
        if root is None:
            return _EMPTY_MAP
        return HamtMap._wrap(root, self._count - 1)

    def merge(self, other: "HamtMap",
              merge_value: Callable[[Any, Any], Any]) -> "HamtMap":
        """The union of two maps; common keys via ``merge_value(self_v, other_v)``.

        ``merge_value`` must be idempotent (``merge_value(v, v) == v``): the
        walk returns shared subtries untouched without re-merging their
        values, which is what makes combining overlapping typings cheap.
        """
        if other._root is None or other is self:
            return self
        if self._root is None:
            return other
        root = _node_merge(self._root, other._root, 0, merge_value)
        if root is self._root:
            return self
        if root is other._root:
            return other
        return HamtMap._wrap(root, root.count)

    # -- value semantics --------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, HamtMap):
            return NotImplemented
        if self._count != other._count:
            return False
        if self._root is None:
            return True
        return _node_eq(self._root, other._root)

    def __hash__(self) -> int:
        if self._root is None:
            return hash(("HamtMap", 0))
        return hash(("HamtMap", self._count, _content_hash(self._root)))

    def __repr__(self) -> str:
        rendered = ", ".join(f"{key!r}: {value!r}" for key, value in self.items())
        return f"HamtMap({{{rendered}}})"

    def __reduce__(self):
        # never pickle the tree: its layout is keyed to this process's
        # (randomised) string hash seed, so the receiver rebuilds instead
        return (_rebuild, (tuple(self.items()),))


_SENTINEL = object()
_EMPTY_MAP = HamtMap()
