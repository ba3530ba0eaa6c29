"""In-memory B+-tree.

Spitz "uses a B+-tree for query processing ... efficient for both point
and range queries" (Section 5, *Index*), and the baseline materializes
journal blocks into B+-tree indexed views (Section 6.1).  This is a
classic mutable B+-tree: values live only in leaves, leaves are chained
for range scans, and deletion rebalances by borrowing or merging.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.errors import KeyNotFoundError

DEFAULT_ORDER = 64


class _Node:
    __slots__ = ("keys", "children", "values", "next_leaf")

    def __init__(self, leaf: bool):
        self.keys: List[Any] = []
        # Interior nodes use children; leaves use values + next_leaf.
        self.children: Optional[List["_Node"]] = None if leaf else []
        self.values: Optional[List[Any]] = [] if leaf else None
        self.next_leaf: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.values is not None


class BPlusTree:
    """A mutable B+-tree mapping ordered keys to values.

    ``order`` is the maximum number of keys per node; nodes split at
    ``order`` and rebalance below ``order // 2``.
    """

    def __init__(self, order: int = DEFAULT_ORDER):
        if order < 4:
            raise ValueError("order must be at least 4")
        self.order = order
        self._root: _Node = _Node(leaf=True)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: Any) -> bool:
        return self.get_optional(key, _MISSING) is not _MISSING

    # -- search ------------------------------------------------------------

    def _find_leaf(self, key: Any) -> _Node:
        node = self._root
        while not node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        return node

    def get(self, key: Any) -> Any:
        """Value for ``key``; raises :class:`KeyNotFoundError` if absent."""
        value = self.get_optional(key, _MISSING)
        if value is _MISSING:
            raise KeyNotFoundError(key)
        return value

    def get_optional(self, key: Any, default: Any = None) -> Any:
        """Value for ``key``, or ``default`` if absent (no exception
        raised and caught on a miss)."""
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        return default

    def range(
        self, low: Any, high: Any, inclusive: bool = True
    ) -> Iterator[Tuple[Any, Any]]:
        """Yield (key, value) with ``low <= key <= high`` (or ``< high``)."""
        leaf = self._find_leaf(low)
        index = bisect.bisect_left(leaf.keys, low)
        while leaf is not None:
            while index < len(leaf.keys):
                key = leaf.keys[index]
                if key > high or (key == high and not inclusive):
                    return
                yield key, leaf.values[index]
                index += 1
            leaf = leaf.next_leaf
            index = 0

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """All entries in key order."""
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        while node is not None:
            yield from zip(node.keys, node.values)
            node = node.next_leaf

    def keys(self) -> Iterator[Any]:
        for key, _value in self.items():
            yield key

    def min_key(self) -> Any:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        if not node.keys:
            raise KeyNotFoundError("<empty tree>")
        return node.keys[0]

    def max_key(self) -> Any:
        node = self._root
        while not node.is_leaf:
            node = node.children[-1]
        if not node.keys:
            raise KeyNotFoundError("<empty tree>")
        return node.keys[-1]

    # -- insert ------------------------------------------------------------

    def insert(
        self, key: Any, value: Any,
        check: Optional[Callable[[Any, Any, Any], None]] = None,
    ) -> Any:
        """Insert or overwrite ``key`` in one descent; returns the value
        it replaced (None if there was none).  ``check(key, old, value)``,
        if given, sees a value about to be replaced before anything
        changes and may raise to refuse the write."""
        replaced, split = self._insert_into(self._root, key, value, check)
        if split is not None:
            separator, right = split
            new_root = _Node(leaf=False)
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root
        return replaced

    def _insert_into(
        self, node: _Node, key: Any, value: Any, check
    ) -> Tuple[Any, Optional[Tuple[Any, _Node]]]:
        if node.is_leaf:
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                old = node.values[index]
                if check is not None:
                    check(key, old, value)
                node.values[index] = value
                return old, None
            node.keys.insert(index, key)
            node.values.insert(index, value)
            self._size += 1
            if len(node.keys) <= self.order:
                return None, None
            return None, self._split_leaf(node)
        index = bisect.bisect_right(node.keys, key)
        replaced, split = self._insert_into(
            node.children[index], key, value, check
        )
        if split is None:
            return replaced, None
        separator, right = split
        node.keys.insert(index, separator)
        node.children.insert(index + 1, right)
        if len(node.keys) <= self.order:
            return None, None
        return None, self._split_interior(node)

    def _split_leaf(self, node: _Node) -> Tuple[Any, _Node]:
        middle = len(node.keys) // 2
        right = _Node(leaf=True)
        right.keys = node.keys[middle:]
        right.values = node.values[middle:]
        node.keys = node.keys[:middle]
        node.values = node.values[:middle]
        right.next_leaf = node.next_leaf
        node.next_leaf = right
        return right.keys[0], right

    def _split_interior(self, node: _Node) -> Tuple[Any, _Node]:
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _Node(leaf=False)
        right.keys = node.keys[middle + 1:]
        right.children = node.children[middle + 1:]
        node.keys = node.keys[:middle]
        node.children = node.children[:middle + 1]
        return separator, right

    # -- delete ------------------------------------------------------------

    def delete(self, key: Any) -> None:
        """Remove ``key``; raises :class:`KeyNotFoundError` if absent."""
        found = self._delete_from(self._root, key)
        if not found:
            raise KeyNotFoundError(key)
        if not self._root.is_leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]

    def _min_keys(self) -> int:
        return self.order // 2

    def _delete_from(self, node: _Node, key: Any) -> bool:
        if node.is_leaf:
            index = bisect.bisect_left(node.keys, key)
            if index >= len(node.keys) or node.keys[index] != key:
                return False
            node.keys.pop(index)
            node.values.pop(index)
            self._size -= 1
            return True
        index = bisect.bisect_right(node.keys, key)
        child = node.children[index]
        found = self._delete_from(child, key)
        if found:
            self._rebalance(node, index)
        return found

    def _rebalance(self, parent: _Node, index: int) -> None:
        child = parent.children[index]
        if len(child.keys) >= self._min_keys():
            return
        left = parent.children[index - 1] if index > 0 else None
        right = (
            parent.children[index + 1]
            if index + 1 < len(parent.children)
            else None
        )
        if left is not None and len(left.keys) > self._min_keys():
            self._borrow_from_left(parent, index, left, child)
        elif right is not None and len(right.keys) > self._min_keys():
            self._borrow_from_right(parent, index, child, right)
        elif left is not None:
            self._merge(parent, index - 1, left, child)
        elif right is not None:
            self._merge(parent, index, child, right)

    def _borrow_from_left(
        self, parent: _Node, index: int, left: _Node, child: _Node
    ) -> None:
        if child.is_leaf:
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[index - 1] = child.keys[0]
        else:
            child.keys.insert(0, parent.keys[index - 1])
            parent.keys[index - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())

    def _borrow_from_right(
        self, parent: _Node, index: int, child: _Node, right: _Node
    ) -> None:
        if child.is_leaf:
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[index] = right.keys[0]
        else:
            child.keys.append(parent.keys[index])
            parent.keys[index] = right.keys.pop(0)
            child.children.append(right.children.pop(0))

    def _merge(
        self, parent: _Node, left_index: int, left: _Node, right: _Node
    ) -> None:
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next_leaf = right.next_leaf
        else:
            left.keys.append(parent.keys[left_index])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        parent.keys.pop(left_index)
        parent.children.pop(left_index + 1)


class _Missing:
    __slots__ = ()


_MISSING = _Missing()
