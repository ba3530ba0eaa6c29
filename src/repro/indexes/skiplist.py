"""Skip list.

Spitz's inverted index "uses a skip list to better support range query"
for numeric cell values (Section 5, *Inverted Index*).  This is a
textbook skip list with a deterministic per-instance PRNG so test runs
are reproducible.
"""

from __future__ import annotations

import random
from typing import Any, Iterator, List, Optional, Tuple

from repro.errors import KeyNotFoundError

_MAX_LEVEL = 24
_P = 0.25


class _SkipNode:
    __slots__ = ("key", "value", "forward")

    def __init__(self, key: Any, value: Any, level: int):
        self.key = key
        self.value = value
        self.forward: List[Optional["_SkipNode"]] = [None] * level


class SkipList:
    """An ordered map with O(log n) expected search/insert/delete."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self._head = _SkipNode(None, None, _MAX_LEVEL)
        self._level = 1
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: Any) -> bool:
        node = self._find(key)
        return node is not None

    def _random_level(self) -> int:
        level = 1
        while level < _MAX_LEVEL and self._rng.random() < _P:
            level += 1
        return level

    def _find(self, key: Any) -> Optional[_SkipNode]:
        node = self._head
        for level in range(self._level - 1, -1, -1):
            while (
                node.forward[level] is not None
                and node.forward[level].key < key
            ):
                node = node.forward[level]
        node = node.forward[0]
        if node is not None and node.key == key:
            return node
        return None

    def get(self, key: Any) -> Any:
        node = self._find(key)
        if node is None:
            raise KeyNotFoundError(key)
        return node.value

    def get_optional(self, key: Any, default: Any = None) -> Any:
        node = self._find(key)
        return node.value if node is not None else default

    def insert(self, key: Any, value: Any) -> None:
        """Insert or overwrite ``key``."""
        update: List[_SkipNode] = [self._head] * _MAX_LEVEL
        node = self._head
        for level in range(self._level - 1, -1, -1):
            while (
                node.forward[level] is not None
                and node.forward[level].key < key
            ):
                node = node.forward[level]
            update[level] = node
        candidate = node.forward[0]
        if candidate is not None and candidate.key == key:
            candidate.value = value
            return
        new_level = self._random_level()
        if new_level > self._level:
            self._level = new_level
        new_node = _SkipNode(key, value, new_level)
        for level in range(new_level):
            new_node.forward[level] = update[level].forward[level]
            update[level].forward[level] = new_node
        self._size += 1

    def delete(self, key: Any) -> None:
        """Remove ``key``; raises :class:`KeyNotFoundError` if absent."""
        update: List[_SkipNode] = [self._head] * _MAX_LEVEL
        node = self._head
        for level in range(self._level - 1, -1, -1):
            while (
                node.forward[level] is not None
                and node.forward[level].key < key
            ):
                node = node.forward[level]
            update[level] = node
        target = node.forward[0]
        if target is None or target.key != key:
            raise KeyNotFoundError(key)
        for level in range(len(target.forward)):
            if update[level].forward[level] is target:
                update[level].forward[level] = target.forward[level]
        while self._level > 1 and self._head.forward[self._level - 1] is None:
            self._level -= 1
        self._size -= 1

    def range(
        self, low: Any, high: Any, inclusive: bool = True
    ) -> Iterator[Tuple[Any, Any]]:
        """Yield entries with ``low <= key <= high`` (or ``< high``); a
        ``None`` bound leaves that end open."""
        node = self._head
        for level in range(self._level - 1, -1, -1):
            if low is None:
                break
            while (
                node.forward[level] is not None
                and node.forward[level].key < low
            ):
                node = node.forward[level]
        node = node.forward[0]
        while node is not None:
            if high is not None and (
                node.key > high or (node.key == high and not inclusive)
            ):
                return
            yield node.key, node.value
            node = node.forward[0]

    def items(self) -> Iterator[Tuple[Any, Any]]:
        node = self._head.forward[0]
        while node is not None:
            yield node.key, node.value
            node = node.forward[0]
