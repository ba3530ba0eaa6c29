"""Unit tests for the B+-tree."""

import random

import pytest

from repro.errors import KeyNotFoundError
from repro.indexes.bplus import BPlusTree


class TestBPlusBasics:
    def test_invalid_order(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)

    def test_insert_get(self):
        tree = BPlusTree()
        tree.insert(5, "five")
        assert tree.get(5) == "five"

    def test_missing_raises(self):
        with pytest.raises(KeyNotFoundError):
            BPlusTree().get(1)

    def test_get_optional(self):
        tree = BPlusTree()
        assert tree.get_optional(9, "d") == "d"

    def test_overwrite_keeps_size(self):
        tree = BPlusTree()
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.get(1) == "b"
        assert len(tree) == 1

    def test_insert_returns_what_it_replaced(self):
        tree = BPlusTree(order=4)
        assert [tree.insert(n, str(n)) for n in range(50)] == [None] * 50
        assert tree.insert(17, "x") == "17"
        assert tree.get(17) == "x" and len(tree) == 50

    def test_a_check_refuses_before_anything_changes(self):
        tree = BPlusTree(order=4)
        for n in range(50):
            tree.insert(n, n)
        seen = []

        def refuse(key, old, new):
            seen.append((key, old, new))
            raise ValueError("refused")

        with pytest.raises(ValueError):
            tree.insert(30, -1, refuse)
        assert seen == [(30, 30, -1)] and tree.get(30) == 30
        assert tree.insert(60, 60, refuse) is None  # nothing replaced
        assert list(tree.keys()) == [*range(50), 60]

    def test_contains(self):
        tree = BPlusTree()
        tree.insert("k", 1)
        assert "k" in tree
        assert "other" not in tree

    def test_min_max(self):
        tree = BPlusTree(order=4)
        for value in [5, 1, 9, 3]:
            tree.insert(value, value)
        assert tree.min_key() == 1
        assert tree.max_key() == 9

    def test_min_of_empty_raises(self):
        with pytest.raises(KeyNotFoundError):
            BPlusTree().min_key()


class TestBPlusScale:
    @pytest.mark.parametrize("order", [4, 8, 64])
    def test_sequential_inserts(self, order):
        tree = BPlusTree(order=order)
        for i in range(1000):
            tree.insert(i, i * 2)
        assert len(tree) == 1000
        assert tree.get(999) == 1998
        assert list(tree.keys()) == list(range(1000))

    def test_random_inserts_sorted_iteration(self):
        tree = BPlusTree(order=8)
        keys = list(range(2000))
        random.Random(1).shuffle(keys)
        for key in keys:
            tree.insert(key, key)
        assert list(tree.keys()) == list(range(2000))

    def test_range_query(self):
        tree = BPlusTree(order=8)
        for i in range(500):
            tree.insert(i, str(i))
        assert [k for k, _ in tree.range(100, 110)] == list(range(100, 111))

    def test_range_exclusive_high(self):
        tree = BPlusTree(order=4)
        for i in range(20):
            tree.insert(i, i)
        result = [k for k, _ in tree.range(5, 10, inclusive=False)]
        assert result == [5, 6, 7, 8, 9]

    def test_range_outside_keyspace(self):
        tree = BPlusTree(order=4)
        for i in range(10):
            tree.insert(i, i)
        assert list(tree.range(100, 200)) == []


class TestBPlusDelete:
    def test_delete_missing_raises(self):
        tree = BPlusTree()
        tree.insert(1, 1)
        with pytest.raises(KeyNotFoundError):
            tree.delete(2)

    def test_delete_then_get_raises(self):
        tree = BPlusTree()
        tree.insert(1, 1)
        tree.delete(1)
        with pytest.raises(KeyNotFoundError):
            tree.get(1)

    @pytest.mark.parametrize("order", [4, 8])
    def test_delete_everything(self, order):
        tree = BPlusTree(order=order)
        keys = list(range(500))
        random.Random(2).shuffle(keys)
        for key in keys:
            tree.insert(key, key)
        random.Random(3).shuffle(keys)
        for key in keys:
            tree.delete(key)
        assert len(tree) == 0
        assert list(tree.items()) == []

    def test_mixed_against_dict_model(self):
        rng = random.Random(11)
        tree = BPlusTree(order=4)
        model = {}
        for _ in range(5000):
            key = rng.randrange(800)
            if rng.random() < 0.4 and model:
                victim = rng.choice(list(model))
                tree.delete(victim)
                del model[victim]
            else:
                tree.insert(key, key * 3)
                model[key] = key * 3
        assert list(tree.items()) == sorted(model.items())
        assert len(tree) == len(model)

    def test_range_after_heavy_deletes(self):
        tree = BPlusTree(order=4)
        for i in range(200):
            tree.insert(i, i)
        for i in range(0, 200, 2):
            tree.delete(i)
        assert [k for k, _ in tree.range(0, 199)] == list(range(1, 200, 2))
