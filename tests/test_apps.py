"""Tests for the application layer (repro.apps): minimal keys."""

import random
from itertools import combinations

import pytest

from repro.apps.keys import (
    Relation,
    candidate_key_report,
    maximal_non_keys,
    minimal_keys,
)


class TestRelation:
    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            Relation([(1, 2), (1,)])

    def test_is_key(self):
        relation = Relation([(1, "a"), (1, "b"), (2, "a")])
        assert not relation.is_key([0])
        assert not relation.is_key([1])
        assert relation.is_key([0, 1])

    def test_empty_attribute_set_key_only_for_tiny_relations(self):
        assert Relation([(1,)]).is_key([])
        assert not Relation([(1,), (2,)]).is_key([])

    def test_default_column_names(self):
        relation = Relation([(1, 2)])
        assert relation.names([1, 0]) == ("col0", "col1")

    def test_named_columns(self):
        relation = Relation([(1, 2)], column_names=["id", "v"])
        assert relation.names([1]) == ("v",)


def brute_minimal_keys(relation):
    universe = range(relation.arity)
    keys = [
        attributes
        for size in range(relation.arity + 1)
        for attributes in combinations(universe, size)
        if relation.is_key(attributes)
    ]
    return {
        key
        for key in keys
        if not any(set(other) < set(key) for other in keys)
    }


class TestMinimalKeys:
    def test_textbook_relation(self):
        relation = Relation(
            [
                ("alice", 30, "nyc"),
                ("bob", 30, "nyc"),
                ("alice", 31, "sfo"),
            ],
            column_names=["name", "age", "city"],
        )
        assert minimal_keys(relation) == brute_minimal_keys(relation)

    def test_all_singletons_keys(self):
        relation = Relation([(1, "a"), (2, "b")])
        assert minimal_keys(relation) == {(0,), (1,)}

    def test_no_key_exists_with_duplicate_rows(self):
        relation = Relation([(1, 2), (1, 2)])
        assert minimal_keys(relation) == set()
        assert maximal_non_keys(relation) == {(0, 1)}

    def test_single_row_relation_has_empty_key(self):
        assert minimal_keys(Relation([(1, 2)])) == {()}

    def test_randomised_against_brute_force(self):
        rng = random.Random(8)
        for trial in range(40):
            arity = rng.randint(1, 5)
            rows = [
                tuple(rng.randint(0, 2) for _ in range(arity))
                for _ in range(rng.randint(1, 10))
            ]
            relation = Relation(rows)
            assert minimal_keys(relation) == brute_minimal_keys(relation), (
                trial, rows,
            )

    def test_report_mentions_key_columns(self):
        relation = Relation(
            [(1, "x"), (2, "x")], column_names=["id", "group"]
        )
        report = candidate_key_report(relation)
        assert "1 minimal key" in report
        assert "(id)" in report
