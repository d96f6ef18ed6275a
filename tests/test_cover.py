"""Unit tests for the CoverIndex (repro.core.cover)."""

import random

from repro.core.cover import CoverIndex, as_cover
from repro.core.itemset import is_subset


class TestBasics:
    def test_empty_index_covers_nothing(self):
        index = CoverIndex()
        assert not index.covers((1,))
        assert not index.covers(())
        assert len(index) == 0
        assert not index

    def test_add_and_contains(self):
        index = CoverIndex()
        assert index.add((1, 2))
        assert (1, 2) in index
        assert (1,) not in index  # membership is exact, not subset

    def test_add_twice_returns_false(self):
        index = CoverIndex([(1, 2)])
        assert not index.add((1, 2))
        assert len(index) == 1

    def test_members_snapshot(self):
        index = CoverIndex([(1,), (2, 3)])
        assert sorted(index.members) == [(1,), (2, 3)]

    def test_iteration(self):
        index = CoverIndex([(1,), (2,)])
        assert sorted(index) == [(1,), (2,)]

    def test_repr_mentions_size(self):
        assert "2 members" in repr(CoverIndex([(1,), (2,)]))


class TestCoverQueries:
    def test_covers_subset(self):
        index = CoverIndex([(1, 2, 3)])
        assert index.covers((1, 3))
        assert index.covers((1, 2, 3))
        assert not index.covers((1, 4))

    def test_empty_probe_covered_when_nonempty(self):
        assert CoverIndex([(1,)]).covers(())

    def test_covers_strictly_excludes_equality(self):
        index = CoverIndex([(1, 2)])
        assert not index.covers_strictly((1, 2))
        assert index.covers_strictly((1,))

    def test_covers_strictly_with_proper_superset_present(self):
        index = CoverIndex([(1, 2), (1, 2, 3)])
        assert index.covers_strictly((1, 2))

    def test_supersets_of(self):
        index = CoverIndex([(1, 2, 3), (2, 3, 4), (1, 5)])
        assert sorted(index.supersets_of((2, 3))) == [(1, 2, 3), (2, 3, 4)]
        assert index.supersets_of((9,)) == []

    def test_unknown_item_short_circuits(self):
        index = CoverIndex([(1, 2)])
        assert not index.covers((1, 99))


class TestRemoval:
    def test_discard_removes_member(self):
        index = CoverIndex([(1, 2), (3, 4)])
        assert index.discard((1, 2))
        assert not index.covers((1, 2))
        assert index.covers((3, 4))
        assert len(index) == 1

    def test_discard_missing_returns_false(self):
        assert not CoverIndex([(1,)]).discard((2,))

    def test_slot_recycling_keeps_queries_correct(self):
        index = CoverIndex()
        for round_number in range(5):
            member = (round_number, round_number + 100)
            index.add(member)
            assert index.covers(member)
            index.discard(member)
            assert not index.covers(member)
        index.add((7, 8))
        assert index.covers((7,))
        assert len(index) == 1

    def test_stale_bits_do_not_resurrect(self):
        index = CoverIndex([(1, 2, 3)])
        index.discard((1, 2, 3))
        index.add((4, 5))  # recycles the slot
        assert not index.covers((1, 2))
        assert index.covers((4, 5))


class TestAgainstLinearScan:
    def test_randomised_equivalence(self):
        rng = random.Random(5)
        members = []
        index = CoverIndex()
        for step in range(300):
            action = rng.random()
            candidate = tuple(sorted(rng.sample(range(12), rng.randint(1, 5))))
            if action < 0.55:
                if candidate not in members:
                    members.append(candidate)
                index.add(candidate)
            elif action < 0.75 and members:
                victim = rng.choice(members)
                members.remove(victim)
                index.discard(victim)
            probe = tuple(sorted(rng.sample(range(12), rng.randint(0, 5))))
            expected = any(is_subset(probe, member) for member in members)
            assert index.covers(probe) == expected
            expected_supersets = sorted(
                member for member in members if is_subset(probe, member)
            )
            assert sorted(index.supersets_of(probe)) == expected_supersets


class TestAsCover:
    def test_wraps_iterables(self):
        cover = as_cover([(1, 2), (3,)])
        assert isinstance(cover, CoverIndex)
        assert cover.covers((1,))

    def test_passes_through_existing_index(self):
        index = CoverIndex([(1,)])
        assert as_cover(index) is index
