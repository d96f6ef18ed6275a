"""Unit and differential tests for MaskCover (repro.core.cover)."""

import random

import pytest

from repro.core.bitset import ItemUniverse
from repro.core.cover import CoverIndex, MaskCover
from repro.core.kernel import BitmaskKernel


UNIVERSE_ITEMS = list(range(1, 25))


def fresh(members=()):
    return MaskCover(ItemUniverse(UNIVERSE_ITEMS), members)


class TestContainerProtocol:
    def test_empty(self):
        cover = fresh()
        assert len(cover) == 0
        assert not cover
        assert not cover.covers((1,))
        assert not cover.covers(())

    def test_add_and_contains_exact(self):
        cover = fresh()
        assert cover.add((1, 2))
        assert (1, 2) in cover
        assert (1,) not in cover
        assert not cover.add((1, 2))
        assert len(cover) == 1

    def test_members_decode_to_canonical_tuples(self):
        universe = ItemUniverse(UNIVERSE_ITEMS)
        cover = MaskCover(universe)
        # add by mask: decode has no interned tuple to reuse and must
        # produce the canonical (sorted) form
        cover.add_mask(universe.raw_mask_of((1, 2, 3)))
        cover.add((5,))
        assert sorted(cover.members) == [(1, 2, 3), (5,)]
        assert sorted(cover) == [(1, 2, 3), (5,)]

    def test_repr_mentions_size(self):
        assert "2 members" in repr(fresh([(1,), (2,)]))

    def test_empty_probe_covered_when_nonempty(self):
        assert fresh([(1,)]).covers(())
        assert fresh([(1,)]).covers_mask(0)


class TestMaskQueries:
    def test_covers_subset(self):
        cover = fresh([(1, 2, 3)])
        assert cover.covers((1, 3))
        assert cover.covers((1, 2, 3))
        assert not cover.covers((1, 4))

    def test_covers_strictly_excludes_equality(self):
        cover = fresh([(1, 2)])
        assert not cover.covers_strictly((1, 2))
        assert cover.covers_strictly((1,))
        cover.add((1, 2, 3))
        assert cover.covers_strictly((1, 2))

    def test_supersets_of(self):
        cover = fresh([(1, 2), (1, 2, 3), (4, 5)])
        assert sorted(cover.supersets_of((1, 2))) == [(1, 2), (1, 2, 3)]
        assert cover.supersets_of((9,)) == []

    def test_supersets_masks_roundtrip(self):
        universe = ItemUniverse(UNIVERSE_ITEMS)
        cover = MaskCover(universe, [(1, 2), (1, 2, 3)])
        probe = universe.mask_of((1, 2))
        masks = cover.supersets_masks(probe)
        decoded = sorted(universe.itemset_of(mask) for mask in masks)
        assert decoded == [(1, 2), (1, 2, 3)]

    def test_verification_path_on_long_probe(self):
        # a probe wider than the cutoff forces the witness-verification
        # branch of _matches_mask; result must stay exact
        cover = fresh([tuple(range(1, 21)), (22, 23)])
        assert len(tuple(range(1, 21))) > MaskCover._PROBE_CUTOFF
        assert cover.covers(tuple(range(1, 21)))
        assert cover.covers(tuple(range(2, 20)))
        assert not cover.covers(tuple(range(1, 22)))  # 21 not covered

    def test_query_counters_move(self):
        cover = fresh([(1, 2, 3)])
        before = (cover.queries, cover.node_visits)
        cover.covers((1, 2))
        assert cover.queries == before[0] + 1
        assert cover.node_visits > before[1]


class TestLazyDiscardAndSlotReuse:
    def test_discard_is_lazy(self):
        universe = ItemUniverse(UNIVERSE_ITEMS)
        cover = MaskCover(universe, [(1, 2, 3)])
        mask = universe.mask_of((1, 2, 3))
        assert cover.discard_mask(mask)
        assert not cover.covers((1, 2))
        assert len(cover) == 0
        # the table bits are intentionally stale; queries must not see them
        assert any(cover._table)
        assert not cover.discard_mask(mask)

    def test_scrub_on_reuse_keeps_queries_exact(self):
        universe = ItemUniverse(UNIVERSE_ITEMS)
        cover = MaskCover(universe, [(1, 2, 3)])
        cover.discard_mask(universe.mask_of((1, 2, 3)))
        # reuses the freed slot: item 3's stale bit must be scrubbed and
        # item 4's bit set
        cover.add_mask(universe.mask_of((1, 2, 4)))
        assert cover.covers((1, 4))
        assert not cover.covers((3,))
        assert sorted(cover.members) == [(1, 2, 4)]

    def test_interleaved_churn_matches_coverindex(self):
        rng = random.Random(7)
        universe = ItemUniverse(UNIVERSE_ITEMS)
        mask_cover = MaskCover(universe)
        reference = CoverIndex()
        pool = [
            tuple(sorted(rng.sample(UNIVERSE_ITEMS, rng.randint(1, 6))))
            for _ in range(60)
        ]
        for step in range(400):
            member = rng.choice(pool)
            if rng.random() < 0.4:
                assert mask_cover.discard(member) == reference.discard(member)
            else:
                assert mask_cover.add(member) == reference.add(member)
            probe = rng.choice(pool)
            assert mask_cover.covers(probe) == reference.covers(probe)
            assert mask_cover.covers_strictly(probe) == (
                reference.covers_strictly(probe)
            )
            assert sorted(mask_cover.supersets_of(probe)) == sorted(
                reference.supersets_of(probe)
            )
        assert sorted(mask_cover.members) == sorted(reference.members)


class TestOutsideItems:
    """Members are masks of the universe; probes may name anything."""

    def test_add_raises_and_leaves_cover_unchanged(self):
        cover = fresh([(1, 2)])
        with pytest.raises(KeyError):
            cover.add((1, 100))  # 100 is outside the universe
        assert cover.members == [(1, 2)]
        assert cover.member_masks == [cover.universe.mask_of((1, 2))]
        with pytest.raises(KeyError):
            MaskCover(cover.universe, [(100, 200)])

    def test_probe_naming_outside_item_is_not_covered(self):
        cover = fresh([(1, 2), (1, 2, 3)])
        for probe in [(100,), (1, 100), (1, 2, 100)]:
            assert not cover.covers(probe)
            assert not cover.covers_strictly(probe)
            assert cover.supersets_of(probe) == []
            assert probe not in cover
            assert not cover.discard(probe)
        assert sorted(cover.members) == [(1, 2), (1, 2, 3)]

    def test_mask_mfcs_add_raises_and_leaves_it_unchanged(self):
        kernel = BitmaskKernel(UNIVERSE_ITEMS)
        mfcs = kernel.make_mfcs_from([(1, 2), (3,)])
        with pytest.raises(KeyError):
            mfcs.add((1, 2, 3, 100))  # would swallow both elements
        assert sorted(mfcs) == [(1, 2), (3,)]
        assert not mfcs.covers((1, 100))
        assert (1, 100) not in mfcs
        mfcs.remove((1, 100))
        # an infrequent itemset naming the item is under no element
        assert mfcs.update([(100,), (1, 100)])
        assert sorted(mfcs) == [(1, 2), (3,)]
        with pytest.raises(KeyError):
            kernel.make_mfcs_from([(1, 100)])
