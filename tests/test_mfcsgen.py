"""The mask MFCS-gen against the tuple reference, and the narrowed masks.

The bitmask kernel applies a batch of infrequent pairs to each element in
one step (the maximal cliques of its allowed-pair graph) and splits on a
larger set with one probe of the shared core.  The tuple path applies
the paper's splits one infrequent itemset at a time; both must leave the
same MFCS, element for element.  After pass 1 of a bottom-up mine that
found no maximal itemset, the miner narrows its kernel to the frequent
items; these tests pin where it does and where it must not.
"""

import random
from itertools import combinations

import pytest

from repro.algorithms.brute_force import brute_force_mfs
from repro.algorithms.partitioned import PartitionedPincerMiner
from repro.algorithms.topdown import TopDown
from repro.core.kernel import BitmaskKernel, TupleKernel
from repro.core.mfcs import maximal_cliques
from repro.core.pincer import PincerSearch
from repro.db.transaction_db import TransactionDatabase


def random_itemset(rng, universe, size):
    return tuple(sorted(rng.sample(universe, min(size, len(universe)))))


def update_both(universe, seeds, batch, protected=(), **caps):
    """(completed, sorted elements) of one update under each kernel."""
    outcomes = []
    for kernel in (TupleKernel(), BitmaskKernel(universe)):
        mfcs = kernel.make_mfcs_from(seeds)
        cover = kernel.make_cover(protected)
        completed = mfcs.update(batch, protected=cover, **caps)
        outcomes.append((completed, sorted(mfcs)))
    return outcomes


class TestMaskUpdateEqualsTuplePath:
    @pytest.mark.parametrize("with_protected", [False, True])
    def test_random_mixed_batches(self, with_protected):
        rng = random.Random(24 + with_protected)
        for trial in range(300):
            universe = list(range(1, rng.randint(4, 14) + 1))
            seeds = [
                random_itemset(rng, universe, rng.randint(1, len(universe)))
                for _ in range(rng.randint(1, 5))
            ]
            protected = [
                random_itemset(rng, universe, rng.randint(1, len(universe)))
                for _ in range(rng.randint(1, 3) if with_protected else 0)
            ]
            batch = [
                random_itemset(rng, universe, rng.randint(1, 5))
                for _ in range(rng.randint(1, 25))
            ]
            tuple_path, mask_path = update_both(
                universe, seeds, batch, protected
            )
            assert mask_path == tuple_path, (seeds, protected, batch)

    def test_pass_k_second_update_mixes_pairs_and_larger_sets(self):
        # the infrequent MFCS elements of a pass: pairs beside long sets,
        # against an MFCS that earlier passes already split
        universe = list(range(1, 13))
        rng = random.Random(7)
        for trial in range(100):
            seeds = [random_itemset(rng, universe, 9) for _ in range(6)]
            first = [random_itemset(rng, universe, 3) for _ in range(8)]
            second = [random_itemset(rng, universe, 2) for _ in range(5)]
            second += [random_itemset(rng, universe, 6) for _ in range(5)]
            rng.shuffle(second)
            protected = [random_itemset(rng, universe, 5)]
            states = []
            for kernel in (TupleKernel(), BitmaskKernel(universe)):
                mfcs = kernel.make_mfcs_from(seeds)
                cover = kernel.make_cover(protected)
                assert mfcs.update(first, protected=cover)
                assert mfcs.update(second, protected=cover)
                states.append(sorted(mfcs))
            assert states[0] == states[1]

    def test_pair_batch_splits_each_element_once(self):
        kernel = BitmaskKernel(range(1, 11))
        mfcs = kernel.make_mfcs([*range(1, 11)])
        assert mfcs.update([(i, i + 1) for i in range(1, 10)])
        # one element split, however many pairs it held
        assert mfcs.splits == 1
        assert mfcs.exclusions == 9

    def test_pairs_naming_outside_items_split_nothing(self):
        kernel = BitmaskKernel(range(1, 6))
        mfcs = kernel.make_mfcs(range(1, 6))
        assert mfcs.update([(1, 99), (98, 99)])
        assert sorted(mfcs) == [(1, 2, 3, 4, 5)]


def brute_force_cliques(vertices, edges):
    cliques = [
        set(subset)
        for size in range(1, len(vertices) + 1)
        for subset in combinations(vertices, size)
        if all(frozenset(pair) in edges for pair in combinations(subset, 2))
    ]
    return {
        frozenset(clique)
        for clique in cliques
        if not any(clique < other for other in cliques)
    }


class TestMaximalCliques:
    def test_matches_exhaustive_search(self):
        rng = random.Random(12)
        for trial in range(200):
            n = rng.randint(1, 12)
            density = rng.random()
            edges = {
                frozenset(pair)
                for pair in combinations(range(n), 2)
                if rng.random() < density
            }
            allowed = {
                p: sum(1 << q for q in range(n) if frozenset((p, q)) in edges)
                for p in range(n)
            }
            found = maximal_cliques((1 << n) - 1, allowed)
            decoded = {
                frozenset(p for p in range(n) if mask >> p & 1)
                for mask in found
            }
            assert len(decoded) == len(found)  # each clique once
            assert decoded == brute_force_cliques(range(n), edges)

    def test_pair_batch_gives_the_maximal_pair_free_subsets(self):
        rng = random.Random(13)
        for trial in range(100):
            element = tuple(range(1, rng.randint(2, 12) + 1))
            pairs = [
                pair for pair in combinations(element, 2)
                if rng.random() < 0.3
            ]
            free = [
                set(subset)
                for size in range(1, len(element) + 1)
                for subset in combinations(element, size)
                if not any(set(pair) <= set(subset) for pair in pairs)
            ]
            expected = sorted(
                tuple(sorted(subset)) for subset in free
                if not any(subset < other for other in free)
            )
            mfcs = BitmaskKernel(element).make_mfcs(element)
            assert mfcs.update(pairs)
            assert sorted(mfcs) == expected

    def test_work_cap_counts_the_enumeration(self):
        element = tuple(range(1, 11))
        pairs = list(combinations(element, 2))  # ten one-item cliques
        entry = 2 * len(element)
        mfcs = BitmaskKernel(element).make_mfcs(element)
        # the entry charge fits; the walk's first node (ten candidates)
        # runs the cap out
        assert not mfcs.update(pairs, work_cap=entry + 5)
        mfcs = BitmaskKernel(element).make_mfcs(element)
        assert mfcs.update(pairs, work_cap=entry + 10)
        assert sorted(mfcs) == [(item,) for item in element]


class WidthLoggingKernel(BitmaskKernel):
    """A bitmask kernel that logs the universe width of every cover it
    builds; narrowed copies share the log."""

    def __init__(self, universe):
        super().__init__(universe)
        self.widths = []

    def make_cover(self, members=()):
        self.widths.append(len(self.universe))
        return super().make_cover(members)


def basket_db(seed, rows=60, items=12, noise=4):
    """A database with a few heavy items and ``noise`` rare ones."""
    rng = random.Random(seed)
    data = []
    for _ in range(rows):
        row = {item for item in range(1, items + 1) if rng.random() < 0.5}
        if rng.random() < 0.1:
            row.add(items + rng.randint(1, noise))
        data.append(sorted(row))
    return TransactionDatabase(data, universe=range(1, items + noise + 1))


def frequent_items(db, min_count):
    return {
        item for item in db.universe
        if sum(1 for row in db if item in row) >= min_count
    }


class TestNarrowedKernel:
    def test_subclass_keeps_building_covers_after_pass_one(self):
        db = basket_db(1)
        kernel = WidthLoggingKernel(db.universe)
        result = PincerSearch(kernel=kernel, adaptive=False).mine(
            db, min_count=12
        )
        assert set(result.mfs) == brute_force_mfs(db, min_count=12)
        live = len(frequent_items(db, 12))
        assert live < len(db.universe)
        assert kernel.widths[0] == len(db.universe)
        assert live in kernel.widths  # the MFCS and MFS, re-encoded
        # the caller's kernel is left as it was
        assert len(kernel.universe) == len(db.universe)

    def test_restricted_keeps_class_and_state(self):
        kernel = WidthLoggingKernel(range(1, 9))
        narrowed = kernel.restricted([2, 3, 5])
        assert type(narrowed) is WidthLoggingKernel
        assert narrowed.widths is kernel.widths
        assert narrowed.universe.items == (2, 3, 5)
        assert kernel.restricted(range(1, 9)) is kernel
        assert TupleKernel().restricted([1]).name == "tuple"

    def test_seed_naming_infrequent_items(self):
        db = basket_db(2)
        truth = brute_force_mfs(db, min_count=12)
        rare = sorted(set(db.universe) - frequent_items(db, 12))
        assert rare
        seed = [tuple(db.universe), tuple(sorted(rare[:2] + [1, 2]))]
        kernel = WidthLoggingKernel(db.universe)
        result = PincerSearch(kernel=kernel).mine(
            db, min_count=12, initial_mfcs=seed
        )
        assert set(result.mfs) == truth
        assert min(kernel.widths) < len(db.universe)

    def test_warm_mine_with_maximal_itemsets_in_pass_one_keeps_its_masks(self):
        db = basket_db(3)
        lower = PincerSearch().mine(db, min_count=10)
        kernel = WidthLoggingKernel(db.universe)
        result = PincerSearch(kernel=kernel).mine(
            db, min_count=10, initial_mfcs=sorted(lower.mfs)
        )
        assert result.stats.passes[0].maximal_found > 0
        assert set(result.mfs) == set(lower.mfs)
        assert set(kernel.widths) == {len(db.universe)}

    def test_top_down_never_narrows(self):
        db = basket_db(4)
        kernel = WidthLoggingKernel(db.universe)
        result = PincerSearch(kernel=kernel).mine(
            db, min_count=12, bottom_up=False
        )
        assert set(result.mfs) == brute_force_mfs(db, min_count=12)
        assert set(kernel.widths) == {len(db.universe)}

    @pytest.mark.parametrize("adaptive", [True, False])
    def test_per_pass_deltas_stay_non_negative(self, monkeypatch, adaptive):
        seen = []
        finish = PincerSearch._finish_pass_obs

        def record(obs, span, pass_stats, *deltas, **kwargs):
            seen.append(deltas)
            return finish(obs, span, pass_stats, *deltas, **kwargs)

        monkeypatch.setattr(
            PincerSearch, "_finish_pass_obs", staticmethod(record)
        )
        db = basket_db(5)
        kernel = WidthLoggingKernel(db.universe)
        PincerSearch(kernel=kernel, adaptive=adaptive).mine(db, min_count=12)
        assert min(kernel.widths) < len(db.universe)
        assert len(seen) > 1
        for splits, exclusions, queries, visits in seen:
            assert min(splits, exclusions, queries, visits) >= 0


class TestMinersEqualBruteForce:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_databases(self, seed):
        rng = random.Random(seed)
        db = basket_db(seed + 10, rows=rng.randint(30, 80))
        miners = [
            PincerSearch(),
            PincerSearch(adaptive=False),
            TopDown(),
            PartitionedPincerMiner(num_partitions=3, engine="bitmap"),
        ]
        for min_count in (3, 8, 15, 25):
            truth = brute_force_mfs(db, min_count=min_count)
            for miner in miners:
                result = miner.mine(db, min_count=min_count)
                assert set(result.mfs) == truth, (miner, min_count)
