"""Differential tests: bitmask lattice kernel vs the tuple reference.

The two kernels must agree operation by operation on any input drawn
from the run's universe, whatever form the MFS takes — the bitmask
kernel is a pure performance substitution.  These tests drive them side
by side on randomized lattice states and on the edge cases the miners
are known to produce; ``TestOutsideItems`` pins the bitmask kernel's
contract for items outside its universe.
"""

import inspect
import random
import time
from itertools import combinations

import pytest

from repro._types import CountingDeadline
from repro.algorithms.apriori import Apriori, apriori
from repro.algorithms.partitioned import PartitionedPincerMiner
from repro.algorithms.topdown import TopDown
from repro.bench.experiments import ExperimentSpec, build_database
from repro.cli import build_parser
from repro.core.cover import CoverIndex, MaskCover
from repro.core.kernel import (
    DEFAULT_KERNEL,
    KERNEL_NAMES,
    BitmaskKernel,
    TupleKernel,
    make_kernel,
    resolve_kernel_name,
)
from repro.core.lattice import maximal_elements
from repro.core.mfcs import MFCS
from repro.core.pincer import PincerSearch, pincer_search
from repro.core.predicate import PredicatePincer
from repro.core.session import MiningSession
from repro.db.transaction_db import TransactionDatabase

UNIVERSE = list(range(1, 16))


def both_kernels():
    return TupleKernel(), BitmaskKernel(UNIVERSE)


def mfs_forms(kernel, mfs):
    """The MFS as the kernel's own cover, a plain list and a CoverIndex."""
    return kernel.make_cover(mfs), list(mfs), CoverIndex(mfs)


def random_level(rng, k, count):
    """A random set of canonical k-itemsets over the universe."""
    level = set()
    for _ in range(count):
        level.add(tuple(sorted(rng.sample(UNIVERSE, k))))
    return level


def miner_state(rng, universe, k):
    """``(L_k, MFS)`` shaped like a mine's: a frequent family closed
    downwards from a few random itemsets over a hot subset of
    ``universe``, an MFS of some of the maximal ones, and ``L_k`` the
    family's ``k``-subsets less those an MFS member covers (the miner
    drops them from the level), so recovery has candidates to restore
    and the prune meets covered subsets."""
    hot = rng.sample(universe, rng.randint(k + 4, 3 * k + 6))
    maximal = sorted(maximal_elements(
        tuple(sorted(rng.sample(hot, rng.randint(k - 1, k + 4))))
        for _ in range(rng.randint(4, 8))
    ))
    mfs = rng.sample(maximal, rng.randint(1, max(1, len(maximal) - 1)))
    cover = CoverIndex(mfs)
    level = {
        subset
        for member in maximal
        for subset in combinations(member, k)
        if not cover.covers(subset)
    }
    return level, mfs


class TestSelection:
    def test_make_kernel_names(self):
        for name in KERNEL_NAMES:
            assert make_kernel(name, UNIVERSE).name == name

    def test_default_is_bitmask(self):
        assert DEFAULT_KERNEL == "bitmask"
        assert resolve_kernel_name(None) in KERNEL_NAMES

    def test_only_pincer_search_and_session_take_a_kernel(self):
        db = TransactionDatabase([[1, 2, 3], [1, 2], [2, 3], [1, 2, 3]])
        reference = PincerSearch(kernel="tuple").mine(db, 0.5)
        assert reference.mfs == PincerSearch().mine(db, 0.5).mfs
        with MiningSession(db, engine="bitmap", kernel="tuple") as session:
            assert session.mine(0.5).mfs == reference.mfs
        for miner in (
            Apriori, apriori, TopDown, PredicatePincer,
            PartitionedPincerMiner, pincer_search,
        ):
            assert "kernel" not in inspect.signature(miner).parameters
        for command in ("mine", "rules"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    [command, "db.dat", "--min-support", "1",
                     "--kernel", "tuple"]
                )

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_kernel("nope", UNIVERSE)

    def test_kernel_instances_pass_through(self):
        kernel = BitmaskKernel(UNIVERSE)
        assert make_kernel(kernel, UNIVERSE) is kernel


class TestEndToEnd:
    @pytest.mark.parametrize("support", [1.5, 1.0])
    def test_tuple_and_default_kernel_mine_a_quest_cell_alike(self, support):
        # the lattice bench's T10.I4 cell at the 400 rows CI replays
        db = build_database(
            ExperimentSpec("bench-pass", "T10.I4.D100K", 2000, (), ""),
            num_transactions=400,
        )
        reference = PincerSearch(kernel="tuple").mine(db, support / 100.0)
        result = PincerSearch().mine(db, support / 100.0)
        assert reference.mfs
        assert result.mfs == reference.mfs
        assert result.supports == reference.supports


class TestDifferentialCandidateGeneration:
    def test_join_randomized(self):
        rng = random.Random(11)
        tuple_kernel, bitmask_kernel = both_kernels()
        for k in (1, 2, 3, 4):
            for _ in range(10):
                level = random_level(rng, k, rng.randint(0, 25))
                assert tuple_kernel.apriori_join(level) == (
                    bitmask_kernel.apriori_join(level)
                ), level

    def test_join_rejects_mixed_lengths(self):
        _, bitmask_kernel = both_kernels()
        with pytest.raises(ValueError):
            bitmask_kernel.apriori_join([(1,), (1, 2)])

    def test_prune_randomized(self):
        rng = random.Random(12)
        tuple_kernel, bitmask_kernel = both_kernels()
        for k in (2, 3, 4):
            for _ in range(10):
                level = random_level(rng, k, 20)
                candidates = random_level(rng, k + 1, 15)
                assert tuple_kernel.apriori_prune(candidates, level) == (
                    bitmask_kernel.apriori_prune(candidates, level)
                )

    def test_recovery_randomized(self):
        rng = random.Random(13)
        tuple_kernel, bitmask_kernel = both_kernels()
        for k in (2, 3):
            for _ in range(10):
                level = sorted(random_level(rng, k, 12))
                mfs = sorted(random_level(rng, k + 2, 4))
                expected = tuple_kernel.recovery(
                    level, tuple_kernel.make_cover(mfs), k
                )
                for family in mfs_forms(bitmask_kernel, mfs):
                    assert bitmask_kernel.recovery(level, family, k) == (
                        expected
                    )

    def test_pincer_prune_randomized(self):
        rng = random.Random(14)
        tuple_kernel, bitmask_kernel = both_kernels()
        for k in (2, 3):
            for _ in range(10):
                level = random_level(rng, k, 15)
                candidates = random_level(rng, k + 1, 12)
                mfs = random_level(rng, k + 2, 3)
                expected = tuple_kernel.pincer_prune(
                    candidates, level, tuple_kernel.make_cover(mfs)
                )
                for family in mfs_forms(bitmask_kernel, mfs):
                    assert bitmask_kernel.pincer_prune(
                        candidates, level, family
                    ) == expected

    def test_generate_candidates_randomized(self):
        rng = random.Random(15)
        tuple_kernel, bitmask_kernel = both_kernels()
        for k in (1, 2, 3):
            for _ in range(10):
                level = random_level(rng, k, 12)
                mfs = random_level(rng, k + 2, 3)
                expected = tuple_kernel.generate_candidates(
                    level, tuple_kernel.make_cover(mfs), k
                )
                for family in mfs_forms(bitmask_kernel, mfs):
                    assert bitmask_kernel.generate_candidates(
                        level, family, k
                    ) == expected


class TestMinerShapedStates:
    """Generation on wide universes, from states shaped like a mine's:
    every adapter and ``generate_candidates`` against the tuple kernel,
    on the kernel the miner builds and on its pass-1 narrowing."""

    @pytest.mark.parametrize("cutoff", [MaskCover._PROBE_CUTOFF, 1])
    def test_generation_matches_the_tuple_kernel(self, monkeypatch, cutoff):
        # probes are at most k + 1 items, so a cutoff of 1 is what sends
        # them past it into the direct witness checks
        monkeypatch.setattr(MaskCover, "_PROBE_CUTOFF", cutoff)
        rng = random.Random(41)
        tuple_kernel = TupleKernel()
        recovered_any = covered_any = False
        for trial in range(24):
            universe = list(range(1, rng.randint(70, 200)))
            k = 2 + trial % 4
            level, mfs = miner_state(rng, universe, k)
            wide = BitmaskKernel(universe)
            used = {item for member in level for item in member}
            used.update(item for member in mfs for item in member)
            narrowed = wide.restricted(used | set(rng.sample(universe, 5)))
            assert len(narrowed.universe) < len(wide.universe)
            joined = tuple_kernel.apriori_join(level)
            recovered = tuple_kernel.recovery(
                level, tuple_kernel.make_cover(mfs), k
            )
            expected = tuple_kernel.generate_candidates(
                level, tuple_kernel.make_cover(mfs), k
            )
            recovered_any |= bool(recovered - joined)
            covered_any |= expected != tuple_kernel.apriori_prune(
                joined | recovered, level
            )
            for kernel in (wide, narrowed):
                assert kernel.apriori_join(level) == joined
                assert kernel.apriori_prune(joined, level) == (
                    tuple_kernel.apriori_prune(joined, level)
                )
                for family in mfs_forms(kernel, mfs):
                    assert kernel.recovery(level, family, k) == recovered
                    assert kernel.pincer_prune(
                        joined | recovered, level, family
                    ) == expected
                    assert kernel.generate_candidates(
                        level, family, k
                    ) == expected, (k, level, mfs)
        assert recovered_any and covered_any

    def test_join_honours_its_deadline(self):
        kernel = BitmaskKernel(range(600))
        level = [(item,) for item in range(500)]
        with pytest.raises(CountingDeadline):
            kernel.apriori_join(level, deadline=time.perf_counter() - 1.0)
        assert len(kernel.apriori_join(
            level[:3], deadline=time.perf_counter() + 60.0
        )) == 3

    def test_only_survivors_are_decoded(self):
        rng = random.Random(42)
        universe = list(range(1, 150))
        pruned = 0
        for trial in range(12):
            k = 2 + trial % 4
            level, mfs = miner_state(rng, universe, k)
            kernel = BitmaskKernel(universe)
            cover = kernel.make_cover(mfs)
            # the miner's level was interned when it was generated
            kernel.universe.masks_of(level)
            cache = kernel.universe._tuple_cache
            before = len(cache)
            found = kernel.generate_candidates(level, cover, k)
            assert len(cache) - before <= len(found)
            built = kernel.apriori_join(level) | kernel.recovery(
                level, cover, k
            )
            pruned += len(built) - len(found)
        assert pruned > 0


class TestOutsideItems:
    """Everything behind the bitmask kernel is a mask of its universe."""

    def test_foreign_frequent_itemset_raises(self):
        _, bitmask_kernel = both_kernels()
        level = {(1, 2), (1, 99), (2, 99)}  # 99 is outside the universe
        with pytest.raises(KeyError):
            bitmask_kernel.apriori_prune({(1, 2, 3)}, level)
        with pytest.raises(KeyError):
            bitmask_kernel.pincer_prune(
                {(1, 2, 3)}, level, bitmask_kernel.make_cover()
            )
        # an MFS member is a frequent itemset too
        with pytest.raises(KeyError):
            bitmask_kernel.pincer_prune({(1, 2, 3)}, {(1, 2)}, [(1, 99)])

    def test_foreign_candidate_is_dropped(self):
        # (1, 99) is a subset of the candidate (1, 2, 99) that is neither
        # frequent nor covered, so the tuple reference drops it as well
        tuple_kernel, bitmask_kernel = both_kernels()
        level = {(1, 2), (1, 3), (2, 3)}
        candidates = {(1, 2, 3), (1, 2, 99)}
        mfs = [(4, 5, 6)]
        assert bitmask_kernel.apriori_prune(candidates, level) == {(1, 2, 3)}
        for kernel in (tuple_kernel, bitmask_kernel):
            assert kernel.pincer_prune(
                candidates, level, kernel.make_cover(mfs)
            ) == {(1, 2, 3)}


class TestEdgeCases:
    def test_empty_mfs(self):
        tuple_kernel, bitmask_kernel = both_kernels()
        level = {(1, 2), (1, 3), (2, 3)}
        for kernel in (tuple_kernel, bitmask_kernel):
            result = kernel.generate_candidates(level, kernel.make_cover(), 2)
            assert result == {(1, 2, 3)}

    def test_pair_shortcut_matches_reference(self):
        # k == 1 with empty MFS takes the bitmask kernel's join-only
        # shortcut; the output must still equal the reference's full path
        tuple_kernel, bitmask_kernel = both_kernels()
        level = {(item,) for item in (1, 2, 3, 4)}
        assert tuple_kernel.generate_candidates(
            level, tuple_kernel.make_cover(), 1
        ) == bitmask_kernel.generate_candidates(
            level, bitmask_kernel.make_cover(), 1
        )

    def test_mfs_elements_shorter_than_k_plus_one(self):
        # pincer_prune drops candidates covered by the MFS; an MFS element
        # *shorter* than the candidates must never match
        tuple_kernel, bitmask_kernel = both_kernels()
        level = {(1, 2), (1, 3), (2, 3)}
        mfs = [(1,), (2, 3)]
        assert tuple_kernel.pincer_prune(
            {(1, 2, 3)}, level, tuple_kernel.make_cover(mfs)
        ) == bitmask_kernel.pincer_prune(
            {(1, 2, 3)}, level, bitmask_kernel.make_cover(mfs)
        )

    def test_empty_level(self):
        for kernel in both_kernels():
            assert kernel.apriori_join([]) == set()
            assert kernel.generate_candidates([], kernel.make_cover(), 3) == (
                set()
            )


class TestMaskNativeMFCS:
    def run_updates(self, kernel, infrequents, protected=None, **caps):
        mfcs = kernel.make_mfcs(UNIVERSE)
        cover = kernel.make_cover(protected or ())
        completed = mfcs.update(infrequents, protected=cover, **caps)
        return completed, sorted(mfcs)

    def test_mask_native_flag(self):
        _, bitmask_kernel = both_kernels()
        mfcs = bitmask_kernel.make_mfcs(UNIVERSE)
        assert mfcs._mask_native
        assert isinstance(mfcs._index, MaskCover)

    def test_paper_worked_example(self):
        for kernel in both_kernels():
            mfcs = MFCS([(1, 2, 3, 4, 5, 6)], kernel=kernel)
            mfcs.exclude((1, 6))
            mfcs.exclude((3, 6))
            assert sorted(mfcs) == [(1, 2, 3, 4, 5), (2, 4, 5, 6)]

    def test_multi_level_descent_randomized(self):
        # repeated updates with pairs, triples, and singletons — the
        # MFCS-gen recursion across passes — must agree exactly
        rng = random.Random(21)
        for trial in range(15):
            tuple_kernel, bitmask_kernel = both_kernels()
            batches = []
            for k in (2, 3, 1):
                batches.append(
                    sorted(random_level(rng, k, rng.randint(1, 8)))
                )
            states = []
            for kernel in (tuple_kernel, bitmask_kernel):
                mfcs = kernel.make_mfcs(UNIVERSE)
                for batch in batches:
                    assert mfcs.update(batch)
                states.append(sorted(mfcs))
            assert states[0] == states[1], batches

    def test_protected_mfs_respected(self):
        # amendment A4: replacements covered by the MFS are dropped,
        # identically under both kernels and whatever form the MFS takes
        rng = random.Random(22)
        for trial in range(10):
            protected = sorted(random_level(rng, 4, 3))
            infrequents = sorted(random_level(rng, 2, 6))
            tuple_kernel, bitmask_kernel = both_kernels()
            completed, expected = self.run_updates(
                tuple_kernel, infrequents, protected=protected
            )
            assert completed
            for family in mfs_forms(bitmask_kernel, protected):
                mfcs = bitmask_kernel.make_mfcs(UNIVERSE)
                assert mfcs.update(infrequents, protected=family)
                assert sorted(mfcs) == expected

    def test_work_cap_abandons_identically(self):
        infrequents = [tuple(pair) for pair in combinations(range(1, 9), 2)]
        for kernel in both_kernels():
            completed, _ = self.run_updates(
                kernel, infrequents, work_cap=10
            )
            assert not completed

    def test_size_cap_abandons(self):
        infrequents = [(1, 2), (3, 4), (5, 6)]
        for kernel in both_kernels():
            completed, _ = self.run_updates(kernel, infrequents, size_cap=2)
            assert not completed

    def test_singleton_batches(self):
        for kernel in both_kernels():
            mfcs = kernel.make_mfcs(UNIVERSE)
            assert mfcs.update([(3,), (7,)])
            (element,) = sorted(mfcs)
            assert 3 not in element and 7 not in element


class TestSubLinearity:
    def test_cover_visits_stay_sublinear(self):
        """Regression guard on the MaskCover early-exit/verify machinery.

        A full inverted-index scan would examine one item bitmap per
        probe item (|probe| visits per query, ~|universe| in the worst
        case).  The observability counters must show the average probe
        stopping far earlier.
        """
        rng = random.Random(31)
        universe = list(range(1, 41))
        kernel = BitmaskKernel(universe)
        mfcs = kernel.make_mfcs(universe)
        batch = {
            tuple(sorted(rng.sample(universe, 2))) for _ in range(12)
        }
        assert mfcs.update(sorted(batch))
        queries = mfcs.cover_queries
        visits = mfcs.cover_node_visits
        assert queries > 0
        # elements here are ~38 items wide; sub-linearity means the mean
        # visit count per query stays a small constant, not O(width)
        assert visits / queries <= MaskCover._PROBE_CUTOFF + 8

    def test_counters_exposed_via_mfcs(self):
        kernel = BitmaskKernel(UNIVERSE)
        mfcs = kernel.make_mfcs(UNIVERSE)
        baseline = mfcs.cover_queries  # construction itself may probe
        assert mfcs.update([(1, 2)])
        assert mfcs.cover_queries > baseline
        assert mfcs.cover_node_visits > 0
