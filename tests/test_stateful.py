"""Model-based stateful tests (hypothesis.stateful) for mutable cores.

Two state machines drive the mutable data structures through arbitrary
operation sequences and compare them against trivially-correct models:

* :class:`CoverIndexMachine` — CoverIndex vs a plain list + linear scans;
* :class:`MfcsMachine` — the MFCS under arbitrary exclude/add sequences
  vs the from-scratch reconstruction (maximal sets not covering any
  excluded itemset), which is what Definition 1 prescribes.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.cover import CoverIndex
from repro.core.itemset import is_subset
from repro.core.lattice import is_antichain
from repro.core.mfcs import MFCS

itemsets = st.builds(
    tuple, st.frozensets(st.integers(1, 7), min_size=1, max_size=4).map(sorted)
)


class CoverIndexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.index = CoverIndex()
        self.model = set()

    @rule(member=itemsets)
    def add(self, member):
        added = self.index.add(member)
        assert added == (member not in self.model)
        self.model.add(member)

    @rule(member=itemsets)
    def discard(self, member):
        removed = self.index.discard(member)
        assert removed == (member in self.model)
        self.model.discard(member)

    @rule(probe=itemsets)
    def query_covers(self, probe):
        expected = any(is_subset(probe, member) for member in self.model)
        assert self.index.covers(probe) == expected

    @rule(probe=itemsets)
    def query_supersets(self, probe):
        expected = sorted(
            member for member in self.model if is_subset(probe, member)
        )
        assert sorted(self.index.supersets_of(probe)) == expected

    @invariant()
    def size_matches(self):
        assert len(self.index) == len(self.model)
        assert sorted(self.index) == sorted(self.model)


class MfcsMachine(RuleBasedStateMachine):
    """Drive MFCS.exclude and compare with the declarative reconstruction.

    Model: after excluding the family ``E`` from universe ``U``, the MFCS
    must equal the maximal subsets of ``U`` containing no member of ``E``.
    Reconstruction enumerates candidates as ``U`` minus one item of each
    possible "conflict cover" — here we recompute bottom-up from the
    definition using the brute-force predicate miner.
    """

    UNIVERSE = tuple(range(1, 7))

    def __init__(self):
        super().__init__()
        self.mfcs = MFCS.for_universe(self.UNIVERSE)
        self.excluded = []

    @rule(infrequent=st.builds(
        tuple,
        st.frozensets(st.integers(1, 6), min_size=1, max_size=3).map(sorted),
    ))
    def exclude(self, infrequent):
        self.mfcs.exclude(infrequent)
        self.excluded.append(infrequent)

    @invariant()
    def matches_declarative_reconstruction(self):
        from repro.core.predicate import brute_force_maximal_satisfying_sets

        expected = brute_force_maximal_satisfying_sets(
            self.UNIVERSE,
            lambda candidate: not any(
                is_subset(bad, candidate) for bad in self.excluded
            ),
        )
        assert self.mfcs.elements == expected

    @invariant()
    def antichain(self):
        assert is_antichain(self.mfcs.elements)


CoverIndexMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
MfcsMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=15, deadline=None
)

TestCoverIndexMachine = CoverIndexMachine.TestCase
TestMfcsMachine = MfcsMachine.TestCase
