"""Unit tests for lattice utilities (repro.core.lattice)."""

from repro.core import lattice


class TestAntichain:
    def test_antichain_true(self):
        assert lattice.is_antichain([(1, 2), (2, 3), (1, 3)])

    def test_antichain_false_on_subset(self):
        assert not lattice.is_antichain([(1,), (1, 2)])

    def test_antichain_of_empty_family(self):
        assert lattice.is_antichain([])

    def test_antichain_ignores_duplicates(self):
        assert lattice.is_antichain([(1, 2), (1, 2)])


class TestMaximalMinimal:
    def test_maximal_elements(self):
        family = [(1,), (1, 2), (3,), (1, 2), (2,)]
        assert lattice.maximal_elements(family) == {(1, 2), (3,)}

    def test_maximal_of_antichain_is_identity(self):
        family = {(1, 2), (3, 4)}
        assert lattice.maximal_elements(family) == family

    def test_maximal_of_empty(self):
        assert lattice.maximal_elements([]) == set()

    def test_maximal_with_long_chains(self):
        chain = [tuple(range(length)) for length in range(1, 9)]
        assert lattice.maximal_elements(chain) == {tuple(range(8))}

    def test_minimal_elements(self):
        family = [(1,), (1, 2), (3,), (2, 3)]
        assert lattice.minimal_elements(family) == {(1,), (3,)}

    def test_minimal_of_empty(self):
        assert lattice.minimal_elements([]) == set()


class TestClosure:
    def test_downward_closure(self):
        assert lattice.downward_closure([(1, 2)]) == {(1,), (2,), (1, 2)}

    def test_downward_closure_merges_members(self):
        closure = lattice.downward_closure([(1, 2), (2, 3)])
        assert closure == {(1,), (2,), (3,), (1, 2), (2, 3)}

    def test_downward_closure_size_of_single_member(self):
        closure = lattice.downward_closure([tuple(range(5))])
        assert len(closure) == 2 ** 5 - 1
