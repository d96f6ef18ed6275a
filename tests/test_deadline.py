"""Tests for the time-budget / deadline machinery."""

import importlib
import time
from itertools import combinations

import pytest

from repro.algorithms.apriori import Apriori
from repro.core.kernel import BitmaskKernel
from repro.core.result import MiningTimeout
from repro.db.counting import CountingDeadline, available_engines, get_counter
from repro.db.transaction_db import TransactionDatabase


def dense_db(num_items=14, copies=6):
    return TransactionDatabase([list(range(num_items))] * copies)


class TestEngineDeadline:
    @pytest.mark.parametrize("engine", available_engines())
    def test_expired_deadline_aborts_pass(self, engine):
        counter = get_counter(engine)
        try:
            counter.deadline = time.perf_counter() - 1.0
            with pytest.raises(CountingDeadline):
                counter.count(dense_db(), [(0,), (1,)])
        finally:
            close = getattr(counter, "close", None)
            if close is not None:
                close()

    @pytest.mark.parametrize("engine", available_engines())
    def test_future_deadline_lets_counting_finish(self, engine):
        counter = get_counter(engine)
        try:
            counter.deadline = time.perf_counter() + 60.0
            counts = counter.count(dense_db(), [(0,), (0, 1)])
            assert counts == {(0,): 6, (0, 1): 6}
        finally:
            close = getattr(counter, "close", None)
            if close is not None:
                close()

    def test_no_deadline_by_default(self):
        counter = get_counter("bitmap")
        assert counter.deadline is None
        assert counter.count(dense_db(), [(0,)]) == {(0,): 6}


class TestJoinDeadline:
    """The bitmask kernel's join checks the deadline the kernel was built
    with every 256 rows."""

    #: every pair over 30 items: 406 join rows, 4,060 candidates
    LEVEL = list(combinations(range(30), 2))

    def test_expired_deadline_aborts_join(self):
        kernel = BitmaskKernel(range(600), deadline=time.perf_counter() - 1.0)
        with pytest.raises(CountingDeadline):
            kernel.generate_candidates(self.LEVEL, (), 2)

    def test_future_deadline_is_harmless(self):
        kernel = BitmaskKernel(range(600), deadline=time.perf_counter() + 60.0)
        assert kernel.generate_candidates(self.LEVEL, (), 2) == set(
            combinations(range(30), 3)
        )

    def test_apriori_builds_its_kernel_with_its_budget(self, monkeypatch):
        deadlines = []

        class Spy(BitmaskKernel):
            def __init__(self, universe, deadline=None):
                super().__init__(universe, deadline)
                deadlines.append(deadline)

        # the package re-exports the function apriori under the module's
        # name, so the module is fetched by its import path
        module = importlib.import_module("repro.algorithms.apriori")
        monkeypatch.setattr(module, "BitmaskKernel", Spy)
        db = TransactionDatabase([[1, 2, 3]] * 5 + [[4]] * 2)
        started = time.perf_counter()
        Apriori().mine(db, 0.3, time_budget=60.0)
        Apriori().mine(db, 0.3)
        assert deadlines[0] == pytest.approx(started + 60.0, abs=5.0)
        assert deadlines[1] is None


class TestAprioriBudgetEndToEnd:
    def test_zero_budget_times_out_before_any_pass(self):
        with pytest.raises(MiningTimeout) as excinfo:
            Apriori().mine(dense_db(), 0.5, time_budget=0.0)
        assert excinfo.value.stats.num_passes == 0

    def test_mid_run_timeout_reports_partial_passes(self):
        # enough budget for the cheap early passes, not for the blow-up
        db = dense_db(num_items=18, copies=4)
        budget = 0.05
        with pytest.raises(MiningTimeout) as excinfo:
            Apriori().mine(db, 0.5, time_budget=budget)
        timeout = excinfo.value
        assert timeout.stats.num_passes >= 0
        # the deadline machinery bounds the overshoot to small multiples
        assert timeout.seconds < 5.0

    def test_deadline_cleared_after_successful_run(self):
        counter = get_counter("bitmap")
        Apriori().mine(
            TransactionDatabase([[1, 2]] * 4), 0.5,
            counter=counter, time_budget=60.0,
        )
        assert counter.deadline is None

    def test_deadline_cleared_after_timeout(self):
        counter = get_counter("bitmap")
        db = TransactionDatabase([[1, 2, 3]] * 5 + [[4]] * 2)
        with pytest.raises(MiningTimeout):
            Apriori().mine(db, 0.3, counter=counter, time_budget=0.0)
        assert counter.deadline is None
        # the caller's counter keeps working, timed or not
        assert counter.count(db, [(1,)]) == {(1,): 5}
        result = Apriori().mine(db, 0.3, counter=counter)
        assert set(result.mfs) == {(1, 2, 3)}

    def test_budgeted_and_unbudgeted_agree_when_finishing(self):
        db = TransactionDatabase([[1, 2, 3]] * 5 + [[4]] * 2)
        with_budget = Apriori().mine(db, 0.3, time_budget=60.0)
        without = Apriori().mine(db, 0.3)
        assert with_budget.mfs == without.mfs
