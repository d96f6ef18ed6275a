"""Tests for the time-budget / deadline machinery."""

import time

import pytest

from repro.algorithms.apriori import Apriori
from repro.core.candidates import apriori_join
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
    def test_expired_deadline_aborts_join(self):
        level = [(item,) for item in range(500)]
        with pytest.raises(CountingDeadline):
            apriori_join(level, deadline=time.perf_counter() - 1.0)

    def test_future_deadline_is_harmless(self):
        result = apriori_join(
            [(1, 2), (1, 3)], deadline=time.perf_counter() + 60.0
        )
        assert result == {(1, 2, 3)}


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
