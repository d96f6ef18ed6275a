"""Smoke tests: every example script runs end-to-end and prints sanely.

The long-running knobs are shrunk via monkeypatching so the whole module
stays test-suite-fast; each example's full-size behaviour is exercised by
the benchmarks instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(autouse=True)
def _examples_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(EXAMPLES_DIR))
    yield
    for name in ("quickstart", "market_basket", "stock_market",
                 "episodes", "minimal_keys"):
        sys.modules.pop(name, None)


def load(name):
    return importlib.import_module(name)


class TestQuickstart:
    def test_runs_and_reports_the_mfs(self, capsys):
        load("quickstart").main()
        output = capsys.readouterr().out
        assert "maximum frequent set" in output
        assert "bread" in output
        assert "frequent" in output


class TestMarketBasket:
    def test_runs_with_shrunk_workload(self, capsys, monkeypatch):
        module = load("market_basket")
        from dataclasses import replace

        monkeypatch.setattr(
            module, "CONFIG", replace(module.CONFIG, num_transactions=500)
        )
        module.main()
        output = capsys.readouterr().out
        assert "pincer-search" in output
        assert "apriori" in output
        assert "discovered top-down" in output


class TestStockMarket:
    def test_sectors_are_discovered(self, capsys, monkeypatch):
        module = load("stock_market")
        monkeypatch.setattr(module, "NUM_DAYS", 300)
        module.main()
        output = capsys.readouterr().out
        assert "co-moving groups" in output
        assert "tech" in output


class TestEpisodes:
    def test_planted_funnel_is_mined(self, capsys, monkeypatch):
        module = load("episodes")
        monkeypatch.setattr(
            module, "synthesise_event_stream",
            lambda length=1200, seed=3: module.synthesise_event_stream.__wrapped__(length, seed)
            if hasattr(module.synthesise_event_stream, "__wrapped__")
            else _short_stream(module),
        )
        module.main()
        output = capsys.readouterr().out
        assert "maximal episodes" in output
        assert "login" in output


def _short_stream(module):
    import random

    rng = random.Random(3)
    stream = []
    while len(stream) < 1200:
        template = rng.choice([t for t, _ in module.TEMPLATES])
        stream.extend(template)
    return stream[:1200]


class TestMinimalKeys:
    def test_keys_are_reported(self, capsys):
        module = load("minimal_keys")
        module.main()
        output = capsys.readouterr().out
        assert "3 minimal key" in output
        assert "employee_id" in output
        assert "email" in output
        assert "(badge_no)" in output
