"""Experiment runner behind the Figure 3 / Figure 4 benchmarks.

One *cell* of the paper's evaluation is (database, minimum support); for
each cell the figures report three panels: execution time, number of
candidates (excluding passes 1–2; including MFCS candidates for
Pincer-Search), and number of passes, for both algorithms.  The harness
runs a cell with any set of miners on the shared substrate and renders
rows shaped like those panels, plus the relative-time column the paper's
prose quotes ("Pincer-Search runs 1.7 times faster ...").

Cells where Apriori is hopeless — the paper's several-orders-of-magnitude
Figure 4 points — are handled with a per-miner time budget: the miner
raises :class:`~repro.core.result.MiningTimeout` and the row reports a
*lower bound* on its time (rendered as ``>N s``), so the relative-time
ratio is itself a lower bound, exactly like the paper's "more than 2
orders of magnitude" phrasing.
"""

from __future__ import annotations

import inspect
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..algorithms.apriori import Apriori
from ..core.pincer import PincerSearch
from ..core.result import MiningResult, MiningTimeout
from ..db.counting import engine_decision, get_counter
from ..db.transaction_db import TransactionDatabase
from ..db.vertical import IndexCounter
from ..obs.instrument import NOOP, Instrumentation
from ..obs.logsetup import get_logger

logger = get_logger("bench.harness")

#: Default per-miner wall-clock budget (seconds) for one cell; override
#: with the REPRO_BENCH_BUDGET environment variable.  Raising it tightens
#: the DNF rows' lower-bound ratios toward the paper's ">2 orders of
#: magnitude" (Apriori genuinely needs hours on the Figure 4c cells).
DEFAULT_TIME_BUDGET = 45.0


def bench_budget() -> float:
    """Per-cell time budget (env ``REPRO_BENCH_BUDGET``, seconds)."""
    raw = os.environ.get("REPRO_BENCH_BUDGET", "")
    if not raw:
        return DEFAULT_TIME_BUDGET
    value = float(raw)
    if value <= 0:
        raise ValueError("REPRO_BENCH_BUDGET must be positive")
    return value


@dataclass(frozen=True)
class CellResult:
    """Measurements of one miner on one (database, support) cell.

    ``dnf`` marks a run that hit its time budget; its ``seconds`` is then
    a lower bound and the itemset counts are partial.
    """

    database: str
    min_support_percent: float
    algorithm: str
    seconds: float
    passes: int
    candidates: int  # paper convention: counted itemsets after pass 2
    total_candidates: int
    mfs_size: int
    longest_maximal: int
    maximal_found_in_mfcs: int
    dnf: bool = False

    @classmethod
    def from_result(
        cls,
        database: str,
        min_support_percent: float,
        result: MiningResult,
        seconds: float,
    ) -> "CellResult":
        longest = result.longest_maximal()
        return cls(
            database=database,
            min_support_percent=min_support_percent,
            algorithm=result.algorithm,
            seconds=seconds,
            passes=result.stats.num_passes,
            candidates=result.stats.candidates_after_pass2,
            total_candidates=result.stats.total_candidates,
            mfs_size=len(result.mfs),
            longest_maximal=len(longest) if longest else 0,
            maximal_found_in_mfcs=result.stats.total_maximal_found_in_mfcs,
        )

    @classmethod
    def from_timeout(
        cls,
        database: str,
        min_support_percent: float,
        timeout: MiningTimeout,
    ) -> "CellResult":
        return cls(
            database=database,
            min_support_percent=min_support_percent,
            algorithm=timeout.algorithm,
            seconds=timeout.seconds,
            passes=timeout.stats.num_passes,
            candidates=timeout.stats.candidates_after_pass2,
            total_candidates=timeout.stats.total_candidates,
            mfs_size=0,
            longest_maximal=0,
            maximal_found_in_mfcs=0,
            dnf=True,
        )


MinerFactory = Callable[[], object]

#: The two miners of the paper's evaluation, as factories: each cell
#: mines with a fresh miner.
PAPER_MINERS: Dict[str, MinerFactory] = {
    "pincer-search": lambda: PincerSearch(adaptive=True),
    "apriori": lambda: Apriori(),
}


def run_cell(
    db: TransactionDatabase,
    database_name: str,
    min_support_percent: float,
    miners: Optional[Dict[str, MinerFactory]] = None,
    time_budget: Optional[float] = None,
    obs: Optional[Instrumentation] = None,
) -> List[CellResult]:
    """Run every miner on one cell and return their measurements.

    The finishing miners' MFS outputs are cross-checked — a disagreement
    aborts the benchmark, because timing numbers for inconsistent answers
    are meaningless.  ``time_budget`` applies to miners whose ``mine``
    accepts it (Apriori); Pincer-Search is expected to finish.  ``obs``
    wraps each miner run in a ``cell`` span (miners whose ``mine`` takes
    the keyword also trace their own passes underneath it).
    """
    miners = miners if miners is not None else PAPER_MINERS
    obs = obs if obs is not None else NOOP
    results: List[CellResult] = []
    reference_mfs = None
    for name, factory in miners.items():
        miner = factory()
        kwargs = {}
        if time_budget is not None and _accepts_time_budget(miner):
            kwargs["time_budget"] = time_budget
        if obs.enabled and _accepts_obs(miner):
            kwargs["obs"] = obs
        started = time.perf_counter()
        with obs.span(
            "cell",
            database=database_name,
            min_support_percent=min_support_percent,
            miner=name,
        ):
            try:
                result = miner.mine(db, min_support_percent / 100.0, **kwargs)
            except MiningTimeout as timeout:
                logger.info(
                    "%s DNF on %s at %g%% after %.1fs",
                    name, database_name, min_support_percent, timeout.seconds,
                )
                results.append(
                    CellResult.from_timeout(
                        database_name, min_support_percent, timeout
                    )
                )
                continue
        elapsed = time.perf_counter() - started
        if reference_mfs is None:
            reference_mfs = result.mfs
        elif result.mfs != reference_mfs:
            raise AssertionError(
                "%s disagrees with %s on %s at %g%%"
                % (name, next(iter(miners)), database_name, min_support_percent)
            )
        logger.debug(
            "%s on %s at %g%%: %.3fs, %d passes",
            name, database_name, min_support_percent, elapsed,
            result.stats.num_passes,
        )
        results.append(
            CellResult.from_result(
                database_name, min_support_percent, result, elapsed
            )
        )
    return results


def _accepts_time_budget(miner: object) -> bool:
    return isinstance(miner, Apriori)


def _accepts_obs(miner: object) -> bool:
    """Whether ``miner.mine`` takes the ``obs`` keyword.

    Checked by signature rather than by type so the harness keeps working
    with the plain-callable miner factories tests inject.
    """
    try:
        return "obs" in inspect.signature(miner.mine).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False


def run_sweep(
    db: TransactionDatabase,
    database_name: str,
    supports_percent: Sequence[float],
    miners: Optional[Dict[str, MinerFactory]] = None,
    time_budget: Optional[float] = None,
    obs: Optional[Instrumentation] = None,
) -> List[CellResult]:
    """Run a whole support sweep (one figure panel row group).

    The database's ``auto`` decision and its engine's counting index are
    made first, untimed (:func:`_prepare_database`): both are kept on the
    database, so otherwise the first miner of the first cell would pay
    for them alone.
    """
    obs = obs if obs is not None else NOOP
    _prepare_database(db)
    rows: List[CellResult] = []
    with obs.span("sweep", database=database_name, cells=len(supports_percent)):
        for support in supports_percent:
            rows.extend(
                run_cell(db, database_name, support, miners, time_budget, obs)
            )
    return rows


def _prepare_database(db: TransactionDatabase) -> None:
    """Make what every ``auto`` mine of ``db`` reads and ``db`` keeps:
    the ``auto`` decision's density and the decided engine's counting
    index."""
    counter = get_counter(engine_decision(db, "auto").engine)
    if isinstance(counter, IndexCounter):
        counter.index_for(db)


def relative_time(rows: Iterable[CellResult]) -> Dict[float, float]:
    """time(Apriori) / time(Pincer-Search) per support level.

    This is the headline number of the paper's prose; > 1 means
    Pincer-Search wins.  For DNF Apriori rows the ratio is a lower bound.
    """
    by_support: Dict[float, Dict[str, CellResult]] = {}
    for row in rows:
        by_support.setdefault(row.min_support_percent, {})[row.algorithm] = row
    ratios: Dict[float, float] = {}
    for support, cells in sorted(by_support.items()):
        apriori_row = cells.get("apriori")
        pincer_row = cells.get("pincer-search") or cells.get("pincer-search-pure")
        if apriori_row and pincer_row and pincer_row.seconds > 0:
            ratios[support] = apriori_row.seconds / pincer_row.seconds
    return ratios


def format_rows(rows: Sequence[CellResult], title: str = "") -> str:
    """Render cells as the three-panel table the figures report."""
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "%-14s %8s  %-20s %10s %7s %11s %6s %5s" % (
        "database", "minsup%", "algorithm", "time(s)", "passes",
        "candidates", "|MFS|", "max",
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        time_text = (">%.1f" % row.seconds) if row.dnf else ("%.3f" % row.seconds)
        mfs_text = "DNF" if row.dnf else "%d" % row.mfs_size
        lines.append(
            "%-14s %8g  %-20s %10s %7d %11d %6s %5d"
            % (
                row.database,
                row.min_support_percent,
                row.algorithm,
                time_text,
                row.passes,
                row.candidates,
                mfs_text,
                row.longest_maximal,
            )
        )
    ratios = relative_time(rows)
    if ratios:
        dnf_supports = {
            row.min_support_percent for row in rows if row.dnf
        }
        rendered = ", ".join(
            "%g%% -> %s%.2fx"
            % (support, ">" if support in dnf_supports else "", ratio)
            for support, ratio in sorted(ratios.items())
        )
        lines.append("relative time (apriori/pincer): %s" % rendered)
    return "\n".join(lines)
