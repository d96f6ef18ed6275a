"""Workloads of the layer ledger: their inputs and their reference answers.

Every workload starts from a fixed *base* database: a Quest or Zipf
database drawn once with :data:`BASE_SEED`.  ``--seed`` then renames the
items, keeping their order, and shuffles the rows.  Each seed therefore
asks the same mining question under a different encoding, and the miner
does the same work.  Concentrated Quest data drawn afresh per seed moves
the MFS size five-fold at a fixed threshold (its 50 planted patterns sit
near the thresholds), and a random item permutation changes which
candidates share counting prefixes; either would measure the input
draw rather than the program.

Reference answers come from an independent configuration: the tuple
lattice kernel with the plain ``bitmap`` counting engine, never the
bitmask kernel or the engine ``auto`` picks.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: seed of every base database; ``--seed`` only relabels and reorders
BASE_SEED = 1

#: the seed whose reference digests are committed in ``reference.json``
DEFAULT_SEED = 1

#: serve queries ask for rules at this confidence (percent) and depth
RULES_CONFIDENCE = 80.0
RULES_DEPTH = 2


@dataclass(frozen=True)
class Dataset:
    """One base database of a workload and the thresholds mined on it."""

    name: str
    build: Callable[[], object]
    cells: Tuple[float, ...]  # minimum supports, percent


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "oneshot" (CLI mine per cell) or "serve" (pincer serve)
    datasets: Tuple[Dataset, ...]
    queries: int = 0  # serve: queries per closed-loop round
    clients: int = 0  # serve: closed-loop client threads


def _quest(rows, size, pattern_size, patterns, items):
    def build():
        from repro.datagen.quest import QuestConfig, generate

        config = QuestConfig(
            rows, size, pattern_size, num_patterns=patterns, num_items=items
        )
        return generate(config, seed=BASE_SEED)

    return build


def _zipf(rows):
    def build():
        from repro.datagen.scenarios import zipf_baskets

        return zipf_baskets(rows, 2000, 1.5, seed=BASE_SEED)

    return build


#: 16 serve thresholds: 4.4% to 10.4% in steps of 0.4%.  At 4.0% one
#: query would carry the round: its rules answer holds ~30,000 rules,
#: ten times the next threshold's, and takes ~0.5 s on the wire.
SERVE_THRESHOLDS = tuple(round(4.4 + 0.4 * step, 1) for step in range(16))

#: rows per base database, per scale; ``smoke`` keeps the tests fast
_ROWS = {
    "full": {"fig4": 20_000, "fig3": 10_000, "zipf": 100_000, "serve": 20_000},
    "smoke": {"fig4": 2_000, "fig3": 1_000, "zipf": 5_000, "serve": 2_000},
}
#: serve queries per round: a multiple of 5 x 16 (4 mine : 1 rules per threshold)
_SERVE_QUERIES = {"full": 320, "smoke": 80}


def workloads(scale: str = "full") -> Dict[str, Workload]:
    """The four workloads at ``scale`` ("full" or "smoke"), by name.

    Why each exists, and which layers it stresses, is in ``README.md``.
    """
    rows = _ROWS[scale]
    fig4 = rows["fig4"]
    defined = [
        Workload(
            "fig4-concentrated",
            "oneshot",
            (
                Dataset("T20.I6", _quest(fig4, 20, 6, 50, 1000),
                        (18.0, 15.0, 12.0, 11.0)),
                Dataset("T20.I10", _quest(fig4, 20, 10, 50, 1000),
                        (12.0, 9.0, 6.0)),
                Dataset("T20.I15", _quest(fig4, 20, 15, 50, 1000),
                        (9.0, 8.0, 7.0)),
            ),
        ),
        Workload(
            "fig3-scattered",
            "oneshot",
            (
                Dataset("T10.I4", _quest(rows["fig3"], 10, 4, 2000, 1000),
                        (1.5, 1.0, 0.75, 0.5)),
            ),
        ),
        Workload(
            "zipf-sparse",
            "oneshot",
            (
                Dataset("zipf1.5", _zipf(rows["zipf"]), (1.0, 0.5, 0.3)),
            ),
        ),
        Workload(
            "serve-mixed",
            "serve",
            (
                Dataset("T10.I4.N100", _quest(rows["serve"], 10, 4, 50, 100),
                        SERVE_THRESHOLDS),
            ),
            queries=_SERVE_QUERIES[scale],
            clients=2,
        ),
    ]
    return {workload.name: workload for workload in defined}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def relabelled(db, seed: int):
    """``db`` with items renamed and rows shuffled, both from ``seed``.

    The new names are a seeded sorted sample of ``1000..1000+4N``, so the
    items keep their order.  All of them lie above CPython's cache of
    small ints, so every seed's parsed database holds one int object per
    item occurrence and takes the same memory.
    """
    from repro.db.transaction_db import TransactionDatabase

    rng = random.Random(seed)
    universe = list(db.universe)
    names = sorted(rng.sample(range(1000, 1000 + 4 * len(universe)), len(universe)))
    mapping = dict(zip(universe, names))
    rows = [[mapping[item] for item in sorted(row)] for row in db]
    rng.shuffle(rows)
    return TransactionDatabase(rows)


def prepare_inputs(
    workload: Workload, seed: int, directory: Path
) -> Dict[str, str]:
    """Basket files of every dataset for ``seed``, written once and reused.

    Returns dataset name -> path.  A file is written to a temporary name
    and renamed into place, so an interrupted run leaves no partial input.
    """
    from repro.db import io as db_io

    directory.mkdir(parents=True, exist_ok=True)
    paths: Dict[str, str] = {}
    for dataset in workload.datasets:
        path = directory / (dataset.name + ".dat")
        if not path.exists():
            partial = directory / (".%s.%d.tmp.dat" % (dataset.name, os.getpid()))
            db_io.save(relabelled(dataset.build(), seed), partial)
            os.replace(partial, path)
        paths[dataset.name] = str(path)
    return paths


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# answers and their digests
# ----------------------------------------------------------------------


def cell_key(dataset: str, support: float) -> str:
    return "%s@%g" % (dataset, support)


def mfs_digest(mfs) -> str:
    """sha256 of the sorted maximal frequent set (any itemset iterables)."""
    canonical = sorted(sorted(int(item) for item in member) for member in mfs)
    return _sha(canonical)


def rules_digest(rules: Iterable[Tuple], mfs) -> str:
    """sha256 of the sorted rules the depth horizon determines.

    ``rules`` holds ``(antecedent, consequent, support, confidence)``.
    The rules op also returns rules from any other frequent itemset its
    mine happened to count, and on a resident session that set depends
    on the queries answered before.  Only a rule ``X -> Y`` with
    ``X ∪ Y`` inside an MFS member ``M`` and ``|X| >= |M| - depth`` is
    fixed by the threshold alone: every antecedent its derivation needs
    lies within the depth expansion of ``M``.  The digest covers those.
    """
    from repro.rules.from_mfs import mfs_subsets_to_depth

    nearest: Dict[Tuple[int, ...], int] = {}
    for member in mfs:
        member = tuple(sorted(member))
        for subset in mfs_subsets_to_depth([member], RULES_DEPTH):
            if nearest.get(subset, len(member) + 1) > len(member):
                nearest[subset] = len(member)
    canonical = []
    for antecedent, consequent, support, confidence in rules:
        antecedent = sorted(int(item) for item in antecedent)
        consequent = sorted(int(item) for item in consequent)
        itemset = tuple(sorted(antecedent + consequent))
        if nearest.get(itemset, len(itemset) + RULES_DEPTH + 1) > (
            len(antecedent) + RULES_DEPTH
        ):
            continue
        canonical.append([antecedent, consequent, round(float(support), 12),
                          round(float(confidence), 12)])
    return _sha(sorted(canonical))


def _sha(value) -> str:
    return hashlib.sha256(
        json.dumps(value, separators=(",", ":")).encode("ascii")
    ).hexdigest()


def compute_reference(workload: Workload, inputs: Dict[str, str]) -> Dict[str, str]:
    """Digests of every answer, mined by the tuple kernel + bitmap engine."""
    from repro.core.pincer import PincerSearch
    from repro.db import io as db_io
    from repro.rules.from_mfs import expand_mfs_supports
    from repro.rules.generation import generate_rules

    digests: Dict[str, str] = {}
    for dataset in workload.datasets:
        db = db_io.load(inputs[dataset.name])
        for support in dataset.cells:
            result = PincerSearch(kernel="tuple", engine="bitmap").mine(
                db, support / 100.0
            )
            if workload.kind == "oneshot":
                digests[cell_key(dataset.name, support)] = mfs_digest(result.mfs)
                continue
            digests["mine@%g" % support] = mfs_digest(result.mfs)
            supports = expand_mfs_supports(
                db, result, RULES_DEPTH, engine="bitmap"
            )
            rules = generate_rules(
                supports,
                num_transactions=result.num_transactions,
                min_confidence=RULES_CONFIDENCE / 100.0,
                min_support_count=result.min_support_count,
            )
            digests["rules@%g" % support] = rules_digest(
                ((rule.antecedent, rule.consequent, rule.support,
                  rule.confidence) for rule in rules),
                result.mfs,
            )
    return digests


def serve_plan(workload: Workload, seed: int) -> List[Dict]:
    """One serve round's queries.

    Every threshold gets the same share, 4 ``mine`` to 1 ``rules``, so
    each rules answer has a mine answer at its threshold to be checked
    against.  The round opens with one ``mine`` per threshold from the
    highest down: these first visits are the misses, each starting cold
    but for the supports its predecessors cached.  The rest follow in
    seeded order.  Fixing the first visits fixes how much counting a
    round does, which a seeded first-visit order would change per seed.
    """
    thresholds = sorted(workload.datasets[0].cells, reverse=True)
    per_threshold = workload.queries // (5 * len(thresholds))
    rest: List[Dict] = []
    for support in thresholds:
        rest.extend({"op": "mine", "min_support": support}
                    for _ in range(4 * per_threshold - 1))
        rest.extend({"op": "rules", "min_support": support,
                     "min_confidence": RULES_CONFIDENCE, "depth": RULES_DEPTH}
                    for _ in range(per_threshold))
    random.Random(seed).shuffle(rest)
    return [{"op": "mine", "min_support": support} for support in thresholds] + rest


def reference_for(
    table: Optional[Dict], workload: Workload, scale: str, seed: int,
    inputs: Dict[str, str],
) -> Optional[Dict[str, str]]:
    """The committed digests for this run, if they cover its exact inputs."""
    if not table or table.get("seed") != seed:
        return None
    entry = table.get(scale, {}).get(workload.name)
    if not entry:
        return None
    for name, path in inputs.items():
        if entry["inputs"].get(name) != file_digest(path):
            return None
    return entry["answers"]
