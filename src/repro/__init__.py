"""pincer-repro: a reproduction of Pincer-Search (Lin & Kedem, EDBT 1998).

Discovering the maximum frequent set (MFS) — the set of all *maximal*
frequent itemsets — by combining the bottom-up Apriori search with a
restricted top-down search over the maximum frequent candidate set (MFCS).

Quick start::

    from repro import TransactionDatabase, pincer_search

    db = TransactionDatabase([[1, 2, 3], [1, 2], [2, 3], [1, 2, 3]])
    result = pincer_search(db, min_support=0.5)
    result.sorted_mfs()   # -> [(1, 2, 3)]

The public surface:

* :func:`pincer_search` / :class:`PincerSearch` — the paper's algorithm
  (adaptive by default, ``adaptive=False`` for the pure variant);
* :func:`apriori` / :class:`Apriori` — the baseline it is evaluated
  against, on the same substrate;
* :class:`TransactionDatabase` plus :mod:`repro.db.io` loaders;
* :class:`QuestConfig` / :func:`generate` — the IBM Quest synthetic
  benchmark generator;
* :func:`rules_from_mfs` / :func:`generate_rules` — association-rule
  generation (stage 2), including the paper's MFS-first strategy;
* :mod:`repro.bench` — the harness regenerating the paper's Figures 3-4;
* :mod:`repro.obs` — span tracing, metrics, and run logging
  (:func:`capture` builds the ``obs`` handle every miner accepts).
"""

from .algorithms.apriori import Apriori, apriori
from .algorithms.brute_force import brute_force, brute_force_frequents, brute_force_mfs
from .algorithms.partition import PartitionMiner, partition_mine
from .algorithms.randomized import RandomizedMFS, randomized_mfs
from .algorithms.sampling import SamplingMiner, sampling_mine
from .algorithms.topdown import TopDown, top_down
from .core.adaptive import AdaptivePolicy, AlwaysMaintain
from .core.itemset import Itemset, itemset
from .core.mfcs import MFCS
from .core.pincer import PincerSearch, pincer_search
from .core.predicate import PredicatePincer, maximal_satisfying_sets
from .core.result import MiningResult, MiningTimeout
from .core.stats import MiningStats, PassStats
from .datagen.configs import parse_name
from .datagen.quest import QuestConfig, QuestGenerator, generate
from .db.counting import available_engines, get_counter
from .db.disk import DiskTransactionDatabase
from .db.io import load, save
from .db.transaction_db import TransactionDatabase
from .obs import Instrumentation, capture, configure_logging, get_logger
from .rules.from_mfs import rules_from_mfs
from .rules.generation import AssociationRule, generate_rules, interesting_rules

__version__ = "1.0.0"

__all__ = [
    "AdaptivePolicy",
    "AlwaysMaintain",
    "Apriori",
    "AssociationRule",
    "DiskTransactionDatabase",
    "Instrumentation",
    "Itemset",
    "MFCS",
    "MiningResult",
    "MiningStats",
    "MiningTimeout",
    "PartitionMiner",
    "PassStats",
    "PincerSearch",
    "PredicatePincer",
    "QuestConfig",
    "QuestGenerator",
    "RandomizedMFS",
    "SamplingMiner",
    "TopDown",
    "TransactionDatabase",
    "__version__",
    "apriori",
    "available_engines",
    "brute_force",
    "brute_force_frequents",
    "brute_force_mfs",
    "capture",
    "configure_logging",
    "generate",
    "generate_rules",
    "get_counter",
    "get_logger",
    "interesting_rules",
    "itemset",
    "load",
    "maximal_satisfying_sets",
    "parse_name",
    "partition_mine",
    "pincer_search",
    "randomized_mfs",
    "rules_from_mfs",
    "sampling_mine",
    "save",
    "top_down",
]
