"""Core of the reproduction: itemset algebra, MFCS, and Pincer-Search."""

from .adaptive import AdaptivePolicy, AlwaysMaintain
from .bitset import ItemUniverse, candidate_upper_bound
from .candidates import (
    apriori_join,
    apriori_prune,
    first_level_candidates,
    generate_candidates,
    pincer_prune,
    recovery,
)
from .cover import CoverIndex, MaskCover
from .itemset import EMPTY, Itemset, itemset
from .kernel import BitmaskKernel, LatticeKernel, TupleKernel, make_kernel
from .mfcs import MFCS
from .pincer import PincerSearch, pincer_search, resolve_threshold
from .predicate import PredicatePincer, maximal_satisfying_sets
from .result import MiningResult, MiningTimeout
from .stats import MiningStats, PassStats

__all__ = [
    "EMPTY",
    "AdaptivePolicy",
    "AlwaysMaintain",
    "BitmaskKernel",
    "CoverIndex",
    "ItemUniverse",
    "Itemset",
    "LatticeKernel",
    "MFCS",
    "MaskCover",
    "TupleKernel",
    "MiningResult",
    "MiningStats",
    "MiningTimeout",
    "PassStats",
    "PincerSearch",
    "PredicatePincer",
    "apriori_join",
    "apriori_prune",
    "candidate_upper_bound",
    "first_level_candidates",
    "generate_candidates",
    "itemset",
    "make_kernel",
    "pincer_prune",
    "pincer_search",
    "recovery",
    "resolve_threshold",
]
