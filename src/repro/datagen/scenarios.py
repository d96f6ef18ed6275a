"""Zipf-skewed retail baskets: the sparse benchmark dataset.

The Quest generator (:mod:`repro.datagen.quest`) produces the paper's
benchmark family.  :func:`zipf_baskets` produces the sparse regime it
does not: a handful of staple items and a long tail of rarities.  The
ledger's zipf-sparse workload and the counting-engine density sweep
(:mod:`repro.bench.engines`) mine it.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import List

from ..db.transaction_db import TransactionDatabase


def zipf_baskets(
    num_transactions: int = 50000,
    num_items: int = 2000,
    skew: float = 1.5,
    avg_basket_size: int = 10,
    seed: int = 17,
) -> TransactionDatabase:
    """Retail-like baskets with Zipf(``skew``) item popularity.

    Real basket data pairs a handful of staple items with a long tail of
    rarities; under ``skew >= 1.5`` the tail items' vertical bitmaps are
    almost entirely zero words — the regime the roaring engine's array
    containers and absent-chunk skipping are built for, and the sparse
    cell of the density-sweep benchmark.  Basket sizes are geometric
    around ``avg_basket_size``; everything is deterministic in ``seed``.
    """
    rng = random.Random(seed)
    weights = [1.0 / (rank ** skew) for rank in range(1, num_items + 1)]
    cumulative: List[float] = []
    total = 0.0
    for weight in weights:
        total += weight
        cumulative.append(total)
    stop_prob = 1.0 / max(1, avg_basket_size)
    baskets: List[List[int]] = []
    for _ in range(num_transactions):
        basket = set()
        while True:
            point = rng.random() * total
            basket.add(bisect_left(cumulative, point))
            if rng.random() < stop_prob:
                break
        baskets.append(sorted(basket))
    return TransactionDatabase(baskets, universe=range(num_items))
