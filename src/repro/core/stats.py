"""Per-pass and per-run mining statistics.

The paper's Figures 3 and 4 report three quantities per (database,
minimum-support) cell: execution time, number of candidates, and number of
passes.  The stats objects here capture exactly those, with the paper's
accounting conventions:

* a *pass* is one read of the database (one call into the counting engine
  with a non-empty batch);
* the *candidate count* of a pass is the number of itemsets whose support
  was counted in it — for Pincer-Search this "includes the candidates in
  MFCS" (Section 4.1.1);
* the headline candidate total "does not include the candidates in the
  first two passes" (Section 4.1.1), exposed as
  :meth:`MiningStats.candidates_after_pass2`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class PassStats:
    """What happened in a single pass of the bottom-up loop."""

    pass_number: int
    #: bottom-up candidates counted this pass (|C_k| minus cache hits)
    bottom_up_candidates: int = 0
    #: MFCS elements counted this pass (0 for Apriori)
    mfcs_candidates: int = 0
    #: itemsets classified frequent among the bottom-up candidates
    frequent_found: int = 0
    #: itemsets classified infrequent among the bottom-up candidates
    infrequent_found: int = 0
    #: maximal frequent itemsets discovered in MFCS this pass
    maximal_found: int = 0
    #: frequent itemsets dropped from L_k as subsets of MFS (Observation 2)
    pruned_as_mfs_subsets: int = 0
    #: |MFCS| after the update at the end of the pass
    mfcs_size_after: int = 0
    #: candidates restored by the recovery procedure into C_{k+1}
    recovered_candidates: int = 0
    #: wall-clock seconds spent in this pass
    seconds: float = 0.0

    @property
    def total_candidates(self) -> int:
        """All itemsets counted this pass (paper's per-pass candidate count)."""
        return self.bottom_up_candidates + self.mfcs_candidates

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready mapping of every field (plus the derived total)."""
        data = asdict(self)
        data["total_candidates"] = self.total_candidates
        return data


@dataclass
class MiningStats:
    """Accumulated statistics of one mining run."""

    algorithm: str = ""
    passes: List[PassStats] = field(default_factory=list)
    seconds: float = 0.0
    records_read: int = 0
    #: resolved counting engine name ("" when unknown / caller-supplied)
    engine: str = ""
    #: why that engine was picked: the measured density evidence from
    #: :func:`repro.db.counting.engine_decision` (rows / items / nnz /
    #: density / reason), JSON-ready
    engine_evidence: Dict[str, Any] = field(default_factory=dict)
    #: RNG seed of the sample draw for sample-based miners (Toivonen
    #: sampling, sample-seeded partitioned mining); None when the run
    #: involved no sampling.  Recording it is what makes sample-seeded
    #: runs reproducible from their stats alone.
    sample_seed: Any = None
    #: why Pincer-Search stopped maintaining the MFCS ("frequent-ratio"
    #: or "mfcs-update-cap", see :mod:`repro.core.adaptive`) and in which
    #: pass; both None when it never did
    abandon_reason: Optional[str] = None
    abandoned_at_pass: Optional[int] = None

    def new_pass(self, pass_number: int) -> PassStats:
        """Open stats for the next pass and return them for filling in."""
        stats = PassStats(pass_number=pass_number)
        self.passes.append(stats)
        return stats

    @property
    def num_passes(self) -> int:
        """Number of database reads (the figures' "passes" panel)."""
        return len(self.passes)

    @property
    def total_candidates(self) -> int:
        """All counted itemsets across all passes."""
        return sum(stats.total_candidates for stats in self.passes)

    @property
    def candidates_after_pass2(self) -> int:
        """Counted itemsets excluding passes 1 and 2 (paper's convention).

        For Pincer-Search the MFCS candidates of passes 1 and 2 are also
        excluded, mirroring "the number of candidates shown in the figures
        does not include the candidates in the first two passes" while the
        later passes "include the candidates in MFCS".
        """
        return sum(
            stats.total_candidates
            for stats in self.passes
            if stats.pass_number > 2
        )

    @property
    def total_maximal_found_in_mfcs(self) -> int:
        """How many MFS members were discovered top-down (0 for Apriori)."""
        return sum(stats.maximal_found for stats in self.passes)

    def summary(self) -> str:
        """One-line human-readable digest used by the CLI."""
        text = "%s: %d passes, %d candidates (%d after pass 2), %.3fs" % (
            self.algorithm or "run",
            self.num_passes,
            self.total_candidates,
            self.candidates_after_pass2,
            self.seconds,
        )
        if self.abandon_reason is None:
            return text
        return "%s; MFCS abandoned at pass %s (%s)" % (
            text, self.abandoned_at_pass, self.abandon_reason,
        )
