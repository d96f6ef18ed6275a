"""The benchmark trajectory: an append-only history of bench runs.

Every ``repro.bench`` CLI can append its JSON record to
``benchmarks/trajectory.jsonl`` (pass ``--trajectory PATH``; CI does),
wrapped in an *entry* that keys the run for later comparison:

* ``git_sha`` — the commit the run measured (``git rev-parse HEAD``,
  overridable via ``REPRO_GIT_SHA`` for detached environments);
* ``key`` — the benchmark cell (benchmark kind + database + support +
  scale), so only like-for-like runs are ever compared;
* ``host`` — cpu count / platform / python, the usual noise suspects;
* ``metrics`` — every *seconds-like* scalar of the record, flattened to
  dotted paths (lists are skipped: per-cell arrays vary in length and
  would make the metric set unstable across runs).

``python -m repro.bench.regress`` (:mod:`repro.bench.regress`) walks this
file and fails the build when the latest entry of a key is slower than
its baseline window — the bench history is enforced, not just archived.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

__all__ = [
    "TRAJECTORY_VERSION",
    "append_entry",
    "default_trajectory_path",
    "extract_seconds_metrics",
    "git_sha",
    "load_trajectory",
    "make_entry",
    "record_run",
]

TRAJECTORY_VERSION = 1

#: default history location (relative to the invoking directory — the
#: bench CLIs are run from the repo root, where ``benchmarks/`` lives)
DEFAULT_TRAJECTORY = os.path.join("benchmarks", "trajectory.jsonl")


def default_trajectory_path() -> str:
    """Resolve the trajectory path (env ``REPRO_BENCH_TRAJECTORY`` wins)."""
    return os.environ.get("REPRO_BENCH_TRAJECTORY", DEFAULT_TRAJECTORY)


def git_sha(cwd: Optional[str] = None) -> str:
    """The HEAD commit, or ``REPRO_GIT_SHA``, or ``"unknown"``."""
    override = os.environ.get("REPRO_GIT_SHA")
    if override:
        return override
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.decode("ascii", "replace").strip() or "unknown"


def extract_seconds_metrics(
    record: Dict[str, Any],
    _prefix: str = "",
    _inherited: bool = False,
) -> Dict[str, float]:
    """Flatten every seconds-like scalar of a bench record.

    A leaf qualifies when its key mentions ``second`` — or any enclosing
    dict's key does (``total_seconds: {tuple: ..., bitmask: ...}``) — and
    its value is a non-negative number.  A ``per_second`` key is a rate,
    not a duration (a higher rate is a faster run), so neither it nor
    anything under it qualifies.  This covers every record kind
    the bench modules emit (``engines.<name>.seconds``,
    ``replay_seconds.<kernel>``, ``mine_seconds_*``, ...) without
    per-kind schemas.  Lists are skipped deliberately: per-cell/per-shard
    arrays change length between configurations, which would churn the
    metric set.
    """
    metrics: Dict[str, float] = {}
    for key, value in record.items():
        path = _prefix + key if not _prefix else "%s.%s" % (_prefix, key)
        seconds_key = "per_second" not in key and (
            _inherited or "second" in key
        )
        if isinstance(value, dict):
            metrics.update(extract_seconds_metrics(value, path, seconds_key))
        elif (
            seconds_key
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
            and value >= 0
        ):
            metrics[path] = float(value)
    return metrics


def _cell_key(record: Dict[str, Any]) -> str:
    """A stable identity for the benchmark cell a record measured."""
    parts = [str(record.get("benchmark", "unknown"))]
    for field in ("database", "num_transactions"):
        if field in record:
            parts.append(str(record[field]))
    if "min_support_percent" in record:
        parts.append("%g%%" % record["min_support_percent"])
    elif "supports_percent" in record:
        parts.append(
            ",".join("%g" % s for s in record["supports_percent"]) + "%"
        )
    return ":".join(parts)


def make_entry(
    record: Dict[str, Any],
    sha: Optional[str] = None,
    timestamp: Optional[float] = None,
) -> Dict[str, Any]:
    """Wrap a bench record in a keyed trajectory entry."""
    metrics = extract_seconds_metrics(record)
    return {
        "v": TRAJECTORY_VERSION,
        "type": "bench_entry",
        "benchmark": record.get("benchmark", "unknown"),
        "key": _cell_key(record),
        "git_sha": sha if sha is not None else git_sha(),
        "ts": timestamp if timestamp is not None else time.time(),
        "host": {
            "cpu_count": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": sys.version.split()[0],
        },
        "metrics": metrics,
        "record": record,
    }


def append_entry(path: str, entry: Dict[str, Any]) -> None:
    """Append one entry line; creates the parent directory if missing."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def load_trajectory(path: str) -> List[Dict[str, Any]]:
    """Read every entry of a trajectory file, in append order."""
    entries: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    "%s line %d is not JSON: %s" % (path, number, exc)
                ) from None
            if not isinstance(entry, dict) or entry.get("type") != "bench_entry":
                raise ValueError(
                    "%s line %d is not a bench_entry" % (path, number)
                )
            entries.append(entry)
    return entries


def record_run(
    record: Dict[str, Any],
    path: Optional[str],
    sha: Optional[str] = None,
) -> Optional[Dict[str, Any]]:
    """Append ``record`` to the trajectory at ``path`` (None: skip).

    The convenience the bench ``main``s call: returns the appended entry,
    or None when recording is off.
    """
    if not path:
        return None
    entry = make_entry(record, sha=sha)
    append_entry(path, entry)
    return entry
