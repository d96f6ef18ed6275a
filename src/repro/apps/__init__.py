"""The application the CLI serves: minimal keys of relations."""

from .keys import (
    Relation,
    candidate_key_report,
    maximal_non_keys,
    minimal_keys,
)

__all__ = [
    "Relation",
    "candidate_key_report",
    "maximal_non_keys",
    "minimal_keys",
]
