"""Transaction-database substrate: storage, I/O, and support counting."""

from .counting import (
    BitmapCounter,
    EngineDecision,
    HashTreeCounter,
    NaiveCounter,
    PackedCounter,
    SupportCounter,
    TrieCounter,
    available_engines,
    engine_decision,
    get_counter,
)
from .disk import DiskTransactionDatabase
from .snapshot import (
    Snapshot,
    SnapshotFormatError,
    default_snapshot_path,
    load_snapshot,
    snapshot_database,
)
from .hash_tree import HashTree
from .io import load, load_basket, load_csv, load_json, save, save_basket, save_csv, save_json
from .roaring import RoaringCounter, RoaringIndex
from .transaction_db import TransactionDatabase
from .trie import CandidateTrie
from .vertical import (
    HAVE_NUMPY,
    IntBitmapIndex,
    PackedBitmapIndex,
    PrefixIntersector,
)

__all__ = [
    "BitmapCounter",
    "CandidateTrie",
    "DiskTransactionDatabase",
    "EngineDecision",
    "HAVE_NUMPY",
    "HashTree",
    "HashTreeCounter",
    "IntBitmapIndex",
    "NaiveCounter",
    "PackedBitmapIndex",
    "PackedCounter",
    "PrefixIntersector",
    "RoaringCounter",
    "RoaringIndex",
    "Snapshot",
    "SnapshotFormatError",
    "SupportCounter",
    "TransactionDatabase",
    "TrieCounter",
    "available_engines",
    "default_snapshot_path",
    "load_snapshot",
    "snapshot_database",
    "engine_decision",
    "get_counter",
    "load",
    "load_basket",
    "load_csv",
    "load_json",
    "save",
    "save_basket",
    "save_csv",
    "save_json",
]
