"""CompressedMaskStore: mapping contract, fuzz vs a dict mirror, compression.

The store is a drop-in for a ``mask -> payload`` dict (the support
cache's old generation keeps its masks here), so the contract under test
is the mapping subset its callers use — ``in`` / ``[]`` / ``get`` /
``pop`` / ``len`` / iteration — plus the compression evidence
(``encoded_bytes`` / ``stats``) and the block split/merge mechanics
around :data:`BLOCK`.
"""

import random

import pytest

from repro.core.maskstore import BLOCK, CompressedMaskStore

NUM_TRIALS = 6


def test_empty_store():
    store = CompressedMaskStore()
    assert len(store) == 0
    assert not store
    assert list(store) == []
    assert 7 not in store
    assert store.get(7) is None
    assert store.get(7, "fallback") == "fallback"
    with pytest.raises(KeyError):
        store[7]
    with pytest.raises(KeyError):
        store.pop(7)
    assert store.pop(7, None) is None
    assert store.stats() == {"members": 0, "blocks": 0, "encoded_bytes": 0}


def test_single_entry_roundtrip():
    store = CompressedMaskStore()
    store[42] = 3
    assert len(store) == 1
    assert store
    assert 42 in store
    assert store[42] == 3
    store[42] = 9  # overwrite keeps one entry
    assert len(store) == 1
    assert store[42] == 9
    assert store.pop(42) == 9
    assert len(store) == 0
    assert 42 not in store


def test_iteration_is_ascending_mask_order():
    store = CompressedMaskStore()
    masks = [1 << 40, 3, 1 << 200, 17, 5, (1 << 40) | 1]
    for slot, mask in enumerate(masks):
        store[mask] = slot
    assert list(store) == sorted(masks)


def test_block_split_keeps_contract():
    store = CompressedMaskStore()
    mirror = {}
    # enough sequential inserts to force several block splits
    for mask in range(5 * BLOCK):
        store[mask * 3] = mask
        mirror[mask * 3] = mask
    stats = store.stats()
    assert stats["blocks"] >= 2
    assert stats["members"] == len(mirror)
    assert list(store) == sorted(mirror)
    for mask, slot in mirror.items():
        assert store[mask] == slot
    # drain from both ends, alternating, across block boundaries
    ordered = sorted(mirror)
    while ordered:
        mask = ordered.pop(0 if len(ordered) % 2 else -1)
        assert store.pop(mask) == mirror.pop(mask)
        assert len(store) == len(mirror)
    assert store.stats() == {"members": 0, "blocks": 0, "encoded_bytes": 0}


def _random_mask(rng):
    """Masks shaped like interned itemsets: few set bits, wide universe."""
    width = rng.choice([16, 64, 300])
    bits = rng.randint(0, 6)
    mask = 0
    for _ in range(bits):
        mask |= 1 << rng.randrange(width)
    return mask


def test_fuzz_against_dict_mirror():
    rng = random.Random(4099)
    for _ in range(NUM_TRIALS):
        store = CompressedMaskStore()
        mirror = {}
        for _ in range(1200):
            op = rng.random()
            mask = _random_mask(rng)
            if op < 0.55:
                slot = rng.randrange(1 << 20)
                store[mask] = slot
                mirror[mask] = slot
            elif op < 0.75 and mirror:
                victim = rng.choice(list(mirror))
                assert store.pop(victim) == mirror.pop(victim)
            elif op < 0.85:
                assert store.pop(mask, "absent") == mirror.pop(mask, "absent")
            else:
                assert (mask in store) == (mask in mirror)
                assert store.get(mask, -1) == mirror.get(mask, -1)
            assert len(store) == len(mirror)
        assert list(store) == sorted(mirror)
        assert {mask: store[mask] for mask in store} == mirror


def test_clustered_families_compress():
    """Wildcard-clustered masks (the MFCS shape) cost a few bytes each."""
    store = CompressedMaskStore()
    prefix = ((1 << 40) - 1) << 160  # 40 shared high bits
    for variation in range(4 * BLOCK):
        store[prefix | variation] = variation
    members = len(store)
    # a dict entry is ~100 bytes; the delta store should be way under
    # 8 bytes/member on this shape (low-bit variations cancel the prefix)
    assert store.encoded_bytes() < 8 * members
    stats = store.stats()
    assert stats["members"] == members
    assert stats["encoded_bytes"] == store.encoded_bytes()


def test_multibyte_varint_deltas_roundtrip():
    """Deltas spanning many varint bytes (sparse giant masks) decode back."""
    store = CompressedMaskStore()
    masks = [1 << (13 * gap) for gap in range(20)]
    for slot, mask in enumerate(masks):
        store[mask] = slot
    assert list(store) == sorted(masks)
    for slot, mask in enumerate(masks):
        assert store[mask] == slot
