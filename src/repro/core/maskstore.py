"""Compressed storage for families of interned itemset masks.

A ``mask -> payload`` dict over interned itemset masks costs ~100
bytes per entry of hash-table machinery, even for members that are a
few set bits apart.  :class:`CompressedMaskStore` replaces that dict
where the family is large and long-lived — the old generation of
:class:`~repro.core.supportcache.SupportCache` — implementing the
subset of the mapping protocol those callers use (``in`` / ``[] =`` /
``get`` / ``pop`` / ``len`` / iteration).  Members
are held *sorted by mask* in blocks of :data:`BLOCK` entries; each block
stores its first mask verbatim and every later mask as a LEB128 varint
of the delta to its predecessor.  Sorted neighbours share their high
bits — lattice families are exactly wildcard-clustered this way (the
ALLSAT view: a family of maximal sets is many low-bit variations under
few high-bit prefixes) — and shared high bits *cancel in the delta*, so
a member typically costs a few bytes instead of a hundred.  Slot
payloads ride in a parallel per-block list.

Lookups bisect the block heads, then decode one block sequentially
(:data:`BLOCK` varint adds — cheap, cache-resident).  Mutations re-encode
one block, splitting when it doubles; MFCS-gen's discard-element /
add-replacements churn therefore costs O(BLOCK) bytes of re-encoding per
update, never a rehash of the whole family.

Iteration order is ascending mask order, not insertion order —
membership semantics don't depend on order, but callers
comparing ``members`` lists positionally should sort first.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterator, List

__all__ = ["BLOCK", "CompressedMaskStore"]

#: Target entries per block.  Small enough that a sequential decode stays
#: in cache, large enough that the per-block Python object overhead
#: amortises to ~1 byte per member.
BLOCK = 128

_MISSING = object()


def _encode(masks: List[int]) -> bytes:
    """Sorted masks -> LEB128 varint delta bytes.

    ``masks[0]`` is the block head, stored verbatim by the caller; this
    encodes each later mask as the varint of its delta to the previous
    one, which is where neighbouring masks' shared prefix bits cancel.
    """
    out = bytearray()
    previous = masks[0]
    for mask in masks[1:]:
        delta = mask - previous
        previous = mask
        while True:
            byte = delta & 0x7F
            delta >>= 7
            if delta:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
    return bytes(out)


def _decode(head: int, data: bytes, count: int) -> List[int]:
    """Inverse of :func:`_encode`: block head + delta bytes -> masks."""
    masks = [head]
    value = 0
    shift = 0
    for byte in data:
        value |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            head += value
            masks.append(head)
            value = 0
            shift = 0
    assert len(masks) == count, "corrupt block"
    return masks


class _Block:
    __slots__ = ("head", "data", "slots")

    def __init__(self, masks: List[int], slots: List[int]) -> None:
        self.head = masks[0]
        self.data = _encode(masks)
        self.slots = slots  # parallel to the decoded masks

    def masks(self) -> List[int]:
        return _decode(self.head, self.data, len(self.slots))


class CompressedMaskStore:
    """Sorted-mask delta-compressed ``mask -> slot`` mapping."""

    def __init__(self) -> None:
        self._blocks: List[_Block] = []
        self._heads: List[int] = []  # parallel: block -> first mask
        self._count = 0

    @classmethod
    def from_dict(cls, mapping: Dict[int, int]) -> "CompressedMaskStore":
        """Bulk-build from a mask -> slot dict in one encode sweep.

        O(n log n) for the sort plus one varint encode per entry —
        unlike repeated ``[] =``, which re-encodes a whole block per
        insert.  The support cache compresses a hot write-buffer
        generation this way on rotation.
        """
        store = cls()
        ordered = sorted(mapping)
        for start in range(0, len(ordered), BLOCK):
            masks = ordered[start:start + BLOCK]
            store._blocks.append(
                _Block(masks, [mapping[mask] for mask in masks])
            )
            store._heads.append(masks[0])
        store._count = len(ordered)
        return store

    # ------------------------------------------------------------------
    # mapping protocol (the dict subset callers use)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __iter__(self) -> Iterator[int]:
        for block in self._blocks:
            yield from block.masks()

    def __contains__(self, mask: int) -> bool:
        return self.get(mask) is not None

    def get(self, mask: int, default=None):
        position = bisect_right(self._heads, mask) - 1
        if position < 0:
            return default
        block = self._blocks[position]
        masks = block.masks()
        index = bisect_right(masks, mask) - 1
        if index >= 0 and masks[index] == mask:
            return block.slots[index]
        return default

    def __getitem__(self, mask: int) -> int:
        slot = self.get(mask, _MISSING)
        if slot is _MISSING:
            raise KeyError(mask)
        return slot

    def __setitem__(self, mask: int, slot: int) -> None:
        if not self._blocks:
            self._blocks.append(_Block([mask], [slot]))
            self._heads.append(mask)
            self._count = 1
            return
        position = max(0, bisect_right(self._heads, mask) - 1)
        block = self._blocks[position]
        masks = block.masks()
        index = bisect_right(masks, mask)
        if index > 0 and masks[index - 1] == mask:
            block.slots[index - 1] = slot  # overwrite in place
            return
        masks.insert(index, mask)
        slots = block.slots
        slots.insert(index, slot)
        self._count += 1
        if len(masks) > 2 * BLOCK:
            middle = len(masks) // 2
            self._blocks[position] = _Block(masks[:middle], slots[:middle])
            self._heads[position] = masks[0]
            self._blocks.insert(
                position + 1, _Block(masks[middle:], slots[middle:])
            )
            self._heads.insert(position + 1, masks[middle])
        else:
            block.head = masks[0]
            block.data = _encode(masks)
            self._heads[position] = masks[0]

    def pop(self, mask: int, default=_MISSING):
        position = bisect_right(self._heads, mask) - 1
        if position >= 0:
            block = self._blocks[position]
            masks = block.masks()
            index = bisect_right(masks, mask) - 1
            if index >= 0 and masks[index] == mask:
                slot = block.slots.pop(index)
                masks.pop(index)
                self._count -= 1
                if masks:
                    block.head = masks[0]
                    block.data = _encode(masks)
                    self._heads[position] = masks[0]
                else:
                    del self._blocks[position]
                    del self._heads[position]
                return slot
        if default is _MISSING:
            raise KeyError(mask)
        return default

    # ------------------------------------------------------------------

    def encoded_bytes(self) -> int:
        """Bytes spent on mask storage (heads + delta payloads)."""
        total = 0
        for block in self._blocks:
            total += len(block.data) + (block.head.bit_length() + 7) // 8
        return total

    def stats(self) -> Dict[str, int]:
        """Compression evidence: members, blocks, and encoded mask bytes."""
        return {
            "members": self._count,
            "blocks": len(self._blocks),
            "encoded_bytes": self.encoded_bytes(),
        }
