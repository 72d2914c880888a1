"""Subgroups as bit vectors over element IDs.

A SubgroupSet stores membership as one Python integer, bit i set iff element
ID i belongs.  Intersection, union, and containment are single bitwise
operations, which keeps the innermost loops of lattice enumeration and the
cover solver cheap.
"""

from __future__ import annotations

import hashlib

import numpy as np


def bits_from_ids(ids: np.ndarray) -> int:
    """Pack an array of element IDs into a membership integer."""
    if ids.size == 0:
        return 0
    arr = np.zeros(int(ids.max()) + 1, dtype=bool)
    arr[ids] = True
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


def ids_from_bits(bits: int) -> np.ndarray:
    """Unpack a membership integer into a sorted array of element IDs."""
    if bits == 0:
        return np.empty(0, dtype=np.int32)
    raw = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    arr = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return np.nonzero(arr)[0].astype(np.int32)


class SubgroupSet:
    """A subgroup of an ambient group, stored as an element-ID bit vector."""

    __slots__ = (
        "table",
        "bits",
        "gen_ids",
        "_order",
        "_ids",
        "_key",
    )

    def __init__(self, table, bits: int, gen_ids: list[int] | None = None):
        self.table = table
        self.bits = bits
        self.gen_ids = gen_ids
        self._order: int | None = None
        self._ids: np.ndarray | None = None
        self._key: bytes | None = None

    @classmethod
    def from_mask(
        cls, table, mask: np.ndarray, gen_ids: list[int] | None = None
    ) -> "SubgroupSet":
        """From a boolean membership array of length table.n, whose packed
        bytes are the key already."""
        return cls.from_key(
            table,
            np.packbits(mask, bitorder="little").tobytes(),
            np.flatnonzero(mask).astype(np.int32),
            gen_ids=gen_ids,
        )

    @classmethod
    def from_key(
        cls,
        table,
        key: bytes,
        ids: np.ndarray | None = None,
        gen_ids: list[int] | None = None,
    ) -> "SubgroupSet":
        """From the packed membership bytes and, when known, the sorted int32
        member IDs."""
        S = cls(table, int.from_bytes(key, "little"), gen_ids=gen_ids)
        S._key = key
        S._ids = ids
        return S

    @property
    def order(self) -> int:
        if self._order is None:
            self._order = self.bits.bit_count()
        return self._order

    @property
    def ids(self) -> np.ndarray:
        if self._ids is None:
            self._ids = ids_from_bits(self.bits)
        return self._ids

    @property
    def key(self) -> bytes:
        """Fixed-width little-endian bytes of the bit vector; the sort key."""
        if self._key is None:
            nbytes = (self.table.n + 7) // 8
            self._key = self.bits.to_bytes(nbytes, "little")
        return self._key

    @property
    def digest(self) -> str:
        """Short stable hex fingerprint for reports and tie-breaking displays."""
        return hashlib.blake2b(self.key, digest_size=8).hexdigest()

    def issubset(self, other: "SubgroupSet") -> bool:
        return self.bits & other.bits == self.bits

    def is_whole_group(self) -> bool:
        return self.order == self.table.n

    def is_trivial_subgroup(self) -> bool:
        return self.order == 1

    def generator_perms(self):
        """Permutations for the recorded generators (empty list if untracked)."""
        if not self.gen_ids:
            return []
        return [self.table.perm(int(i)) for i in self.gen_ids]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubgroupSet)
            and other.table is self.table
            and other.bits == self.bits
        )

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:
        return f"SubgroupSet(order={self.order})"
