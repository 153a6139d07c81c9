"""Per-length hash tables for longest-prefix-match lookups.

This is the forwarding-table data structure used by every router in the
simulator, for both the IPv4 family (32-bit keys) and the IPvN family
(64-bit keys).  It keeps one ``dict`` per installed prefix length, keyed
by the prefix's masked network value — the classic per-length hash
layout of Waldvogel et al. ("Scalable High Speed IP Routing Lookups",
SIGCOMM'97), probed linearly rather than by binary search because a
simulated FIB holds only a handful of distinct lengths.  A lookup masks
the address once per installed length, longest first, and stops at the
first hit; inserts and removes are single dict operations.

The table maps :class:`~repro.net.address.Prefix` keys to arbitrary
values and answers:

* exact lookups (:meth:`PrefixTrie.get`),
* longest-prefix matches for an address (:meth:`PrefixTrie.lookup`),
* all matches, shortest first (:meth:`PrefixTrie.all_matches`),
* iteration over installed (prefix, value) pairs in ``(network value,
  plen)`` order — the pre-order of a binary trie over the same keys, so
  every dump and digest built on :meth:`PrefixTrie.items` is stable.

Keys are the prefix's value and length only: an IPvN version tag does
not take part, so two VN prefixes that differ only in version share one
slot (a simulation runs one vN-Bone per version).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.net.address import Address, Prefix
from repro.net.errors import AddressError

V = TypeVar("V")

_Table = Dict[int, Tuple[Prefix, V]]


@lru_cache(maxsize=None)
def _masks(bits: int) -> Tuple[int, ...]:
    """Network masks for every prefix length 0..*bits* of a family."""
    return tuple(((1 << plen) - 1) << (bits - plen) for plen in range(bits + 1))


class PrefixTrie(Generic[V]):
    """A longest-prefix-match table over one address family.

    Parameters
    ----------
    bits:
        Width of the address family (32 for IPv4, 64 for IPvN).  All
        prefixes inserted must belong to a family of this width.
    """

    def __init__(self, bits: int) -> None:
        self._bits = bits
        self._masks = _masks(bits)
        self._tables: Dict[int, _Table[V]] = {}
        #: (mask, table) per installed length, longest first; rebuilt
        #: only when a length appears or empties.
        self._probes: List[Tuple[int, _Table[V]]] = []
        self._size = 0

    @property
    def bits(self) -> int:
        return self._bits

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def _check_family(self, pfx: Prefix) -> None:
        if pfx.bits != self._bits:
            raise AddressError(
                f"prefix {pfx} belongs to a {pfx.bits}-bit family; trie is {self._bits}-bit")

    def _check_address(self, address: Address) -> None:
        if address.BITS != self._bits:
            raise AddressError(
                f"address {address} belongs to a {address.BITS}-bit family; trie is {self._bits}-bit")

    def _reindex(self) -> None:
        self._probes = [(self._masks[plen], self._tables[plen])
                        for plen in sorted(self._tables, reverse=True)]

    def insert(self, pfx: Prefix, value: V) -> None:
        """Install *value* under *pfx*, replacing any previous value."""
        self._check_family(pfx)
        table = self._tables.get(pfx.plen)
        if table is None:
            table = {}
            self._tables[pfx.plen] = table
            self._reindex()
        key = pfx.address.value
        if key not in table:
            self._size += 1
        table[key] = (pfx, value)

    def remove(self, pfx: Prefix) -> V:
        """Remove and return the value under *pfx*.

        Raises ``KeyError`` if the exact prefix is not installed.  A
        length whose table empties is dropped from the probe order.
        """
        self._check_family(pfx)
        table = self._tables.get(pfx.plen)
        if table is None or pfx.address.value not in table:
            raise KeyError(pfx)
        _, value = table.pop(pfx.address.value)
        self._size -= 1
        if not table:
            del self._tables[pfx.plen]
            self._reindex()
        return value

    def get(self, pfx: Prefix, default: Optional[V] = None) -> Optional[V]:
        """Exact-match lookup of an installed prefix."""
        self._check_family(pfx)
        table = self._tables.get(pfx.plen)
        hit = None if table is None else table.get(pfx.address.value)
        return default if hit is None else hit[1]

    def __contains__(self, pfx: Prefix) -> bool:
        self._check_family(pfx)
        table = self._tables.get(pfx.plen)
        return table is not None and pfx.address.value in table

    def lookup(self, address: Address) -> Optional[Tuple[Prefix, V]]:
        """Longest-prefix match for *address*; ``None`` if nothing matches."""
        self._check_address(address)
        value = address.value
        for mask, table in self._probes:
            hit = table.get(value & mask)
            if hit is not None:
                return hit
        return None

    def all_matches(self, address: Address) -> List[Tuple[Prefix, V]]:
        """All installed prefixes covering *address*, shortest first."""
        self._check_address(address)
        value = address.value
        matches = [table.get(value & mask) for mask, table in reversed(self._probes)]
        return [hit for hit in matches if hit is not None]

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """Iterate installed (prefix, value) pairs in key order."""
        order = sorted((key, plen) for plen, table in self._tables.items() for key in table)
        return iter([self._tables[plen][key] for key, plen in order])

    def unordered_items(self) -> List[Tuple[Prefix, V]]:
        """Every installed (prefix, value) pair, in no particular order.

        The list is a snapshot, so the caller may insert or remove while
        walking it.
        """
        return [entry for table in self._tables.values() for entry in table.values()]

    def prefixes(self) -> List[Prefix]:
        """All installed prefixes."""
        return [pfx for pfx, _ in self.items()]

    def to_dict(self) -> Dict[Prefix, V]:
        """Snapshot as a plain dict (for tests and debugging)."""
        return dict(self.items())

    def clear(self) -> None:
        """Remove every entry."""
        self._tables = {}
        self._probes = []
        self._size = 0
