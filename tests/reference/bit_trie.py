"""Reference binary radix trie for longest-prefix-match lookups.

This is the simulator's original forwarding-table structure, a plain
uncompressed binary trie that walks one bit per level.  Production code
uses the per-length hash tables of :mod:`repro.net.trie`; this copy is
kept only as the oracle those tables are checked against
(``tests/reference/test_bit_trie.py``).  Its key is the prefix's bits,
most significant first (:func:`key_bits`).
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.net.address import Address, Prefix
from repro.net.errors import AddressError

V = TypeVar("V")

_SENTINEL = object()


def key_bits(pfx: Prefix) -> Iterator[int]:
    """The prefix's bits, most significant first (trie key)."""
    bits = pfx.address.BITS
    for i in range(pfx.plen):
        yield (pfx.address.value >> (bits - 1 - i)) & 1


class _Node(Generic[V]):
    __slots__ = ("children", "prefix", "value")

    def __init__(self) -> None:
        self.children: List[Optional["_Node[V]"]] = [None, None]
        self.prefix: Optional[Prefix] = None
        self.value: object = _SENTINEL


class BitTrie(Generic[V]):
    """A longest-prefix-match table over one address family.

    Parameters
    ----------
    bits:
        Width of the address family (32 for IPv4, 64 for IPvN).  All
        prefixes inserted must belong to a family of this width.
    """

    def __init__(self, bits: int) -> None:
        self._bits = bits
        self._root: _Node[V] = _Node()
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

    def insert(self, pfx: Prefix, value: V) -> None:
        """Install *value* under *pfx*, replacing any previous value."""
        self._check_family(pfx)
        node = self._root
        for bit in key_bits(pfx):
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
        if node.value is _SENTINEL:
            self._size += 1
        node.prefix = pfx
        node.value = value

    def remove(self, pfx: Prefix) -> V:
        """Remove and return the value under *pfx*.

        Raises ``KeyError`` if the exact prefix is not installed.  Empty
        branches are pruned so repeated insert/remove cycles do not leak.
        """
        self._check_family(pfx)
        path: List[Tuple[_Node[V], int]] = []
        node = self._root
        for bit in key_bits(pfx):
            child = node.children[bit]
            if child is None:
                raise KeyError(pfx)
            path.append((node, bit))
            node = child
        if node.value is _SENTINEL:
            raise KeyError(pfx)
        value = node.value
        node.value = _SENTINEL
        node.prefix = None
        self._size -= 1
        # Prune now-empty leaf chain.
        for parent, bit in reversed(path):
            child = parent.children[bit]
            assert child is not None  # repro: allow[D5] - prune-path invariant
            if child.value is _SENTINEL and child.children[0] is None and child.children[1] is None:
                parent.children[bit] = None
            else:
                break
        return value  # type: ignore[return-value]

    def get(self, pfx: Prefix, default: Optional[V] = None) -> Optional[V]:
        """Exact-match lookup of an installed prefix."""
        self._check_family(pfx)
        node = self._root
        for bit in key_bits(pfx):
            child = node.children[bit]
            if child is None:
                return default
            node = child
        if node.value is _SENTINEL:
            return default
        return node.value  # type: ignore[return-value]

    def __contains__(self, pfx: Prefix) -> bool:
        return self.get(pfx, _SENTINEL) is not _SENTINEL  # type: ignore[arg-type]

    def lookup(self, address: Address) -> Optional[Tuple[Prefix, V]]:
        """Longest-prefix match for *address*; ``None`` if nothing matches."""
        if address.BITS != self._bits:
            raise AddressError(
                f"address {address} belongs to a {address.BITS}-bit family; trie is {self._bits}-bit")
        best: Optional[Tuple[Prefix, V]] = None
        node = self._root
        if node.value is not _SENTINEL:
            assert node.prefix is not None  # repro: allow[D5] - value implies prefix
            best = (node.prefix, node.value)  # type: ignore[assignment]
        value = address.value
        for i in range(self._bits):
            bit = (value >> (self._bits - 1 - i)) & 1
            child = node.children[bit]
            if child is None:
                break
            node = child
            if node.value is not _SENTINEL:
                assert node.prefix is not None  # repro: allow[D5] - value implies prefix
                best = (node.prefix, node.value)  # type: ignore[assignment]
        return best

    def all_matches(self, address: Address) -> List[Tuple[Prefix, V]]:
        """All installed prefixes covering *address*, shortest first."""
        if address.BITS != self._bits:
            raise AddressError(
                f"address {address} belongs to a {address.BITS}-bit family; trie is {self._bits}-bit")
        matches: List[Tuple[Prefix, V]] = []
        node = self._root
        if node.value is not _SENTINEL:
            assert node.prefix is not None  # repro: allow[D5] - value implies prefix
            matches.append((node.prefix, node.value))  # type: ignore[arg-type]
        value = address.value
        for i in range(self._bits):
            bit = (value >> (self._bits - 1 - i)) & 1
            child = node.children[bit]
            if child is None:
                break
            node = child
            if node.value is not _SENTINEL:
                assert node.prefix is not None  # repro: allow[D5] - value implies prefix
                matches.append((node.prefix, node.value))  # type: ignore[arg-type]
        return matches

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """Iterate installed (prefix, value) pairs in key order."""
        stack: List[_Node[V]] = [self._root]
        while stack:
            node = stack.pop()
            if node.value is not _SENTINEL:
                assert node.prefix is not None  # repro: allow[D5] - value implies prefix
                yield node.prefix, node.value  # type: ignore[misc]
            # Push right then left so left (0-bit) branches pop first.
            if node.children[1] is not None:
                stack.append(node.children[1])
            if node.children[0] is not None:
                stack.append(node.children[0])

    def prefixes(self) -> List[Prefix]:
        """All installed prefixes."""
        return [pfx for pfx, _ in self.items()]

    def to_dict(self) -> Dict[Prefix, V]:
        """Snapshot as a plain dict (for tests and debugging)."""
        return dict(self.items())

    def clear(self) -> None:
        """Remove every entry."""
        self._root = _Node()
        self._size = 0
