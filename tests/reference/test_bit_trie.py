"""The per-length LPM tables against the reference bit trie.

:class:`repro.net.trie.PrefixTrie` must answer every query exactly as
the original bit-at-a-time trie (:class:`tests.reference.bit_trie.BitTrie`)
does, including the order of ``items()`` (every FIB dump and digest is
built on it) and the errors raised.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.address import IPV4_BITS, VN_BITS, IPv4Address, Prefix, VNAddress, prefix
from repro.net.errors import AddressError
from repro.net.trie import PrefixTrie
from tests.reference.bit_trie import BitTrie, key_bits


def test_key_bits_msb_first():
    bits = list(key_bits(prefix("128.0.0.0/2")))
    assert bits == [1, 0]


def make_address(bits, value, version):
    return IPv4Address(value) if bits == IPV4_BITS else VNAddress(value, version=version)


def outcome(call):
    """A call's result, or the type of the typed error it raised."""
    try:
        return ("ok", call())
    except (KeyError, AddressError) as exc:
        return ("raised", type(exc))


def apply(trie, kind, arg):
    if kind == "insert":
        return outcome(lambda: trie.insert(arg, "v%d" % len(trie)))
    if kind == "remove":
        return outcome(lambda: trie.remove(arg))
    if kind == "get":
        return outcome(lambda: trie.get(arg, "absent"))
    if kind == "in":
        return outcome(lambda: arg in trie)
    if kind == "lookup":
        return outcome(lambda: trie.lookup(arg))
    if kind == "all_matches":
        return outcome(lambda: trie.all_matches(arg))
    if kind == "items":
        return outcome(lambda: list(trie.items()))
    if kind == "len":
        return outcome(lambda: (len(trie), bool(trie)))
    if kind == "clear":
        return outcome(trie.clear)
    raise AssertionError(kind)


KINDS = (["insert"] * 8 + ["remove"] * 3 + ["get", "in"] * 2 + ["lookup"] * 4
         + ["all_matches"] * 2 + ["items", "len", "foreign", "foreign", "clear"])
FOREIGN_KINDS = ["insert", "remove", "get", "in", "lookup", "all_matches"]


@st.composite
def scenarios(draw, bits):
    """A pool of prefixes and an operation sequence over it.

    Pool values cluster around a few bases so prefixes nest and lookups
    hit several lengths; /0 and host routes are drawn often.  Each
    operation is (kind, pool index, noise, flip): lookups probe an
    address inside the chosen pool prefix, ``flip`` swaps a VN
    prefix's version so versions that share a value meet in one slot,
    and ``foreign`` sends a prefix or address of the other family.
    """
    top = (1 << bits) - 1
    base_st = st.sampled_from([0, 1 << (bits - 1), 0x0A << (bits - 8), top])
    near_st = st.tuples(base_st, st.integers(0, top), st.integers(0, bits)).map(
        lambda t: t[0] ^ (t[1] >> t[2]))
    value_st = st.one_of(base_st, near_st, st.integers(0, top))
    plen_st = st.one_of(st.sampled_from([0, 1, 8, bits - 1, bits]), st.integers(0, bits))
    pool = draw(st.lists(st.builds(lambda v, plen, ver: Prefix(make_address(bits, v, ver), plen),
                                   value_st, plen_st, st.sampled_from([8, 9])),
                         min_size=2, max_size=12))
    ops = draw(st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, len(pool) - 1),
                                  st.integers(0, top), st.booleans()),
                        min_size=10, max_size=50))
    return pool, ops


def concrete(bits, pool, op):
    """The (kind, argument) an encoded operation stands for."""
    kind, index, noise, flip = op
    pfx = pool[index]
    if flip and bits == VN_BITS:
        pfx = Prefix(VNAddress(pfx.address.value, version=17 - pfx.address.version), pfx.plen)
    address = make_address(bits, pfx.address.value | (noise & ~pfx.mask() & ((1 << bits) - 1)),
                           getattr(pfx.address, "version", 8))
    if kind == "foreign":
        kind = FOREIGN_KINDS[noise % len(FOREIGN_KINDS)]
        foreign = prefix("10.0.0.0/8") if bits == VN_BITS else Prefix(VNAddress(noise), 64)
        return kind, foreign.address if kind in ("lookup", "all_matches") else foreign
    return kind, address if kind in ("lookup", "all_matches") else pfx


@pytest.mark.parametrize("bits", [IPV4_BITS, VN_BITS])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_matches_bit_trie(bits, data):
    pool, ops = data.draw(scenarios(bits))
    tables, oracle = PrefixTrie(bits), BitTrie(bits)
    for op in ops:
        kind, arg = concrete(bits, pool, op)
        assert apply(tables, kind, arg) == apply(oracle, kind, arg), (kind, arg)
    assert list(tables.items()) == list(oracle.items())
    assert tables.prefixes() == oracle.prefixes()
    assert tables.to_dict() == oracle.to_dict()
    assert sorted(tables.unordered_items(), key=lambda e: (e[0].address.value, e[0].plen)) \
        == list(oracle.items())


@pytest.mark.parametrize("trie_cls", [PrefixTrie, BitTrie])
def test_remove_absent_raises_key_error(trie_cls):
    trie = trie_cls(IPV4_BITS)
    trie.insert(prefix("10.0.0.0/8"), "a")
    with pytest.raises(KeyError):
        trie.remove(prefix("10.0.0.0/16"))
    with pytest.raises(KeyError):
        trie.remove(prefix("11.0.0.0/8"))


@pytest.mark.parametrize("trie_cls", [PrefixTrie, BitTrie])
def test_family_mismatch_raises_address_error(trie_cls):
    v4, vn = trie_cls(IPV4_BITS), trie_cls(VN_BITS)
    vn_pfx = Prefix(VNAddress(1), 64)
    for call in (lambda: v4.insert(vn_pfx, 1), lambda: v4.remove(vn_pfx),
                 lambda: v4.get(vn_pfx), lambda: vn_pfx in v4,
                 lambda: v4.lookup(VNAddress(1)), lambda: v4.all_matches(VNAddress(1)),
                 lambda: vn.insert(prefix("10.0.0.0/8"), 1),
                 lambda: vn.lookup(IPv4Address(1))):
        with pytest.raises(AddressError):
            call()


@pytest.mark.parametrize("trie_cls", [PrefixTrie, BitTrie])
def test_vn_versions_share_a_slot(trie_cls):
    trie = trie_cls(VN_BITS)
    v8, v9 = Prefix(VNAddress(8 << 32, version=8), 32), Prefix(VNAddress(8 << 32, version=9), 32)
    trie.insert(v8, "eight")
    trie.insert(v9, "nine")
    assert len(trie) == 1
    assert trie.get(v8) == "nine"
    assert list(trie.items()) == [(v9, "nine")]
    assert trie.lookup(VNAddress((8 << 32) | 7, version=8)) == (v9, "nine")
    assert trie.remove(v8) == "nine"
    assert v9 not in trie
