"""PathCache behaviour: hits, misses, invalidation, and equivalence.

The cache must be invisible except for speed: every answer it gives has
to be bit-identical to the raw early-exit Dijkstra kept in
:mod:`tests.reference.uncached`, and every topology
mutation — link flips (the fault injector calls ``link.fail()``
directly), node crashes, host moves — must invalidate it.
"""

import pytest

from repro.perf import PathCache

from tests.conftest import build_two_domain_network
from tests.reference.uncached import compute_shortest_path


def all_node_ids(net):
    return sorted(net.nodes)


def test_cached_paths_match_raw_dijkstra():
    net = build_two_domain_network()
    ids = all_node_ids(net)
    for src in ids:
        for dst in ids:
            if src == dst:
                continue
            assert net.shortest_path(src, dst) == \
                compute_shortest_path(net, src, dst)
            assert net.shortest_path(src, dst, intra_domain_only=True) == \
                compute_shortest_path(net, src, dst, intra_domain_only=True)


def test_hit_miss_accounting():
    net = build_two_domain_network()
    stats0 = net.path_cache.stats()
    assert stats0 == {"hits": 0, "misses": 0, "invalidations": 0,
                      "entries": 0}
    net.shortest_path("h1", "h2")
    net.shortest_path("h1", "r2a")  # same source tree
    net.shortest_path("h1", "h2")
    stats = net.path_cache.stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 2
    assert stats["entries"] == 1


def test_link_fail_invalidates_and_restore_recovers():
    net = build_two_domain_network()
    cost, path = net.shortest_path("h1", "h2")
    assert path[0] == "h1" and path[-1] == "h2"
    link = net.link_between("r1a", "r1b")

    link.fail()  # exactly what the fault injector does
    assert net.shortest_path("h1", "h2") is None
    stats = net.path_cache.stats()
    assert stats["invalidations"] == 1

    link.restore()
    assert net.shortest_path("h1", "h2") == (cost, path)
    assert net.path_cache.stats()["invalidations"] == 2


def test_crash_node_invalidates():
    net = build_two_domain_network()
    assert net.shortest_path("h1", "h2") is not None
    net.crash_node("r1b")
    assert net.shortest_path("h1", "h2") is None
    assert net.path_cache.stats()["invalidations"] >= 1


def test_move_host_invalidates():
    net = build_two_domain_network()
    cost_before, _ = net.shortest_path("h1", "h2")
    net.move_host("h1", 2, "r2a")
    cost_after, path_after = net.shortest_path("h1", "h2")
    assert path_after == ["h1", "r2a", "h2"]
    assert cost_after < cost_before
    assert net.path_cache.stats()["invalidations"] >= 1


def test_domain_filtered_tree_stays_inside_domain():
    net = build_two_domain_network()
    tree = net.shortest_path_tree("r1a", domain=1)
    dom = net.domains[1]
    allowed = dom.routers | dom.hosts
    assert set(tree) <= allowed
    assert {"r1a", "r1b", "h1"} <= set(tree)


def test_unreachable_destination_returns_none():
    net = build_two_domain_network()
    cache = PathCache(net)
    net.add_router("lonely", 1)
    assert cache.shortest_path("h1", "lonely") is None


def test_stale_version_detected_even_without_query_between_mutations():
    net = build_two_domain_network()
    net.shortest_path("h1", "h2")
    link = net.link_between("r1a", "r1b")
    link.fail()
    link.restore()  # version moved twice; cache saw neither
    cost, path = net.shortest_path("h1", "h2")
    assert cost == pytest.approx(compute_shortest_path(net, "h1", "h2")[0])
    assert path == compute_shortest_path(net, "h1", "h2")[1]
    assert net.path_cache.stats()["invalidations"] == 1
