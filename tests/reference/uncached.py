"""Reference "no caches" behaviour: every lookup recomputed from scratch.

Production keeps six memos, all always on: :class:`~repro.perf.cache.PathCache`
(ground-truth Dijkstra trees), the link-state LSDB-generation SPF cache,
the two vN-Bone tunnel-graph signature caches, the
:class:`~repro.vnbone.topology.VnBoneTopology` distance maps, and
:class:`~repro.bgp.egress.EgressCache`.  Each must be invisible except
for speed.  Inside :func:`uncached` every memo is flushed before each
lookup, so each answer is recomputed from the current inputs, and
``Network.shortest_path`` runs the early-exit Dijkstra below instead of
reading a cached tree.  Comparing a run inside the block with the same
run outside it checks every cache at once
(``tests/perf/test_determinism.py``).

Objects may be built before or inside the block; only the lookups made
inside it are uncached.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from functools import wraps
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import pytest

from repro.bgp.egress import EgressCache
from repro.net.link import LinkScope
from repro.net.network import Network
from repro.perf.cache import PathCache
from repro.routing.linkstate import LinkStateRouting
from repro.vnbone.bgpvn import LayeredVnRouting
from repro.vnbone.routing import VnRouting
from repro.vnbone.topology import VnBoneTopology


def compute_shortest_path(network: Network, src: str, dst: str,
                          intra_domain_only: bool = False
                          ) -> Optional[Tuple[float, List[str]]]:
    """The raw early-exit Dijkstra (uncached baseline)."""
    if network.obs.enabled:
        network.obs.counter("perf.dijkstra_runs").inc()
    dist: Dict[str, float] = {src: 0.0}
    prev: Dict[str, str] = {}
    heap: List[Tuple[float, str]] = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, float("inf")):
            continue
        if u == dst:
            path = [dst]
            while path[-1] != src:
                path.append(prev[path[-1]])
            path.reverse()
            return d, path
        for v, link in network.neighbors(u):
            if intra_domain_only and link.scope is LinkScope.INTER_DOMAIN:
                continue
            nd = d + link.cost
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    return None


def _shortest_path(self: Network, src: str, dst: str,
                   intra_domain_only: bool = False
                   ) -> Optional[Tuple[float, List[str]]]:
    if src == dst:
        return 0.0, [src]
    self.node(src), self.node(dst)
    return compute_shortest_path(self, src, dst, intra_domain_only)


def _flushed(method: Callable, flush: Callable) -> Callable:
    """*method* with ``flush(self, *args)`` run before every call."""

    @wraps(method)
    def wrapper(self, *args, **kwargs):
        flush(self, *args)
        return method(self, *args, **kwargs)

    return wrapper


#: (class, method, flush): the memo each lookup must not reuse.
_FLUSHES = [
    (PathCache, "tree", lambda cache, *_: cache._trees.clear()),
    (EgressCache, "links", lambda cache, *_: cache._links.clear()),
    (LinkStateRouting, "_spf",
     lambda igp, router_id, *_: igp._spf_cache.pop(router_id, None)),
    (VnRouting, "compute",
     lambda routing, *_: setattr(routing, "_signature", None)),
    (LayeredVnRouting, "compute",
     lambda routing, *_: routing._intra_cache.clear()),
    (VnBoneTopology, "build",
     lambda topology, *_: topology.invalidate_caches()),
]


@contextmanager
def uncached() -> Iterator[None]:
    """Lookups made inside the block bypass every production cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "shortest_path", _shortest_path)
        for cls, name, flush in _FLUSHES:
            patch.setattr(cls, name, _flushed(getattr(cls, name), flush))
        yield
