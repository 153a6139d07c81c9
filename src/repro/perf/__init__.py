"""repro.perf: topology-versioned path caching + the bench artifacts.

* :mod:`repro.perf.cache` — the :class:`PathCache` memoizing the
  network's ground-truth Dijkstra trees per ``topology_version``.  The
  per-layer SPF caches (link-state IGP, vN-Bone routing, vN-Bone
  topology) and the BGP egress cache follow the same invalidation
  rule; every cache is always on.
* :mod:`repro.perf.bench` — the ``repro.bench`` artifact schema
  (validation and writing), and :mod:`repro.perf.scale_bench` — the
  topology-size sweep behind ``python -m repro bench``.  Neither is
  imported here: the sweep pulls in the whole simulator, and this
  package must stay importable from :mod:`repro.net.network`.
"""

from repro.perf.cache import PathCache

__all__ = ["PathCache"]
