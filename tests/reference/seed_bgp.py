"""Reference BGP control plane: per-message sends, per-prefix install.

This is the simulator's original BGP path.  Every update is its own
scheduler event, and every install pass withdraws all BGP entries and
then runs the hot-potato scan once per (prefix, router).  Production
:class:`repro.bgp.protocol.BgpProtocol` batches updates per session and
tick and installs by next-hop-AS group, incrementally when the topology
is unchanged; this copy is kept only as the oracle it is checked
against (``tests/bgp/test_install_equivalence.py``).  The scan below is
its own, so the oracle never shares the egress helper it checks.

Build an :class:`~repro.core.orchestrator.Orchestrator` inside
:func:`seed_bgp` to run it on the oracle.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

import pytest

from repro.bgp.protocol import SESSION_DELAY, BgpProtocol
from repro.bgp.routes import BgpUpdate
from repro.core import orchestrator
from repro.net.address import Prefix
from repro.net.node import FibEntry, RouteSource, Router


class SeedBgpProtocol(BgpProtocol):
    """:class:`BgpProtocol` with the seed send and install paths."""

    def _send(self, to_asn: int, update: BgpUpdate) -> None:
        if to_asn not in self.speakers:
            return
        if update.sender_asn in self._down_speakers:
            return  # crashed speakers fall silent
        self.stats.record_send()
        if self.obs.enabled:
            if update.is_withdrawal:
                self._c_withdrawals.inc()
            else:
                self._c_announcements.inc()
        self.scheduler.schedule_message(
            SESSION_DELAY, lambda: self._receive(to_asn, update))

    def _install_domain(self, asn: int) -> None:
        """Withdraw everything, then scan once per (prefix, router)."""
        speaker = self.speakers[asn]
        routers = self._domain_routers(asn)
        for router in routers:
            router.fib4.withdraw_all(RouteSource.BGP)
        for prefix, route in sorted(speaker.loc_rib.items(),
                                    key=lambda item: item[0].sort_key()):
            if route.originated:
                continue  # internal destinations are the IGP's job
            next_hop_asn = self._learned_from(asn, prefix, route)
            egress = self._egress_links(asn, next_hop_asn)
            if not egress:
                continue  # session exists but no live physical link
            remote_by_border = {local: remote for local, remote in egress}
            for router in routers:
                self._install_router(router, prefix, remote_by_border)
        speaker.dirty.clear()

    def _install_router(self, router: Router, prefix: Prefix,
                        remote_by_border: Dict[str, str]) -> None:
        if router.node_id in remote_by_border:
            next_hop, metric = remote_by_border[router.node_id], 0.0
        else:
            # Hot potato: forward towards the IGP-nearest egress border.
            best: Optional[Tuple[float, str, str]] = None
            for border_id in sorted(remote_by_border):
                border = self.network.node(border_id)
                self.install_fib_lookups += 1
                igp_entry = router.fib4.lookup(border.ipv4)
                if igp_entry is None or igp_entry.next_hop is None:
                    continue
                key = (igp_entry.metric, border_id, igp_entry.next_hop)
                if best is None or key < best:
                    best = key
            if best is None:
                return  # egress unreachable via IGP; BGP route unusable
            metric, _border_id, next_hop = best
        router.fib4.install(FibEntry(prefix=prefix, next_hop=next_hop,
                                     source=RouteSource.BGP, metric=metric))


@contextmanager
def seed_bgp() -> Iterator[None]:
    """Orchestrators built inside the block run :class:`SeedBgpProtocol`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orchestrator, "BgpProtocol", SeedBgpProtocol)
        yield
