"""Spans around the calls into each simulator layer, taken from outside.

:func:`traced` patches the public entry points of every layer at class
(or module) level with thin wrappers that record one span per call:
``[name, start, end, parent]`` with ``perf_counter`` seconds and the
index of the enclosing span (``-1`` at top level).  Scheduler callbacks
are wrapped when they are scheduled and named after the module that
owns them, so IGP and BGP message handling show up as their own layers
even though the scheduler runs them.  On exit every patched attribute
is put back, so the untraced runs execute the shipped code unchanged.

Spans stay in memory while the workload runs; :meth:`Tracer.dump`
writes them out once at the end.  A layer's self time is the sum over
its spans of the span's duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.analyze import catchment
from repro.bgp.protocol import BgpProtocol
from repro.core.orchestrator import Orchestrator
from repro.faults.injector import FaultInjector
from repro.measure import oracle
from repro.measure.engine import ProbeEngine
from repro.net.fastpath import FlowFastPath
from repro.net.forwarding import ForwardingEngine
from repro.net.node import Fib
from repro.net.simulator import EventScheduler
from repro.routing.distancevector import DistanceVectorRouting
from repro.routing.linkstate import LinkStateRouting
from repro.topogen import scale
from repro.vnbone.deployment import VnDeployment

#: (owner, attribute, span name) of every plain wrapped entry point.
TARGETS: Tuple[Tuple[object, str, str], ...] = (
    (scale, "generate_scale_internet", "topogen.generate"),
    (EventScheduler, "run_until_idle", "simulator.run"),
    (EventScheduler, "run_until", "simulator.run"),
    (LinkStateRouting, "install_routes", "routing.install"),
    (DistanceVectorRouting, "install_routes", "routing.install"),
    (BgpProtocol, "install_routes", "bgp.install"),
    (BgpProtocol, "resync_speakers", "bgp.resync"),
    (BgpProtocol, "resync_sessions", "bgp.resync"),
    (Fib, "install", "fib.install"),
    (Fib, "withdraw", "fib.withdraw"),
    (Fib, "withdraw_all", "fib.withdraw_all"),
    (Fib, "lookup", "fib.lookup"),
    (FlowFastPath, "lookup", "fastpath.lookup"),
    (FlowFastPath, "store", "fastpath.store"),
    (VnDeployment, "rebuild", "vnbone.rebuild"),
    (VnDeployment, "send", "vnbone.send"),
    (FaultInjector, "play", "faults.play"),
    (ProbeEngine, "on_advance", "measure.probe"),
    (oracle.DelayOracle, "tree", "measure.oracle"),
    (oracle.DelayOracle, "delay", "measure.oracle"),
    (oracle.DelayOracle, "best_replica", "measure.oracle"),
    (oracle, "delay_tree", "measure.oracle_tree"),
    (catchment, "build_catchment", "analyze.catchment"),
    (Orchestrator, "converge", "orchestrator.converge"),
    (Orchestrator, "install_routes", "orchestrator.install"),
)

#: Entry points wrapped by hand below (they need more than a span).
SPECIAL_TARGETS: Tuple[Tuple[object, str], ...] = (
    (EventScheduler, "schedule"),
    (ForwardingEngine, "forward"),
    (ForwardingEngine, "register_vn_handler"),
)

#: Scheduler callbacks are attributed by the top-level ``repro``
#: package that defines them.
_CALLBACK_LAYERS = {"routing": "routing.msg", "bgp": "bgp.msg"}


class Tracer:
    """In-memory span store for one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[List[object]] = []
        self._stack: List[int] = []
        #: Largest live-event count the scheduler reached.
        self.queue_peak = 0
        #: Physical hops of every walk ``ForwardingEngine.forward`` returned.
        self.hops = 0

    def wrap(self, name: str, fn: Callable[..., object]) -> Callable[..., object]:
        """*fn* recording one span named *name* per call."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args: object, **kwargs: object) -> object:
            record: List[object] = [name, clock(), 0.0,
                                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        record: List[object] = [name, time.perf_counter(), 0.0,
                                self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def mark(self) -> int:
        """Index of the next span, to split spans into phases."""
        return len(self.spans)

    def summary(self, since: int = 0) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, self seconds)`` over spans from *since* on."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for index in range(since, len(spans)):
            _, start, end, parent = spans[index]
            if parent >= since:  # type: ignore[operator]
                child_time[parent] += end - start  # type: ignore[index, operator]
        out: Dict[str, Tuple[int, float]] = {}
        for index in range(since, len(spans)):
            name, start, end, _ = spans[index]
            calls, self_s = out.get(name, (0, 0.0))  # type: ignore[arg-type]
            out[name] = (calls + 1,  # type: ignore[index]
                         self_s + (end - start) - child_time[index])  # type: ignore[operator]
        return out

    def dump(self, path: str) -> None:
        """Write every span once, as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run": self.run_id,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, handle)


def _callback_layer(callback: Callable[[], object]) -> str:
    func = getattr(callback, "func", callback)  # functools.partial
    module = getattr(func, "__module__", None) or ""
    parts = module.split(".")
    package = parts[1] if len(parts) > 1 and parts[0] == "repro" else "other"
    return _CALLBACK_LAYERS.get(package, "simulator.callback")


def _special_wrappers(tracer: Tracer, originals: Dict[Tuple[object, str], object]
                      ) -> Dict[Tuple[object, str], object]:
    schedule = originals[(EventScheduler, "schedule")]
    forward = originals[(ForwardingEngine, "forward")]
    register = originals[(ForwardingEngine, "register_vn_handler")]

    def traced_schedule(self: EventScheduler, delay: float,
                        callback: Callable[[], object]) -> object:
        wrapped = tracer.wrap(_callback_layer(callback), callback)
        handle = schedule(self, delay, wrapped)  # type: ignore[operator]
        live = len(self)
        if live > tracer.queue_peak:
            tracer.queue_peak = live
        return handle

    traced_forward_span = tracer.wrap("forwarding.forward", forward)  # type: ignore[arg-type]

    def traced_forward(*args: object, **kwargs: object) -> object:
        trace = traced_forward_span(*args, **kwargs)
        tracer.hops += trace.physical_hops  # type: ignore[attr-defined]
        return trace

    def traced_register(self: ForwardingEngine, version: int,
                        handler: Callable[..., object]) -> None:
        register(self, version, tracer.wrap("vnbone.handler", handler))  # type: ignore[operator]

    return {(EventScheduler, "schedule"): traced_schedule,
            (ForwardingEngine, "forward"): traced_forward,
            (ForwardingEngine, "register_vn_handler"): traced_register}


def _original(owner: object, attr: str) -> object:
    # Class attributes are read from __dict__ so a staticmethod or an
    # inherited attribute is restored exactly as it was found.
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


@contextmanager
def traced(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Patch every layer entry point to record into *tracer*; restore on exit.

    With ``tracer=None`` nothing is patched, so one code path serves
    the timed and the traced runs.
    """
    if tracer is None:
        yield None
        return
    keys = [(owner, attr) for owner, attr, _ in TARGETS] + list(SPECIAL_TARGETS)
    originals = {key: _original(*key) for key in keys}
    replacements: Dict[Tuple[object, str], object] = {
        (owner, attr): tracer.wrap(name, originals[(owner, attr)])  # type: ignore[arg-type]
        for owner, attr, name in TARGETS}
    replacements.update(_special_wrappers(tracer, originals))
    try:
        for (owner, attr), replacement in replacements.items():
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for (owner, attr), original in originals.items():
            setattr(owner, attr, original)
