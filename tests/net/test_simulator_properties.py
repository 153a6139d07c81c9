"""Property-based tests for the discrete-event kernel.

These pin the invariants every protocol in the repo silently relies on:

* events fire in (time, insertion-seq) order no matter how schedule and
  cancel calls interleave, including events scheduled from inside
  callbacks;
* ``run_until(t)`` never executes an event stamped after *t*;
* cancellation is idempotent and the live-event counter (``len``)
  agrees with an independently maintained model at every step.

The suite runs under the fixed ``ci`` hypothesis profile (see
``tests/conftest.py``) so CI failures are reproducible.
"""

import heapq

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.net.simulator import EventScheduler  # noqa: E402

# One interleaving step: schedule a new event with this delay (float op),
# or cancel an already-issued handle (int op, index modulo issued count).
_ops = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=200),
    ),
    max_size=60,
)

# The same op shape on a coarse grid of delays, forcing same-timestamp ties.
_tie_ops = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=40).map(lambda n: n * 0.5),
        st.floats(min_value=0.0, max_value=20.0,
                  allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=200),
    ),
    max_size=60,
)


def _apply_ops(sched, ops, fired):
    """Run an op sequence; returns (handles, expected_live_count)."""
    handles = []
    live = set()
    for op in ops:
        if isinstance(op, float):
            idx = len(handles)
            handles.append(
                sched.schedule(op, lambda i=idx: fired.append(i)))
            live.add(idx)
        elif handles:
            idx = op % len(handles)
            handles[idx].cancel()
            live.discard(idx)
    return handles, live


class TestFiringOrder:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=1000.0,
                                     allow_nan=False, allow_infinity=False),
                           max_size=50))
    def test_events_fire_in_time_then_seq_order(self, delays):
        sched = EventScheduler()
        fired = []
        for idx, delay in enumerate(delays):
            sched.schedule(delay, lambda i=idx: fired.append(i))
        sched.run_until_idle()
        # All events scheduled up front: firing order must match sorting
        # by (time, insertion sequence).
        expected = sorted(range(len(delays)), key=lambda i: (delays[i], i))
        assert fired == expected

    @given(ops=_ops)
    def test_order_holds_under_cancellation_interleavings(self, ops):
        sched = EventScheduler()
        fired = []
        handles, live = _apply_ops(sched, ops, fired)
        sched.run_until_idle()
        assert set(fired) == live  # cancelled never fire, live always do
        times = [handles[i].time for i in fired]
        assert times == sorted(times)
        # Equal-time events keep insertion order.
        for (i, j) in zip(fired, fired[1:]):
            if handles[i].time == handles[j].time:
                assert i < j

    @given(delays=st.lists(st.integers(min_value=0, max_value=6),
                           min_size=1, max_size=40))
    def test_same_timestamp_ties_break_by_insertion_seq(self, delays):
        # Integer delays guarantee heavy timestamp collisions.
        sched = EventScheduler()
        fired = []
        for idx, delay in enumerate(delays):
            sched.schedule(float(delay), lambda i=idx: fired.append(i))
        sched.run_until_idle()
        assert fired == sorted(range(len(delays)),
                               key=lambda i: (delays[i], i))

    @given(ops=_tie_ops)
    def test_nested_scheduling_follows_time_seq_model(self, ops):
        """Events scheduled from inside callbacks take the next insertion
        sequence at their scheduling instant and then fire in
        ``(time, seq)`` order with everything already queued."""
        sched = EventScheduler()
        fired = []

        def make(idx, delay):
            def callback():
                fired.append(idx)
                if delay > 0.25:
                    sched.schedule(delay / 2.0,
                                   lambda: fired.append(-idx - 1))
            return callback

        handles = []
        cancelled = set()
        for op in ops:
            if isinstance(op, float):
                idx = len(handles)
                handles.append(sched.schedule(op, make(idx, op)))
            elif handles:
                victim = op % len(handles)
                handles[victim].cancel()
                cancelled.add(victim)
        sched.run_until_idle()

        # The model: a (time, seq) heap where seq counts every schedule
        # call, cancelled or not, exactly as the scheduler's does.
        # Top-level events are scheduled first, so their seq is their index.
        delays = [op for op in ops if isinstance(op, float)]
        model = [(delay, idx, idx) for idx, delay in enumerate(delays)
                 if idx not in cancelled]
        heapq.heapify(model)
        next_seq = len(delays)
        expected = []
        now = 0.0
        while model:
            now, _, idx = heapq.heappop(model)
            expected.append(idx)
            if idx >= 0 and delays[idx] > 0.25:
                heapq.heappush(model, (now + delays[idx] / 2.0, next_seq,
                                       -idx - 1))
                next_seq += 1
        assert fired == expected
        assert sched.now == now


class TestRunUntilBound:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                     allow_nan=False, allow_infinity=False),
                           max_size=40),
           horizon=st.floats(min_value=0.0, max_value=100.0,
                             allow_nan=False, allow_infinity=False))
    def test_run_until_never_overruns_horizon(self, delays, horizon):
        sched = EventScheduler()
        fired_times = []
        for delay in delays:
            sched.schedule(delay, lambda d=delay: fired_times.append(d))
        sched.run_until(horizon)
        assert all(t <= horizon for t in fired_times)
        assert sched.now == max([horizon] + fired_times)
        # Exactly the events at or before the horizon fired, in time order.
        assert fired_times == sorted(d for d in delays if d <= horizon)


class TestCancellationAndLiveCount:
    @given(ops=_ops)
    def test_len_matches_model_after_interleaving(self, ops):
        sched = EventScheduler()
        fired = []
        _, live = _apply_ops(sched, ops, fired)
        assert len(sched) == len(live)
        sched.run_until_idle()
        assert len(sched) == 0

    @given(ops=_ops, repeats=st.integers(min_value=2, max_value=4))
    def test_cancellation_is_idempotent(self, ops, repeats):
        sched = EventScheduler()
        fired = []
        handles, live = _apply_ops(sched, ops, fired)
        # Re-cancel every already-cancelled handle several times over.
        for handle in handles:
            if handle.cancelled:
                for _ in range(repeats):
                    handle.cancel()
        assert len(sched) == len(live)
        sched.run_until_idle()
        assert set(fired) == live

    @given(ops=_ops)
    def test_cancel_after_drain_is_harmless(self, ops):
        sched = EventScheduler()
        fired = []
        handles, _ = _apply_ops(sched, ops, fired)
        sched.run_until_idle()
        for handle in handles:
            handle.cancel()  # events already fired or cancelled
        assert len(sched) == 0
        count = len(fired)
        sched.run_until_idle()
        assert len(fired) == count  # nothing re-fires
