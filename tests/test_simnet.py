"""Event loop and link model tests.

The simulator must be bit-deterministic in its seed: identical seeds
give identical event orders, delivery times and trace lines.
"""
import io
import itertools
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from romano.simnet import (
    LinkModel,
    Network,
    NoLink,
    PORT_APP,
    SimulationLimit,
    Simulator,
    Timer,
    TraceRecord,
    WireTrace,
)


# A drawn event: (scheduled with at, delay from the scheduling time,
# index of a timer from at to cancel when it runs or None, the events
# it schedules when it runs).
DELAYS = st.one_of(st.integers(0, 3), st.sampled_from([10, 1_000]))
SCHEDULES = st.recursive(
    st.just([]),
    lambda children: st.lists(st.tuples(
        st.booleans(), DELAYS, st.none() | st.integers(0, 40), children),
        max_size=4),
    max_leaves=40)


class _Scheduled:
    """Runs a drawn schedule on a Simulator, labelling each event in the
    order it was scheduled."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.log: list[tuple[int, int]] = []
        self.timers: list = []
        self.made = 0

    def schedule(self, events: list) -> None:
        sim = self.sim
        for use_at, delay, pick, children in events:
            args = (self.made, pick, children)
            self.made += 1
            if use_at:
                self.timers.append(sim.at(sim.now + delay,
                                          lambda args=args: self.fire(*args)))
            else:
                sim.call_at(sim.now + delay, self.fire, *args)

    def fire(self, label: int, pick, children: list) -> None:
        self.log.append((self.sim.now, label))
        if pick is not None and self.timers:
            self.timers[pick % len(self.timers)].cancel()
        self.schedule(children)


class _Reference:
    """The same schedule, run by taking the least (time, label) left."""

    def __init__(self) -> None:
        self.now = 0
        self.log: list[tuple[int, int]] = []
        self.pending: dict[int, tuple] = {}   # label -> (time, pick, children)
        self.timers: list[int] = []
        self.made = 0

    def schedule(self, events: list) -> None:
        for use_at, delay, pick, children in events:
            self.pending[self.made] = (self.now + delay, pick, children)
            if use_at:
                self.timers.append(self.made)
            self.made += 1

    def run(self) -> None:
        while self.pending:
            label = min(self.pending, key=lambda k: (self.pending[k][0], k))
            self.now, pick, children = self.pending.pop(label)
            self.log.append((self.now, label))
            if pick is not None and self.timers:
                self.pending.pop(self.timers[pick % len(self.timers)], None)
            self.schedule(children)


class TestEventLoop:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.at(30, lambda: seen.append(30))
        sim.at(10, lambda: seen.append(10))
        sim.at(20, lambda: seen.append(20))
        sim.run_until_idle()
        assert seen == [10, 20, 30]
        assert sim.now == 30

    def test_same_tick_insertion_order(self):
        sim = Simulator()
        seen = []
        for tag in "abc":
            sim.at(5, lambda tag=tag: seen.append(tag))
        for tag in "def":
            sim.call_at(5, seen.append, tag)
        sim.run_until_idle()
        assert seen == ["a", "b", "c", "d", "e", "f"]

    def test_at_and_call_at_share_one_scheduling_order(self):
        sim = Simulator()
        seen = []
        sim.call_at(7, seen.append, "call_at first")
        sim.at(7, lambda: seen.append("at second"))
        sim.call_at(3, seen.append, "earlier tick")
        sim.call_at(7, seen.append, "call_at third")
        sim.at(7, lambda: seen.append("at fourth"))
        sim.run_until_idle()
        assert seen == ["earlier tick", "call_at first", "at second",
                        "call_at third", "at fourth"]

    def test_call_at_passes_its_arguments(self):
        sim = Simulator()
        seen = []
        sim.call_at(4, lambda *args: seen.append((sim.now, args)), 1, "x")
        sim.call_at(4, seen.append, "one argument")
        sim.run_until_idle()
        assert seen == [(4, (1, "x")), "one argument"]

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        sim.at(10, lambda: None)
        sim.run_until_idle()
        with pytest.raises(ValueError):
            sim.at(5, lambda: None)
        with pytest.raises(ValueError):
            sim.call_at(5, print, "never")
        sim.call_at(10, lambda: None)   # now itself is allowed
        assert sim.step() and not sim.step()

    def test_cancelled_timer_never_fires(self):
        sim = Simulator()
        seen = []
        timer = sim.at(10, lambda: seen.append("no"))
        sim.at(5, timer.cancel)
        sim.call_at(10, seen.append, "call_at at the same tick")
        later = sim.after(20, lambda: seen.append("no"))
        sim.call_at(15, later.cancel)
        sim.run_until_idle()
        assert seen == ["call_at at the same tick"]
        assert sim.now == 15

    def test_a_cancelled_timer_keeps_its_arguments_alive_no_longer(self):
        # A session's retry timer takes its exchange as the argument, and
        # the exchange holds the timer: a cancel must break that cycle.
        sim = Simulator()

        class Box:
            pass

        box = Box()
        box.timer = Timer(sim.call_at(10, print, box))
        ref = weakref.ref(box)
        box.timer.cancel()
        del box
        assert ref() is None
        assert sim.step() is False

    def test_run_until_is_inclusive_and_advances_clock(self):
        sim = Simulator()
        seen = []
        sim.at(10, lambda: seen.append(10))
        sim.at(11, lambda: seen.append(11))
        sim.run_until(10)
        assert seen == [10] and sim.now == 10
        sim.run_until(50)
        assert seen == [10, 11] and sim.now == 50

    def test_run_until_true_deadline(self):
        sim = Simulator()
        sim.at(100, lambda: None)
        assert sim.run_until_true(lambda: sim.now >= 100, 1000)
        sim.after(10**9, lambda: None)
        assert not sim.run_until_true(lambda: False, sim.now + 5)

        # A cancelled head must not let the next event overrun the deadline.
        sim = Simulator()
        sim.at(5, lambda: None).cancel()
        sim.at(50, lambda: None)
        assert not sim.run_until_true(lambda: sim.now >= 50, 10)
        assert sim.now == 10

    def test_cancelled_head_before_call_at_respects_the_deadline(self):
        sim = Simulator()
        seen = []
        sim.at(5, lambda: seen.append("cancelled")).cancel()
        sim.call_at(50, seen.append, "past the deadline")
        assert not sim.run_until_true(lambda: bool(seen), 10)
        assert seen == [] and sim.now == 10
        assert sim.run_until_true(lambda: bool(seen), 50)
        assert seen == ["past the deadline"] and sim.now == 50

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(first=SCHEDULES, cancels=st.lists(st.integers(0, 40), max_size=3))
    def test_any_schedule_runs_in_time_then_scheduling_order(self, first,
                                                             cancels):
        # Events schedule more events, some at equal times, some earlier
        # than others already queued, and cancel timers from at.
        got, want = _Scheduled(), _Reference()
        for run in (got, want):
            run.schedule(first)
        for pick in cancels:
            if got.timers:
                got.timers[pick % len(got.timers)].cancel()
                want.pending.pop(want.timers[pick % len(want.timers)], None)
        got.sim.run_until_idle()
        want.run()
        assert got.log == want.log
        assert got.sim.now == want.now

    @pytest.mark.parametrize("cancelled_in", ["run", "heap"])
    def test_cancelled_head_never_lets_a_step_pass_the_deadline(
            self, cancelled_in):
        # Timers scheduled in time order join a sorted run and the rest a
        # heap; the cancelled head sits in one and the next live event
        # in the other.
        sim = Simulator()
        seen = []
        if cancelled_in == "run":
            sim.at(5, lambda: seen.append(5)).cancel()
            sim.call_at(100, seen.append, 100)
            sim.call_at(50, seen.append, 50)
        else:
            sim.call_at(50, seen.append, 50)
            sim.call_at(100, seen.append, 100)
            sim.at(5, lambda: seen.append(5)).cancel()
        assert not sim.run_until_true(lambda: False, 10)
        assert seen == [] and sim.now == 10
        assert sim.run_until_true(lambda: bool(seen), 60)
        assert seen == [50] and sim.now == 50
        sim.run_until_idle()
        assert seen == [50, 100]

    @pytest.mark.parametrize("head_in", ["run", "heap"])
    def test_a_stopped_run_leaves_the_next_event_in_its_place(self, head_in):
        sim = Simulator()
        seen = []
        if head_in == "heap":   # later than A and B, so they join the heap
            sim.call_at(20, seen.append, "D")
        sim.call_at(11, seen.append, "A")
        sim.call_at(11, seen.append, "B")
        assert not sim.run_until_true(lambda: False, 10)
        assert seen == [] and sim.now == 10
        sim.call_at(11, seen.append, "C")
        sim.run_until_idle()
        assert seen == ["A", "B", "C"] + ["D"] * (head_in == "heap")

    def test_a_nested_run_restores_the_outer_deadline(self):
        sim = Simulator()
        seen = []

        def nested() -> None:
            seen.append("nested")
            assert not sim.run_until_true(lambda: False, 20)
            assert sim.now == 20

        sim.call_at(10, nested)
        for t in (15, 50, 150):
            sim.call_at(t, seen.append, t)
        # The inner run's deadline must not stop the outer run early, nor
        # leave it with none.
        assert not sim.run_until_true(lambda: False, 100)
        assert seen == ["nested", 15, 50] and sim.now == 100
        sim.run_until_idle()
        assert seen == ["nested", 15, 50, 150]

    def test_a_raising_pred_leaves_no_deadline_behind(self):
        sim = Simulator()
        seen = []
        for t in (5, 10**9, 2 * 10**9):
            sim.call_at(t, seen.append, t)

        def pred() -> bool:
            if seen:
                raise RuntimeError("pred failed")
            return False

        with pytest.raises(RuntimeError):
            sim.run_until_true(pred, 10)
        assert seen == [5]
        assert sim.step() and seen == [5, 10**9]
        sim.run_until_idle()
        assert seen == [5, 10**9, 2 * 10**9] and sim.now == 2 * 10**9

    def test_recurring_timer_trips_the_event_budget(self):
        sim = Simulator()

        def again() -> None:
            sim.after(1, again)

        sim.after(1, again)
        with pytest.raises(SimulationLimit):
            sim.run_until_idle(max_events=1000)


def _log_lines(trace: WireTrace) -> list[str]:
    """The lines ``WireTrace.write`` streams to the log."""
    out = io.StringIO()
    trace.write(out)
    return out.getvalue().splitlines()


def _collector():
    seen = []

    def on_receive(src, data):
        seen.append((src, data))

    return seen, on_receive


class TestLinks:
    def test_fixed_latency_is_exact(self):
        sim = Simulator()
        net = Network(sim)
        net.set_link_pair("a", "b", LinkModel.fixed(20_000))
        seen, cb = _collector()
        net.attach("b", cb)
        net.send("a", "b", b"hi")
        sim.run_until_idle()
        assert seen == [("a", b"hi")]
        assert sim.now == 20_000

    def test_a_frame_in_flight_is_the_bytes_sent(self):
        sim = Simulator()
        net = Network(sim)
        net.set_link_pair("a", "b", LinkModel.fixed(20_000))
        seen, cb = _collector()
        net.attach("b", cb)
        frame = b"as sent"
        buffer = bytearray(b"buffer")
        net.send("a", "b", frame)
        net.send("a", "b", buffer)
        net.send("a", "b", memoryview(b"view"))
        buffer[:] = b"changed after send"
        sim.run_until_idle()
        assert seen == [("a", b"as sent"), ("a", b"buffer"), ("a", b"view")]
        assert [type(data) for _, data in seen] == [bytes] * 3
        assert seen[0][1] is frame  # a bytes frame is not copied

    def test_uniform_latency_within_bounds(self):
        sim = Simulator(seed=7)
        net = Network(sim)
        net.set_link_pair("a", "b", LinkModel(latency_us=(10_000, 20_000)))
        arrivals = []
        net.attach("b", lambda s, d: arrivals.append(sim.now))
        for i in range(200):
            sim.at(i * 100_000, lambda: net.send("a", "b", b"x"))
        sim.run_until_idle()
        delays = [t - i * 100_000 for i, t in enumerate(arrivals)]
        assert all(10_000 <= d <= 20_000 for d in delays)
        assert min(delays) < 12_000 and max(delays) > 18_000  # spread

    def test_no_link_raises(self):
        sim = Simulator()
        net = Network(sim)
        net.attach("b", lambda s, d: None)
        with pytest.raises(NoLink):
            net.send("a", "b", b"x")

    def test_disconnect_and_reconnect(self):
        sim = Simulator()
        net = Network(sim)
        link = LinkModel.fixed(10)
        net.set_link_pair("a", "b", link)
        seen, cb = _collector()
        net.attach("b", cb)
        link.connected = False
        for src, dst in (("a", "b"), ("b", "a")):
            with pytest.raises(NoLink):
                net.send(src, dst, b"one")
        link.connected = True
        net.send("a", "b", b"two")
        sim.run_until_idle()
        assert seen == [("a", b"two")]

    @pytest.mark.parametrize("lo, hi", [
        (10, 10), (0, 1), (1, 7), (10_000, 20_000), (5, 4_100),
        (0, 2 ** 16 - 1)])
    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_latency_draws_are_randint_draws(self, seed, lo, hi):
        sim = Simulator(seed=seed)
        net = Network(sim)
        net.set_link_pair("a", "b", LinkModel(latency_us=(lo, hi)))
        arrivals = []
        net.attach("b", lambda s, d: arrivals.append(sim.now))
        gap = hi + 1    # no send waits behind the one before it
        for i in range(300):
            sim.call_at(i * gap, net.send, "a", "b", b"x")
        sim.run_until_idle()
        want = random.Random(seed)
        # An exact link draws nothing from the stream.
        draws = [lo if lo == hi else want.randint(lo, hi) for _ in range(300)]
        assert [t - i * gap for i, t in enumerate(arrivals)] == draws
        assert sim.rng.getstate() == want.getstate()

    def test_new_link_applies_to_later_sends_each_direction_keeps_fifo(self):
        sim = Simulator()
        net = Network(sim)
        net.set_link_pair("a", "b", LinkModel.fixed(50_000))
        arrivals = []
        for addr in "ab":
            net.attach(addr, lambda s, d: arrivals.append((d, sim.now)))
        sim.call_at(0, net.send, "a", "b", b"ab slow")
        sim.call_at(30_000, net.send, "b", "a", b"ba slow")
        sim.call_at(40_000, net.set_link_pair, "a", "b", LinkModel.fixed(10))
        for t in (40_000, 100_000):
            sim.call_at(t, net.send, "a", "b", b"ab %d" % t)
            sim.call_at(t, net.send, "b", "a", b"ba %d" % t)
        sim.run_until_idle()
        # A fast frame waits behind its own direction's slow one only.
        assert sorted(arrivals, key=lambda a: (a[1], a[0])) == [
            (b"ab 40000", 50_000), (b"ab slow", 50_000),
            (b"ba 40000", 80_000), (b"ba slow", 80_000),
            (b"ab 100000", 100_010), (b"ba 100000", 100_010)]
        assert arrivals.index((b"ab slow", 50_000)) < \
            arrivals.index((b"ab 40000", 50_000))

    def test_disconnecting_a_link_in_use_raises(self):
        sim = Simulator()
        link = LinkModel.fixed(10)
        net = Network(sim)
        net.set_link_pair("a", "b", link)
        seen, cb = _collector()
        net.attach("b", cb)
        net.send("a", "b", b"one")
        link.connected = False
        with pytest.raises(NoLink):
            net.send("a", "b", b"two")
        link.connected = True
        net.send("a", "b", b"three")
        sim.run_until_idle()
        assert seen == [("a", b"one"), ("a", b"three")]
        assert net.sent == 2

    def test_pairs_sharing_a_link_keep_separate_fifos(self):
        sim = Simulator()
        shared = LinkModel.fixed(50_000)
        net = Network(sim)
        net.set_link_pair("a", "b", shared)
        net.set_link_pair("a", "c", shared)
        arrivals = {}
        for addr in "abc":
            net.attach(addr, lambda s, d: arrivals.setdefault(d, sim.now))
        net.send("a", "b", b"a-b first")
        shared.latency_us = (10, 10)
        sim.call_at(10, net.send, "a", "b", b"a-b second")
        for src, dst in ("ac", "ba", "ca"):
            sim.call_at(10, net.send, src, dst, src.encode() + dst.encode())
        sim.run_until_idle()
        assert arrivals == {b"a-b first": 50_000, b"a-b second": 50_000,
                            b"ac": 20, b"ba": 20, b"ca": 20}

    def test_loss_probability_one_drops_everything(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        net.set_link_pair("a", "b", LinkModel.fixed(10, loss_prob=1.0))
        seen, cb = _collector()
        net.attach("b", cb)
        for _ in range(50):
            net.send("a", "b", b"x")
        sim.run_until_idle()
        assert seen == []
        assert net.link_dropped == 50
        assert len(net.trace.query(kind="drop-link")) == 50

    def test_loss_rate_tracks_probability(self):
        sim = Simulator(seed=3)
        net = Network(sim)
        net.set_link_pair("a", "b", LinkModel.fixed(10, loss_prob=0.3))
        count = [0]
        net.attach("b", lambda s, d: count.__setitem__(0, count[0] + 1))
        for i in range(2000):
            sim.at(i * 100, lambda: net.send("a", "b", b"x"))
        sim.run_until_idle()
        assert 0.62 < count[0] / 2000 < 0.78

    def test_fifo_ordering_despite_latency_jitter(self):
        # Jittered links must not reorder: a later send never overtakes
        # an earlier one on the same (src, dst) pair.
        sim = Simulator(seed=11)
        net = Network(sim)
        net.set_link_pair("a", "b", LinkModel(latency_us=(0, 50_000)))
        order = []
        net.attach("b", lambda s, d: order.append(d))
        for i in range(100):
            sim.at(i * 10, lambda i=i: net.send("a", "b", bytes([i])))
        sim.run_until_idle()
        assert order == [bytes([i]) for i in range(100)]

    def test_ports_are_independent_endpoints(self):
        sim = Simulator()
        net = Network(sim)
        net.set_link_pair("a", "b", LinkModel.fixed(10))
        control, app = [], []
        net.attach("b", lambda s, d: control.append(d))
        net.attach("b", lambda s, d: app.append(d), port=PORT_APP)
        net.send("a", "b", b"c")
        net.send("a", "b", b"p", port=PORT_APP)
        sim.run_until_idle()
        assert control == [b"c"] and app == [b"p"]
        assert net.no_endpoint == 0

        # A port with nothing attached discards the frame and counts it.
        net.send("a", "b", b"lost", port=PORT_APP + 1)
        sim.run_until_idle()
        assert control == [b"c"] and app == [b"p"]
        assert (net.sent, net.delivered, net.no_endpoint) == (3, 2, 1)


class TestDeterminism:
    @staticmethod
    def _run(seed: int) -> list[str]:
        sim = Simulator(seed=seed)
        net = Network(sim)
        link = LinkModel(latency_us=(5_000, 15_000), loss_prob=0.1)
        net.set_link_pair("a", "b", link)
        net.set_link_pair("a", "c", link)
        net.attach("b", lambda s, d: None)
        net.attach("c", lambda s, d: None)
        for i in range(300):
            dst = "b" if i % 2 else "c"
            sim.at(i * 1_000, lambda dst=dst, i=i: net.send(
                "a", dst, bytes([i % 256]), topic="t"))
        sim.run_until_idle()
        return _log_lines(net.trace)

    def test_same_seed_identical_trace(self):
        assert self._run(42) == self._run(42)

    def test_different_seed_same_skeleton(self):
        a, b = self._run(1), self._run(2)
        assert a != b  # latency and loss draws differ
        sends_a = [l for l in a if "\tsend\t" in l]
        sends_b = [l for l in b if "\tsend\t" in l]
        assert sends_a == sends_b  # send schedule is seed-independent

    def test_counters_balance(self):
        sim = Simulator(seed=5)
        net = Network(sim)
        link = LinkModel.fixed(10, loss_prob=0.2)
        net.set_link_pair("a", "b", link)
        net.set_link_pair("a", "nobody", link)
        net.attach("b", lambda s, d: None)
        for i in range(500):
            # every fifth frame goes to an address nothing is attached at
            dst = "nobody" if i % 5 == 0 else "b"
            sim.call_at(i * 100, net.send, "a", dst, b"x")
        sim.run_until(20_000)
        in_flight = 1   # the frame sent at 20 000 arrives at 20 010
        assert net.sent == 201
        assert net.sent == (net.delivered + net.link_dropped
                            + net.no_endpoint + in_flight)
        sim.run_until_idle()
        assert net.sent == 500
        assert net.delivered + net.link_dropped + net.no_endpoint == 500
        assert net.no_endpoint > 0 and net.link_dropped > 0
        assert len(net.trace.query(kind="deliver")) == net.delivered
        assert {r.kind for r in net.trace.records} == {
            "send", "deliver", "drop-link"}


class TestWireTrace:
    def test_line_format(self):
        sim = Simulator()
        net = Network(sim)
        net.set_link_pair("a", "b", LinkModel.fixed(1_000))
        net.attach("b", lambda s, d: None)
        net.send("a", "b", b"xyz", topic="demo")
        sim.run_until_idle()
        assert _log_lines(net.trace) == [
            "0\ta\tb\tsend\t3\tdemo",
            "1000\ta\tb\tdeliver\t3\tdemo",
        ]

    def test_query_filters(self):
        sim = Simulator()
        net = Network(sim)
        net.set_link_pair("a", "b", LinkModel.fixed(1))
        trace = net.trace
        net.attach("b", lambda s, d: None)
        net.send("a", "b", b"1", topic="t1")
        net.send("a", "b", b"2", topic="t2")
        sim.run_until_idle()
        assert len(trace.query(kind="send")) == 2
        assert len(trace.query(kind="deliver", topic="t1")) == 1
        assert len(trace.query(src="a", dst="b")) == 4

    def test_a_record_costs_under_forty_octets(self):
        # Columns hold 20 octets a record; a tuple per record took ~140.
        trace = WireTrace()
        names = ["fe80::212:4b00:10:{:x}".format(i) for i in range(100)]
        n = 100_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(n):
                trace.record(1_000_000 + i, names[i % 100], names[i % 7],
                             "deliver", 60 + i % 40, "common")
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace.records) == n
        assert used / n < 40

    def test_large_datagram_and_late_time_record_exactly(self):
        # A datagram past 65 535 octets and a time past 2**32 us both
        # overflow narrower columns.
        late = 2 ** 33 + 7
        sim = Simulator()
        net = Network(sim)
        net.set_link_pair("a", "b", LinkModel.fixed(1))
        net.attach("b", lambda s, d: None)
        sim.call_at(late, net.send, "a", "b", bytes(70_000))
        sim.run_until_idle()
        assert _log_lines(net.trace) == [
            "{}\ta\tb\tsend\t70000\t".format(late),
            "{}\ta\tb\tdeliver\t70000\t".format(late + 1),
        ]

    def test_records_is_a_read_only_view_in_record_order(self):
        trace = WireTrace()
        rows = [(5, "a", "b", "send", 3, "t1"),
                (9, "b", "a", "deliver", 4, ""),
                (9, "a", "c", "drop-link", 70_000, "t2")]
        for row in rows:
            trace.record(*row)
        trace.record(12, "c", "a", "drop-buffer", 2, None)
        want = [TraceRecord(*row) for row in rows] + [
            TraceRecord(12, "c", "a", "drop-buffer", 2, "")]
        records = trace.records
        assert len(records) == 4
        assert list(records) == want
        assert [records[i] for i in range(4)] == want
        assert records[-1] == want[-1]
        assert all(type(r) is TraceRecord for r in records)
        assert records[1].line() == "9\tb\ta\tdeliver\t4\t"
        with pytest.raises(TypeError):
            records[0] = want[1]
        assert trace.query(src="nobody") == []
        assert trace.query(kind="send", topic="never") == []
        assert trace.query(topic="") == [want[1], want[3]]
        assert trace.query(src="a", kind="drop-link") == [want[2]]
        # A query adds no name: records still read back unchanged.
        assert list(records) == want


# A drawn trace operation: (time, "send", src, dst, nbytes, topic, port)
# or (time, "record", src, dst, kind, nbytes, topic).
TRACE_ADDRS = ["a", "b", "c"]
TRACE_TOPICS = [None, "", "t1", "t2"]
TRACE_OPS = st.lists(st.one_of(
    st.tuples(st.integers(0, 50), st.just("send"),
              st.sampled_from(TRACE_ADDRS), st.sampled_from(TRACE_ADDRS),
              st.integers(2, 9), st.sampled_from(TRACE_TOPICS),
              st.sampled_from([PORT_APP, PORT_APP + 1])),
    st.tuples(st.integers(0, 50), st.just("record"),
              st.sampled_from(TRACE_ADDRS), st.sampled_from(TRACE_ADDRS),
              st.sampled_from(["drop-buffer", "drop-link"]),
              st.integers(0, 70_000), st.sampled_from(TRACE_TOPICS))),
    max_size=25)


class TestTraceColumns:
    """The trace's columns read back as the rows a reference list kept."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(ops=TRACE_OPS,
           losses=st.lists(st.sampled_from([0.0, 0.5]), min_size=3,
                           max_size=3),
           attached=st.sets(st.sampled_from(TRACE_ADDRS)))
    def test_rows_lines_and_queries_match_a_reference(self, ops, losses,
                                                      attached):
        sim = Simulator(seed=3)
        net = Network(sim)
        trace = net.trace
        for (a, b), loss in zip(itertools.combinations(TRACE_ADDRS, 2),
                                losses):
            net.set_link_pair(a, b, LinkModel((1, 30), loss_prob=loss))
        want: list[TraceRecord] = []
        # Each frame's first two octets index its send, whose topic the
        # receiver cannot see.
        sent: list[tuple[str, str, str]] = []

        def receiver(addr):
            def on_receive(src, data):
                topic = sent[int.from_bytes(data[:2], "big")][2]
                want.append(TraceRecord(sim.now, src, addr, "deliver",
                                        len(data), topic))
            return on_receive

        for addr in attached:
            net.attach(addr, receiver(addr), port=PORT_APP)

        def send(src, dst, nbytes, topic, port):
            data = len(sent).to_bytes(2, "big") + bytes(nbytes - 2)
            sent.append((src, dst, topic or ""))
            dropped = net.link_dropped
            net.send(src, dst, data, topic=topic, port=port)
            want.append(TraceRecord(sim.now, src, dst, "send", nbytes,
                                    topic or ""))
            if net.link_dropped > dropped:
                want.append(TraceRecord(sim.now, src, dst, "drop-link",
                                        nbytes, topic or ""))

        def record(src, dst, kind, nbytes, topic):
            trace.record(sim.now, src, dst, kind, nbytes, topic)
            want.append(TraceRecord(sim.now, src, dst, kind, nbytes,
                                    topic or ""))

        for time_us, op, src, dst, *rest in ops:
            if op == "record":
                sim.call_at(time_us, record, src, dst, *rest)
            elif src != dst:
                sim.call_at(time_us, send, src, dst, *rest)
        sim.run_until_idle()

        assert sum(column.itemsize for column in trace._columns) == 20
        assert list(trace.records) == want
        assert [trace.records[i] for i in range(len(want))] == want
        lines = ["\t".join(map(str, row)) for row in want]
        assert [r.line() for r in trace.records] == lines
        out = io.StringIO()
        trace.write(out)
        assert out.getvalue() == "".join(line + "\n" for line in lines)
        kinds = [None, "send", "deliver", "drop-link", "drop-buffer", "none"]
        addrs = [None, *TRACE_ADDRS, "nobody"]
        for kind, src, dst, topic in itertools.product(
                kinds, addrs, addrs, [*TRACE_TOPICS, "never"]):
            assert trace.query(kind=kind, src=src, dst=dst, topic=topic) == [
                r for r in want
                if kind in (None, r.kind) and src in (None, r.src)
                and dst in (None, r.dst) and topic in (None, r.topic)]
