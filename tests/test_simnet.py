"""Event loop and link model tests.

The simulator must be bit-deterministic in its seed: identical seeds
give identical event orders, delivery times and trace lines.
"""
import tracemalloc

import pytest

from romano.simnet import (
    LinkModel,
    Network,
    NoLink,
    PORT_APP,
    SimulationLimit,
    Simulator,
    TraceRecord,
    WireTrace,
)


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
        assert sim.call_at(4, seen.append, "one argument") is None
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

    def test_recurring_timer_trips_the_event_budget(self):
        sim = Simulator()

        def again() -> None:
            sim.after(1, again)

        sim.after(1, again)
        with pytest.raises(SimulationLimit):
            sim.run_until_idle(max_events=1000)


def _collector():
    seen = []

    def on_receive(src, data):
        seen.append((src, data))

    return seen, on_receive


class TestLinks:
    def test_fixed_latency_is_exact(self):
        sim = Simulator()
        net = Network(sim, default_link=LinkModel.fixed(20_000))
        seen, cb = _collector()
        net.attach("b", cb)
        net.send("a", "b", b"hi")
        sim.run_until_idle()
        assert seen == [("a", b"hi")]
        assert sim.now == 20_000

    def test_uniform_latency_within_bounds(self):
        sim = Simulator(seed=7)
        net = Network(sim, default_link=LinkModel(latency_us=(10_000, 20_000)))
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
        net = Network(sim, default_link=None)
        net.attach("b", lambda s, d: None)
        with pytest.raises(NoLink):
            net.send("a", "b", b"x")

    def test_disconnect_and_reconnect(self):
        sim = Simulator()
        net = Network(sim, default_link=None)
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

    def test_loss_probability_one_drops_everything(self):
        sim = Simulator(seed=1)
        net = Network(sim, default_link=LinkModel.fixed(10, loss_prob=1.0))
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
        net = Network(sim, default_link=LinkModel.fixed(10, loss_prob=0.3))
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
        net = Network(sim, default_link=LinkModel(latency_us=(0, 50_000)))
        order = []
        net.attach("b", lambda s, d: order.append(d))
        for i in range(100):
            sim.at(i * 10, lambda i=i: net.send("a", "b", bytes([i])))
        sim.run_until_idle()
        assert order == [bytes([i]) for i in range(100)]

    def test_ports_are_independent_endpoints(self):
        sim = Simulator()
        net = Network(sim, default_link=LinkModel.fixed(10))
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
        net = Network(sim, default_link=LinkModel(latency_us=(5_000, 15_000),
                                                  loss_prob=0.1))
        net.attach("b", lambda s, d: None)
        net.attach("c", lambda s, d: None)
        for i in range(300):
            dst = "b" if i % 2 else "c"
            sim.at(i * 1_000, lambda dst=dst, i=i: net.send(
                "a", dst, bytes([i % 256]), topic="t"))
        sim.run_until_idle()
        return net.trace.lines()

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
        net = Network(sim, default_link=LinkModel.fixed(10, loss_prob=0.2))
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
        net = Network(sim, default_link=LinkModel.fixed(1_000))
        net.attach("b", lambda s, d: None)
        net.send("a", "b", b"xyz", topic="demo")
        sim.run_until_idle()
        assert net.trace.lines() == [
            "0\ta\tb\tsend\t3\tdemo",
            "1000\ta\tb\tdeliver\t3\tdemo",
        ]

    def test_query_filters(self):
        sim = Simulator()
        net = Network(sim, default_link=LinkModel.fixed(1))
        trace = net.trace
        net.attach("b", lambda s, d: None)
        net.send("a", "b", b"1", topic="t1")
        net.send("a", "b", b"2", topic="t2")
        sim.run_until_idle()
        assert len(trace.query(kind="send")) == 2
        assert len(trace.query(kind="deliver", topic="t1")) == 1
        assert len(trace.query(src="a", dst="b")) == 4

    def test_a_record_costs_under_forty_octets(self):
        # Columns hold 28 octets a record; a tuple per record took ~140.
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
        net = Network(sim, default_link=LinkModel.fixed(1))
        net.attach("b", lambda s, d: None)
        sim.call_at(late, net.send, "a", "b", bytes(70_000))
        sim.run_until_idle()
        assert net.trace.lines() == [
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
