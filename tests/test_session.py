"""Client session tests: exchange lifecycle, retries, failure modes.

A scripted stub stands in for the broker so tests can withhold or
corrupt individual replies and observe exact wire timing.
"""
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from romano import codec
from romano import mqttsn as sn
from romano.harness.config import ScenarioConfig
from romano.harness.world import World
from romano.session import (
    ACTIVE,
    ClientSession,
    CONNECTING,
    DISCONNECTED,
    N_RETRY,
    RECONNECT_US,
    RTO_MAX_US,
    T_RETRY_US,
)
from romano.simnet import LinkModel, Network, Simulator

from faults import Swallow

BROKER = "fe80::212:4b00:1:1"
CLIENT = "fe80::212:4b00:10:1"


class StubBroker:
    """Replies like a broker, but only when told to."""

    def __init__(self, net, addr=BROKER):
        self.sim = net.sim
        self.net = net
        self.addr = addr
        self.log: list[tuple[int, sn.SnPacket]] = []
        self.topic_ids: dict[str, int] = {}
        self.mute: set = set()          # packet classes to ignore
        self.connack_codes: list = []   # for the next CONNECTs, then 0
        self.delay_us = 0               # how late each reply goes out
        net.attach(addr, self._on_datagram)

    def _topic_id(self, name: str) -> int:
        return self.topic_ids.setdefault(name, len(self.topic_ids) + 1)

    def _on_datagram(self, src: str, data: bytes) -> None:
        pkt = sn.decode_packet(data)
        self.log.append((self.sim.now, pkt))
        if type(pkt) in self.mute:
            return
        reply = None
        if isinstance(pkt, sn.Connect):
            reply = sn.Connack(self.connack_codes.pop(0)
                               if self.connack_codes else 0)
        elif isinstance(pkt, sn.Register):
            reply = sn.Regack(self._topic_id(pkt.topic_name), pkt.msg_id)
        elif isinstance(pkt, sn.Subscribe):
            reply = sn.Suback(self._topic_id(pkt.topic_name), pkt.msg_id)
        elif isinstance(pkt, sn.Unsubscribe):
            reply = sn.Unsuback(pkt.msg_id)
        if reply is None:
            return
        frame = sn.encode_packet(reply)
        if self.delay_us:
            self.sim.after(self.delay_us,
                           lambda: self.net.send(self.addr, src, frame))
        else:
            self.net.send(self.addr, src, frame)

    def sends(self, kind) -> list[tuple[int, sn.SnPacket]]:
        return [(t, p) for t, p in self.log if isinstance(p, kind)]

    def push(self, dst: str, pkt: sn.SnPacket) -> None:
        self.net.send(self.addr, dst, sn.encode_packet(pkt))


def make_session(latency_us: int = 0):
    sim = Simulator()
    net = Network(sim)
    net.set_link_pair(CLIENT, BROKER, LinkModel.fixed(latency_us))
    stub = StubBroker(net)
    session = ClientSession(net, CLIENT, BROKER)
    return sim, net, stub, session


def connect(sim, session) -> None:
    session.connect()
    sim.run_until_idle()
    assert session.state == ACTIVE


# A session that drops at (N_RETRY + 1) * T_RETRY_US after a request,
# when its last retry wait runs out, connects again RECONNECT_US later.
EXHAUSTED_US = (N_RETRY + 1) * T_RETRY_US


def run_until_drop(sim, session, deadline_us: int) -> None:
    """Run until the session drops, then on to just before the reconnect
    the drop schedules, so nothing after the drop is cut short."""
    assert sim.run_until_true(lambda: session.state == DISCONNECTED,
                              deadline_us)
    sim.run_until(sim.now + RECONNECT_US - 1)


class TestConnect:
    def test_connack_activates(self):
        sim, net, stub, session = make_session()
        done = []
        session.connect(on_ok=lambda: done.append(sim.now))
        sim.run_until_idle()
        assert session.state == ACTIVE and done == [0]
        (_, pkt), = stub.sends(sn.Connect)
        assert pkt.client_id == CLIENT and pkt.clean_session

    def test_rejected_connect(self):
        sim, net, stub, session = make_session()
        stub.mute.add(sn.Connect)
        oks, lost = [], []
        session.on_disconnect = lambda: lost.append(sim.now)
        session.connect(on_ok=lambda: oks.append(sim.now))
        stub_reply = lambda: stub.push(CLIENT, sn.Connack(
            sn.ReturnCode.REJECTED_NOT_SUPPORTED))
        sim.after(10, stub_reply)
        run_until_drop(sim, session, 10)
        assert lost == [10] and oks == []
        assert session.state == DISCONNECTED and session._pending == {}
        assert len(stub.sends(sn.Connect)) == 1  # the reject ends its retries

    def test_rejected_connect_drops_the_session(self):
        sim, net, stub, session = make_session()
        connect(sim, session)
        session.subscribe("common")
        sim.run_until_idle()
        lost = []
        session.on_disconnect = lambda: lost.append(sim.now)
        stub.mute.add(sn.Connect)
        session.connect()
        stub.push(CLIENT, sn.Connack(sn.ReturnCode.REJECTED_CONGESTION))
        assert sim.run_until_true(lambda: lost, sim.now)
        assert lost == [sim.now] and session.state == DISCONNECTED
        assert session.topic_ids == {}
        sim.run_until(sim.now + RECONNECT_US - 1)
        assert len(stub.sends(sn.Connect)) == 2  # the retry timer is gone

    def test_connect_while_one_is_in_flight_sends_nothing(self):
        sim, net, stub, session = make_session(latency_us=5_000)
        oks = []
        session.connect(on_ok=lambda: oks.append("first"))
        session.connect(on_ok=lambda: oks.append("second"))
        sim.run_until_idle()
        assert [t for t, _ in stub.sends(sn.Connect)] == [5_000]
        assert oks == ["first"] and session.state == ACTIVE

    def test_unexpected_connack_is_stray(self):
        sim, net, stub, session = make_session()
        connect(sim, session)
        stub.push(CLIENT, sn.Connack())
        sim.run_until_idle()
        assert session.stray_packets == 1 and session.state == ACTIVE


class TestReconnect:
    def test_a_rejected_connect_goes_out_again_with_the_same_callbacks(self):
        sim, net, stub, session = make_session()
        stub.connack_codes = [sn.ReturnCode.REJECTED_CONGESTION] * 2
        oks, lost = [], []
        session.on_disconnect = lambda: lost.append(sim.now)
        session.connect(on_ok=lambda: oks.append(sim.now))
        sim.run_until_idle()
        assert [t for t, _ in stub.sends(sn.Connect)] == [
            0, RECONNECT_US, 2 * RECONNECT_US]
        assert lost == [0, RECONNECT_US]
        assert oks == [2 * RECONNECT_US] and session.state == ACTIVE

    def test_on_ok_runs_after_every_accepted_connack(self):
        sim, net, stub, session = make_session()
        oks = []
        session.connect(on_ok=lambda: oks.append(sim.now))
        sim.run_until_idle()
        stub.mute.add(sn.Subscribe)
        session.subscribe("common")   # exhausts its retries: a drop
        sim.run_until_idle()
        assert oks == [0, EXHAUSTED_US + RECONNECT_US]
        assert session.state == ACTIVE

    @pytest.mark.parametrize("state", [ACTIVE, CONNECTING])
    def test_a_reconnect_due_once_connected_again_sends_nothing(self, state):
        sim, net, stub, session = make_session()
        stub.connack_codes = [sn.ReturnCode.REJECTED_CONGESTION]
        session.connect()
        sim.run_until(RECONNECT_US // 2)   # dropped at 0
        assert session.state == DISCONNECTED
        if state == CONNECTING:
            stub.mute.add(sn.Connect)
        session.connect()   # before the reconnect is due
        sim.run_until(RECONNECT_US)
        assert session.state == state
        sent = [t for t, _ in stub.sends(sn.Connect)]
        resent = range(RECONNECT_US // 2 + T_RETRY_US, RECONNECT_US + 1,
                       T_RETRY_US) if state == CONNECTING else []
        assert sent == [0, RECONNECT_US // 2, *resent]

    def test_a_session_never_connected_does_not_reconnect(self):
        sim, net, stub, session = make_session()
        stub.mute.add(sn.Subscribe)
        session.subscribe("common")
        sim.run_until_idle()
        assert stub.sends(sn.Connect) == []
        assert session.state == DISCONNECTED


class TestPublishPath:
    def test_register_precedes_first_publish(self):
        sim, net, stub, session = make_session()
        connect(sim, session)
        session.publish("telemetry", b"a")
        session.publish("telemetry", b"b")
        sim.run_until_idle()
        kinds = [type(p).__name__ for _, p in stub.log]
        assert kinds == ["Connect", "Register", "Publish", "Publish"]
        tid = stub.topic_ids["telemetry"]
        assert all(p.topic_id == tid for _, p in stub.sends(sn.Publish))

    def test_register_coalesces_concurrent_publishes(self):
        # Two publishes before the REGACK arrives share one REGISTER.
        sim, net, stub, session = make_session(latency_us=5_000)
        connect(sim, session)
        session.publish("telemetry", b"a")
        session.publish("telemetry", b"b")
        sim.run_until_idle()
        assert len(stub.sends(sn.Register)) == 1
        assert [p.data for _, p in stub.sends(sn.Publish)] == [b"a", b"b"]

    def test_well_known_topics_go_under_their_predefined_ids(self):
        sim, net, stub, session = make_session(latency_us=5_000)
        connect(sim, session)
        t0 = sim.now
        session.publish(codec.TOPIC_INIT_INFO, b"join")
        session.publish(codec.TOPIC_COMMON, b"beat")
        session.publish("squad", b"x")  # any other topic registers first
        sim.run_until_idle()
        assert [p.topic_name for _, p in stub.sends(sn.Register)] == ["squad"]
        # the well-known two arrive one link trip after the call: they
        # left at once, with no REGISTER first
        assert stub.sends(sn.Publish) == [
            (t0 + 5_000, sn.Publish(1, b"join", predefined=True)),
            (t0 + 5_000, sn.Publish(2, b"beat", predefined=True)),
            (t0 + 15_000, sn.Publish(stub.topic_ids["squad"], b"x"))]
        assert codec.PREDEFINED_TOPICS == {1: codec.TOPIC_INIT_INFO,
                                           2: codec.TOPIC_COMMON}

    def test_qos0_publish_to_a_known_topic_goes_out_at_once(self):
        sim, net, stub, session = make_session(latency_us=5_000)
        connect(sim, session)
        session.publish("t", b"x")  # registers first
        sim.run_until_idle()
        t0 = sim.now
        session.publish("t", b"y")
        sim.run_until_idle()
        assert stub.sends(sn.Publish)[-1] == (
            t0 + 5_000, sn.Publish(stub.topic_ids["t"], b"y"))
        assert len(stub.sends(sn.Register)) == 1


class TestRetransmission:
    def test_failed_register_fails_every_waiting_publish(self):
        sim, net, stub, session = make_session()
        connect(sim, session)
        stub.mute.add(sn.Register)
        lost = []
        session.on_disconnect = lambda: lost.append(sim.now)
        session.publish("t", b"a")
        session.publish("t", b"b")
        run_until_drop(sim, session, sim.now + EXHAUSTED_US)
        assert len(stub.sends(sn.Register)) == N_RETRY + 1
        assert lost == [EXHAUSTED_US] and session.state == DISCONNECTED
        # neither publish goes out, not even once the session is back
        stub.mute.clear()
        sim.run_until_idle()
        assert session.state == ACTIVE and session.topic_ids == {}
        assert stub.sends(sn.Publish) == []
        assert len(stub.sends(sn.Register)) == N_RETRY + 1

    def test_reply_of_another_kind_leaves_the_exchange_pending(self):
        sim, net, stub, session = make_session()
        connect(sim, session)
        stub.mute.add(sn.Subscribe)
        done = []
        session.subscribe("t", on_ok=lambda: done.append(sim.now))
        sim.run_until(sim.now + 1_000)  # well inside the first retry wait
        (_, pkt), = stub.sends(sn.Subscribe)
        stub.push(CLIENT, sn.Unsuback(pkt.msg_id))
        stub.push(CLIENT, sn.Suback(7, pkt.msg_id))
        sim.run_until_idle()
        assert session.stray_packets == 1 and len(done) == 1
        assert session.topic_ids == {"t": 7}
        assert len(stub.sends(sn.Subscribe)) == 1  # no retransmission

    def test_control_exhaustion_drops_the_session(self):
        sim, net, stub, session = make_session()
        connect(sim, session)
        stub.mute.add(sn.Subscribe)
        lost, done = [], []
        session.on_disconnect = lambda: lost.append(sim.now)
        session.subscribe("common", on_ok=lambda: done.append(sim.now))
        run_until_drop(sim, session, EXHAUSTED_US)
        assert session.state == DISCONNECTED and session._pending == {}
        assert len(stub.sends(sn.Subscribe)) == N_RETRY + 1
        # the last retransmission still gets a full reply window
        assert lost == [(N_RETRY + 1) * T_RETRY_US]
        stub.mute.clear()
        sim.run_until_idle()
        assert session.state == ACTIVE and done == []

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(kind=st.sampled_from([sn.Connect, sn.Register, sn.Subscribe,
                                 sn.Unsubscribe]),
           topic=st.text(max_size=20),
           data=st.binary(max_size=sn.MAX_PUBLISH_DATA))
    def test_a_retransmission_resends_the_first_frame(self, kind, topic,
                                                      data):
        # MQTT-SN v1.2: a resent SUBSCRIBE differs from the first only in
        # its DUP flag; any other request is resent as is.
        sim, net, stub, session = make_session()
        connect(sim, session)
        code, start = {
            sn.Connect: (sn.MsgType.CONNECT, session.connect),
            sn.Register: (sn.MsgType.REGISTER,
                          lambda: session.publish(topic, data)),
            sn.Subscribe: (sn.MsgType.SUBSCRIBE,
                           lambda: session.subscribe(topic)),
            sn.Unsubscribe: (sn.MsgType.UNSUBSCRIBE,
                             lambda: session.unsubscribe(topic)),
        }[kind]
        stub.mute.add(kind)
        frames = []
        inner = net.endpoint(BROKER)

        def tap(src, raw):
            if raw[1] == code:
                frames.append(raw)
            inner(src, raw)

        net.attach(BROKER, tap)
        start()
        # the last retry wait ends short of any reconnect
        sim.run_until(sim.now + EXHAUSTED_US + RECONNECT_US - 1)
        first, *resent = frames
        request = sn.decode_packet(first)
        if kind is sn.Subscribe:
            again = sn.encode_packet(replace(request, dup=True))
        else:
            again = first
        assert resent == [again] * N_RETRY
        assert session.retransmits == N_RETRY

    def test_join_1000_retransmissions_match_the_traced_count(self):
        # 1 629 is session.retransmits of `bench/run.py --workload
        # join-1000 --seed 1 --trace 1`, counted there at each resend
        world = World(ScenarioConfig(seed=1, n_robots=1000))
        world.run_ready()
        sessions = [world.commander, world.server.session,
                    *(node.session for node in world.nodes)]
        assert sum(s.retransmits for s in sessions) == 1629


class TestRetryTimeout:
    def test_prompt_replies_keep_the_first_retry_at_t_retry(self):
        sim, net, stub, session = make_session(latency_us=5_000)
        connect(sim, session)
        for topic in ("a", "b", "c"):
            session.subscribe(topic)
        sim.run_until_idle()
        assert session.rto_us == T_RETRY_US and session.retransmits == 0

    def test_late_replies_raise_the_timeout_so_the_next_goes_out_once(self):
        sim, net, stub, session = make_session()
        stub.delay_us = 800_000
        connect(sim, session)
        # the CONNECT went out twice, its CONNACK sampled 0.3 s after the
        # resend: SRTT 0.3 s, RTTVAR 0.15 s
        assert [t for t, _ in stub.sends(sn.Connect)] == [0, T_RETRY_US]
        assert session.rto_us == 900_000
        t0 = sim.now
        done = []
        session.subscribe("common", on_ok=lambda: done.append(sim.now))
        sim.run_until_idle()
        assert [t for t, _ in stub.sends(sn.Subscribe)] == [t0]
        assert done == [t0 + 800_000]
        assert session.rto_us == RTO_MAX_US  # 0.3625 + 4 * 0.2375 s, capped

    def test_a_lost_first_request_does_not_inflate_the_timeout(self):
        sim, net, stub, session = make_session(latency_us=5_000)
        Swallow(net, BROKER, count=1)
        session.connect()
        sim.run_until_idle()
        assert [t for t, _ in stub.sends(sn.Connect)] == [T_RETRY_US + 5_000]
        assert session.state == ACTIVE and session.retransmits == 1
        assert session.rto_us == T_RETRY_US

    def test_a_drop_starts_the_next_session_from_t_retry(self):
        sim, net, stub, session = make_session()
        stub.delay_us = 800_000
        connect(sim, session)
        assert session.rto_us == 900_000
        stub.mute.add(sn.Subscribe)
        t0 = sim.now
        session.subscribe("common")
        session.unsubscribe("other")   # answered at 0.8 s: rto_us goes to 1 s
        assert sim.run_until_true(lambda: session.rto_us == RTO_MAX_US,
                                  t0 + 900_000 - 1)
        run_until_drop(sim, session, t0 + (N_RETRY + 1) * 900_000)
        # every resend waited the timeout the exchange started with
        assert [t - t0 for t, _ in stub.sends(sn.Subscribe)] == [
            i * 900_000 for i in range(N_RETRY + 1)]
        assert sim.now == t0 + (N_RETRY + 1) * 900_000 + RECONNECT_US - 1
        assert session.rto_us == T_RETRY_US
        stub.delay_us = 0
        stub.mute.add(sn.Connect)
        sim.run_until(sim.now + 1 + T_RETRY_US)
        resent = [t for t, _ in stub.sends(sn.Connect)][-2:]
        assert resent[1] - resent[0] == T_RETRY_US

    def test_a_reply_just_before_the_timeout_cancels_the_retry(self):
        sim, net, stub, session = make_session()
        stub.delay_us = T_RETRY_US - 1
        connect(sim, session)
        assert len(stub.sends(sn.Connect)) == 1 and session.retransmits == 0

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(st.integers(0, 10 * RTO_MAX_US), min_size=1))
    def test_the_timeout_stays_within_its_bounds(self, samples):
        sim, net, stub, session = make_session()
        for rtt_us in samples:
            session._sample_rtt(rtt_us)
            assert T_RETRY_US <= session.rto_us <= RTO_MAX_US


class TestDropFailsPending:
    def test_a_drop_fails_every_exchange_it_forgets(self):
        # An on_ok still pending at a drop never runs, and a publish
        # waiting on its REGISTER never goes out: not at the drop, and
        # not when the reply turns up after the reconnect.
        sim, net, stub, session = make_session()
        connect(sim, session)
        stub.mute.update((sn.Subscribe, sn.Register, sn.Unsubscribe))
        events = []
        session.on_disconnect = lambda: events.append(("drop", sim.now))
        session.subscribe("common", on_ok=lambda: events.append("subscribe"))
        sim.run_until(T_RETRY_US // 2)
        session.unsubscribe("u")
        session.publish("t", b"y")   # waits on its REGISTER
        sim.run_until(2_100_000)
        assert events == [("drop", EXHAUSTED_US)]
        assert session._pending == {}
        sim.run_until(EXHAUSTED_US + RECONNECT_US)
        assert session.state == ACTIVE
        (_, sub), *_ = stub.sends(sn.Subscribe)
        (_, unsub), *_ = stub.sends(sn.Unsubscribe)
        (_, reg), *_ = stub.sends(sn.Register)
        for late in (sn.Suback(7, sub.msg_id), sn.Unsuback(unsub.msg_id),
                     sn.Regack(8, reg.msg_id)):
            stub.push(CLIENT, late)
        sim.run_until_idle()
        assert events == [("drop", EXHAUSTED_US)]
        assert session.stray_packets == 3 and session.topic_ids == {}
        assert stub.sends(sn.Publish) == []

    def test_a_drop_cancels_every_pending_retry(self):
        # the UNSUBSCRIBE still has retries left when the SUBSCRIBE's run
        # out, yet nothing leaves the session between the drop and the
        # reconnect
        sim, net, stub, session = make_session()
        connect(sim, session)
        stub.mute.update((sn.Subscribe, sn.Unsubscribe))
        session.subscribe("common")
        sim.run_until(EXHAUSTED_US - 3 * T_RETRY_US // 2)
        session.unsubscribe("u")
        run_until_drop(sim, session, EXHAUSTED_US)
        assert [t for t, _ in stub.log if t >= EXHAUSTED_US] == []
        assert session.retransmits == N_RETRY + 1
        sim.run_until(sim.now + 1)
        assert [type(p) for t, p in stub.log if t >= EXHAUSTED_US] == [
            sn.Connect]


class TestMsgIdExhaustion:
    def test_every_entry_point_counts_a_send_failure(self):
        sim, net, stub, session = make_session()
        link = LinkModel.fixed(0)
        net.set_link_pair(CLIENT, BROKER, link)
        connect(sim, session)
        session.publish("known", b"x")
        sim.run_until_idle()
        link.connected = False  # no request reaches the broker
        for i in range(0xFFFF):
            session.subscribe("t{}".format(i))
        assert len(session._pending) == 0xFFFF
        assert session.send_failures == 0xFFFF
        link.connected = True  # a request that went out would now arrive
        heard = len(stub.log)
        oks = []
        session.subscribe("s", on_ok=lambda: oks.append("s"))
        session.unsubscribe("known")
        session.publish("fresh", b"r")  # must REGISTER
        sim.run_until(sim.now)
        assert session.send_failures == 0xFFFF + 3
        assert stub.log[heard:] == [] and oks == []
        assert len(session._pending) == 0xFFFF
        assert {"s", "known", "fresh"}.isdisjoint(
            e.topic for e in session._pending.values())
        assert session.state == ACTIVE and session.topic_ids == {"known": 1}


class TestUnencodableRequests:
    def test_oversize_subscribe_fails_at_the_call(self):
        sim, net, stub, session = make_session()
        connect(sim, session)
        with pytest.raises(sn.OversizePacket):
            session.subscribe("x" * 300)
        assert session._pending == {}
        # A later session drop finds no half-made exchange to cancel.
        stub.mute.add(sn.Subscribe)
        session.subscribe("t")
        run_until_drop(sim, session, EXHAUSTED_US)
        assert session.state == DISCONNECTED and session._pending == {}

    def test_oversize_publish_to_a_known_topic_fails_at_the_call(self):
        sim, net, stub, session = make_session()
        connect(sim, session)
        session.publish("t", b"x")
        sim.run_until_idle()
        with pytest.raises(sn.OversizePacket):
            session.publish("t", b"y" * (sn.MAX_PUBLISH_DATA + 1))
        sim.run_until_idle()
        assert [p.data for _, p in stub.sends(sn.Publish)] == [b"x"]
        assert session._pending == {}

    def test_oversize_publish_to_a_fresh_topic_fails_at_the_call(self):
        sim, net, stub, session = make_session()
        connect(sim, session)
        with pytest.raises(sn.OversizePacket):
            session.publish("fresh", b"x" * (sn.MAX_PUBLISH_DATA + 1))
        assert session._pending == {}
        sim.run_until_idle()
        assert stub.sends(sn.Register) == []
        assert "fresh" not in session.topic_ids

    def test_publish_after_register_carries_the_granted_id(self):
        sim, net, stub, session = make_session()
        connect(sim, session)
        stub.topic_ids.update(("t{}".format(i), i + 1) for i in range(0x1233))
        data = b"x" * sn.MAX_PUBLISH_DATA
        session.publish("fresh", data)
        sim.run_until_idle()
        assert [p for _, p in stub.sends(sn.Publish)] == [
            sn.Publish(0x1234, data)]


class TestInbound:
    def test_delivery_by_learned_topic_name(self):
        sim, net, stub, session = make_session()
        connect(sim, session)
        got = []
        session.on_message = lambda topic, data: got.append((topic, data))
        session.subscribe("common")
        sim.run_until_idle()
        stub.push(CLIENT, sn.Publish(stub.topic_ids["common"], b"hello"))
        sim.run_until_idle()
        assert got == [("common", b"hello")]

    def test_unknown_topic_id_is_counted_not_delivered(self):
        sim, net, stub, session = make_session()
        connect(sim, session)
        got = []
        session.on_message = lambda topic, data: got.append(data)
        stub.push(CLIENT, sn.Publish(77, b"stray"))
        stub.push(CLIENT, sn.Publish(77, b"stray", msg_id=4))
        sent = len(stub.log)
        sim.run_until_idle()
        assert got == [] and session.stray_packets == 2
        assert len(stub.log) == sent  # nor is it answered

    def test_inbound_predefined_publish_names_its_topic_by_the_table(self):
        # a predefined id is read through codec.PREDEFINED_TOPICS, never
        # as the normal id it may equal; one the table lacks is stray
        sim, net, stub, session = make_session()
        connect(sim, session)
        got = []
        session.on_message = lambda topic, data: got.append((topic, data))
        session.subscribe("common")
        sim.run_until_idle()
        tid = stub.topic_ids["common"]
        stub.push(CLIENT, sn.Publish(1, b"x", predefined=True))
        stub.push(CLIENT, sn.Publish(tid, b"y"))
        stub.push(CLIENT, sn.Publish(9, b"z", predefined=True))
        sim.run_until_idle()
        assert got == [(codec.PREDEFINED_TOPICS[1], b"x"), ("common", b"y")]
        assert session.stray_packets == 1

    def test_inbound_qos1_is_stray_and_not_acked(self):
        # the broker grants QoS 0 only, so a QoS 1 copy is outside it
        sim, net, stub, session = make_session()
        connect(sim, session)
        got = []
        session.on_message = lambda topic, data: got.append((topic, data))
        session.subscribe("common")
        sim.run_until_idle()
        tid = stub.topic_ids["common"]
        sent = len(stub.log)
        net.send(BROKER, CLIENT, sn.encode_publish(
            tid, b"x", 1 << sn.FLAG_QOS_SHIFT, 3))  # QoS 1, msg id 3
        stub.push(CLIENT, sn.Publish(tid, b"y"))
        sim.run_until_idle()
        assert len(stub.log) == sent and session.stray_packets == 1
        assert got == [("common", b"y")]

    def test_a_request_from_the_broker_is_stray(self):
        sim, net, stub, session = make_session()
        connect(sim, session)
        stub.push(CLIENT, sn.Register(5, 1, "pushed"))
        sim.run_until_idle()
        assert session.stray_packets == 1 and session.topic_ids == {}
        assert stub.sends(sn.Regack) == []

    def test_unsubscribe_forgets_the_topic(self):
        sim, net, stub, session = make_session()
        connect(sim, session)
        got = []
        session.on_message = lambda topic, data: got.append(data)
        session.subscribe("common")
        sim.run_until_idle()
        tid = stub.topic_ids["common"]
        session.unsubscribe("common")
        sim.run_until_idle()
        stub.push(CLIENT, sn.Publish(tid, b"late"))
        sim.run_until_idle()
        assert got == [] and session.stray_packets == 1

    def test_packets_from_strangers_are_ignored(self):
        sim, net, stub, session = make_session()
        connect(sim, session)
        net.set_link_pair("intruder", CLIENT, LinkModel.fixed(0))
        net.send("intruder", CLIENT, sn.encode_packet(sn.Connack()))
        sim.run_until_idle()
        assert session.state == ACTIVE

    def test_a_frame_sent_as_a_bytearray_is_received(self):
        sim, net, stub, session = make_session()
        stub.mute.add(sn.Connect)
        session.connect()
        net.send(BROKER, CLIENT, bytearray(sn.encode_packet(sn.Connack())))
        sim.run_until_idle()
        assert session.state == ACTIVE and session.stray_packets == 0
