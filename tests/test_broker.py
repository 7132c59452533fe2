"""Broker behavior: fan-out spacing, radio gate, session handling."""
import pytest
from hypothesis import given, settings, strategies as st

from romano import codec
from romano import mqttsn as sn
from romano.broker import Broker, RadioGate
from romano.harness.config import ScenarioConfig
from romano.harness.world import World, commander_addr
from romano.session import ACTIVE, ClientSession
from romano.simnet import LinkModel, Network, Simulator, TraceRecord

BROKER = "fe80::212:4b00:1:1"


def handle(broker: Broker, src: str, pkt: sn.SnPacket) -> None:
    """Hand ``pkt`` to the broker as if it arrived from ``src``."""
    broker.handle(src, pkt, sn.encode_packet(pkt))


def make_net(seed: int = 0):
    sim = Simulator(seed=seed)
    return sim, Network(sim)


class Client:
    """Raw packet endpoint; drives the broker without a session layer."""

    def __init__(self, net, addr, broker_addr=BROKER):
        self.sim = net.sim
        self.net = net
        self.addr = addr
        self.broker_addr = broker_addr
        self.inbox: list[tuple[int, sn.SnPacket]] = []
        net.set_link_pair(addr, broker_addr, LinkModel.fixed(0))
        net.attach(addr, lambda src, data: self.inbox.append(
            (net.sim.now, sn.decode_packet(data))))

    def send(self, pkt: sn.SnPacket) -> None:
        self.net.send(self.addr, self.broker_addr, sn.encode_packet(pkt))

    def join(self, topics=(), next_msg_id: int = 1) -> dict:
        """CONNECT and subscribe by name; returns topic name -> id."""
        self.send(sn.Connect(self.addr))
        ids = {}
        for topic in topics:
            self.send(sn.Subscribe(next_msg_id, topic))
            next_msg_id += 1
        self.sim.run_until_idle()
        for _, pkt in self.inbox:
            if isinstance(pkt, sn.Suback):
                ids[topics[pkt.msg_id - 1]] = pkt.topic_id
        return ids

    def publishes(self) -> list[tuple[int, sn.Publish]]:
        return [(t, p) for t, p in self.inbox if isinstance(p, sn.Publish)]


class TestRadioGate:
    def test_idle_gate_departs_immediately(self):
        sim = Simulator()
        out = []
        gate = RadioGate(sim, capacity=10, tx_interval_us=750,
                         on_transmit=lambda item: out.append((sim.now, item)))
        assert gate.offer("a")
        sim.run_until_idle()
        assert out == [(0, "a")]

    def test_minimum_spacing_between_departures(self):
        sim = Simulator()
        out = []
        gate = RadioGate(sim, capacity=10, tx_interval_us=750,
                         on_transmit=lambda item: out.append(sim.now))
        for _ in range(5):
            gate.offer("x")
        sim.run_until_idle()
        assert out == [0, 750, 1500, 2250, 3000]
        assert gate.transmitted == 5 and gate.dropped == 0

    def test_spacing_resets_after_idle_gap(self):
        sim = Simulator()
        out = []
        gate = RadioGate(sim, capacity=10, tx_interval_us=750,
                         on_transmit=lambda item: out.append(sim.now))
        gate.offer("a")
        sim.run_until_idle()
        sim.at(10_000, lambda: gate.offer("b"))  # long after next-free
        sim.run_until_idle()
        assert out == [0, 10_000]

    def test_tail_drop_when_full(self):
        sim = Simulator()
        gate = RadioGate(sim, capacity=3, tx_interval_us=750,
                         on_transmit=lambda item: None)
        # Offered before the simulator runs, so nothing has departed yet.
        results = [gate.offer(i) for i in range(5)]
        assert results == [True, True, True, False, False]
        assert gate.dropped == 2 and len(gate) == 3

    def test_drains_in_order(self):
        sim = Simulator()
        out = []
        gate = RadioGate(sim, capacity=3, tx_interval_us=100,
                         on_transmit=out.append)
        for i in range(3):
            gate.offer(i)
        assert len(gate) == 3 and out == []
        sim.run_until_idle()
        assert out == [0, 1, 2]

    def test_overload_first_drop_matches_queue_model(self):
        # Arrivals every 500 us against a 750 us service interval: the
        # queue grows one item per 1500 us, so a 100-deep buffer first
        # overflows near arrival 300 (fluid estimate c*a/(a-s)).
        sim = Simulator()
        drops = []
        gate = RadioGate(sim, capacity=100, tx_interval_us=750,
                         on_transmit=lambda item: None)

        def offer(k: int) -> None:
            if not gate.offer(k) and not drops:
                drops.append(k)

        for k in range(500):
            sim.at(k * 500, lambda k=k: offer(k))
        sim.run_until_idle()
        assert drops, "expected an overflow under sustained overload"
        assert abs(drops[0] - 300) <= 30

    def test_no_drops_below_service_rate(self):
        sim = Simulator()
        gate = RadioGate(sim, capacity=5, tx_interval_us=750,
                         on_transmit=lambda item: None)
        for k in range(1000):
            sim.at(k * 800, lambda: gate.offer("x"))
        sim.run_until_idle()
        assert gate.dropped == 0 and gate.transmitted == 1000


class TestFanOut:
    def test_dispatch_offsets_follow_subscription_order(self):
        sim, net = make_net()
        broker = Broker(net, BROKER)
        subs = [Client(net, f"s{i}") for i in range(3)]
        for client in subs:
            client.join(["common"])
        pub = Client(net, "p")
        pub.send(sn.Connect("p"))
        pub.send(sn.Register(0, 1, "common"))
        sim.run_until_idle()
        tid = broker.topic_id("common")

        t0 = sim.now + 10_000
        sim.at(t0, lambda: pub.send(sn.Publish(tid, b"hello")))
        sim.run_until_idle()
        arrivals = [client.publishes()[0][0] - t0 for client in subs]
        assert arrivals == [0, 8_000, 16_000]

    def test_offsets_pipeline_across_messages(self):
        # A second publish 1 ms after the first keeps its own offsets;
        # the windows interleave rather than queue behind each other.
        sim, net = make_net()
        broker = Broker(net, BROKER)
        subs = [Client(net, f"s{i}") for i in range(3)]
        for client in subs:
            client.join(["common"])
        pub = Client(net, "p")
        pub.send(sn.Connect("p"))
        pub.send(sn.Register(0, 1, "common"))
        sim.run_until_idle()
        tid = broker.topic_id("common")

        t0 = sim.now + 10_000
        sim.at(t0, lambda: pub.send(sn.Publish(tid, b"m1")))
        sim.at(t0 + 1_000, lambda: pub.send(sn.Publish(tid, b"m2")))
        sim.run_until_idle()
        for client in subs:
            assert [p.data for _, p in client.publishes()] == [b"m1", b"m2"]
        arrivals = {client.addr: [t - t0 for t, _ in client.publishes()]
                    for client in subs}
        assert arrivals == {"s0": [0, 1_000],
                            "s1": [8_000, 9_000],
                            "s2": [16_000, 17_000]}

    def test_fanout_copies_are_qos0(self):
        sim, net = make_net()
        broker = Broker(net, BROKER)
        sub = Client(net, "s")
        sub.join(["common"])
        pub = Client(net, "p")
        pub.send(sn.Connect("p"))
        pub.send(sn.Register(0, 1, "common"))
        sim.run_until_idle()
        tid = broker.topic_id("common")
        qos1 = sn.encode_publish(tid, b"x", 1 << sn.FLAG_QOS_SHIFT, 7)
        net.send("p", BROKER, qos1)
        pub.send(sn.Publish(tid, b"y"))
        sim.run_until_idle()
        # the QoS 1 PUBLISH is a bad packet, neither copied nor answered
        assert [type(p) for _, p in pub.inbox] == [sn.Connack, sn.Regack]
        assert [p for _, p in sub.publishes()] == [sn.Publish(tid, b"y")]
        assert broker.bad_packets == 1

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(qos=st.integers(0, 1), dup=st.booleans(), retain=st.booleans(),
           msg_id=st.one_of(st.just(0), st.integers(1, 0xFFFF)),
           data=st.binary(max_size=sn.MAX_PUBLISH_DATA))
    def test_every_copy_is_the_frame_received(self, qos, dup, retain,
                                              msg_id, data):
        # A QoS 0 frame goes out as received, DUP, RETAIN and msg id
        # included, as they mean nothing at QoS 0; a QoS 1 one is refused.
        sim, net = make_net()
        broker = Broker(net, BROKER)
        got = []
        for addr in ("s0", "s1"):
            ids = Client(net, addr).join(["common"])
            net.attach(addr, lambda src, raw: got.append(raw))
        Client(net, "p").join()
        flags = (qos << sn.FLAG_QOS_SHIFT | dup * sn.FLAG_DUP
                 | retain * 0x10)  # the RETAIN flag
        frame = (bytes([7 + len(data), sn.MsgType.PUBLISH, flags])
                 + ids["common"].to_bytes(2, "big")
                 + msg_id.to_bytes(2, "big") + data)
        net.send("p", BROKER, frame)
        sim.run_until_idle()
        assert got == [frame] * 2 * (qos == 0)
        assert broker.bad_packets == qos

    def test_no_local_skips_only_the_publisher(self):
        # A local client gets no copy of its own PUBLISH; a radio client
        # in the same position does, as MQTT-SN has no no-local option.
        sim, net = make_net()
        Broker(net, BROKER, local_clients={"relay"})
        relay = Client(net, "relay")
        radio = Client(net, "radio")
        other = Client(net, "other")
        ids = relay.join(["common"])
        radio.join(["common"])
        other.join(["common"])
        relay.send(sn.Publish(ids["common"], b"fwd"))
        sim.run_until_idle()
        assert relay.publishes() == []
        assert [p.data for _, p in other.publishes()] == [b"fwd"]
        radio.send(sn.Publish(ids["common"], b"own"))
        sim.run_until_idle()
        assert [p.data for _, p in relay.publishes()] == [b"own"]
        assert [p.data for _, p in radio.publishes()] == [b"fwd", b"own"]
        assert [p.data for _, p in other.publishes()] == [b"fwd", b"own"]

    def test_duplicate_subscription_delivers_once(self):
        sim, net = make_net()
        broker = Broker(net, BROKER)
        sub = Client(net, "s")
        ids = sub.join(["common", "common"])
        pub = Client(net, "p")
        pub.send(sn.Connect("p"))
        pub.send(sn.Publish(ids["common"], b"x"))
        sim.run_until_idle()
        assert len(sub.publishes()) == 1

    def test_unsubscribe_stops_delivery(self):
        sim, net = make_net()
        broker = Broker(net, BROKER)
        sub = Client(net, "s")
        ids = sub.join(["common"])
        sub.send(sn.Unsubscribe(9, "common"))
        sim.run_until_idle()
        pub = Client(net, "p")
        pub.send(sn.Connect("p"))
        pub.send(sn.Publish(ids["common"], b"x"))
        sim.run_until_idle()
        assert sub.publishes() == []
        assert any(isinstance(p, sn.Unsuback) for _, p in sub.inbox)


class TestSessions:
    def test_subscribe_without_connect_is_rejected(self):
        sim, net = make_net()
        Broker(net, BROKER)
        client = Client(net, "s")
        client.send(sn.Subscribe(1, "common"))
        sim.run_until_idle()
        (_, pkt), = client.inbox
        assert isinstance(pkt, sn.Suback)
        assert pkt.return_code == sn.ReturnCode.REJECTED_NOT_SUPPORTED

    @pytest.mark.parametrize("qos", [0, 1])
    def test_register_and_publish_without_connect_are_refused(self, qos):
        sim, net = make_net()
        broker = Broker(net, BROKER)
        ids = Client(net, "s").join(["common"])
        client = Client(net, "c")
        client.send(sn.Register(0, 1, "common"))
        # at QoS 1 the PUBLISH is a bad packet before its sender is looked at
        net.send("c", BROKER, sn.encode_publish(
            ids["common"], b"x", qos << sn.FLAG_QOS_SHIFT, 2 * qos))
        sim.run_until_idle()
        rejected = sn.ReturnCode.REJECTED_NOT_SUPPORTED
        assert [p for _, p in client.inbox] == [sn.Regack(0, 1, rejected)]
        assert broker.topic_stats("common") == (0, 0, 0)
        assert broker.bad_packets == 1 and "c" not in broker.sessions

    def test_suback_grants_qos_0_to_a_qos_1_subscribe(self):
        # every fan-out copy goes at QoS 0, so that is the QoS granted
        sim, net = make_net()
        Broker(net, BROKER)
        client = Client(net, "s")
        client.send(sn.Connect("s"))
        sim.run_until_idle()
        raw = []
        net.attach("s", lambda src, data: raw.append(data))
        client.send(sn.Subscribe(1, "common", qos=1))
        sim.run_until_idle()
        frame, = raw
        assert frame[1] == sn.MsgType.SUBACK and frame[2] == 0x00
        assert sn.decode_packet(frame).return_code == sn.ReturnCode.ACCEPTED

    def test_a_reply_type_sent_to_the_broker_is_a_bad_packet(self):
        sim, net = make_net()
        broker = Broker(net, BROKER)
        client = Client(net, "c")
        client.send(sn.Connect("c"))
        sim.run_until_idle()
        client.inbox.clear()
        client.send(sn.Connack())
        sim.run_until_idle()
        assert broker.bad_packets == 1 and client.inbox == []

    def test_clean_session_wipes_subscriptions(self):
        sim, net = make_net()
        broker = Broker(net, BROKER)
        sub = Client(net, "s")
        sub.join(["common"])
        assert broker.subscribers("common") == ["s"]
        sub.send(sn.Connect("s", clean_session=True))
        sim.run_until_idle()
        assert broker.subscribers("common") == []

    def test_connect_naming_another_client_changes_no_session(self):
        # The commander names robot 1 in a clean-session CONNECT; robot 1
        # never learns of it, so its subscriptions must stay.
        world = World(ScenarioConfig(n_robots=2, seed=1))
        world.run_ready()
        broker, robot = world.broker, world.cell.robot_addrs()[0]
        subscribers = broker.subscribers("common")
        assert robot in subscribers
        sessions, bad = set(broker.sessions), broker.bad_packets
        replies = []
        world.net.attach(commander_addr(), lambda src, data: replies.append(
            sn.decode_packet(data)))
        world.net.send(commander_addr(), broker.addr, sn.encode_packet(
            sn.Connect(robot, clean_session=True)))
        world.sim.run_until_idle()
        assert broker.subscribers("common") == subscribers
        assert broker.bad_packets == bad + 1
        assert replies == [sn.Connack(sn.ReturnCode.REJECTED_NOT_SUPPORTED)]
        assert set(broker.sessions) == sessions

    def test_register_interns_stable_ids(self):
        sim, net = make_net()
        broker = Broker(net, BROKER)
        client = Client(net, "c")
        client.send(sn.Connect("c"))
        client.send(sn.Register(0, 1, "alpha"))
        client.send(sn.Register(0, 2, "beta"))
        client.send(sn.Register(0, 3, "alpha"))
        sim.run_until_idle()
        regacks = [p for _, p in client.inbox if isinstance(p, sn.Regack)]
        assert [r.topic_id for r in regacks] == [1, 2, 1]
        assert broker.topic_id("beta") == 2
        # a name never registered has no id and no traffic
        assert broker.topic_stats("gamma") == (0, 0, 0)
        assert broker.topic_id("gamma") is None

    def test_topic_id_exhaustion_is_rejected_with_congestion(self):
        sim, net = make_net()
        broker = Broker(net, BROKER, local_clients={"local"})
        replies = []  # local replies leave through Network.send at once
        net.send = lambda src, dst, data, topic=None: replies.append(data)
        handle(broker, "local", sn.Connect("local"))
        for n in range(0x10000):
            handle(broker, "local", sn.Register(0, n % 0xFFFF + 1, f"t{n}"))
        handle(broker, "local", sn.Register(0, 7, "t0"))
        handle(broker, "local", sn.Subscribe(8, "fresh"))
        last = [sn.decode_packet(raw) for raw in replies[-4:]]
        assert last == [
            sn.Regack(0xFFFF, 0xFFFF),
            sn.Regack(0, 1, sn.ReturnCode.REJECTED_CONGESTION),
            sn.Regack(1, 7),  # names that already have an id keep it
            sn.Suback(0, 8, sn.ReturnCode.REJECTED_CONGESTION),
        ]
        assert broker.topic_id("t65535") is None
        assert broker.topic_id("fresh") is None
        # A session whose REGISTER is rejected sends no PUBLISH and stays
        # connected.
        del net.send
        send, sent = net.send, []

        def tap(src, dst, data, topic=None):
            sent.append((src, sn.decode_packet(data)))
            send(src, dst, data, topic)

        net.send = tap
        net.set_link_pair("c", BROKER, LinkModel.fixed(0))
        session = ClientSession(net, "c", BROKER)
        session.connect()
        session.publish("late", b"x")
        sim.run_until_idle()
        assert [type(p) for src, p in sent if src == "c"] == [
            sn.Connect, sn.Register]
        assert sent[-1] == (BROKER, sn.Regack(
            0, 1, sn.ReturnCode.REJECTED_CONGESTION))
        assert session.topic_ids == {}
        assert session.state == ACTIVE and session._pending == {}

    def test_publish_to_unknown_topic_id(self):
        sim, net = make_net()
        broker = Broker(net, BROKER)
        client = Client(net, "c")
        client.send(sn.Connect("c"))
        client.send(sn.Publish(99, b"x", msg_id=5))
        sim.run_until_idle()
        assert [type(p) for _, p in client.inbox] == [sn.Connack]
        assert broker.bad_packets == 1

    def test_malformed_datagram_counted(self):
        sim, net = make_net()
        broker = Broker(net, BROKER)
        net.set_link_pair("x", BROKER, LinkModel.fixed(0))
        for _ in range(2):  # the decode memo caches no error
            net.send("x", BROKER, b"\xff")
        sim.run_until_idle()
        assert broker.bad_packets == 2


class TestGatedEgress:
    def test_local_clients_bypass_the_gate(self):
        sim, net = make_net()
        broker = Broker(net, BROKER, local_clients={"local"})
        local = Client(net, "local")
        radio = Client(net, "radio")
        ids = local.join(["common"])
        radio.join(["common"])
        pub = Client(net, "p")
        pub.send(sn.Connect("p"))
        sim.run_until_idle()
        held = []  # radio frames leaving the gate, replayed below
        transmit = broker.gate.on_transmit
        broker.gate.on_transmit = held.append
        pub.send(sn.Publish(ids["common"], b"x"))
        sim.run_until_idle()
        assert len(local.publishes()) == 1
        assert len(radio.publishes()) == 0  # still held behind the gate
        assert [frame[0] for frame in held] == ["radio"]
        for frame in held:
            transmit(frame)
        sim.run_until_idle()
        assert len(radio.publishes()) == 1

    def test_overflow_capture_and_conservation(self):
        sim, net = make_net()
        broker = Broker(net, BROKER, radio_buffer_capacity=3)
        sub = Client(net, "s")
        ids = sub.join(["common"])
        pub = Client(net, "p")
        pub.send(sn.Connect("p"))
        sim.run_until_idle()
        # At zero latency all five publishes arrive in one tick, before
        # the gate's first departure, so two of them find it full.
        for _ in range(5):
            pub.send(sn.Publish(ids["common"], b"x"))
        sim.run_until_idle()
        published, enqueued, dropped = broker.topic_stats("common")
        assert (published, enqueued, dropped) == (5, 3, 2)
        assert broker.first_overflow["published_so_far"] == 4
        assert broker.first_overflow["topic"] == "common"
        assert len(net.trace.query(kind="drop-buffer")) == 2

    def test_full_gate_drops_a_reply_and_a_copy_with_their_topics(self):
        sim, net = make_net()
        broker = Broker(net, BROKER)
        handle(broker, "p", sn.Connect("p"))
        sub = Client(net, "s")
        ids = sub.join(["common"])
        broker.gate.capacity = 1
        handle(broker, "s", sn.Register(0, 1, "alpha"))  # fills the gate
        handle(broker, "s", sn.Register(0, 2, "beta"))   # its reply drops
        assert broker.first_overflow is None
        # so does the copy
        handle(broker, "p", sn.Publish(ids["common"], b"x"))
        assert broker.gate.dropped == 2
        assert net.trace.query(kind="drop-buffer") == [
            TraceRecord(sim.now, BROKER, "s", "drop-buffer", 7, ""),
            TraceRecord(sim.now, BROKER, "s", "drop-buffer", 8, "common")]
        assert broker.first_overflow == {
            "time_us": sim.now, "topic": "common", "published_so_far": 1}

    def test_a_cut_link_counts_each_unroutable_frame_once(self):
        sim, net = make_net()
        broker = Broker(net, BROKER)
        subs = [Client(net, name) for name in ("s1", "s2", "s3")]
        cut = LinkModel.fixed(0)
        net.set_link_pair("s2", BROKER, cut)
        ids = [sub.join(["common"]) for sub in subs][0]
        pub = Client(net, "p")
        pub.send(sn.Connect("p"))
        sim.run_until_idle()
        assert broker.unroutable == 0
        cut.connected = False
        pub.send(sn.Publish(ids["common"], b"x"))   # s2's copy has no link
        handle(broker, "s2", sn.Register(0, 9, "alpha"))   # nor its REGACK
        sim.run_until_idle()
        assert broker.unroutable == 2
        assert [len(sub.publishes()) for sub in subs] == [1, 0, 1]
        assert broker.topic_stats("common") == (1, 3, 0)

    # A request retransmitted while its reply waits in the gate is
    # answered by that one queued reply.

    def _registered(self, **broker_kw):
        sim, net = make_net()
        broker = Broker(net, BROKER, **broker_kw)
        client = Client(net, "c")
        client.join()
        return sim, broker, client

    @staticmethod
    def _regacks(client):
        return [p for _, p in client.inbox if isinstance(p, sn.Regack)]

    def test_retransmission_of_a_queued_reply_is_not_queued_again(self):
        sim, broker, client = self._registered()
        handle(broker, "c", sn.Register(0, 1, "alpha"))
        handle(broker, "c", sn.Register(0, 1, "alpha"))  # REGACK still queued
        assert len(broker.gate) == 1
        assert broker.duplicate_replies == 1
        sim.run_until_idle()
        assert self._regacks(client) == [sn.Regack(1, 1)]

    def test_retransmission_after_departure_is_answered_again(self):
        sim, broker, client = self._registered()
        handle(broker, "c", sn.Register(0, 1, "alpha"))
        sim.run_until_idle()
        handle(broker, "c", sn.Register(0, 1, "alpha"))
        sim.run_until_idle()
        assert self._regacks(client) == [sn.Regack(1, 1)] * 2
        assert broker.duplicate_replies == 0

    def test_tail_dropped_reply_is_answered_on_retransmission(self):
        sim, broker, client = self._registered(radio_buffer_capacity=1)
        handle(broker, "c", sn.Register(0, 1, "alpha"))
        handle(broker, "c", sn.Register(0, 2, "beta"))  # finds the gate full
        assert broker.gate.dropped == 1
        sim.run_until_idle()
        handle(broker, "c", sn.Register(0, 2, "beta"))
        sim.run_until_idle()
        assert self._regacks(client) == [sn.Regack(1, 1), sn.Regack(2, 2)]
        assert broker.duplicate_replies == 0

    def test_local_client_duplicate_replies_are_all_sent(self):
        sim, broker, client = self._registered(local_clients={"c"})
        handle(broker, "c", sn.Register(0, 1, "alpha"))
        handle(broker, "c", sn.Register(0, 1, "alpha"))
        sim.run_until_idle()
        assert self._regacks(client) == [sn.Regack(1, 1)] * 2
        assert broker.duplicate_replies == 0

    def test_equal_fanout_copies_are_all_queued(self):
        sim, net = make_net()
        broker = Broker(net, BROKER)
        sub = Client(net, "s")
        ids = sub.join(["common"])
        handle(broker, "p", sn.Connect("p"))
        handle(broker, "p", sn.Publish(ids["common"], b"beat"))
        handle(broker, "p", sn.Publish(ids["common"], b"beat"))
        assert len(broker.gate) == 3  # the CONNACK and both copies
        sim.run_until_idle()
        assert [p.data for _, p in sub.publishes()] == [b"beat", b"beat"]
        assert broker.duplicate_replies == 0


class TestTopicIdType:
    """A PUBLISH may name a topic by a normal or a predefined id; any
    other TopicIdType, or a predefined id outside
    ``codec.PREDEFINED_TOPICS``, is a bad packet."""

    def ready_world(self):
        world = World(ScenarioConfig(n_robots=2))
        world.run_ready()
        return world, world.cells[0].broker

    # 0x01: predefined id 4, which the table lacks; 0x02: a short name
    @pytest.mark.parametrize("flags", [0x01, 0x02])
    def test_publish_is_not_fanned_out(self, flags):
        world, broker = self.ready_world()
        tid = broker.topic_id("common")
        assert tid == 4 and len(broker.subscribers("common")) == 2
        published = broker.topic_stats("common")
        bad = broker.bad_packets
        frame = bytes([9, sn.MsgType.PUBLISH, flags, 0, 4, 0, 0]) + b"hi"
        world.net.send(commander_addr(), broker.addr, frame)
        world.sim.run_until_idle()
        assert broker.topic_stats("common") == published
        assert broker.bad_packets == bad + 1

    def test_predefined_init_info_reaches_the_registry_as_received(self):
        sim, net = make_net()
        broker = Broker(net, BROKER)
        registry = Client(net, "registry")
        registry.join([codec.TOPIC_INIT_INFO])
        robot = Client(net, "robot")
        robot.join()
        robot.send(sn.Publish(1, b"join", predefined=True))
        sim.run_until_idle()
        assert codec.PREDEFINED_TOPICS[1] == codec.TOPIC_INIT_INFO
        # the QoS 0 frame is forwarded as its octets, so it is decoded
        # once in the process
        assert [p for _, p in registry.publishes()] == [
            sn.Publish(1, b"join", predefined=True)]
        assert broker.topic_stats(codec.TOPIC_INIT_INFO) == (1, 1, 0)
        assert broker.bad_packets == 0

    def test_predefined_qos1_publish_is_a_bad_packet(self):
        sim, net = make_net()
        broker = Broker(net, BROKER)
        registry = Client(net, "registry")
        registry.join([codec.TOPIC_INIT_INFO])
        robot = Client(net, "robot")
        robot.join()
        net.send("robot", BROKER, sn.encode_publish(
            1, b"join", 1 << sn.FLAG_QOS_SHIFT | sn.TOPIC_TYPE_PREDEFINED, 5))
        sim.run_until_idle()
        assert registry.publishes() == [] and broker.bad_packets == 1
        assert [type(p) for _, p in robot.inbox] == [sn.Connack]

    def test_predefined_topic_is_interned_on_first_use(self):
        sim, net = make_net()
        broker = Broker(net, BROKER)
        robot = Client(net, "robot")
        robot.join()
        assert broker.topic_id(codec.TOPIC_INIT_INFO) is None
        robot.send(sn.Publish(1, b"join", predefined=True))
        sim.run_until_idle()
        assert broker.topic_id(codec.TOPIC_INIT_INFO) == 1
        assert broker.topic_stats(codec.TOPIC_INIT_INFO) == (1, 0, 0)

    def test_predefined_publish_from_a_sessionless_sender_is_bad(self):
        sim, net = make_net()
        broker = Broker(net, BROKER)
        Client(net, "stranger").send(sn.Publish(1, b"join", predefined=True))
        sim.run_until_idle()
        assert broker.bad_packets == 1
        assert broker.topic_id(codec.TOPIC_INIT_INFO) is None

    def test_subscribe_to_predefined_id_registers_nothing(self):
        world, broker = self.ready_world()
        bad = broker.bad_packets
        frame = bytes([7, sn.MsgType.SUBSCRIBE, 0x01, 0, 9, 0, 4])
        world.net.send(commander_addr(), broker.addr, frame)
        world.sim.run_until_idle()
        assert broker.topic_id("\x00\x04") is None
        assert broker.bad_packets == bad + 1
