"""Node runtime tests: establishment order, join retries, dispatch, movement.

Runs real nodes against a real broker and registry over fixed-latency
links; a wire tap on the broker address decodes everything the node
actually sends.
"""
import pytest

from romano import codec
from romano import mqttsn as sn
from romano.broker import Broker
from romano.node import ACK_WAIT_US, AWAIT_ACK, INIT, READY, RomanoNode
from romano.server import RegistryServer
from romano.session import RECONNECT_US, ClientSession
from romano.simnet import LinkModel, Network, Simulator

from faults import Swallow, connection_ack

BROKER = "fe80::212:4b00:1:1"
SERVER = "fe80::212:4b00:1:2"
NODE_1 = "fe80::212:4b00:10:1"
NODE_2 = "fe80::212:4b00:10:2"

LATENCY_US = 20_000


class WireTap:
    """Decodes every datagram arriving at an address, then forwards it."""

    def __init__(self, net, addr):
        self.log: list[tuple[int, str, sn.SnPacket]] = []
        inner = net.endpoint(addr)
        sim = net.sim

        def wrapped(src: str, data: bytes) -> None:
            self.log.append((sim.now, src, sn.decode_packet(data)))
            inner(src, data)

        net.attach(addr, wrapped)

    def from_src(self, src: str, kind=None) -> list[tuple[int, sn.SnPacket]]:
        return [(t, p) for t, s, p in self.log
                if s == src and (kind is None or isinstance(p, kind))]


class Rig:
    """Broker + registry + tap, with nodes on fixed-latency radio links."""

    def __init__(self, seed: int = 0, latency_us: int = LATENCY_US):
        self.sim = Simulator(seed=seed)
        self.net = Network(self.sim)
        self.broker = Broker(self.net, BROKER,
                             local_clients={SERVER})
        self.tap = WireTap(self.net, BROKER)
        self.net.set_link_pair(SERVER, BROKER, LinkModel.fixed(0))
        self.server = RegistryServer(ClientSession(self.net, SERVER, BROKER))
        self.server.start()
        self.latency_us = latency_us
        self.nodes: list[RomanoNode] = []

    def add_node(self, addr: str) -> RomanoNode:
        self.net.set_link_pair(addr, BROKER,
                               LinkModel.fixed(self.latency_us))
        session = ClientSession(self.net, addr, BROKER)
        node = RomanoNode(session)
        self.nodes.append(node)
        return node

    def ready(self, node: RomanoNode, deadline_us: int = 10_000_000) -> None:
        assert self.sim.run_until_true(lambda: node.phase == READY,
                                       self.sim.now + deadline_us)

    def publish_to(self, node: RomanoNode, msg: codec.RomanoMessage) -> None:
        """Inject a message on the node's private topic via the server."""
        self.server.session.publish(node.romano_id, codec.encode_message(msg))


class TestEstablishment:
    def test_wire_sequence(self):
        rig = Rig()
        node = rig.add_node(NODE_1)
        node.start()
        rig.ready(node)
        sent = [p for _, p in rig.tap.from_src(NODE_1)]
        kinds = [type(p).__name__ for p in sent]
        # connect, subscribe own id, publish the join request under the
        # predefined id of "init-info" (no REGISTER), then subscribe the
        # shared topic only after the ack
        assert kinds == ["Connect", "Subscribe", "Publish", "Subscribe"]
        assert sent[1].topic_name == node.romano_id
        assert sent[2].predefined
        assert codec.PREDEFINED_TOPICS[sent[2].topic_id] == \
            codec.TOPIC_INIT_INFO
        assert sent[3].topic_name == codec.TOPIC_COMMON
        join = codec.decode_message(sent[2].data)
        assert join == codec.ConnectionRequest(node.romano_id)

    def test_ready_state_and_subscriptions(self):
        rig = Rig()
        node = rig.add_node(NODE_1)
        node.start()
        rig.ready(node)
        # Ready as the SUBACK for "common" lands, a link trip after the
        # broker took the SUBSCRIBE
        (sub_at, _), = [(t, p) for t, p in rig.tap.from_src(
            NODE_1, sn.Subscribe) if p.topic_name == codec.TOPIC_COMMON]
        assert node.ready_time_us == rig.sim.now == sub_at + LATENCY_US
        assert rig.broker.subscribers(node.romano_id) == [NODE_1]
        assert NODE_1 in rig.broker.subscribers(codec.TOPIC_COMMON)
        assert rig.server.registry[node.romano_id] < node.ready_time_us

    def test_no_common_subscription_before_ack(self):
        rig = Rig()
        node = rig.add_node(NODE_1)
        Swallow(rig.net, NODE_1, connection_ack)  # the node stays waiting
        node.start()
        rig.sim.run_until(10_000_000)
        assert node.phase == AWAIT_ACK
        subs = rig.tap.from_src(NODE_1, sn.Subscribe)
        assert [p.topic_name for _, p in subs] == [node.romano_id]

    def test_join_republish_every_two_seconds(self):
        rig = Rig()
        node = rig.add_node(NODE_1)
        Swallow(rig.net, NODE_1, connection_ack, count=3)
        node.start()
        rig.ready(node, deadline_us=15_000_000)
        joins = [t for t, p in rig.tap.from_src(NODE_1, sn.Publish)
                 if codec.decode_message(p.data)
                 == codec.ConnectionRequest(node.romano_id)]
        assert len(joins) == 4  # initial + one per swallowed ack
        gaps = [b - a for a, b in zip(joins, joins[1:])]
        assert gaps == [ACK_WAIT_US] * 3

    def test_a_drop_while_awaiting_the_ack_cancels_the_join_retry(self):
        rig = Rig()
        node = rig.add_node(NODE_1)
        Swallow(rig.net, NODE_1, connection_ack)  # the node keeps waiting
        node.start()
        # the join request is on the wire, so its retry is armed
        assert rig.sim.run_until_true(
            lambda: rig.tap.from_src(NODE_1, sn.Publish), 10_000_000)
        assert node.phase == AWAIT_ACK
        broker_down = Swallow(rig.net, BROKER)
        node.session.subscribe("anything")  # exhausts its retries: a drop
        assert rig.sim.run_until_true(lambda: node.phase == INIT,
                                      rig.sim.now + ACK_WAIT_US)
        dropped_at = rig.sim.now
        broker_down.lift()
        rig.sim.run_until(dropped_at + RECONNECT_US + LATENCY_US)
        # the join retry, due in the gap, would have gone out first
        sent = [(t, type(p)) for t, p in rig.tap.from_src(NODE_1)
                if t > dropped_at]
        assert sent == [(dropped_at + RECONNECT_US + LATENCY_US, sn.Connect)]

    def test_broker_down_at_boot(self):
        rig = Rig()
        broker_down = Swallow(rig.net, BROKER)
        node = rig.add_node(NODE_1)
        node.start()
        rig.sim.run_until(10_000_000)
        assert node.phase != READY
        broker_down.lift()
        rig.ready(node, deadline_us=20_000_000)

    def test_rejected_connect_retries_once_after_ack_wait(self):
        rig = Rig()
        # the server's CONNECT is in flight too, so match on the source
        Swallow(rig.net, BROKER, lambda src, data: src == NODE_1
                and data[1] == sn.MsgType.CONNECT, count=1)
        node = rig.add_node(NODE_1)
        node.start()
        rig.net.send(BROKER, NODE_1, sn.encode_packet(
            sn.Connack(sn.ReturnCode.REJECTED_CONGESTION)))
        rig.ready(node)
        connects = [t for t, _ in rig.tap.from_src(NODE_1, sn.Connect)]
        assert connects == [LATENCY_US + RECONNECT_US + LATENCY_US]

    def test_disconnect_returns_to_init_and_recovers(self):
        rig = Rig()
        node = rig.add_node(NODE_1)
        node.start()
        rig.ready(node)
        first = node.ready_time_us
        broker_down = Swallow(rig.net, BROKER)
        # a control exchange must now exhaust its retries
        node.session.subscribe("anything")
        rig.sim.run_until(rig.sim.now + 2_500_000)
        assert node.phase == INIT and node.ready_time_us is None
        broker_down.lift()
        rig.ready(node, deadline_us=20_000_000)
        assert node.ready_time_us == rig.sim.now > first + 2_500_000
        commons = [p for _, p in rig.tap.from_src(NODE_1, sn.Subscribe)
                   if p.topic_name == codec.TOPIC_COMMON]
        assert len(commons) == 2  # one per pass through the join


class TestDispatch:
    def make_ready(self, rig, addr=NODE_1) -> RomanoNode:
        node = rig.add_node(addr)
        node.start()
        rig.ready(node)
        return node

    def test_movement_control_reaches_on_movement(self):
        rig = Rig()
        node = self.make_ready(rig)
        orders = []
        node.on_movement = orders.append
        rig.publish_to(node, codec.movement_control(
            codec.MovementType.MOVE_FRONT, 120))
        rig.sim.run_until_idle()
        assert orders == [codec.MovementControl(0x0000, b"\x00\x78")]
        assert node.unknown_controls == 0

    def test_odd_sized_control_needs_a_handler(self):
        rig = Rig()
        node = self.make_ready(rig)
        orders = []
        node.on_movement = orders.append
        odd = codec.MovementControl(0x0100, b"\x01\x02\x03")
        rig.publish_to(node, odd)
        rig.sim.run_until_idle()
        assert node.unknown_controls == 1 and not orders
        seen = []
        node.on_data(int(codec.DataType.MOVEMENT_CONTROL), seen.append)
        rig.publish_to(node, odd)
        rig.sim.run_until_idle()
        assert seen == [odd] and node.unknown_controls == 1

    def test_subscribe_instruction(self):
        rig = Rig()
        node = self.make_ready(rig)
        rig.publish_to(node, codec.MqttSubscribe("telemetry"))
        rig.sim.run_until_true(
            lambda: NODE_1 in rig.broker.subscribers("telemetry"),
            rig.sim.now + 5_000_000)
        got = []
        node.on_data(int(codec.DataType.NORMAL_DATA),
                     lambda msg: got.append(msg.data))
        rig.server.session.publish(
            "telemetry", codec.encode_message(codec.NormalData(b"t1")))
        rig.sim.run_until_idle()
        assert got == [b"t1"]
        rig.publish_to(node, codec.MqttUnsubscribe("telemetry"))
        rig.sim.run_until_idle()
        assert rig.broker.subscribers("telemetry") == []

    def test_instructed_subscriptions_survive_a_rejoin(self):
        rig = Rig()
        node = self.make_ready(rig)
        for msg in (codec.MqttSubscribe("telemetry"),
                    codec.MqttSubscribe("status"),
                    codec.MqttUnsubscribe("status")):
            rig.publish_to(node, msg)
        rig.sim.run_until_idle()
        assert rig.broker.subscribers("telemetry") == [NODE_1]
        broker_down = Swallow(rig.net, BROKER)
        node.session.subscribe("anything")  # exhausts its retries: a drop
        rig.sim.run_until(rig.sim.now + 2_500_000)
        assert node.phase == INIT
        assert rig.broker.subscribers("telemetry") == [NODE_1]  # not yet
        broker_down.lift()
        rig.ready(node, deadline_us=20_000_000)
        rejoined = node.ready_time_us
        assert rig.broker.subscribers("telemetry") == []  # a clean session
        rig.sim.run_until_idle()
        assert node.phase == READY and node.ready_time_us == rejoined
        assert rig.broker.subscribers("telemetry") == [NODE_1]
        assert rig.broker.subscribers("status") == []
        assert rig.broker.subscribers("anything") == []

    def test_publish_instruction_is_transparent(self):
        # An instructed publish must carry the embedded topic and data
        # out to that topic's subscribers untouched.
        rig = Rig()
        node = self.make_ready(rig)
        other = self.make_ready(rig, addr=NODE_2)
        rig.publish_to(other, codec.MqttSubscribe("relayed"))
        rig.sim.run_until_true(
            lambda: NODE_2 in rig.broker.subscribers("relayed"),
            rig.sim.now + 5_000_000)
        got = []
        other.on_data(int(codec.DataType.SENSOR_DATA),
                      lambda msg: got.append(msg))
        inner = codec.encode_message(codec.SensorData(3, b"\x2A"))
        rig.publish_to(node, codec.MqttPublishRequest("relayed", inner))
        rig.sim.run_until_idle()
        assert got == [codec.SensorData(3, b"\x2A")]

    def test_unknown_and_malformed_counters(self):
        rig = Rig()
        node = self.make_ready(rig)
        rig.server.session.publish(node.romano_id, bytes([0x7F, 0x02]))
        rig.server.session.publish(node.romano_id, bytes([0x04, 0x05, 1, 2, 3]))
        rig.sim.run_until_idle()
        assert node.unknown_types == 1
        assert node.malformed == 1

    def test_custom_extension_dispatch(self):
        rig = Rig()
        node = self.make_ready(rig)
        got = []
        node.on_data(0x42, got.append)
        rig.publish_to(node, codec.CustomData(0x42, b"zz"))
        rig.sim.run_until_idle()
        assert got == [codec.CustomData(0x42, b"zz")]

    def test_each_data_class_reaches_its_handler_once_when_ready(self):
        rig = Rig()
        node = rig.add_node(NODE_1)
        ack = Swallow(rig.net, NODE_1, connection_ack)
        got = {int(codec.DataType.NORMAL_DATA): [],
               int(codec.DataType.SENSOR_DATA): [], 0x42: []}
        for code, seen in got.items():
            node.on_data(code, seen.append)
        msgs = [codec.NormalData(b"n"), codec.SensorData(7, b"s"),
                codec.CustomData(0x42, b"c")]
        node.start()
        rig.sim.run_until(1_000_000)
        assert node.phase == AWAIT_ACK
        for msg in msgs:
            rig.publish_to(node, msg)
        rig.sim.run_until(rig.sim.now + 500_000)
        assert node.early_messages == 3
        assert all(seen == [] for seen in got.values())
        ack.lift()
        rig.ready(node)
        for msg in msgs:
            rig.publish_to(node, msg)
        rig.publish_to(node, codec.CustomData(0x43, b"u"))  # no handler
        rig.sim.run_until_idle()
        assert list(got.values()) == [[msg] for msg in msgs]
        assert node.unknown_types == 1 and node.early_messages == 3

    def test_a_roster_is_early_before_ready_and_dropped_after(self):
        rig = Rig()
        node = rig.add_node(NODE_1)
        ack = Swallow(rig.net, NODE_1, connection_ack)
        roster = codec.ConnectedNodesInfo(("00100002", "00100003"))
        node.start()
        rig.sim.run_until(1_000_000)
        assert node.phase == AWAIT_ACK
        rig.publish_to(node, roster)
        rig.sim.run_until(rig.sim.now + 500_000)
        assert node.early_messages == 1
        ack.lift()
        rig.ready(node)

        def state():
            return (node.phase, node.unknown_types, node.unknown_controls,
                    node.malformed, node.early_messages, node.stray_acks)

        def delivered():
            return len(rig.net.trace.query(kind="deliver", dst=NODE_1))

        before, copies = state(), delivered()
        # a READY node has no handler for either, so both change nothing
        rig.publish_to(node, roster)
        rig.publish_to(node, codec.Heartbeat("00100002"))
        rig.sim.run_until_idle()
        assert delivered() == copies + 2
        assert state() == before == (READY, 0, 0, 0, 1, 0)

    def test_stray_ack_after_ready_is_counted(self):
        rig = Rig()
        node = self.make_ready(rig)
        rig.publish_to(node, codec.ConnectionAck())
        rig.sim.run_until_idle()
        assert node.stray_acks == 1 and node.phase == READY


def test_node_ids_follow_the_address():
    sim = Simulator()
    session = ClientSession(Network(sim), "fe80::212:4b00:ab:cd", BROKER)
    node = RomanoNode(session)
    assert node.romano_id == "00ab00cd"
