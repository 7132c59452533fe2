"""Registry server tests: joins, roster chunking, recovery."""
import pytest

from romano import codec
from romano.broker import Broker
from romano.server import MAX_IDS_PER_INFO, RegistryServer
from romano.session import (
    ACTIVE, N_RETRY, RECONNECT_US, T_RETRY_US, ClientSession)
from romano.simnet import LinkModel, Network, Simulator

from faults import Swallow

BROKER = "fe80::212:4b00:1:1"
SERVER = "fe80::212:4b00:1:2"
PROBE = "fe80::212:4b00:10:1"


class Rig:
    """Server behind a real broker; a probe client plays the swarm."""

    def __init__(self):
        self.sim = Simulator(seed=0)
        self.net = Network(self.sim)
        for addr in (SERVER, PROBE):
            self.net.set_link_pair(addr, BROKER, LinkModel.fixed(1_000))
        self.broker = Broker(self.net, BROKER, local_clients={SERVER})
        self.server = RegistryServer(ClientSession(self.net, SERVER, BROKER))
        self.server.start()
        self.probe = ClientSession(self.net, PROBE, BROKER)
        self.inbox: list[tuple[str, codec.RomanoMessage]] = []
        self.probe.on_message = lambda topic, data: self.inbox.append(
            (topic, codec.decode_message(data)))
        self.probe.connect()
        assert self.sim.run_until_true(
            lambda: self.server.running and self.probe.state == ACTIVE,
            5_000_000)

    def join(self, romano_id: str) -> None:
        raw = codec.encode_message(codec.ConnectionRequest(romano_id))
        self.probe.publish(codec.TOPIC_INIT_INFO, raw)

    def settle(self, span_us: int = 200_000) -> None:
        # a bounded slice, long enough for any reply over the 1 ms links
        self.sim.run_until(self.sim.now + span_us)

    def listen_on(self, romano_id: str) -> None:
        self.probe.subscribe(romano_id)
        self.settle()

    def acks(self):
        return [m for _, m in self.inbox if isinstance(m, codec.ConnectionAck)]

    def rosters(self):
        return [m for _, m in self.inbox
                if isinstance(m, codec.ConnectedNodesInfo)]


class TestJoins:
    def test_join_is_recorded_and_acked(self):
        rig = Rig()
        rig.listen_on("00100001")
        rig.join("00100001")
        rig.settle()
        assert "00100001" in rig.server.registry
        assert rig.acks() == [codec.ConnectionAck()]
        assert rig.server.acks_sent == 1

    def test_rejoin_refreshes_and_acks_again(self):
        rig = Rig()
        rig.listen_on("00100001")
        rig.join("00100001")
        rig.settle()
        first = rig.server.registry["00100001"]
        rig.sim.run_until(rig.sim.now + 3_000_000)
        rig.join("00100001")
        rig.settle()
        assert len(rig.server.registry) == 1
        assert rig.server.registry["00100001"] > first
        assert len(rig.acks()) == 2

    def test_join_requests_elsewhere_are_ignored(self):
        # A ConnectionRequest seen anywhere but init-info must not register.
        rig = Rig()
        rig.server.session.subscribe(codec.TOPIC_COMMON)
        rig.settle()
        assert SERVER in rig.broker.subscribers(codec.TOPIC_COMMON)
        raw = codec.encode_message(codec.ConnectionRequest("00100001"))
        rig.probe.publish(codec.TOPIC_COMMON, raw)
        rig.settle()
        assert rig.server.registry == {}
        assert rig.server.acks_sent == 0
        assert rig.server.ignored == 0

    def test_a_silent_node_stays_registered(self):
        rig = Rig()
        rig.join("00100001")
        rig.sim.run_until(rig.sim.now + 10_000_000)
        assert "00100001" in rig.server.registry

    def test_garbage_on_init_info_is_counted(self):
        rig = Rig()
        rig.probe.publish(codec.TOPIC_INIT_INFO, bytes([0x77, 0x03, 0x00]))
        rig.probe.publish(codec.TOPIC_INIT_INFO, bytes([0x04, 0xFF]))
        rig.settle()
        assert rig.server.ignored == 2
        assert rig.server.registry == {}


    @pytest.mark.parametrize("msg", [
        codec.NormalData(b"x"), codec.ConnectionAck(),
        codec.ConnectedNodesInfo(("00100001",)),
        codec.Heartbeat("00100001")],
        ids=lambda msg: type(msg).__name__)
    def test_a_type_the_server_does_not_handle_is_ignored(self, msg):
        rig = Rig()
        rig.probe.publish(codec.TOPIC_INIT_INFO, codec.encode_message(msg))
        rig.settle()
        assert rig.server.ignored == 1
        assert rig.server.registry == {} and rig.server.acks_sent == 0


class TestRoster:
    def ids(self, n):
        return ["{:08x}".format(0x100 + i) for i in range(n)]

    def request_roster(self, rig, requester):
        raw = codec.encode_message(codec.RequestConnectedNodesInfo(requester))
        rig.probe.publish(codec.TOPIC_INIT_INFO, raw)
        rig.settle()

    def test_roster_fits_one_message(self):
        rig = Rig()
        member = "00100001"
        rig.listen_on(member)
        for romano_id in [member, "00100002", "00100003"]:
            rig.join(romano_id)
        rig.settle()
        rig.inbox.clear()
        self.request_roster(rig, member)
        assert rig.rosters() == [codec.ConnectedNodesInfo(
            ("00100001", "00100002", "00100003"))]

    def test_roster_splits_into_transportable_chunks(self):
        rig = Rig()
        members = self.ids(40)
        rig.listen_on(members[0])
        for romano_id in members:
            rig.join(romano_id)
        rig.settle()
        rig.inbox.clear()
        self.request_roster(rig, members[0])
        chunks = rig.rosters()
        assert [len(c.romano_ids) for c in chunks] == [MAX_IDS_PER_INFO, 10]
        assert [i for c in chunks for i in c.romano_ids] == members

    def test_unknown_requester_gets_empty_roster(self):
        rig = Rig()
        rig.join("00100001")
        rig.settle()
        stranger = "0000dead"
        rig.listen_on(stranger)
        self.request_roster(rig, stranger)
        assert rig.rosters() == [codec.ConnectedNodesInfo(())]


class TestRecovery:
    def test_server_outlives_a_broker_outage(self):
        rig = Rig()
        broker_down = Swallow(rig.net, BROKER)
        # force the server session to notice the outage
        rig.server.session.subscribe("poke")
        rig.sim.run_until(rig.sim.now + 2_500_000)
        assert not rig.server.running
        broker_down.lift()
        assert rig.sim.run_until_true(lambda: rig.server.running,
                                      rig.sim.now + 10_000_000)
        rig.listen_on("00100009")
        rig.join("00100009")
        rig.settle()
        assert len(rig.acks()) == 1

    def test_a_failed_reconnect_is_retried_a_period_later(self):
        rig = Rig()
        Swallow(rig.net, BROKER)
        rig.server.session.subscribe("poke")
        assert rig.sim.run_until_true(lambda: not rig.server.running,
                                      rig.sim.now + 2_500_000)
        dropped_at = rig.sim.now
        rig.sim.run_until(dropped_at + 4 * RECONNECT_US)
        sends = [r.time_us - dropped_at
                 for r in rig.net.trace.query(kind="send", src=SERVER)
                 if r.time_us > dropped_at]
        # each CONNECT is retried N_RETRY times and then drops the
        # session, which schedules the next attempt
        first = [RECONNECT_US + i * T_RETRY_US for i in range(N_RETRY + 1)]
        again = RECONNECT_US + (N_RETRY + 1) * T_RETRY_US + RECONNECT_US
        assert sends == first + [again + i * T_RETRY_US
                                 for i in range(N_RETRY + 1)]
