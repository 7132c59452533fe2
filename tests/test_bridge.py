"""Bridge tests: crossing, echo suppression, isolation."""
from collections import Counter

import pytest

from romano.bridge import BRIDGE_LATENCY_US, BridgeEnd
from romano.broker import Broker
from romano.session import ACTIVE, ClientSession
from romano.simnet import LinkModel, Network, Simulator

BROKER_A = "fe80::212:4b00:1:1"
RELAY_A = "fe80::212:4b00:1:4"
CLIENT_A = "fe80::212:4b00:10:1"
BROKER_B = "fe80::212:4b00:2:1"
RELAY_B = "fe80::212:4b00:2:4"
CLIENT_B = "fe80::212:4b00:20:1"

TOPIC = "squad-remote"


class BridgeRig:
    """Two broker networks, one listener client each, bridged on TOPIC."""

    def __init__(self, topics=(TOPIC,)):
        self.sim = Simulator(seed=0)
        self.net = Network(self.sim)
        self.broker_a = Broker(self.net, BROKER_A, local_clients={RELAY_A})
        self.broker_b = Broker(self.net, BROKER_B, local_clients={RELAY_B})
        self.net.set_link_pair(RELAY_A, BROKER_A, LinkModel.fixed(0))
        self.net.set_link_pair(RELAY_B, BROKER_B, LinkModel.fixed(0))
        self.net.set_link_pair(CLIENT_A, BROKER_A, LinkModel.fixed(5_000))
        self.net.set_link_pair(CLIENT_B, BROKER_B, LinkModel.fixed(5_000))
        self.end_a = BridgeEnd(ClientSession(self.net, RELAY_A, BROKER_A),
                               tuple(topics))
        self.end_b = BridgeEnd(ClientSession(self.net, RELAY_B, BROKER_B),
                               tuple(topics))
        self.end_a.peer, self.end_b.peer = self.end_b, self.end_a
        self.end_a.start()
        self.end_b.start()
        self.client_a = ClientSession(self.net, CLIENT_A, BROKER_A)
        self.client_b = ClientSession(self.net, CLIENT_B, BROKER_B)
        self.inbox_a: list[tuple[str, bytes]] = []
        self.inbox_b: list[tuple[str, bytes]] = []
        self.client_a.on_message = lambda t, d: self.inbox_a.append((t, d))
        self.client_b.on_message = lambda t, d: self.inbox_b.append((t, d))
        self.client_a.connect(on_ok=lambda: self.client_a.subscribe(TOPIC))
        self.client_b.connect(on_ok=lambda: self.client_b.subscribe(TOPIC))
        assert self.sim.run_until_true(lambda: self.ready(), 5_000_000)

    def ready(self) -> bool:
        return (self.end_a.ready() and self.end_b.ready()
                and CLIENT_A in self.broker_a.subscribers(TOPIC)
                and CLIENT_B in self.broker_b.subscribers(TOPIC))

    def settle(self, span_us: int = 500_000) -> None:
        self.sim.run_until(self.sim.now + span_us)

    def on_topic(self, inbox):
        return [data for topic, data in inbox if topic == TOPIC]


class TestCrossing:
    def test_publish_crosses_exactly_once(self):
        rig = BridgeRig()
        rig.client_a.publish(TOPIC, b"advance")
        rig.settle()
        assert rig.on_topic(rig.inbox_b) == [b"advance"]
        assert rig.on_topic(rig.inbox_a) == [b"advance"]  # local fan-out
        assert rig.end_a.forwarded == 1
        assert rig.end_b.republished == 1
        assert rig.end_b.crossings == [(RELAY_A, TOPIC, b"advance")]
        # the republication must not bounce back into the channel
        assert rig.end_b.forwarded == 0
        assert rig.end_a.republished == 0

    def test_reply_direction(self):
        rig = BridgeRig()
        rig.client_b.publish(TOPIC, b"ack")
        rig.settle()
        assert rig.on_topic(rig.inbox_a) == [b"ack"]
        assert rig.end_b.forwarded == 1
        assert rig.end_a.crossings == [(RELAY_B, TOPIC, b"ack")]
        assert rig.end_a.forwarded == 0

    def test_channel_latency_is_applied(self):
        rig = BridgeRig()
        sent_at = rig.sim.now
        rig.client_a.publish(TOPIC, b"x")
        assert rig.sim.run_until_true(
            lambda: rig.on_topic(rig.inbox_b) == [b"x"],
            sent_at + 1_000_000)
        # client->broker(5) + channel + broker->client(5), plus slack
        assert rig.sim.now - sent_at >= 10_000 + BRIDGE_LATENCY_US

    def test_other_topics_stay_local(self):
        rig = BridgeRig()
        done = []
        rig.client_b.subscribe("local-only", on_ok=lambda: done.append(1))
        rig.settle()
        assert done
        rig.client_a.publish("local-only", b"secret")
        rig.settle()
        assert rig.inbox_b == []
        assert rig.end_a.forwarded == 0

    def test_a_delivery_outside_the_allow_list_is_not_forwarded(self):
        rig = BridgeRig()
        done = []
        rig.end_a.session.subscribe("local-only", on_ok=lambda: done.append(1))
        rig.settle()
        assert done
        rig.client_a.publish("local-only", b"secret")
        rig.settle()
        assert rig.end_a.forwarded == 0 and rig.end_b.republished == 0
        assert rig.inbox_b == []

    def test_soak_interleaved_no_duplicates(self):
        rig = BridgeRig()
        for i in range(40):
            rig.client_a.publish(TOPIC, "a-{:02d}".format(i).encode())
            rig.client_b.publish(TOPIC, "b-{:02d}".format(i).encode())
        rig.settle(5_000_000)
        want = Counter(["a-{:02d}".format(i).encode() for i in range(40)]
                       + ["b-{:02d}".format(i).encode() for i in range(40)])
        assert Counter(rig.on_topic(rig.inbox_a)) == want
        assert Counter(rig.on_topic(rig.inbox_b)) == want
        assert rig.end_a.forwarded == 40
        assert rig.end_b.forwarded == 40
