"""The benchmark's workloads, driven through the public API of ``romano.harness``.

A workload class is instantiated once per repetition at one seed.
``setup()`` is the timed set-up phase, ``run()`` the timed measured
phase.  An op is one expected delivery; ``delays()`` lists every op in
a fixed order with its virtual delay in microseconds, or ``None`` where
the op did not complete.  ``checks(delays)`` returns the correctness
verdicts, each a (name, passed) pair.

Every workload keeps its links lossless so that no op fails on a
correct build: a lost QoS 0 copy would count as a failed op.
"""
from __future__ import annotations

import struct
from typing import Optional

from romano import codec
from romano.harness.config import ScenarioConfig
from romano.harness.demos import BridgedWorld
from romano.harness.experiments import (decode_probe, encode_probe,
                                        publish_times)
from romano.harness.world import Cell, World, WorldNotReady
from romano.node import READY

Delays = list[Optional[int]]
Checks = list[tuple[str, bool]]

BROADCAST_RATE_MPS = 80.0   # probes/s on "common" in broadcast-16
SOAK_SPACING_US = 2_000     # virtual time between soak publishes


def radio_balance_checks(net, cells: list[Cell]) -> Checks:
    """Network and gate counts of an idle world, against its wire trace.

    With nothing in flight, every frame sent was delivered or dropped on
    its link.  Every frame a broker put on a radio link left through its
    gate, every gate tail-drop left a ``drop-buffer`` record, and no
    gate still holds a frame, so offered = transmitted + dropped + queued
    holds with offered counted from the trace.
    """
    records = net.trace.records
    gates_ok = True
    for cell in cells:
        robots = set(cell.robot_addrs())
        radio_sends = sum(1 for r in records if r.kind == "send"
                          and r.src == cell.addr and r.dst in robots)
        buffer_drops = sum(1 for r in records if r.kind == "drop-buffer"
                           and r.src == cell.addr)
        gate = cell.broker.gate
        gates_ok &= (gate.transmitted == radio_sends
                     and gate.dropped == buffer_drops and len(gate) == 0)
    return [
        ("network: sent = delivered + link-dropped, nothing in flight",
         net.sent == net.delivered + net.link_dropped),
        ("gate: offered = transmitted + dropped + queued (queued = 0)",
         gates_ok),
    ]


class Broadcast:
    """Open-loop probe broadcast on "common" from the commander.

    16 robots take 80 probes/s, 1280 radio copies/s against the gate's
    ~1333 frames/s, so the gate queues without dropping and the delay
    tail shows queueing.  Host time goes to per-copy work: broker
    fan-out timers, Network send and deliver, mqttsn and codec decode
    at every robot.
    """

    name = "broadcast-16"

    def __init__(self, seed: int, n_robots: int = 16,
                 n_probes: int = 4000) -> None:
        self.cfg = ScenarioConfig(seed=seed, n_robots=n_robots,
                                  rate_mps=BROADCAST_RATE_MPS,
                                  n_messages=n_probes,
                                  payload_octets=32, loss_prob=0.0)
        self.expected_ops = n_probes * n_robots

    def setup(self) -> None:
        self.world = World(self.cfg)
        self.world.run_ready()
        self.cells = [self.world.cell]
        self.bridge_ends = []
        # Per robot, the (seq, delay) of every probe in arrival order.
        self.got: list[list[tuple[int, int]]] = []
        for node in self.world.nodes:
            got: list[tuple[int, int]] = []

            def record(msg: codec.NormalData, got=got) -> None:
                seq, sent_us = decode_probe(msg.data)
                got.append((seq, self.world.sim.now - sent_us))

            node.on_data(int(codec.DataType.NORMAL_DATA), record)
            self.got.append(got)

    def run(self) -> None:
        sim, commander = self.world.sim, self.world.commander
        octets = self.cfg.payload_octets

        def publish(seq: int) -> None:
            commander.publish(codec.TOPIC_COMMON,
                              encode_probe(seq, sim.now, octets))

        times = publish_times(sim.now + 1_000, self.cfg.rate_mps,
                              self.cfg.n_messages)
        for seq, t in enumerate(times):
            sim.at(t, lambda seq=seq: publish(seq))
        sim.run_until_idle()

    def delays(self) -> Delays:
        out: Delays = []
        for got in self.got:
            by_seq: dict[int, int] = {}
            for seq, delay in got:
                by_seq.setdefault(seq, delay)
            out.extend(by_seq.get(seq) for seq in range(self.cfg.n_messages))
        return out

    def checks(self, delays: Delays) -> Checks:
        world = self.world
        published, _, buffer_dropped = world.broker.topic_stats(
            codec.TOPIC_COMMON)
        subscribers = len(world.broker.subscribers(codec.TOPIC_COMMON))
        delivered = sum(d is not None for d in delays)
        link_dropped = len(world.trace.query(kind="drop-link",
                                             topic=codec.TOPIC_COMMON))
        arrivals = sum(len(got) for got in self.got)
        return radio_balance_checks(world.net, self.cells) + [
            ("common: published x subscribers = delivered + buffer-dropped"
             " + link-dropped",
             published == self.cfg.n_messages
             and published * subscribers
             == delivered + buffer_dropped + link_dropped),
            ("every robot saw each probe at most once", arrivals == delivered),
        ]


class Join:
    """A swarm of robots joins from cold; the measured phase is ``run_ready``.

    Control plane only: CONNECT, REGISTER and SUBSCRIBE exchanges, retry
    timers and their cancels, registry joins, O(N) subscriber lists and
    an overflowing gate.  Almost no fan-out and no data decode, so it is
    the counter-workload to broadcast-16.  Heartbeats stay off.
    """

    name = "join-1000"

    def __init__(self, seed: int, n_robots: int = 1000) -> None:
        self.cfg = ScenarioConfig(seed=seed, n_robots=n_robots)
        self.expected_ops = n_robots
        self.formed = False

    def setup(self) -> None:
        self.world = World(self.cfg)
        self.cells = [self.world.cell]
        self.bridge_ends = []

    def run(self) -> None:
        try:
            self.world.run_ready()
            self.formed = True
        except WorldNotReady:
            self.formed = False

    def delays(self) -> Delays:
        return [node.ready_time_us if node.phase == READY else None
                for node in self.world.nodes]

    def checks(self, delays: Delays) -> Checks:
        return [
            ("swarm formed before the ready deadline", self.formed),
            ("every node is READY",
             all(node.phase == READY for node in self.world.nodes)),
            ("registry holds every robot",
             len(self.world.server.registry) == self.expected_ops),
        ]


class BridgeSoak:
    """Soak of a bridged topic between two 3-robot cells.

    Even messages enter from cell A's commander and odd ones from cell
    B's, 2 ms apart; two robots of cell B listen, so every message is one
    op per listener.  Many publishes with narrow fan-out: two brokers,
    relay republish, QoS 0 REGISTER-then-publish and the bridge channel.
    """

    name = "bridge-soak"

    def __init__(self, seed: int, n_messages: int = 10_000) -> None:
        self.cfg = ScenarioConfig(seed=seed, n_robots=3)
        self.n_messages = n_messages
        self.expected_ops = 2 * n_messages

    def setup(self) -> None:
        world = self.world = BridgedWorld(self.cfg)
        world.run_ready()
        self.cells = [world.cell_a, world.cell_b]
        self.bridge_ends = [world.end_a, world.end_b]
        self.topic = self.cfg.bridge_topic_list()[0]
        listeners = world.cell_b.robots[:2]
        for robot in listeners:
            world.cell_b.commander.publish(
                robot.romano_id,
                codec.encode_message(codec.MqttSubscribe(self.topic)))
        want = len(listeners) + 1  # the relay is already subscribed
        if not world.sim.run_until_true(
                lambda: len(world.cell_b.broker.subscribers(self.topic))
                == want, world.sim.now + 5_000_000):
            raise WorldNotReady("listeners never subscribed")
        # Per listener, the (seq, arrival time) of every message.
        self.got: list[list[tuple[int, int]]] = []
        for robot in listeners:
            got: list[tuple[int, int]] = []

            def record(msg: codec.NormalData, got=got) -> None:
                got.append((struct.unpack_from(">I", msg.data)[0],
                            world.sim.now))

            robot.node.on_data(int(codec.DataType.NORMAL_DATA), record)
            self.got.append(got)

    def _due_us(self, seq: int) -> int:
        return self.base_us + SOAK_SPACING_US * (seq + 1)

    def run(self) -> None:
        world = self.world
        self.base_us = world.sim.now
        sides = (world.cell_a.commander, world.cell_b.commander)
        for seq in range(self.n_messages):
            raw = codec.encode_message(codec.NormalData(struct.pack(">I", seq)))
            world.sim.at(self._due_us(seq),
                         lambda s=sides[seq % 2], r=raw: s.publish(self.topic,
                                                                   r))
        world.sim.run_until_idle()

    def delays(self) -> Delays:
        out: Delays = []
        for got in self.got:
            by_seq: dict[int, int] = {}
            for seq, at_us in got:
                by_seq.setdefault(seq, at_us - self._due_us(seq))
            out.extend(by_seq.get(seq) for seq in range(self.n_messages))
        return out

    def _crossed(self, end) -> dict[int, int]:
        counts: dict[int, int] = {}
        for _, _, data in end.crossings:
            seq = struct.unpack_from(">I", codec.decode_message(data).data)[0]
            counts[seq] = counts.get(seq, 0) + 1
        return counts

    def checks(self, delays: Delays) -> Checks:
        world = self.world
        into_b = self._crossed(world.end_b)   # entered in A
        into_a = self._crossed(world.end_a)   # entered in B
        evens = {s: 1 for s in range(0, self.n_messages, 2)}
        odds = {s: 1 for s in range(1, self.n_messages, 2)}
        arrivals = sum(len(got) for got in self.got)
        return radio_balance_checks(world.net, self.cells) + [
            ("every message crossed the bridge exactly once",
             into_b == evens and into_a == odds),
            ("every listener got every message exactly once",
             arrivals == self.expected_ops and None not in delays),
        ]


WORKLOADS = {cls.name: cls for cls in (Broadcast, Join, BridgeSoak)}

# Sizes small enough for the self-test to run every workload in seconds.
TINY = {
    "broadcast-16": dict(n_robots=4, n_probes=60),
    "join-1000": dict(n_robots=30),
    "bridge-soak": dict(n_messages=40),
}
