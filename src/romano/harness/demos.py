"""Application demos: group control, path copying, dispersal, bridging.

Each demo builds its own world, drives the scenario, and returns a
:class:`DemoResult` whose checks state exactly what held and what did
not.  Demos never raise on a failed check; infrastructure faults (the
swarm not forming, a lost link) raise :class:`DemoError`.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Callable

from .. import codec
from ..robot import (DISPERSAL_INTERVAL_US, DISPERSAL_PATH_LOSS,
                     DISPERSAL_STRIDE_MM, DISPERSAL_THRESHOLD_DBM,
                     LEADER_TOPIC, DispersalController, LeaderScript, Pose,
                     Robot)
from ..bridge import BridgeEnd
from ..session import ClientSession
from ..simnet import LinkModel, WireTrace
from .config import ScenarioConfig
from .world import Cell, World, relay_addr

PROBE_LINK_LATENCY_US = 5_000
DISPERSAL_MAX_ROUNDS = 200
DISPERSAL_HOLD_ROUNDS = 50


class DemoError(Exception):
    pass


@dataclass
class DemoCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class DemoResult:
    demo: str
    trace: WireTrace
    robots: list[Robot]
    checks: list[DemoCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(DemoCheck(name, bool(passed), detail))


def _publish_romano(session: ClientSession, topic: str,
                    msg: codec.RomanoMessage) -> None:
    session.publish(topic, codec.encode_message(msg))


# -- Group control -------------------------------------------------------------------


def run_group_control(cfg: ScenarioConfig) -> DemoResult:
    """Broadcast one order to the swarm, then a private one to a robot."""
    world = World(cfg)
    world.run_ready()
    result = DemoResult("group-control", world.trace, world.robots)

    _publish_romano(world.commander, codec.TOPIC_COMMON,
                    codec.movement_control(codec.MovementType.MOVE_FRONT, 100))
    world.sim.run_until_idle()
    moved = Pose(100.0, 0.0, 0.0)
    result.check(
        "broadcast moves every robot 100 mm forward",
        all(r.pose == moved for r in world.robots),
        "; ".join(f"{r.romano_id}@({r.pose.x_mm:.1f},{r.pose.y_mm:.1f})"
                  for r in world.robots))

    solo = world.robots[0]
    _publish_romano(world.commander, solo.romano_id,
                    codec.movement_control(codec.MovementType.ROTATE_LEFT, 90))
    world.sim.run_until_idle()
    result.check(
        "private topic turns only the addressed robot",
        solo.pose.heading_deg == 90.0
        and all(r.pose == moved for r in world.robots[1:]),
        f"{solo.romano_id} heading {solo.pose.heading_deg:.1f}")
    result.check(
        "order counts match (2 for the addressed robot, 1 elsewhere)",
        len(solo.executed) == 2
        and all(len(r.executed) == 1 for r in world.robots[1:]))
    return result


# -- Path copying ----------------------------------------------------------------------


def run_path_copy(cfg: ScenarioConfig) -> DemoResult:
    """A leader walks a square; subscribed followers replay it exactly."""
    if cfg.n_robots < 2:
        raise DemoError("path copy needs at least two robots")
    world = World(cfg)
    world.run_ready()
    result = DemoResult("path-copy", world.trace, world.robots)
    leader, followers = world.robots[0], world.robots[1:]

    topic = LEADER_TOPIC
    for follower in followers:
        _publish_romano(world.commander, follower.romano_id,
                        codec.MqttSubscribe(topic))
    if not world.sim.run_until_true(
            lambda: len(world.broker.subscribers(topic)) == len(followers),
            world.sim.now + 5_000_000):
        raise DemoError("followers never subscribed to the leader topic")

    script = LeaderScript(leader)
    script.start()
    world.sim.run_until_idle()

    result.check("leader finished the scripted square", script.done,
                 f"{len(script.emitted)} orders emitted")
    result.check(
        "every follower replayed the exact order stream",
        all(f.executed == script.emitted for f in followers))
    result.check(
        "every follower landed on the leader pose",
        all(f.pose == leader.pose for f in followers),
        f"leader at ({leader.pose.x_mm:.9f},{leader.pose.y_mm:.9f})")
    closure = math.hypot(leader.pose.x_mm, leader.pose.y_mm)
    result.check(
        "square closes on the start point within 1e-6 mm",
        closure <= 1e-6 and leader.pose.heading_deg == 0.0,
        f"closure {closure:.3e} mm")
    return result


# -- Dispersal ----------------------------------------------------------------------------


def run_dispersal(cfg: ScenarioConfig) -> DemoResult:
    """Two robots range each other apart until RSSI hits the threshold.

    Runs ``DISPERSAL_MAX_ROUNDS + DISPERSAL_HOLD_ROUNDS`` measurement
    rounds; passing means the pair entered the equilibrium band (one
    stride around the threshold distance) within ``DISPERSAL_MAX_ROUNDS``
    rounds and never left.
    """
    sub = cfg.replace(n_robots=2)
    d0 = cfg.initial_separation_mm
    world = World(sub, poses=[Pose(0.0, 0.0, 180.0), Pose(d0, 0.0, 0.0)])
    world.run_ready()
    result = DemoResult("dispersal", world.trace, world.robots)

    a, b = world.robots
    world.net.set_link_pair(a.node.session.client_id,
                            b.node.session.client_id,
                            LinkModel.fixed(PROBE_LINK_LATENCY_US))
    ctrl_a = DispersalController(a, b)
    ctrl_b = DispersalController(b, a)

    def separation() -> float:
        return math.hypot(b.pose.x_mm - a.pose.x_mm,
                          b.pose.y_mm - a.pose.y_mm)

    distance_log: list[float] = []
    ctrl_a.on_round = ctrl_b.on_round = lambda rssi: distance_log.append(
        separation())

    target = DISPERSAL_MAX_ROUNDS + DISPERSAL_HOLD_ROUNDS
    ctrl_a.initiate()
    done = world.sim.run_until_true(
        lambda: ctrl_a.rounds + ctrl_b.rounds >= target,
        world.sim.now + target * 5 * DISPERSAL_INTERVAL_US)
    if not done:
        raise DemoError("dispersal rounds stalled")

    goal = DISPERSAL_PATH_LOSS.equilibrium_mm(DISPERSAL_THRESHOLD_DBM)
    band = DISPERSAL_STRIDE_MM
    inside = [abs(d - goal) <= band for d in distance_log]
    entered = inside.index(True) + 1 if True in inside else None
    result.check(
        f"entered the {goal:.0f}±{band:.0f} mm band in at most"
        f" {DISPERSAL_MAX_ROUNDS} rounds",
        entered is not None and entered <= DISPERSAL_MAX_ROUNDS,
        f"entered at round {entered}, start {d0:.0f} mm")
    result.check(
        "never left the band after entering",
        entered is not None and all(inside[entered - 1:]),
        f"final separation {distance_log[-1]:.1f} mm")
    result.check(
        "roles alternate (round counts differ by at most one)",
        abs(ctrl_a.rounds - ctrl_b.rounds) <= 1,
        f"{ctrl_a.rounds} vs {ctrl_b.rounds}")
    return result


# -- Bridged networks -----------------------------------------------------------------------


class BridgedWorld(World):
    """Two broker domains joined by a relay pair on an allow-listed topic."""

    def __init__(self, cfg: ScenarioConfig) -> None:
        super().__init__(cfg)
        self.cell_a = self.cell
        self.cell_b = Cell(self.net, cfg, cell=2)
        self.cells.append(self.cell_b)
        topics = cfg.bridge_topic_list()
        self.end_a, self.end_b = (
            BridgeEnd(ClientSession(self.net, relay_addr(c.cell), c.addr),
                      topics)
            for c in self.cells)
        self.end_a.peer, self.end_b.peer = self.end_b, self.end_a

    def start(self) -> None:
        super().start()
        self.end_a.start()
        self.end_b.start()

    def ready(self) -> bool:
        return super().ready() and self.end_a.ready() and self.end_b.ready()


def _count_crossed_seqs(end: BridgeEnd) -> dict[int, int]:
    counts: dict[int, int] = {}
    for _, _, data in end.crossings:
        msg = codec.decode_message(data)
        if isinstance(msg, codec.NormalData) and len(msg.data) >= 4:
            seq = struct.unpack_from(">I", msg.data)[0]
            counts[seq] = counts.get(seq, 0) + 1
    return counts


def run_bridge(cfg: ScenarioConfig, soak_messages: int = 40) -> DemoResult:
    """Command robots in a remote network, then soak the relay path.

    The soak alternates sequence-numbered publishes between the two
    networks and verifies every message crossed the bridge exactly once
    and reached each remote subscriber exactly once.
    """
    world = BridgedWorld(cfg)
    world.run_ready()
    result = DemoResult("bridge", world.trace, world.robots)
    topic = cfg.bridge_topic_list()[0]

    listeners = world.cell_b.robots[:2]
    for robot in listeners:
        _publish_romano(world.cell_b.commander, robot.romano_id,
                        codec.MqttSubscribe(topic))
    want = len(listeners) + 1  # the relay is already subscribed
    if not world.sim.run_until_true(
            lambda: len(world.cell_b.broker.subscribers(topic)) == want,
            world.sim.now + 5_000_000):
        raise DemoError("remote robots never subscribed to the bridged topic")

    _publish_romano(world.cell_a.commander, topic,
                    codec.movement_control(codec.MovementType.MOVE_FRONT, 70))
    world.sim.run_until_idle()
    moved = Pose(70.0, 0.0, 0.0)
    still = Pose()
    result.check(
        "remote subscribers executed the bridged order",
        all(r.pose == moved for r in listeners))
    result.check(
        "unsubscribed and local robots never moved",
        all(r.pose == still for r in world.cell_b.robots[2:])
        and all(r.pose == still for r in world.cell_a.robots))
    result.check(
        "order crossed once and was never echoed back",
        world.end_a.forwarded == 1 and world.end_b.republished == 1
        and world.end_b.forwarded == 0 and world.end_a.republished == 0,
        f"a->b {world.end_a.forwarded}, b->a {world.end_b.forwarded}")

    # Soak: even sequence numbers originate in A, odd in B.
    received: dict[int, list[int]] = {i: [] for i in range(len(listeners))}
    for i, robot in enumerate(listeners):
        def record(msg: codec.NormalData, i=i) -> None:
            received[i].append(struct.unpack_from(">I", msg.data)[0])

        robot.node.on_data(int(codec.DataType.NORMAL_DATA), record)

    for seq in range(soak_messages):
        side = world.cell_a.commander if seq % 2 == 0 else world.cell_b.commander
        raw = codec.encode_message(
            codec.NormalData(struct.pack(">I", seq)))
        # Each message fans out to two gated radio copies, so 2 ms spacing
        # keeps the egress radio inside its service rate; the soak measures
        # routing, not buffer overflow.
        world.sim.after(2_000 * (seq + 1), lambda s=side, r=raw: s.publish(
            topic, r))
    world.sim.run_until_idle()

    into_b = _count_crossed_seqs(world.end_b)   # A-origin arrivals
    into_a = _count_crossed_seqs(world.end_a)   # B-origin arrivals
    once_each = (all(into_b.get(s, 0) == 1
                     for s in range(0, soak_messages, 2))
                 and all(into_a.get(s, 0) == 1
                         for s in range(1, soak_messages, 2))
                 and all(c == 1 for c in into_b.values())
                 and all(c == 1 for c in into_a.values())
                 and not set(into_a) & set(into_b))
    result.check(
        f"soak: all {soak_messages} messages crossed exactly once",
        once_each,
        f"a->b {world.end_a.forwarded - 1}, b->a {world.end_b.forwarded}")
    result.check(
        "soak: every remote subscriber saw each foreign message once"
        " and every local message once",
        all(sorted(seqs) == list(range(soak_messages))
            for seqs in received.values()))
    return result


DEMOS: dict[str, Callable[[ScenarioConfig], DemoResult]] = {
    "group-control": run_group_control,
    "path-copy": run_path_copy,
    "dispersal": run_dispersal,
    "bridge": run_bridge,
}
