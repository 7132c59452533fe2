"""Robot layer tests: kinematics, path loss, drive, leader, dispersal."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from romano import codec
from romano.broker import Broker
from romano.node import READY, RomanoNode
from romano.robot import (DISP_AWAIT_PROBE, DispersalController, LeaderScript,
                          NonpositiveDistance, PathLossModel, Pose, Robot,
                          SQUARE_PATH, UnknownControlType, apply_command)
from romano.server import RegistryServer
from romano.session import ClientSession
from romano.simnet import LinkModel, Network, PORT_APP, Simulator

from faults import Swallow

BROKER = "fe80::212:4b00:1:1"
SERVER = "fe80::212:4b00:1:2"


def cmd(control_type, magnitude):
    return codec.movement_control(control_type, magnitude)


class TestKinematics:
    def test_translation_goldens(self):
        p = Pose()
        p = apply_command(p, cmd(codec.MovementType.MOVE_FRONT, 100))
        assert p == Pose(100.0, 0.0, 0.0)
        p = apply_command(p, cmd(codec.MovementType.MOVE_BACK, 40))
        assert p == Pose(60.0, 0.0, 0.0)

    def test_sideways_is_heading_relative(self):
        left = apply_command(Pose(), cmd(codec.MovementType.MOVE_LEFT, 50))
        right = apply_command(Pose(), cmd(codec.MovementType.MOVE_RIGHT, 50))
        assert left.x_mm == pytest.approx(0.0, abs=1e-9)
        assert left.y_mm == pytest.approx(50.0)
        assert right.y_mm == pytest.approx(-50.0)
        assert left.heading_deg == 0.0  # strafing does not turn

    def test_rotation_goldens(self):
        p = apply_command(Pose(), cmd(codec.MovementType.ROTATE_LEFT, 90))
        assert p == Pose(0.0, 0.0, 90.0)
        p = apply_command(p, cmd(codec.MovementType.ROTATE_RIGHT, 450))
        assert p.heading_deg == 0.0

    def test_heading_stays_normalized(self):
        p = apply_command(Pose(), cmd(codec.MovementType.ROTATE_LEFT, 360))
        assert p.heading_deg == 0.0
        p = apply_command(Pose(), cmd(codec.MovementType.ROTATE_RIGHT, 1))
        assert p.heading_deg == 359.0

    def test_front_follows_heading(self):
        p = Pose(heading_deg=90.0)
        p = apply_command(p, cmd(codec.MovementType.MOVE_FRONT, 100))
        assert p.x_mm == pytest.approx(0.0, abs=1e-9)
        assert p.y_mm == pytest.approx(100.0)

    def test_square_path_closes(self):
        p = Pose()
        for control_type, magnitude in SQUARE_PATH:
            p = apply_command(p, cmd(control_type, magnitude))
        assert p.x_mm == pytest.approx(0.0, abs=1e-6)
        assert p.y_mm == pytest.approx(0.0, abs=1e-6)
        assert p.heading_deg == 0.0

    def test_unknown_control_type(self):
        with pytest.raises(UnknownControlType):
            apply_command(Pose(), cmd(0x0100, 5))


class TestPathLoss:
    def test_reference_anchor(self):
        assert PathLossModel().rssi(1000.0) == -45.0

    def test_decade_anchor(self):
        # one decade out: -45 - 10*2.5*log10(10) lands exactly on -70
        assert PathLossModel().rssi(10_000.0) == -70.0

    def test_equilibrium_inverts_rssi(self):
        model = PathLossModel()
        assert model.equilibrium_mm(-70.0) == 10_000.0
        d = 3456.0
        assert model.equilibrium_mm(model.rssi(d)) == pytest.approx(d)

    def test_monotonic_decay(self):
        model = PathLossModel()
        samples = [model.rssi(d) for d in (100.0, 500.0, 1000.0, 4000.0,
                                           10_000.0, 50_000.0)]
        assert samples == sorted(samples, reverse=True)

    def test_custom_parameters(self):
        model = PathLossModel(p0_dbm=-40.0, d0_mm=500.0, exponent=2.0)
        assert model.rssi(5000.0) == -60.0

    def test_nonpositive_distance(self):
        with pytest.raises(NonpositiveDistance):
            PathLossModel().rssi(0.0)
        with pytest.raises(NonpositiveDistance):
            PathLossModel().rssi(-5.0)


def bare_robot(sim):
    """A robot whose node never talks: drive-layer tests only."""
    session = ClientSession(Network(sim), "fe80::212:4b00:10:1", BROKER)
    return Robot(RomanoNode(session))


class TestRobotDrive:
    def test_instant_drive(self):
        sim = Simulator()
        robot = bare_robot(sim)
        robot.node.enqueue_movement(
            codec.movement_control(codec.MovementType.MOVE_FRONT, 100))
        robot.node.enqueue_movement(
            codec.movement_control(codec.MovementType.ROTATE_LEFT, 90))
        assert robot.pose == Pose(100.0, 0.0, 90.0)
        assert robot.executed == [cmd(0x0000, 100), cmd(0x0004, 90)]
        assert [t for t, _ in robot.pose_trace] == [0, 0, 0]


class SwarmRig:
    """Broker + registry + n ready robots on fixed-latency radio links."""

    def __init__(self, n=2, latency_us=5_000, poses=None):
        self.sim = Simulator(seed=0)
        self.net = Network(self.sim)
        self.broker = Broker(self.net, BROKER, local_clients={SERVER})
        self.net.set_link_pair(SERVER, BROKER, LinkModel.fixed(0))
        self.server = RegistryServer(ClientSession(self.net, SERVER, BROKER))
        self.server.start()
        self.addrs = ["fe80::212:4b00:10:{:x}".format(i + 1)
                      for i in range(n)]
        self.robots = []
        for i, addr in enumerate(self.addrs):
            self.net.set_link_pair(addr, BROKER, LinkModel.fixed(latency_us))
            node = RomanoNode(ClientSession(self.net, addr, BROKER))
            pose = poses[i] if poses else Pose()
            self.robots.append(Robot(node, pose))
            node.start()
        assert self.sim.run_until_true(
            lambda: all(r.node.phase == READY for r in self.robots),
            10_000_000)


class TestReceivedOrders:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(control_type=st.integers(0, 0xFFFF),
           data=st.binary(max_size=4))
    def test_each_order_is_driven_or_handled(self, control_type, data):
        rig = SwarmRig(n=1)
        robot = rig.robots[0]
        handled = []
        robot.node.on_data(int(codec.DataType.MOVEMENT_CONTROL),
                           handled.append)
        order = codec.MovementControl(control_type, data)
        rig.server.session.publish(robot.romano_id,
                                   codec.encode_message(order))
        rig.sim.run_until_idle()  # raises if the order escapes the node
        if len(data) == 2 and control_type <= codec.MovementType.ROTATE_RIGHT:
            assert (robot.executed, handled) == ([order], [])
        else:
            assert (robot.executed, handled) == ([], [order])


class TestLeaderScript:
    def test_follower_replays_the_leader(self):
        rig = SwarmRig(n=2)
        leader, follower = rig.robots
        follower.node.session.subscribe("telemetry")
        assert rig.sim.run_until_true(
            lambda: rig.addrs[1] in rig.broker.subscribers("telemetry"),
            rig.sim.now + 5_000_000)
        script = LeaderScript(leader)
        script.start()
        assert rig.sim.run_until_true(
            lambda: script.done and len(follower.executed) == len(SQUARE_PATH),
            rig.sim.now + 5_000_000)
        assert script.emitted == [cmd(t, m) for t, m in SQUARE_PATH]
        assert leader.executed == script.emitted
        assert follower.executed == script.emitted
        assert follower.pose == leader.pose
        assert leader.pose.heading_deg == 0.0
        assert abs(leader.pose.x_mm) < 1e-6 and abs(leader.pose.y_mm) < 1e-6

    def test_orders_are_evenly_paced(self):
        rig = SwarmRig(n=1)
        leader = rig.robots[0]
        script = LeaderScript(leader)
        script.start()
        assert rig.sim.run_until_true(lambda: script.done,
                                      rig.sim.now + 5_000_000)
        times = [t for t, _ in leader.pose_trace[1:]]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert gaps == [200_000] * (len(SQUARE_PATH) - 1)


def dispersal_pair(separation_mm, latency_us=5_000):
    """Two ready robots facing away on the x axis, controllers attached."""
    poses = [Pose(0.0, 0.0, 180.0), Pose(separation_mm, 0.0, 0.0)]
    rig = SwarmRig(n=2, latency_us=latency_us, poses=poses)
    a, b = rig.robots
    rig.net.set_link_pair(*rig.addrs, LinkModel.fixed(latency_us))
    ctrl_a = DispersalController(a, b)
    ctrl_b = DispersalController(b, a)
    return rig, ctrl_a, ctrl_b


def separation(ctrl_a, ctrl_b):
    return ctrl_b.robot.pose.x_mm - ctrl_a.robot.pose.x_mm


class TestDispersal:
    def run_rounds(self, rig, ctrl_a, ctrl_b, total, deadline_us):
        ctrl_a.initiate()
        assert rig.sim.run_until_true(
            lambda: ctrl_a.rounds + ctrl_b.rounds >= total,
            rig.sim.now + deadline_us)

    def test_converges_from_close_and_holds(self):
        rig, ctrl_a, ctrl_b = dispersal_pair(300.0)
        self.run_rounds(rig, ctrl_a, ctrl_b, 220, 120_000_000)
        assert ctrl_a.moves + ctrl_b.moves == 194  # (10000-300)/50
        assert separation(ctrl_a, ctrl_b) == 10_000.0
        assert abs(ctrl_a.rounds - ctrl_b.rounds) <= 1
        # sin(pi) is not exactly zero, so y drifts by ~1e-16 mm per step
        assert ctrl_a.robot.pose.y_mm == pytest.approx(0.0, abs=1e-9)
        assert ctrl_b.robot.pose.y_mm == pytest.approx(0.0, abs=1e-9)
        # at the threshold both keep measuring but neither moves
        assert ctrl_a.rssi_log[-1][1] == -70.0
        assert ctrl_b.rssi_log[-1][1] == -70.0

    def test_converges_from_mid_range(self):
        rig, ctrl_a, ctrl_b = dispersal_pair(5000.0)
        self.run_rounds(rig, ctrl_a, ctrl_b, 110, 60_000_000)
        assert ctrl_a.moves + ctrl_b.moves == 100
        assert separation(ctrl_a, ctrl_b) == 10_000.0

    def test_narrows_from_too_far(self):
        rig, ctrl_a, ctrl_b = dispersal_pair(12_000.0)
        self.run_rounds(rig, ctrl_a, ctrl_b, 50, 30_000_000)
        assert ctrl_a.moves + ctrl_b.moves == 40
        assert separation(ctrl_a, ctrl_b) == 10_000.0

    def test_holds_exactly_at_threshold(self):
        rig, ctrl_a, ctrl_b = dispersal_pair(10_000.0)
        self.run_rounds(rig, ctrl_a, ctrl_b, 10, 10_000_000)
        assert ctrl_a.moves + ctrl_b.moves == 0
        assert separation(ctrl_a, ctrl_b) == 10_000.0
        assert all(rssi == -70.0 for _, rssi in ctrl_a.rssi_log)

    def test_on_round_hook_sees_every_measurement(self):
        rig, ctrl_a, ctrl_b = dispersal_pair(9_900.0)
        log = []
        ctrl_a.on_round = log.append
        self.run_rounds(rig, ctrl_a, ctrl_b, 6, 10_000_000)
        assert log == [rssi for _, rssi in ctrl_a.rssi_log]

    def test_recovers_from_lost_request(self):
        rig, ctrl_a, ctrl_b = dispersal_pair(300.0)
        lost = Swallow(rig.net, BROKER, lambda src, data: src == rig.addrs[0]
                       and len(data) > 7 and data[7] == codec.UDP_SEND_REQ,
                       count=1)
        self.run_rounds(rig, ctrl_a, ctrl_b, 6, 10_000_000)
        assert lost.swallowed == 1
        total = ctrl_a.moves + ctrl_b.moves
        assert separation(ctrl_a, ctrl_b) == 300.0 + 50.0 * total

    def test_recovers_from_lost_clearance(self):
        rig, ctrl_a, ctrl_b = dispersal_pair(300.0)
        Swallow(rig.net, BROKER, lambda src, data: src == rig.addrs[1]
                and len(data) > 7 and data[7] == codec.UDP_SEND_GO, count=1)
        self.run_rounds(rig, ctrl_a, ctrl_b, 6, 10_000_000)
        total = ctrl_a.moves + ctrl_b.moves
        assert separation(ctrl_a, ctrl_b) == 300.0 + 50.0 * total

    def test_recovers_from_lost_probe(self):
        rig, ctrl_a, ctrl_b = dispersal_pair(300.0)
        # only probes travel the direct robot-to-robot link
        Swallow(rig.net, rig.addrs[1], lambda src, data: src == rig.addrs[0]
                and len(data) == 8, count=1, port=PORT_APP)
        self.run_rounds(rig, ctrl_a, ctrl_b, 6, 10_000_000)
        total = ctrl_a.moves + ctrl_b.moves
        assert separation(ctrl_a, ctrl_b) == 300.0 + 50.0 * total

    def test_a_datagram_from_a_third_robot_is_not_a_probe(self):
        poses = [Pose(0.0, 0.0, 180.0), Pose(5_000.0, 0.0, 0.0), Pose()]
        rig = SwarmRig(n=3, poses=poses)
        a, b, _ = rig.robots
        addr_a, addr_b, addr_c = rig.addrs
        rig.net.set_link_pair(addr_a, addr_b, LinkModel.fixed(5_000))
        rig.net.set_link_pair(addr_c, addr_a, LinkModel.fixed(0))
        ctrl_a = DispersalController(a, b)
        DispersalController(b, a).initiate()
        assert rig.sim.run_until_true(
            lambda: ctrl_a.state == DISP_AWAIT_PROBE, rig.sim.now + 1_000_000)
        # Arrives while A waits for B's probe, and before it.
        rig.net.send(addr_c, addr_a, bytes(8), port=PORT_APP)
        assert rig.sim.run_until_true(lambda: ctrl_a.rounds == 1,
                                      rig.sim.now + 1_000_000)
        probes = rig.net.trace.query(kind="deliver", src=addr_b, dst=addr_a)
        assert ctrl_a.rssi_log == [(r.time_us, PathLossModel().rssi(5_000.0))
                                   for r in probes]
