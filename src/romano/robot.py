"""Differential-drive robot abstraction and swarm behaviors.

Pose lives on a 2-D plane: x/y in millimeters, heading in degrees in
[0, 360) with 0 along +x and counterclockwise positive, so a RotateLeft
increases the heading.  Move Front/Back translate along the heading;
Move Left/Right translate at heading +/-90 degrees without turning (the
drive layer hides how the wheels achieve that).  Magnitudes are the
unsigned 16-bit values carried by MovementControl: millimeters for
translations, degrees for rotations.

The drive controller applies each order the node hands it at once,
records it, and appends a pose-trace row.  Received-signal strength
follows log-distance path loss,

    rssi(d) = P0 - 10 n log10(d / d0)

with P0 the power at reference distance d0.  The dispersal behavior
pairs two robots that alternate a request/clear-to-send/probe cycle
and step apart or together by a fixed stride until the measured RSSI
straddles its threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

from . import codec
from .node import RomanoNode
from .simnet import NoLink, PORT_APP


class RobotError(Exception):
    pass


class NonpositiveDistance(RobotError):
    """RSSI is undefined at or below zero distance."""


class UnknownControlType(RobotError):
    """Control type outside the built-in movement set."""


# -- Pose and kinematics ---------------------------------------------------------

@dataclass(frozen=True)
class Pose:
    x_mm: float = 0.0
    y_mm: float = 0.0
    heading_deg: float = 0.0


def _normalize(deg: float) -> float:
    deg = math.fmod(deg, 360.0)
    return deg + 360.0 if deg < 0.0 else deg


def _translate(pose: Pose, bearing_deg: float, distance_mm: float) -> Pose:
    rad = math.radians(_normalize(bearing_deg))
    return replace(pose,
                   x_mm=pose.x_mm + distance_mm * math.cos(rad),
                   y_mm=pose.y_mm + distance_mm * math.sin(rad))


def apply_command(pose: Pose, command: codec.MovementControl) -> Pose:
    """Apply one built-in movement order to a pose, returning the new pose.

    Raises:
        UnknownControlType: for control types outside the built-in six.
        codec.LengthMismatch: for data other than a 2-octet magnitude.
    """
    kind = command.control_type
    magnitude = float(command.magnitude)
    if kind == codec.MovementType.MOVE_FRONT:
        return _translate(pose, pose.heading_deg, magnitude)
    if kind == codec.MovementType.MOVE_BACK:
        return _translate(pose, pose.heading_deg, -magnitude)
    if kind == codec.MovementType.MOVE_LEFT:
        return _translate(pose, pose.heading_deg + 90.0, magnitude)
    if kind == codec.MovementType.MOVE_RIGHT:
        return _translate(pose, pose.heading_deg - 90.0, magnitude)
    if kind == codec.MovementType.ROTATE_LEFT:
        return replace(pose, heading_deg=_normalize(pose.heading_deg + magnitude))
    if kind == codec.MovementType.ROTATE_RIGHT:
        return replace(pose, heading_deg=_normalize(pose.heading_deg - magnitude))
    raise UnknownControlType(
        "control type {:#06x} has no built-in kinematics".format(kind))


# -- Radio propagation ------------------------------------------------------------

@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss anchored at ``p0_dbm`` @ ``d0_mm``."""

    p0_dbm: float = -45.0
    d0_mm: float = 1000.0
    exponent: float = 2.5

    def rssi(self, distance_mm: float) -> float:
        if distance_mm <= 0.0:
            raise NonpositiveDistance(
                "distance must be positive, got {} mm".format(distance_mm))
        return self.p0_dbm - 10.0 * self.exponent * math.log10(
            distance_mm / self.d0_mm)

    def equilibrium_mm(self, threshold_dbm: float) -> float:
        """Distance at which rssi() equals the threshold."""
        return self.d0_mm * 10.0 ** (
            (self.p0_dbm - threshold_dbm) / (10.0 * self.exponent))


# -- Drive controller --------------------------------------------------------------

class Robot:
    """Executes movement orders against a pose, each at the tick it arrives.

    The node hands every built-in order to ``on_movement``, which applies
    it at once; driving takes no virtual time.  Each executed order is
    appended to ``executed`` and adds one ``pose_trace`` row.
    """

    def __init__(self, node: RomanoNode, pose: Pose = Pose()) -> None:
        self.sim = node.sim
        self.node = node
        self.pose = pose
        self.executed: list[codec.MovementControl] = []
        self.pose_trace: list[tuple[int, Pose]] = [(self.sim.now, pose)]
        node.on_movement = self.on_movement

    @property
    def romano_id(self) -> str:
        return self.node.romano_id

    def on_movement(self, command: codec.MovementControl) -> None:
        self.pose = apply_command(self.pose, command)
        self.executed.append(command)
        self.pose_trace.append((self.sim.now, self.pose))


# -- Scripted leader ------------------------------------------------------------------

SQUARE_PATH: tuple[tuple[int, int], ...] = (
    (codec.MovementType.MOVE_FRONT, 100),
    (codec.MovementType.ROTATE_LEFT, 90),
) * 4
LEADER_TOPIC = "telemetry"
LEADER_INTERVAL_US = 200_000


class LeaderScript:
    """Drives a robot along :data:`SQUARE_PATH`, publishing each order.

    Every ``LEADER_INTERVAL_US`` the next command is executed locally
    (through the robot's own node, like any other order) and
    simultaneously published as MovementControl on ``LEADER_TOPIC``, so
    followers replay the exact emitted stream.
    """

    def __init__(self, robot: Robot) -> None:
        self.sim = robot.sim
        self.robot = robot
        self.emitted: list[codec.MovementControl] = []
        self.done = False
        self._index = 0

    def start(self) -> None:
        self.sim.after(LEADER_INTERVAL_US, self._tick)

    def _tick(self) -> None:
        if self._index >= len(SQUARE_PATH):
            self.done = True
            return
        control_type, magnitude = SQUARE_PATH[self._index]
        self._index += 1
        msg = codec.movement_control(control_type, magnitude)
        self.robot.node.session.publish(LEADER_TOPIC,
                                        codec.encode_message(msg))
        self.robot.node.enqueue_movement(msg)
        self.emitted.append(msg)
        self.sim.after(LEADER_INTERVAL_US, self._tick)


# -- Dispersal ---------------------------------------------------------------------------

DISP_IDLE = "idle"
DISP_SENT_REQ = "sent-req"
DISP_AWAIT_PROBE = "await-probe"
DISPERSAL_PATH_LOSS = PathLossModel()
DISPERSAL_THRESHOLD_DBM = -70.0
DISPERSAL_STRIDE_MM = 50
DISPERSAL_INTERVAL_US = 200_000


class DispersalController:
    """One half of a two-robot RSSI dispersal pair.

    Cycle: the initiator publishes UdpSendReq to the peer's ID topic;
    the peer answers UdpSendGo on the initiator's topic; the initiator
    then broadcasts a raw probe datagram directly (off-broker); the
    peer reads the probe's RSSI and steps away if the signal is above
    ``DISPERSAL_THRESHOLD_DBM``, toward if below, and holds exactly at
    it.  Roles then swap, so the robots alternate single strides of
    ``DISPERSAL_STRIDE_MM``.  A robot waiting for a reply repeats its
    last message every ``DISPERSAL_INTERVAL_US``; movement is
    restricted to the line through both robots.  The probe's RSSI comes
    from the distance to ``peer``'s pose; a datagram on the probe port
    from any other address is ignored.
    """

    def __init__(self, robot: Robot, peer: Robot) -> None:
        self.sim = robot.sim
        self.robot = robot
        self.peer = peer
        self.state = DISP_IDLE
        self.rounds = 0  # probes this robot measured
        self.moves = 0
        self.rssi_log: list[tuple[int, float]] = []
        self.on_round: Optional[Callable[[float], None]] = None
        self._retry_timer = None
        session = robot.node.session
        session.network.attach(session.client_id, self._on_probe,
                               port=PORT_APP)
        robot.node.on_data(codec.UDP_SEND_REQ, self._on_req)
        robot.node.on_data(codec.UDP_SEND_GO, self._on_go)

    # -- initiator side ----------------------------------------------------------

    def initiate(self) -> None:
        """Begin a measurement cycle: ask the peer for clearance."""
        self.state = DISP_SENT_REQ
        self._publish(codec.UDP_SEND_REQ)
        self._arm_retry()

    def _on_go(self, msg: codec.CustomData) -> None:
        if self.state == DISP_SENT_REQ:
            self.state = DISP_IDLE
            self._disarm_retry()
            self._broadcast_probe()
        elif self.state == DISP_IDLE:
            # Duplicate clearance: our probe was lost and the peer is
            # still waiting, so transmit it again.
            self._broadcast_probe()

    def _broadcast_probe(self) -> None:
        session = self.robot.node.session
        try:
            session.network.send(session.client_id,
                                 self.peer.node.session.client_id,
                                 self.robot.romano_id.encode("ascii"),
                                 port=PORT_APP)
        except NoLink:
            pass  # peer out of range; it will re-request

    # -- responder side ------------------------------------------------------------

    def _on_req(self, msg: codec.CustomData) -> None:
        if self.state == DISP_SENT_REQ:
            return  # busy with our own cycle; the peer retries
        self.state = DISP_AWAIT_PROBE
        self._publish(codec.UDP_SEND_GO)
        self._arm_retry()

    def _on_probe(self, src: str, data: bytes) -> None:
        if (self.state != DISP_AWAIT_PROBE
                or src != self.peer.node.session.client_id):
            return
        self.state = DISP_IDLE
        self._disarm_retry()
        rssi = self._measure()
        self.rounds += 1
        self.rssi_log.append((self.sim.now, rssi))
        if rssi > DISPERSAL_THRESHOLD_DBM:
            self._step(codec.MovementType.MOVE_FRONT)
        elif rssi < DISPERSAL_THRESHOLD_DBM:
            self._step(codec.MovementType.MOVE_BACK)
        # Exactly at threshold: hold position.
        if self.on_round is not None:
            self.on_round(rssi)
        self.sim.after(DISPERSAL_INTERVAL_US, self.initiate)

    def _measure(self) -> float:
        dx = self.peer.pose.x_mm - self.robot.pose.x_mm
        dy = self.peer.pose.y_mm - self.robot.pose.y_mm
        return DISPERSAL_PATH_LOSS.rssi(math.hypot(dx, dy))

    def _step(self, control_type: int) -> None:
        # Robots face away from each other, so MOVE_FRONT always widens
        # the pair and MOVE_BACK narrows it, for either robot.
        msg = codec.movement_control(control_type, DISPERSAL_STRIDE_MM)
        self.robot.node.enqueue_movement(msg)
        self.moves += 1

    # -- shared plumbing --------------------------------------------------------------

    def _publish(self, type_code: int) -> None:
        payload = self.robot.romano_id.encode("ascii")
        raw = codec.encode_message(codec.CustomData(type_code, payload))
        self.robot.node.session.publish(self.peer.romano_id, raw)

    def _arm_retry(self) -> None:
        self._disarm_retry()
        self._retry_timer = self.sim.after(DISPERSAL_INTERVAL_US, self._retry)

    def _disarm_retry(self) -> None:
        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None

    def _retry(self) -> None:
        self._retry_timer = None
        if self.state == DISP_SENT_REQ:
            self._publish(codec.UDP_SEND_REQ)
        elif self.state == DISP_AWAIT_PROBE:
            self._publish(codec.UDP_SEND_GO)
        else:
            return
        self._arm_retry()
