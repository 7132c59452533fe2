"""Assembles simulated worlds: broker, registry, commander and robot swarm.

A :class:`Cell` is one broker domain.  The broker, registry server and
commander sit on wired links (zero latency, lossless, exempt from the
radio gate); each robot reaches the broker over a radio link drawn from
the scenario's latency window and loss probability, one ``LinkModel``
that all of a cell's robots share (give one robot its own with
``Network.set_link_pair``; changing the shared one changes them all).
Addresses follow a fixed scheme so ROMANO IDs are unique across cells:

    broker     fe80::212:4b00:<cell>:1
    registry   fe80::212:4b00:<cell>:2
    commander  fe80::212:4b00:<cell>:3
    relay      fe80::212:4b00:<cell>:4
    robot i    fe80::212:4b00:<cell>0:<i>
"""
from __future__ import annotations

from typing import Optional

from ..broker import Broker
from ..node import READY, RomanoNode
from ..robot import Pose, Robot
from ..server import RegistryServer
from ..session import ACTIVE, ClientSession
from ..simnet import LinkModel, Network, Simulator
from .config import ScenarioConfig


class WorldNotReady(Exception):
    """Establishment did not finish before the deadline."""


def broker_addr(cell: int = 1) -> str:
    return f"fe80::212:4b00:{cell:x}:1"


def server_addr(cell: int = 1) -> str:
    return f"fe80::212:4b00:{cell:x}:2"


def commander_addr(cell: int = 1) -> str:
    return f"fe80::212:4b00:{cell:x}:3"


def relay_addr(cell: int = 1) -> str:
    return f"fe80::212:4b00:{cell:x}:4"


def robot_addr(index: int, cell: int = 1) -> str:
    """Address of the ``index``-th robot (1-based) in a cell."""
    return f"fe80::212:4b00:{cell:x}0:{index:x}"


class Cell:
    """One broker domain with its registry, commander and robots."""

    def __init__(self, net: Network, cfg: ScenarioConfig, cell: int = 1,
                 poses: Optional[list[Pose]] = None) -> None:
        self.cfg = cfg
        self.cell = cell
        self.addr = broker_addr(cell)

        wired = (server_addr(cell), commander_addr(cell), relay_addr(cell))
        self.broker = Broker(
            net, self.addr, radio_buffer_capacity=cfg.radio_buffer_capacity,
            local_clients=wired)
        for addr in wired:
            net.set_link_pair(addr, self.addr, LinkModel.fixed(0))

        self.server = RegistryServer(
            ClientSession(net, server_addr(cell), self.addr))
        self.commander = ClientSession(net, commander_addr(cell), self.addr)

        self.nodes: list[RomanoNode] = []
        self._unready = 0   # index of the first node ready() saw not READY
        self.robots: list[Robot] = []
        self.radio = LinkModel((cfg.latency_lo_us, cfg.latency_hi_us),
                               cfg.loss_prob)  # every robot's link
        for i in range(1, cfg.n_robots + 1):
            addr = robot_addr(i, cell)
            net.set_link_pair(addr, self.addr, self.radio)
            node = RomanoNode(ClientSession(net, addr, self.addr))
            pose = poses[i - 1] if poses else Pose()
            self.nodes.append(node)
            self.robots.append(Robot(node, pose))

    def start(self) -> None:
        # The registry must hold its init-info subscription before any
        # join request lands; it runs on zero-latency links while robot
        # traffic takes at least one radio trip, and same-tick events
        # fire in insertion order, so starting it first suffices.
        self.server.start()
        self.commander.connect()
        for node in self.nodes:
            node.start()

    def ready(self) -> bool:
        # Scan on from the first node last seen not READY once it is READY.
        # A node can drop back to INIT, so all are checked again before True.
        nodes, i = self.nodes, self._unready
        if i < len(nodes) and nodes[i].phase != READY:
            return False
        while i < len(nodes) and nodes[i].phase == READY:
            i += 1
        if i == len(nodes):
            i = next((j for j, n in enumerate(nodes) if n.phase != READY), i)
        self._unready = i
        return (i == len(nodes) and self.server.running
                and self.commander.state == ACTIVE)

    def robot_addrs(self) -> list[str]:
        return [r.node.session.client_id for r in self.robots]


class World:
    """The simulator, network and broker cells of one run.

    The shortcuts name the first cell's parts; ``robots`` spans all cells.
    """

    def __init__(self, cfg: ScenarioConfig,
                 poses: Optional[list[Pose]] = None) -> None:
        self.cfg = cfg
        self.sim = Simulator(seed=cfg.seed)
        self.net = Network(self.sim)
        self.trace = self.net.trace
        self.cell = Cell(self.net, cfg, cell=1, poses=poses)
        self.cells = [self.cell]
        self.broker = self.cell.broker
        self.server = self.cell.server
        self.commander = self.cell.commander
        self.nodes = self.cell.nodes

    @property
    def robots(self) -> list[Robot]:
        return [robot for cell in self.cells for robot in cell.robots]

    def start(self) -> None:
        for cell in self.cells:
            cell.start()

    def ready(self) -> bool:
        # Runs after every event of run_ready, so no per-call set-up.
        for cell in self.cells:
            if not cell.ready():
                return False
        return True

    def run_ready(self) -> None:
        """Start everything and run until the whole swarm is connected."""
        self.start()
        deadline = self.sim.now + self.cfg.ready_deadline_us
        if not self.sim.run_until_true(self.ready, deadline):
            raise WorldNotReady(
                f"swarm not ready after {self.cfg.ready_deadline_us} us")
