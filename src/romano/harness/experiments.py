"""Delivery-ratio and delay-scaling experiments.

Both experiments broadcast timestamped NormalData probes on the shared
"common" topic from the commander (a wired client) and measure what
each robot receives.  A probe payload is::

    seq:u32  send_time_us:u64  zero padding

padded so the whole ROMANO message is ``payload_octets`` long.  Delay
is receive time minus the embedded send time, in integer microseconds.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .. import codec
from ..robot import Robot
from ..simnet import US_PER_SEC, WireTrace
from .config import ScenarioConfig
from .world import World

PROBE_PREFIX = struct.Struct(">IQ")


class ExperimentError(Exception):
    pass


def encode_probe(seq: int, send_time_us: int, payload_octets: int) -> bytes:
    body = PROBE_PREFIX.pack(seq, send_time_us)
    body += bytes(payload_octets - codec.HEADER_LEN - len(body))
    return codec.encode_message(codec.NormalData(body))


def decode_probe(data: bytes) -> tuple[int, int]:
    return PROBE_PREFIX.unpack_from(data)


def publish_times(base_us: int, rate_mps: float, count: int) -> list[int]:
    """The k-th probe goes out at ``base + k/rate`` seconds."""
    return [base_us + round(k * US_PER_SEC / rate_mps) for k in range(count)]


@dataclass
class RobotStats:
    index: int            # 1-based robot number
    romano_id: str
    delays: list[int] = field(default_factory=list)

    @property
    def received(self) -> int:
        return len(self.delays)


@dataclass
class ThroughputResult:
    cfg: ScenarioConfig
    published: int
    per_robot: list[RobotStats]
    buffer_dropped: int
    link_dropped: int
    overflow_onset: Optional[int]   # messages published when the radio
    conservation_ok: bool           # buffer first overflowed, if ever
    subscribers: list[str]          # of "common", in subscription order
    trace: WireTrace
    robots: list[Robot]

    @property
    def delivered(self) -> int:
        return sum(r.received for r in self.per_robot)

    @property
    def delivery_ratio(self) -> float:
        expected = self.published * len(self.per_robot)
        return self.delivered / expected if expected else 1.0


def _attach_recorders(world: World) -> list[RobotStats]:
    stats = []
    for i, node in enumerate(world.nodes, start=1):
        entry = RobotStats(i, node.romano_id)

        def record(msg: codec.NormalData, entry=entry) -> None:
            _, send_time_us = decode_probe(msg.data)
            entry.delays.append(world.sim.now - send_time_us)

        node.on_data(int(codec.DataType.NORMAL_DATA), record)
        stats.append(entry)
    return stats


def _broadcast_probes(world: World, count: int) -> None:
    cfg = world.cfg
    base = world.sim.now + 1_000

    def publish(seq: int) -> None:
        raw = encode_probe(seq, world.sim.now, cfg.payload_octets)
        world.commander.publish(codec.TOPIC_COMMON, raw)

    for seq, t in enumerate(publish_times(base, cfg.rate_mps, count)):
        world.sim.at(t, lambda seq=seq: publish(seq))


def run_throughput(cfg: ScenarioConfig) -> ThroughputResult:
    """Broadcast ``cfg.n_messages`` probes at ``cfg.rate_mps`` and tally."""
    world = World(cfg)
    world.run_ready()
    stats = _attach_recorders(world)
    _broadcast_probes(world, cfg.n_messages)
    world.sim.run_until_idle()

    published, enqueued, buffer_dropped = world.broker.topic_stats(
        codec.TOPIC_COMMON)
    if published != cfg.n_messages:
        raise ExperimentError(
            f"commander published {cfg.n_messages}, broker saw {published}")
    # Fan-out copies only: a robot's lost SUBSCRIBE("common") matches too.
    link_dropped = len(world.trace.query(
        kind="drop-link", src=world.broker.addr, topic=codec.TOPIC_COMMON))
    overflow = world.broker.first_overflow
    onset = (overflow["published_so_far"]
             if overflow and overflow["topic"] == codec.TOPIC_COMMON else None)

    subscribers = world.broker.subscribers(codec.TOPIC_COMMON)
    delivered = sum(r.received for r in stats)
    conservation_ok = (published * len(subscribers)
                       == delivered + buffer_dropped + link_dropped)
    return ThroughputResult(
        cfg=cfg, published=published, per_robot=stats,
        buffer_dropped=buffer_dropped, link_dropped=link_dropped,
        overflow_onset=onset, conservation_ok=conservation_ok,
        subscribers=subscribers, trace=world.trace, robots=world.robots)


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Least squares y = a*x + b; returns (slope, intercept, r squared)."""
    n = len(xs)
    if n < 2 or len(ys) != n:
        raise ValueError("need at least two paired samples")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValueError("degenerate fit: all x equal")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r_squared


@dataclass
class ScalabilityResult:
    cfg: ScenarioConfig
    n_values: list[int]
    per_n: dict                     # n -> list[RobotStats]
    slope_us: float
    intercept_us: float
    r_squared: float
    traces: dict[int, WireTrace]
    robots: list[Robot]            # of the last swarm size run

    def max_delay_us(self, n: int) -> int:
        return max(max(r.delays) for r in self.per_n[n])


def run_scalability(cfg: ScenarioConfig) -> ScalabilityResult:
    """Max broadcast delay versus swarm size over fixed-latency links.

    One throughput run per swarm size from 1 to ``cfg.n_robots``, with
    radio links pinned to ``latency_hi_us`` exactly (no jitter, no loss)
    so the dispatch spacing is the only delay that grows with the
    swarm; the returned fit is max delay against robot count.
    """
    fixed = cfg.replace(latency_lo_us=cfg.latency_hi_us, loss_prob=0.0)
    n_values = list(range(1, cfg.n_robots + 1))
    per_n: dict[int, list[RobotStats]] = {}
    traces: dict[int, WireTrace] = {}
    for n in n_values:
        res = run_throughput(fixed.replace(n_robots=n))
        if res.subscribers != [r.node.session.client_id for r in res.robots]:
            raise ExperimentError(
                f"n={n}: subscription order {res.subscribers} != robot order")
        for entry in res.per_robot:
            if entry.received != res.published:
                raise ExperimentError(
                    f"n={n}: robot {entry.index} got {entry.received}"
                    f" of {res.published} probes")
        per_n[n], traces[n] = res.per_robot, res.trace

    ys = [float(max(max(r.delays) for r in per_n[n])) for n in n_values]
    if len(n_values) >= 2:
        slope, intercept, r_squared = linear_fit(n_values, ys)
    else:
        slope, intercept, r_squared = 0.0, ys[0], 1.0
    return ScalabilityResult(cfg=cfg, n_values=n_values, per_n=per_n,
                             slope_us=slope, intercept_us=intercept,
                             r_squared=r_squared, traces=traces,
                             robots=res.robots)
