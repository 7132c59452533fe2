"""Per-layer tracing, installed from outside the program for one repetition.

:class:`Tracer` wraps the public entry points of each layer: module
functions of ``mqttsn`` and ``codec``, class methods of the simulator,
network, broker, gate, session, bridge and harness, the callbacks
attached with ``Network.attach`` and the sessions' ``on_message`` hooks.
Each wrapper is a span that counts calls and accumulates self time: its
duration less the part covered by spans it caused.  ``simnet.step`` self
time therefore holds the event loop plus any event callback no other
span covers (node and session timers, the gate's departure bookkeeping).  Counts the
program keeps itself (drops, retries, acks) are read as differences
across the measured phase.  Nothing is installed outside
``with tracer.installed()``.

``LAYER_METRICS`` names every per-layer metric with its unit, direction
and the end-to-end metric and workload it should move.  The ``robot``
layer has no metric: no workload sends a movement order, so it does no
work here.
"""
from __future__ import annotations

import contextlib
from collections import Counter, deque
from time import perf_counter
from typing import Callable, Iterator

from romano import codec, mqttsn
from romano.bridge import BridgeEnd
from romano.broker import Broker, RadioGate
from romano.harness.world import Cell
from romano.session import ClientSession
from romano.simnet import Network, Simulator, Timer

# name, unit, better, (end-to-end metric on workload) it should move
LAYER_METRICS = [
    ("simnet.events", "count", "lower",
     "run_s on all workloads, most on broadcast-16"),
    ("simnet.events_per_s", "1/s", "higher",
     "run_s on all workloads, most on broadcast-16"),
    ("simnet.at.self_s", "s", "lower", "run_s on all, most on broadcast-16"),
    ("simnet.step.self_s", "s", "lower", "run_s on all, most on broadcast-16"),
    ("simnet.send.calls", "count", "lower", "run_s on all workloads"),
    ("simnet.send.self_s", "s", "lower", "run_s on all, most on broadcast-16"),
    ("simnet.deliver.self_s", "s", "lower",
     "run_s on all, most on broadcast-16"),
    ("simnet.cancelled_ratio", "1", "lower", "run_s on join-1000"),
    ("simnet.trace_records", "count", "lower",
     "peak_rss_mb on broadcast-16 and bridge-soak"),
    ("simnet.link_dropped", "count", "lower",
     "delivery_ratio on all workloads"),
    ("mqttsn.encode.calls", "count", "lower",
     "run_s, most on bridge-soak and join-1000"),
    ("mqttsn.encode.self_s", "s", "lower",
     "run_s, most on bridge-soak and join-1000"),
    ("mqttsn.decode.calls", "count", "lower",
     "run_s, most on bridge-soak and join-1000"),
    ("mqttsn.decode.self_s", "s", "lower",
     "run_s, most on bridge-soak and join-1000"),
    ("mqttsn.decode_errors", "count", "lower",
     "run_s, most on bridge-soak and join-1000"),
    ("codec.encode.calls", "count", "lower",
     "run_s on broadcast-16, barely on join-1000"),
    ("codec.encode.self_s", "s", "lower",
     "run_s on broadcast-16, barely on join-1000"),
    ("codec.decode.calls", "count", "lower",
     "run_s on broadcast-16, barely on join-1000"),
    ("codec.decode.self_s", "s", "lower",
     "run_s on broadcast-16, barely on join-1000"),
    ("broker.handle.calls", "count", "lower", "run_s on broadcast-16"),
    ("broker.handle.self_s", "s", "lower", "run_s on broadcast-16"),
    ("broker.fanout_copies", "count", "lower", "run_s on broadcast-16"),
    ("broker.fanout.self_s", "s", "lower", "run_s on broadcast-16"),
    ("broker.bad_packets", "count", "lower", "run_s on broadcast-16"),
    ("broker.gate.offered", "count", "lower",
     "vdelay_p99_us on broadcast-16"),
    ("broker.gate.transmitted", "count", "lower",
     "frames_per_op on join-1000"),
    ("broker.gate.dropped", "count", "lower",
     "frames_per_op and vdelay_p99_us on join-1000"),
    ("broker.gate.self_s", "s", "lower", "run_s on broadcast-16"),
    ("broker.gate.depth_max", "frames", "lower",
     "vdelay_p99_us on broadcast-16"),
    ("broker.gate.wait_vus_p99", "us", "lower",
     "vdelay_p99_us on broadcast-16"),
    ("session.inbound.calls", "count", "lower", "run_s on broadcast-16"),
    ("session.inbound.self_s", "s", "lower", "run_s on broadcast-16"),
    ("session.exchanges", "count", "lower",
     "frames_per_op and vdelay_p99_us on join-1000"),
    ("session.retransmits", "count", "lower",
     "frames_per_op and vdelay_p99_us on join-1000"),
    ("session.stray_packets", "count", "lower", "run_s on join-1000"),
    ("session.send_failures", "count", "lower",
     "delivery_ratio on all workloads"),
    ("node.dispatch.calls", "count", "lower", "run_s on broadcast-16"),
    ("node.dispatch.self_s", "s", "lower", "run_s on broadcast-16"),
    ("node.early_messages", "count", "lower", "run_s on broadcast-16"),
    ("node.malformed", "count", "lower", "run_s on broadcast-16"),
    ("server.dispatch.self_s", "s", "lower", "run_s on join-1000"),
    ("server.acks_sent", "count", "lower",
     "frames_per_op and run_s on join-1000"),
    ("server.repeat_joins", "count", "lower",
     "frames_per_op and run_s on join-1000"),
    ("bridge.forwarded", "count", "lower",
     "run_s and delivery_ratio on bridge-soak"),
    ("bridge.republished", "count", "lower",
     "run_s and delivery_ratio on bridge-soak"),
    ("bridge.channel.self_s", "s", "lower", "run_s on bridge-soak"),
    ("harness.ready_checks", "count", "lower", "run_s on join-1000"),
    ("harness.ready_checks.self_s", "s", "lower", "run_s on join-1000"),
    ("tracing_overhead", "1", "lower", "none: cost of this traced run"),
    ("mqttsn.decode_per_s", "1/s", "higher",
     "run_s, most on bridge-soak and join-1000"),
    ("mqttsn.encode_per_s", "1/s", "higher",
     "run_s, most on bridge-soak and join-1000"),
    ("codec.decode_per_s", "1/s", "higher", "run_s on broadcast-16"),
]


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list; None when empty."""
    if not sorted_values:
        return None
    rank = -(-len(sorted_values) * q // 100)
    return sorted_values[max(0, int(rank) - 1)]


class Tracer:
    """Spans and counts for one repetition's measured phase."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.errors: Counter = Counter()
        self.frames: list[bytes] = []    # every frame sent, for replay
        self.events = 0
        self.scheduled = 0
        self.cancelled = 0
        self.exchanges = 0
        self.retransmits = 0
        self.gate_offered = 0
        self.gate_depth_max = 0
        self.gate_waits: list[int] = []
        self._children: list[float] = []
        self._pending: set = set()       # timers scheduled and still due
        self._gate_queues: dict = {}     # gate -> offer times, FIFO

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn: Callable) -> Callable:
        calls, self_s, errors = self.calls, self.self_s, self.errors
        children = self._children

        def traced(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                took = perf_counter() - start
                self_s[name] += took - children.pop()
                calls[name] += 1
                if children:
                    children[-1] += took

        return traced

    # -- class-level wrappers ------------------------------------------------

    def _patches(self) -> list[tuple[object, str, Callable]]:
        at = self.span("simnet.at", Simulator.at)
        step = self.span("simnet.step", Simulator.step)
        cancel = Timer.cancel
        offer = self.span("broker.gate", RadioGate.offer)
        transmit = ClientSession._transmit
        send = self.span("simnet.send", Network.send)
        pending = self._pending

        def traced_at(sim, time_us, fn):
            box = []

            def fire():
                pending.discard(box[0])
                fn()

            timer = at(sim, time_us, fire)
            box.append(timer)
            pending.add(timer)
            self.scheduled += 1
            return timer

        def traced_step(sim):
            ran = step(sim)
            self.events += ran
            return ran

        def traced_cancel(timer):
            if timer in pending:
                pending.discard(timer)
                self.cancelled += 1
            cancel(timer)

        def traced_offer(gate, item):
            accepted = offer(gate, item)
            self.gate_offered += 1
            if accepted:
                self._gate_queues.setdefault(gate, deque()).append(
                    gate.sim.now)
                self.gate_depth_max = max(self.gate_depth_max, len(gate))
            return accepted

        def traced_transmit(session, exchange, dup=False):
            if dup:
                self.retransmits += 1
            else:
                self.exchanges += 1
            return transmit(session, exchange, dup)

        def traced_send(net, src, dst, data, *args, **kwargs):
            self.frames.append(data)
            return send(net, src, dst, data, *args, **kwargs)

        return [
            (Simulator, "at", traced_at),
            (Simulator, "step", traced_step),
            (Timer, "cancel", traced_cancel),
            (Network, "send", traced_send),
            (Network, "_deliver", self.span("simnet.deliver",
                                            Network._deliver)),
            (mqttsn, "encode_packet", self.span("mqttsn.encode",
                                                mqttsn.encode_packet)),
            (mqttsn, "decode_packet", self.span("mqttsn.decode",
                                                mqttsn.decode_packet)),
            (codec, "encode_message", self.span("codec.encode",
                                                codec.encode_message)),
            (codec, "decode_message", self.span("codec.decode",
                                                codec.decode_message)),
            (Broker, "handle", self.span("broker.handle", Broker.handle)),
            (Broker, "_dispatch", self.span("broker.fanout",
                                            Broker._dispatch)),
            (RadioGate, "offer", traced_offer),
            (ClientSession, "_transmit", traced_transmit),
            (BridgeEnd, "_on_channel", self.span("bridge.channel",
                                                 BridgeEnd._on_channel)),
            (Cell, "ready", self.span("harness.ready_checks", Cell.ready)),
        ]

    # -- instance-level wrappers ---------------------------------------------

    def _attach(self, net: Network, cells: list[Cell],
                bridge_ends: list[BridgeEnd]) -> None:
        def hook(session: ClientSession, name: str = "") -> None:
            net.attach(session.client_id,
                       self.span("session.inbound",
                                 net.endpoint(session.client_id)))
            if name:
                session.on_message = self.span(name, session.on_message)

        for cell in cells:
            hook(cell.commander)
            hook(cell.server.session, "server.dispatch")
            for node in cell.nodes:
                hook(node.session, "node.dispatch")
            self._attach_gate(cell.broker.gate)
        for end in bridge_ends:
            hook(end.session, "bridge.channel")

    def _attach_gate(self, gate: RadioGate) -> None:
        # Frames queued before tracing started have no offer time.
        queue = self._gate_queues.setdefault(gate, deque([None] * len(gate)))
        transmit = self.span("broker.gate", gate.on_transmit)

        def traced_transmit(item) -> None:
            offered_at = queue.popleft()
            if offered_at is not None:
                self.gate_waits.append(gate.sim.now - offered_at)
            transmit(item)

        gate.on_transmit = traced_transmit

    @contextlib.contextmanager
    def installed(self, net: Network, cells: list[Cell],
                  bridge_ends: list[BridgeEnd]) -> Iterator[None]:
        """Trace the enclosed phase of the world that owns ``net``.

        Class and module attributes are restored on exit; the hooks put
        on this world's endpoints, sessions and gates stay with it.
        """
        before = counters(net, cells, bridge_ends)
        self._attach(net, cells, bridge_ends)
        patches = self._patches()
        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
        after = counters(net, cells, bridge_ends)
        self.counts = {k: after[k] - before[k] for k in after}
        self.trace_records = len(net.trace.records)
        # Drop the timers and gates, which lead back to the world, so a
        # finished tracer does not keep its world alive.
        self._pending.clear()
        self._gate_queues.clear()

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of the traced phase except the
        run-level ones (events_per_s, tracing_overhead, replay rates)."""
        c = self.counts
        waits = sorted(self.gate_waits)
        return {
            "simnet.events": self.events,
            "simnet.at.self_s": self.self_s["simnet.at"],
            "simnet.step.self_s": self.self_s["simnet.step"],
            "simnet.send.calls": self.calls["simnet.send"],
            "simnet.send.self_s": self.self_s["simnet.send"],
            "simnet.deliver.self_s": self.self_s["simnet.deliver"],
            "simnet.cancelled_ratio": (self.cancelled / self.scheduled
                                       if self.scheduled else 0.0),
            "simnet.trace_records": self.trace_records,
            "simnet.link_dropped": c["link_dropped"],
            "mqttsn.encode.calls": self.calls["mqttsn.encode"],
            "mqttsn.encode.self_s": self.self_s["mqttsn.encode"],
            "mqttsn.decode.calls": self.calls["mqttsn.decode"],
            "mqttsn.decode.self_s": self.self_s["mqttsn.decode"],
            "mqttsn.decode_errors": self.errors["mqttsn.decode"],
            "codec.encode.calls": self.calls["codec.encode"],
            "codec.encode.self_s": self.self_s["codec.encode"],
            "codec.decode.calls": self.calls["codec.decode"],
            "codec.decode.self_s": self.self_s["codec.decode"],
            "broker.handle.calls": self.calls["broker.handle"],
            "broker.handle.self_s": self.self_s["broker.handle"],
            "broker.fanout_copies": c["fanout_copies"],
            "broker.fanout.self_s": self.self_s["broker.fanout"],
            "broker.bad_packets": c["bad_packets"],
            "broker.gate.offered": self.gate_offered,
            "broker.gate.transmitted": c["gate_transmitted"],
            "broker.gate.dropped": c["gate_dropped"],
            "broker.gate.self_s": self.self_s["broker.gate"],
            "broker.gate.depth_max": self.gate_depth_max,
            "broker.gate.wait_vus_p99": percentile(waits, 99) or 0,
            "session.inbound.calls": self.calls["session.inbound"],
            "session.inbound.self_s": self.self_s["session.inbound"],
            "session.exchanges": self.exchanges,
            "session.retransmits": self.retransmits,
            "session.stray_packets": c["stray_packets"],
            "session.send_failures": c["send_failures"],
            "node.dispatch.calls": self.calls["node.dispatch"],
            "node.dispatch.self_s": self.self_s["node.dispatch"],
            "node.early_messages": c["early_messages"],
            "node.malformed": c["malformed"],
            "server.dispatch.self_s": self.self_s["server.dispatch"],
            "server.acks_sent": c["acks_sent"],
            "server.repeat_joins": c["acks_sent"] - c["registered"],
            "bridge.forwarded": c["forwarded"],
            "bridge.republished": c["republished"],
            "bridge.channel.self_s": self.self_s["bridge.channel"],
            "harness.ready_checks": self.calls["harness.ready_checks"],
            "harness.ready_checks.self_s":
                self.self_s["harness.ready_checks"],
        }

    def gate_balanced(self) -> bool:
        """offered = transmitted + dropped + queued, offered counted here."""
        c = self.counts
        return self.gate_offered == (c["gate_transmitted"]
                                     + c["gate_dropped"] + c["gate_queued"])


def counters(net: Network, cells: list[Cell],
             bridge_ends: list[BridgeEnd]) -> dict[str, int]:
    """The program's own counters, summed over the world's objects."""
    sessions = [s for cell in cells
                for s in (cell.commander, cell.server.session,
                          *(node.session for node in cell.nodes))]
    sessions += [end.session for end in bridge_ends]
    fanout = 0
    for cell in cells:
        topics = [codec.TOPIC_COMMON, codec.TOPIC_INIT_INFO,
                  *(node.romano_id for node in cell.nodes),
                  *cell.cfg.bridge_topic_list()]
        for topic in topics:
            _, enqueued, dropped = cell.broker.topic_stats(topic)
            fanout += enqueued + dropped
    return {
        "link_dropped": net.link_dropped,
        "fanout_copies": fanout,
        "bad_packets": sum(cell.broker.bad_packets for cell in cells),
        "gate_transmitted": sum(cell.broker.gate.transmitted
                                for cell in cells),
        "gate_dropped": sum(cell.broker.gate.dropped for cell in cells),
        "gate_queued": sum(len(cell.broker.gate) for cell in cells),
        "stray_packets": sum(s.stray_packets for s in sessions),
        "send_failures": sum(s.send_failures for s in sessions),
        "early_messages": sum(n.early_messages
                              for cell in cells for n in cell.nodes),
        "malformed": sum(n.malformed for cell in cells for n in cell.nodes),
        "acks_sent": sum(cell.server.acks_sent for cell in cells),
        "registered": sum(len(cell.server.registry) for cell in cells),
        "forwarded": sum(end.forwarded for end in bridge_ends),
        "republished": sum(end.republished for end in bridge_ends),
    }
