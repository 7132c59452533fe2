"""Deterministic virtual-time network simulator.

Time is an integer count of microseconds.  Events execute in
(time, insertion sequence) order, so identical (seed, scenario) pairs
replay identical traces byte for byte.  All randomness — link latency
samples and loss decisions — comes from the single seeded generator
owned by the simulator.

Links are point-to-point with a latency distribution, an independent
loss probability, and a connected flag.  Links never reorder:
a delivery is scheduled at max(now + sample, previous delivery time).
A multihop path is modeled as one link with k times the latency.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Iterator, NamedTuple, Optional

US_PER_SEC = 1_000_000

PORT_MQTTSN = 1884   # broker traffic
PORT_APP = 7400      # direct node-to-node datagrams (ranging probes)


class NoLink(Exception):
    """Send attempted where no connected link exists."""


class SimulationLimit(Exception):
    """Event budget exhausted before the run went idle."""


# -- Event loop ---------------------------------------------------------------

# A heap entry is the list [time_us, seq, fn, args]; seq is unique, so
# entries never compare past it.  A cancelled entry has fn set to None
# and stays in the heap until it reaches the head.
_FN = 2


class Timer:
    """Handle for a callback scheduled with :meth:`Simulator.at`;
    cancellation is lazy."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list):
        self._entry = entry

    def cancel(self) -> None:
        self._entry[_FN] = None


class Simulator:
    """Runs events in (time, scheduling order), whichever of :meth:`at`
    and :meth:`call_at` scheduled them."""

    def __init__(self, seed: int = 0):
        self.now = 0
        self.rng = random.Random(seed)
        self._heap: list[list] = []
        self._next_seq = 0

    def call_at(self, time_us: int, fn: Callable[..., None], *args) -> None:
        """Run ``fn(*args)`` at ``time_us``; for callbacks nobody cancels."""
        if time_us < self.now:
            raise ValueError("cannot schedule at {} before now {}".format(
                time_us, self.now))
        heappush(self._heap, [time_us, self._next_seq, fn, args])
        self._next_seq += 1

    def at(self, time_us: int, fn: Callable[[], None]) -> Timer:
        if time_us < self.now:
            raise ValueError("cannot schedule at {} before now {}".format(
                time_us, self.now))
        entry = [time_us, self._next_seq, fn, ()]
        heappush(self._heap, entry)
        self._next_seq += 1
        return Timer(entry)

    def after(self, delay_us: int, fn: Callable[[], None]) -> Timer:
        return self.at(self.now + delay_us, fn)

    def step(self) -> bool:
        """Run the next pending event; False if the queue is empty."""
        heap = self._heap
        while heap:
            time_us, _, fn, args = heappop(heap)
            if fn is None:
                continue
            self.now = time_us
            fn(*args)
            return True
        return False

    def run_until(self, t_end_us: int) -> None:
        """Run every event scheduled at or before ``t_end_us``."""
        self.run_until_true(lambda: False, t_end_us)

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        for _ in range(max_events):
            if not self.step():
                return
        raise SimulationLimit(
            "still busy after {} events; a recurring timer is likely "
            "running".format(max_events))

    def run_until_true(self, pred: Callable[[], bool], deadline_us: int) -> bool:
        """Step until ``pred()`` holds; False if the deadline passes first."""
        heap = self._heap
        while not pred():
            # A cancelled head must not hide a next event past the deadline.
            while heap and heap[0][_FN] is None:
                heappop(heap)
            if not heap or heap[0][0] > deadline_us:
                self.now = max(self.now, deadline_us)
                return False
            self.step()
        return True


# -- Wire trace ---------------------------------------------------------------

# Record kinds: "send" (octets put on a link), "deliver", "drop-link"
# (loss draw), "drop-buffer" (broker egress overflow).

class TraceRecord(NamedTuple):
    time_us: int
    src: str
    dst: str
    kind: str
    nbytes: int
    topic: str = ""

    def line(self) -> str:
        return "{}\t{}\t{}\t{}\t{}\t{}".format(*self)


class _Names(dict):
    """Index of each distinct string in ``names``; a lookup adds a new one."""

    def __init__(self) -> None:
        super().__init__()
        self.names: list[str] = []

    def __missing__(self, name: str) -> int:
        self.names.append(name)
        return self.setdefault(name, len(self.names) - 1)


class WireTrace:
    """Records kept in columns, 28 octets each: ``time_us`` as int64,
    ``nbytes`` as uint32, and src, dst, kind and topic as uint32 indexes
    into one table of distinct strings.  ``records`` is a read-only view
    in record order that rebuilds each :class:`TraceRecord` it yields."""

    def __init__(self) -> None:
        self._codes = _Names()
        # In TraceRecord's field order; bound appends keep record() cheap.
        self._columns = tuple(array(t) for t in "qIIIII")
        self._appends = tuple(column.append for column in self._columns)
        self.records = _Records(self._columns, self._codes.names)

    def record(self, time_us: int, src: str, dst: str, kind: str,
               nbytes: int, topic: Optional[str]) -> None:
        code = self._codes
        t, s, d, k, n, p = self._appends
        t(time_us)
        s(code[src])
        d(code[dst])
        k(code[kind])
        n(nbytes)
        p(code[topic or ""])

    def lines(self) -> list[str]:
        return [r.line() for r in self.records]

    def query(self, kind: Optional[str] = None, src: Optional[str] = None,
              dst: Optional[str] = None,
              topic: Optional[str] = None) -> list[TraceRecord]:
        _, srcs, dsts, kinds, _, topics = self._columns
        picked = range(len(self.records))
        for column, name in ((kinds, kind), (srcs, src), (dsts, dst),
                             (topics, topic)):
            if name is not None:
                # get() adds no name, and None matches no record.
                code = self._codes.get(name)
                picked = [i for i in picked if column[i] == code]
        return [self.records[i] for i in picked]


class _Records:
    def __init__(self, columns: tuple[array, ...], names: list[str]) -> None:
        self._columns = columns
        self._name = names.__getitem__

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i: int) -> TraceRecord:
        name = self._name
        t, s, d, k, n, p = self._columns
        return TraceRecord(t[i], name(s[i]), name(d[i]), name(k[i]), n[i],
                           name(p[i]))

    def __iter__(self) -> Iterator[TraceRecord]:
        name = self._name
        t, s, d, k, n, p = self._columns
        return map(TraceRecord, t, map(name, s), map(name, d), map(name, k),
                   n, map(name, p))


# -- Links and network ---------------------------------------------------------

@dataclass
class LinkModel:
    """Latency is uniform over [lo, hi] microseconds; equal bounds fix it."""

    latency_us: tuple[int, int] = (10_000, 20_000)
    loss_prob: float = 0.0
    connected: bool = True

    @classmethod
    def fixed(cls, latency_us: int, **kwargs) -> "LinkModel":
        return cls(latency_us=(latency_us, latency_us), **kwargs)


class Network:
    """Address-keyed endpoints joined by per-pair links.

    Endpoints attach a receive callback per (address, port).  A link is
    looked up by (src, dst) address pair, falling back to the default
    model; ports share the pair's link.
    """

    def __init__(self, sim: Simulator,
                 default_link: Optional[LinkModel] = None):
        self.sim = sim
        self.trace = WireTrace()
        self.default_link = default_link
        self._endpoints: dict[tuple[str, int], Callable[[str, bytes], None]] = {}
        self._links: dict[tuple[str, str], LinkModel] = {}
        self._last_delivery: dict[tuple[str, str], int] = {}
        # sent = delivered + link_dropped + no_endpoint + in flight
        self.sent = 0
        self.delivered = 0
        self.link_dropped = 0
        self.no_endpoint = 0    # arrived where nothing is attached

    def attach(self, addr: str, on_receive: Callable[[str, bytes], None],
               port: int = PORT_MQTTSN) -> None:
        self._endpoints[(addr, port)] = on_receive

    def endpoint(self, addr: str,
                 port: int = PORT_MQTTSN) -> Optional[Callable[[str, bytes], None]]:
        """The callback attached at (addr, port), for taps and wrappers."""
        return self._endpoints.get((addr, port))

    def set_link_pair(self, a: str, b: str, link: LinkModel) -> None:
        # Each direction keeps independent FIFO state but shares the model.
        self._links[(a, b)] = link
        self._links[(b, a)] = link

    def send(self, src: str, dst: str, data: bytes,
             topic: Optional[str] = None, port: int = PORT_MQTTSN) -> None:
        """Put octets on the src->dst link.

        Raises:
            NoLink: if no link exists or it is disconnected.
        """
        pair = (src, dst)
        link = self._links.get(pair, self.default_link)
        if link is None or not link.connected:
            raise NoLink("no connected link from {} to {}".format(src, dst))
        sim = self.sim
        now = sim.now
        nbytes = len(data)
        record = self.trace.record
        self.sent += 1
        record(now, src, dst, "send", nbytes, topic)

        if link.loss_prob > 0.0 and sim.rng.random() < link.loss_prob:
            self.link_dropped += 1
            record(now, src, dst, "drop-link", nbytes, topic)
            return

        lo, hi = link.latency_us
        t = now + (lo if lo == hi else sim.rng.randint(lo, hi))
        t = max(t, self._last_delivery.get(pair, 0))
        self._last_delivery[pair] = t
        sim.call_at(t, self._deliver, src, dst, data, topic, port)

    def _deliver(self, src: str, dst: str, data: bytes,
                 topic: Optional[str], port: int) -> None:
        endpoint = self._endpoints.get((dst, port))
        if endpoint is None:
            self.no_endpoint += 1
            return
        self.delivered += 1
        self.trace.record(self.sim.now, src, dst, "deliver", len(data), topic)
        endpoint(src, data)
