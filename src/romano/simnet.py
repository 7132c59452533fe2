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
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Iterator, NamedTuple, Optional, TextIO

US_PER_SEC = 1_000_000

PORT_MQTTSN = 1884   # broker traffic
PORT_APP = 7400      # direct node-to-node datagrams (ranging probes)


class NoLink(Exception):
    """Send attempted where no connected link exists."""


class SimulationLimit(Exception):
    """Event budget exhausted before the run went idle."""


# -- Event loop ---------------------------------------------------------------

# An entry is the list [time_us, seq, fn, args]; seq is unique, so
# entries never compare past it.  A cancelled entry has fn and args set
# to None, so it holds nothing alive, and stays queued until it reaches
# the head.
_FN, _ARGS = 2, 3


class Timer:
    """Handle for a queued entry, as :meth:`Simulator.at` returns or a
    caller wraps around :meth:`Simulator.call_at`'s; cancellation is lazy."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list):
        self._entry = entry

    def cancel(self) -> None:
        self._entry[_FN] = self._entry[_ARGS] = None


class Simulator:
    """Runs events in (time, scheduling order), whichever of :meth:`at`
    and :meth:`call_at` scheduled them.  An entry no earlier than the last
    in the sorted run joins it in O(1), any other the heap; each step
    takes the smaller head unless it is past the run's deadline."""

    def __init__(self, seed: int = 0):
        self.now = 0
        self.rng = random.Random(seed)
        self._run: deque[list] = deque()
        self._heap: list[list] = []
        self._next_seq = 0
        self._deadline_us = 2 ** 63 - 1   # no run: past any int64 time

    def call_at(self, time_us: int, fn: Callable[..., None], *args) -> list:
        """Run ``fn(*args)`` at ``time_us``; returns the queued entry, which
        :meth:`at` wraps in a :class:`Timer`."""
        if time_us < self.now:
            raise ValueError("cannot schedule at {} before now {}".format(
                time_us, self.now))
        entry = [time_us, self._next_seq, fn, args]
        run = self._run
        if not run or time_us >= run[-1][0]:
            run.append(entry)
        else:
            heappush(self._heap, entry)
        self._next_seq += 1
        return entry

    def at(self, time_us: int, fn: Callable[[], None]) -> Timer:
        return Timer(self.call_at(time_us, fn))

    def after(self, delay_us: int, fn: Callable[[], None]) -> Timer:
        return self.at(self.now + delay_us, fn)

    def step(self) -> bool:
        """Run the next event; False if none is due by the run's deadline."""
        run, heap = self._run, self._heap
        while run or heap:
            entry = (run.popleft() if run and (not heap or run[0] < heap[0])
                     else heappop(heap))
            time_us, _, fn, args = entry
            if fn is None:
                continue
            if time_us > self._deadline_us:
                heappush(heap, entry)   # the head again by (time, seq)
                return False
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
            "event budget of {} events spent before the simulation went"
            " idle".format(max_events))

    def run_until_true(self, pred: Callable[[], bool], deadline_us: int) -> bool:
        """Step until ``pred()`` holds; False if the deadline passes first.
        Until it returns, :meth:`step` stops at ``deadline_us``."""
        outer, self._deadline_us = self._deadline_us, deadline_us
        try:
            while not pred():
                if not self.step():
                    self.now = max(self.now, deadline_us)
                    return False
            return True
        finally:
            self._deadline_us = outer


# -- Wire trace ---------------------------------------------------------------

# Record kinds: "send" (octets put on a link), "deliver", "drop-link"
# (loss draw), "drop-buffer" (broker egress overflow).  A record's line
# in wire_trace.log is its fields in TraceRecord's order, tab-separated.
_LINE = "%d\t%s\t%s\t%s\t%d\t%s"


class TraceRecord(NamedTuple):
    time_us: int
    src: str
    dst: str
    kind: str
    nbytes: int
    topic: str = ""

    def line(self) -> str:
        return _LINE % self


class _Names(dict):
    """Index of each distinct string in ``names``; a lookup adds a new one."""

    def __init__(self) -> None:
        super().__init__()
        self.names: list[str] = []

    def __missing__(self, name: str) -> int:
        self.names.append(name)
        return self.setdefault(name, len(self.names) - 1)


class WireTrace:
    """Records kept in columns, 20 octets each: ``time_us`` as int64, and
    route, ``nbytes`` and topic as uint32.  A route is a (src, dst, kind)
    triple held in three more uint32 columns, and a topic or route name
    is an index into one table of distinct strings.  ``records`` is a
    read-only view in record order that rebuilds each
    :class:`TraceRecord` it yields."""

    def __init__(self) -> None:
        self._codes = _Names()
        # time_us, route, nbytes, topic; bound appends keep rows cheap
        self._columns = tuple(array(t) for t in "qIII")
        self._appends = tuple(column.append for column in self._columns)
        # route -> src, dst and kind codes
        self._routes = tuple(array("I") for _ in range(3))
        self._recorded: dict[tuple[str, str, str], int] = {}
        self.records = _Records(self)

    def route(self, src: str, dst: str, kind: str) -> int:
        """Add a route; rows that cite its index read as src, dst, kind."""
        for column, name in zip(self._routes, (src, dst, kind)):
            column.append(self._codes[name])
        return len(self._routes[0]) - 1

    def record(self, time_us: int, src: str, dst: str, kind: str,
               nbytes: int, topic: Optional[str]) -> None:
        route = self._recorded.get((src, dst, kind))
        if route is None:
            route = self._recorded[src, dst, kind] = self.route(src, dst, kind)
        t, r, n, p = self._appends
        t(time_us)
        r(route)
        n(nbytes)
        p(self._codes[topic or ""])

    def _named(self) -> tuple[Callable[[int], str], ...]:
        """Code-to-name lookups for a row's src, dst, kind and topic."""
        names = self._codes.names
        srcs, dsts, kinds = ([names[c] for c in column]
                             for column in self._routes)
        return (srcs.__getitem__, dsts.__getitem__, kinds.__getitem__,
                names.__getitem__)

    def write(self, fh: TextIO) -> None:
        """Stream every record's line to ``fh``, each ended by a newline,
        formatted straight from the columns."""
        src, dst, kind, name = self._named()
        t, r, n, p = self._columns
        fh.writelines(map((_LINE + "\n").__mod__, zip(
            t, map(src, r), map(dst, r), map(kind, r), n, map(name, p))))

    def query(self, kind: Optional[str] = None, src: Optional[str] = None,
              dst: Optional[str] = None,
              topic: Optional[str] = None) -> list[TraceRecord]:
        _, routes, _, topics = self._columns
        picked = range(len(routes))
        # get() adds no name, and None matches no record.
        wanted = [(column, self._codes.get(name)) for column, name
                  in zip(self._routes, (src, dst, kind)) if name is not None]
        if wanted:
            hits = {i for i in range(len(self._routes[0]))
                    if all(column[i] == code for column, code in wanted)}
            picked = [i for i in picked if routes[i] in hits]
        if topic is not None:
            code = self._codes.get(topic)
            picked = [i for i in picked if topics[i] == code]
        return [self.records[i] for i in picked]


class _Records:
    def __init__(self, trace: WireTrace) -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace._columns[0])

    def __getitem__(self, i: int) -> TraceRecord:
        trace = self._trace
        t, r, n, p = trace._columns
        name, route = trace._codes.names, r[i]
        src, dst, kind = (name[column[route]] for column in trace._routes)
        return TraceRecord(t[i], src, dst, kind, n[i], name[p[i]])

    def __iter__(self) -> Iterator[TraceRecord]:
        src, dst, kind, name = self._trace._named()
        t, r, n, p = self._trace._columns
        return map(TraceRecord, t, map(src, r), map(dst, r), map(kind, r),
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


class _Pair:
    """One direction: its link, FIFO horizon (latest delivery scheduled)
    and its send and deliver routes in the trace."""

    __slots__ = ("link", "horizon", "src", "dst", "send_route",
                 "deliver_route")

    def __init__(self, link: Optional[LinkModel], src: str, dst: str,
                 trace: WireTrace) -> None:
        self.link, self.horizon, self.src, self.dst = link, 0, src, dst
        self.send_route = trace.route(src, dst, "send")
        self.deliver_route = trace.route(src, dst, "deliver")


class Network:
    """Address-keyed endpoints joined by per-pair links.

    Endpoints attach a receive callback per (address, port).  Each
    (src, dst) address pair has one entry, made at its first send, that
    holds its link (none unless :meth:`set_link_pair` set one), FIFO
    horizon and trace routes; ports share the pair's link.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.trace = WireTrace()
        self._endpoints: dict[tuple[str, int], Callable[[str, bytes], None]] = {}
        self._links: dict[tuple[str, str], LinkModel] = {}
        self._pairs: dict[tuple[str, str], _Pair] = {}
        # The trace's name table and column appends, for rows written here.
        self._codes, self._row = self.trace._codes, self.trace._appends
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
        for pair in ((a, b), (b, a)):
            self._links[pair] = link
            if pair in self._pairs:
                self._pairs[pair].link = link

    def send(self, src: str, dst: str, data: bytes,
             topic: Optional[str] = None, port: int = PORT_MQTTSN) -> None:
        """Put octets on the src->dst link, as immutable ``bytes``.

        Raises:
            NoLink: if no link exists or it is disconnected.
        """
        data = data if type(data) is bytes else bytes(data)
        pair = self._pairs.get((src, dst))
        if pair is None:
            pair = self._pairs[(src, dst)] = _Pair(
                self._links.get((src, dst)), src, dst, self.trace)
        link = pair.link
        if link is None or not link.connected:
            raise NoLink("no connected link from {} to {}".format(src, dst))
        sim = self.sim
        now = sim.now
        nbytes = len(data)
        topic_code = self._codes[topic or ""]
        self.sent += 1
        t, r, n, p = self._row
        t(now)
        r(pair.send_route)
        n(nbytes)
        p(topic_code)

        if link.loss_prob > 0.0 and sim.rng.random() < link.loss_prob:
            self.link_dropped += 1
            self.trace.record(now, src, dst, "drop-link", nbytes, topic)
            return

        lo, hi = link.latency_us
        due = now + lo
        if lo != hi:   # rng.randint(lo, hi) without its 3 Python frames
            span = hi - lo + 1
            draw = sim.rng.getrandbits(span.bit_length())
            while draw >= span:   # CPython's randrange rejects the same way
                draw = sim.rng.getrandbits(span.bit_length())
            due += draw
        if due < pair.horizon:
            due = pair.horizon
        else:
            pair.horizon = due
        sim.call_at(due, self._deliver, pair, data, topic_code, port)

    def _deliver(self, pair: _Pair, data: bytes, topic_code: int,
                 port: int) -> None:
        endpoint = self._endpoints.get((pair.dst, port))
        if endpoint is None:
            self.no_endpoint += 1
            return
        self.delivered += 1
        t, r, n, p = self._row
        t(self.sim.now)
        r(pair.deliver_route)
        n(len(data))
        p(topic_code)
        endpoint(pair.src, data)
