"""A fixed yardstick of host speed, timed between repetitions.

The shared host runs the same repetition anywhere from 1x to 2x its
fastest time, in spells of seconds to minutes, so a run's wall time
says as much about the spells it met as about the program.
:func:`reference` is a small event-driven network in the program's
style (timers on a heap, closures, packed frames decoded through a
dispatch table, a growing record list) that imports nothing from
``romano``.  Its code is fixed, so its time moves with the host
only.  ``run.py`` reports the measured phase and the set-up relative
to the reference's mean wall time in the same run, in seconds of a
nominal host on which the reference takes ``NOMINAL_S``.
"""
from __future__ import annotations

import struct
from heapq import heappop, heappush

N_NODES = 40
N_MESSAGES = 800
RECORDS = 83_226   # what reference() returns; anything else is a fault
# Wall time of reference() on a 2-vCPU cloud microVM (Python 3, x86-64);
# run_s and setup_s are reported in seconds of a host on which it takes
# this long.
NOMINAL_S = 0.25

_PUBLISH, _ACK = 0x0C, 0x0D


class _Timer:
    __slots__ = ("fn", "cancelled")

    def __init__(self, fn) -> None:
        self.fn = fn
        self.cancelled = False


class _Record:
    __slots__ = ("time_us", "src", "dst", "kind", "octets")

    def __init__(self, time_us: int, src: str, dst: str, kind: str,
                 octets: int) -> None:
        self.time_us = time_us
        self.src = src
        self.dst = dst
        self.kind = kind
        self.octets = octets


def reference() -> int:
    """Node 0 publishes N_MESSAGES frames to every other node; every third
    is acknowledged and the ack cancels its retry timer.  Returns the
    number of send and receive records."""
    heap: list = []
    seq = 0
    now = 0
    records: list[_Record] = []
    inbox: dict[int, list[int]] = {n: [] for n in range(N_NODES)}
    retries: dict[int, _Timer] = {}

    def at(time_us: int, fn) -> _Timer:
        nonlocal seq
        seq += 1
        timer = _Timer(fn)
        heappush(heap, (time_us, seq, timer))
        return timer

    def send(src: int, dst: int, frame: bytes) -> None:
        records.append(_Record(now, f"n{src}", f"n{dst}", "send", len(frame)))
        at(now + 1_000 + (src * 7 + dst * 13) % 500,
           lambda: deliver(dst, frame))

    def on_publish(dst: int, body: bytes) -> None:
        mid, = struct.unpack_from(">H", body)
        inbox[dst].append(mid)
        if mid % 3 == 0:
            send(dst, 0, struct.pack(">BBH", 4, _ACK, mid))

    def on_ack(dst: int, body: bytes) -> None:
        mid, = struct.unpack_from(">H", body)
        timer = retries.pop(mid, None)
        if timer is not None:
            timer.cancelled = True

    handlers = {_PUBLISH: on_publish, _ACK: on_ack}

    def deliver(dst: int, frame: bytes) -> None:
        records.append(_Record(now, "air", f"n{dst}", "recv", len(frame)))
        handlers[frame[1]](dst, frame[2:])

    def publish(mid: int) -> None:
        frame = struct.pack(">BBH", 12, _PUBLISH, mid) + bytes(8)
        for dst in range(1, N_NODES):
            send(0, dst, frame)
        retries[mid] = at(now + 50_000, lambda: None)

    for mid in range(N_MESSAGES):
        at(mid * 2_000, lambda mid=mid: publish(mid))
    while heap:
        now, _, timer = heappop(heap)
        if not timer.cancelled:
            timer.fn()
    return len(records)
