"""MQTT-SN broker with a finite egress radio.

The broker owns the topic registry (name to 16-bit id), per-topic
subscriber lists kept in subscription order, and the egress path toward
radio-attached clients.  Publishing fans out as sequential unicasts:
the i-th subscriber's copy is dispatched exactly (i-1) *
``DISPATCH_INTERVAL_US`` after the publish arrives, which is what a
subscriber observes as its per-position delivery offset.

Every packet bound for a radio client then passes a pacing gate that
models the border router's transmitter: a bounded FIFO with
``RADIO_TX_INTERVAL_US`` between departures.  The gate adds no latency
while idle; under sustained overload it fills and tail-drops at
enqueue, which is the radio-buffer-overflow failure mode seen at high
publish rates.  Clients listed as local (collocated server-side
processes) bypass the gate, and are never fanned a copy of their own
PUBLISH; radio clients are, as MQTT-SN v1.2 has no no-local option.

A request retransmitted while its reply still waits in the gate is not
answered twice: the queued reply answers both.  Once that reply has
departed, a retransmission is answered again, since the reply may have
been lost on the link.  Fan-out copies are never suppressed.  The
decoder refuses a PUBLISH at any QoS but 0, so the broker sends no
PUBACK, a SUBACK grants QoS 0 whatever the SUBSCRIBE asked for, and
every accepted PUBLISH is forwarded as the octets it arrived in.
Replies are framed straight from their fields.
A PUBLISH under a predefined topic id (``codec.PREDEFINED_TOPICS``)
names its topic by that table, and the topic gets its normal id on
first use, as a REGISTER would give it; an id the table lacks makes
the PUBLISH a bad packet.
Inbound frames decode through ``mqttsn.decode_shared``, so a frame the
broker forwards is parsed once in the process.

A client's identity is its address: sessions are keyed by the sender,
opened only by an accepted CONNECT, and fan-out is routed to it.  A
CONNECT whose client id is not its sender's address is answered with
REJECTED_NOT_SUPPORTED, counted as a bad packet, and changes no
session.  An address the broker holds no session for gets
REJECTED_NOT_SUPPORTED for a REGISTER or SUBSCRIBE, and its PUBLISH is
counted as a bad packet and not forwarded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import codec
from . import mqttsn as sn
from .simnet import Network, NoLink, Simulator

# The measured testbed's timings; no run sets either to another value.
DISPATCH_INTERVAL_US = 8_000    # fan-out step from one subscriber to the next
RADIO_TX_INTERVAL_US = 750      # one 802.15.4 frame on the air
DEFAULT_RADIO_BUFFER_CAPACITY = 1_400


class RadioGate:
    """Bounded FIFO in front of a paced transmitter.

    ``offer`` either queues the item or tail-drops it when the buffer
    is full.  Departures keep at least ``tx_interval_us`` between them;
    an item offered to an idle gate departs immediately.
    """

    def __init__(self, sim: Simulator, capacity: int, tx_interval_us: int,
                 on_transmit) -> None:
        self.sim = sim
        self.capacity = capacity
        self.tx_interval_us = tx_interval_us
        self.on_transmit = on_transmit
        self.transmitted = 0
        self.dropped = 0
        self._buf: deque = deque()
        self._next_free_us = 0
        self._pending = False

    def __len__(self) -> int:
        return len(self._buf)

    def offer(self, item) -> bool:
        if len(self._buf) >= self.capacity:
            self.dropped += 1
            return False
        self._buf.append(item)
        if not self._pending:
            self._pending = True
            sim = self.sim
            sim.call_at(max(sim.now, self._next_free_us), self._depart)
        return True

    def _depart(self) -> None:
        self._pending = False
        item = self._buf.popleft()
        self._next_free_us = self.sim.now + self.tx_interval_us
        self.transmitted += 1
        self.on_transmit(item)
        if self._buf and not self._pending:   # on_transmit may re-arm it
            self._pending = True
            self.sim.call_at(self._next_free_us, self._depart)


@dataclass
class _Topic:
    topic_id: int
    name: str
    # client ids in subscription order (a dict for O(1) membership)
    subscribers: dict[str, None] = field(default_factory=dict)
    published: int = 0
    copies_enqueued: int = 0
    copies_dropped: int = 0


class Broker:
    def __init__(self, network: Network, addr: str, *,
                 radio_buffer_capacity: int = DEFAULT_RADIO_BUFFER_CAPACITY,
                 local_clients: Iterable[str] = ()) -> None:
        self.sim = network.sim
        self.network = network
        self.addr = addr
        self.local_clients = set(local_clients)
        # client id -> ids of its subscribed topics, for each connected client
        self.sessions: dict[str, list[int]] = {}
        self.gate = RadioGate(self.sim, radio_buffer_capacity,
                              RADIO_TX_INTERVAL_US, self._send)
        self.bad_packets = 0
        self.unroutable = 0
        self.duplicate_replies = 0
        self.first_overflow: Optional[dict] = None
        self._topics: dict[int, _Topic] = {}
        self._topic_ids: dict[str, int] = {}
        self._next_topic_id = 1
        # (dest, octets) of every reply waiting in the gate
        self._queued_replies: set[tuple[str, bytes]] = set()
        network.attach(addr, self._on_datagram)

    # -- introspection -------------------------------------------------------

    def topic_id(self, name: str) -> Optional[int]:
        return self._topic_ids.get(name)

    def subscribers(self, name: str) -> list[str]:
        tid = self._topic_ids.get(name)
        return list(self._topics[tid].subscribers) if tid else []

    def topic_stats(self, name: str) -> tuple[int, int, int]:
        """(published, copies enqueued, copies dropped) for a topic."""
        tid = self._topic_ids.get(name)
        if tid is None:
            return (0, 0, 0)
        t = self._topics[tid]
        return (t.published, t.copies_enqueued, t.copies_dropped)

    # -- packet handling -----------------------------------------------------

    def _on_datagram(self, src: str, data: bytes) -> None:
        try:
            pkt = sn.decode_shared(data)
        except sn.PacketError:
            self.bad_packets += 1
            return
        self.handle(src, pkt, data)

    def handle(self, src: str, pkt: sn.SnPacket, raw: bytes) -> None:
        handler = self._HANDLERS.get(type(pkt))
        if handler is None:
            self.bad_packets += 1
        else:
            handler(self, src, pkt, raw)

    def _on_connect(self, src: str, pkt: sn.Connect, raw) -> None:
        if pkt.client_id != src:
            self.bad_packets += 1
            self._reply(src, sn.encode_connack(
                sn.ReturnCode.REJECTED_NOT_SUPPORTED))
            return
        subscriptions = self.sessions.setdefault(src, [])
        if pkt.clean_session:
            for tid in subscriptions:
                self._topics[tid].subscribers.pop(src, None)
            subscriptions.clear()
        self._reply(src, sn.encode_connack(sn.ReturnCode.ACCEPTED))

    def _on_register(self, src: str, pkt: sn.Register, raw) -> None:
        if src not in self.sessions:
            self._reply(src, sn.encode_regack(
                0, pkt.msg_id, sn.ReturnCode.REJECTED_NOT_SUPPORTED))
            return
        tid = self._intern_topic(pkt.topic_name)
        code = (sn.ReturnCode.ACCEPTED if tid
                else sn.ReturnCode.REJECTED_CONGESTION)
        self._reply(src, sn.encode_regack(tid, pkt.msg_id, code))

    def _on_subscribe(self, src: str, pkt: sn.Subscribe, raw) -> None:
        if src not in self.sessions:
            self._reply(src, sn.encode_suback(
                0, pkt.msg_id, sn.ReturnCode.REJECTED_NOT_SUPPORTED))
            return
        tid = self._intern_topic(pkt.topic_name)
        if not tid:
            self._reply(src, sn.encode_suback(
                0, pkt.msg_id, sn.ReturnCode.REJECTED_CONGESTION))
            return
        topic = self._topics[tid]
        if src not in topic.subscribers:
            topic.subscribers[src] = None
            self.sessions[src].append(tid)
        self._reply(src, sn.encode_suback(
            tid, pkt.msg_id, sn.ReturnCode.ACCEPTED))

    def _on_unsubscribe(self, src: str, pkt: sn.Unsubscribe, raw) -> None:
        tid = self._topic_ids.get(pkt.topic_name)
        if tid is not None:
            self._topics[tid].subscribers.pop(src, None)
            subscriptions = self.sessions.get(src)
            if subscriptions and tid in subscriptions:
                subscriptions.remove(tid)
        self._reply(src, sn.encode_packet(sn.Unsuback(pkt.msg_id)))

    def _on_publish(self, src: str, pkt: sn.Publish, raw) -> None:
        connected = src in self.sessions
        if pkt.predefined:
            name = codec.PREDEFINED_TOPICS.get(pkt.topic_id)
            topic = (self._topics.get(self._intern_topic(name))
                     if connected and name is not None else None)
        else:
            topic = self._topics.get(pkt.topic_id)
        if not connected or topic is None:
            self.bad_packets += 1
            return
        topic.published += 1
        skip = src if src in self.local_clients else None
        dispatch, call_at = self._dispatch, self.sim.call_at
        now = due = self.sim.now
        for client_id in topic.subscribers:
            if client_id == skip:
                continue
            if due == now:
                dispatch(client_id, raw, topic)
            else:
                call_at(due, dispatch, client_id, raw, topic)
            due += DISPATCH_INTERVAL_US

    # packet type -> handler(self, src, pkt, raw), where raw is the octets
    # the packet arrived in; any other type is a bad packet
    _HANDLERS = {
        sn.Connect: _on_connect,
        sn.Register: _on_register,
        sn.Subscribe: _on_subscribe,
        sn.Unsubscribe: _on_unsubscribe,
        sn.Publish: _on_publish,
    }

    # -- egress ---------------------------------------------------------------

    # Each frame goes to a local client at once, or is offered to the
    # gate, which tail-drops it with a drop-buffer trace row when full.

    def _reply(self, dest: str, raw: bytes) -> None:
        key = (dest, raw)
        if key in self._queued_replies:
            self.duplicate_replies += 1  # the queued copy answers this too
        elif dest in self.local_clients:
            self._send((dest, raw, None))
        elif self.gate.offer((dest, raw, None)):
            self._queued_replies.add(key)
        else:
            self.network.trace.record(self.sim.now, self.addr, dest,
                                      "drop-buffer", len(raw), None)

    def _dispatch(self, dest: str, raw: bytes, topic: _Topic) -> None:
        frame = (dest, raw, topic.name)
        if dest in self.local_clients:
            self._send(frame)
        elif not self.gate.offer(frame):
            self.network.trace.record(self.sim.now, self.addr, dest,
                                      "drop-buffer", len(raw), topic.name)
            topic.copies_dropped += 1
            if self.first_overflow is None:
                self.first_overflow = {
                    "time_us": self.sim.now,
                    "topic": topic.name,
                    "published_so_far": topic.published,
                }
            return
        topic.copies_enqueued += 1

    def _send(self, frame: tuple) -> None:
        dest, raw, topic = frame
        if topic is None:  # a reply leaving the gate (or a local one)
            self._queued_replies.discard((dest, raw))
        try:
            self.network.send(self.addr, dest, raw, topic)
        except NoLink:
            self.unroutable += 1

    # -- internals -------------------------------------------------------------

    def _intern_topic(self, name: str) -> int:
        """The topic's id; 0 once all 16-bit ids are taken by other names."""
        tid = self._topic_ids.get(name)
        if tid is None:
            if self._next_topic_id > 0xFFFF:
                return 0
            tid = self._next_topic_id
            self._next_topic_id += 1
            self._topic_ids[name] = tid
            self._topics[tid] = _Topic(tid, name)
        return tid
