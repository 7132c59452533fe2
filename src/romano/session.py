"""Client-side MQTT-SN session.

Owns the topic name/id map and every in-flight exchange.  Every PUBLISH
goes out at QoS 0, the only QoS the broker grants: at once under its
predefined id for a topic in ``codec.PREDEFINED_TOPICS`` ("init-info"
and "common"), and otherwise after a REGISTER when its topic has no id
yet.  Exchanges that expect a reply (CONNECT, REGISTER, SUBSCRIBE and
UNSUBSCRIBE) resend their frame up to ``N_RETRY`` times, a SUBSCRIBE
with its DUP flag set.  An exchange that exhausts its retries, or a
rejected CONNECT, drops the session, which is the only failure signal a
QoS 0 client gets: ``on_disconnect`` runs, and every other exchange in
flight is forgotten without running its callbacks.  A rejected REGISTER,
SUBSCRIBE or UNSUBSCRIBE runs none of its callbacks and leaves the
session up.  A request that finds every msg id in flight is not sent and
counts in ``send_failures``.  An inbound PUBLISH on an id the session
never learned nor ``codec.PREDEFINED_TOPICS`` holds is stray: counted
and dropped.  So is one above QoS 0, which does not decode, and it is
never acknowledged.

The retry wait is the RFC 6298 timeout ``rto_us``, kept in integer us
from the round trips of the session's own exchanges and clamped to
[``T_RETRY_US``, ``RTO_MAX_US``], so it grows only while replies queue
at the broker's gate.  An exchange keeps the ``rto_us`` of its first
send for every resend, so a dead broker is noticed within
``(N_RETRY + 1) * RTO_MAX_US``.  A reply samples the round trip from the
exchange's last transmission: a lost frame then never inflates the
timer, and a resend answered by a reply already queued reads short.  A
drop starts the next session from ``T_RETRY_US``.

Reconnecting is the client's job (MQTT-SN v1.2 section 6.13), and the
session does it for every owner: ``RECONNECT_US`` after any drop it
connects again with the ``on_ok`` of its last ``connect``, unless it is
no longer disconnected by then.  A session never told to connect stays
down.

The client identifier is the node's IPv6 address string, which is also
its transport address on the simulated network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import codec
from . import mqttsn as sn
from .simnet import Network, NoLink, Timer

T_RETRY_US = 500_000
RTO_MAX_US = 1_000_000
N_RETRY = 3
RECONNECT_US = 2_000_000

DISCONNECTED = "disconnected"
CONNECTING = "connecting"
ACTIVE = "active"


# Every in-flight exchange waits in ClientSession._pending under its msg
# id; CONNECT has none, so it takes 0, which no msg id (1..0xFFFF) uses.
CONNECT_KEY = 0

# topic name -> its predefined topic id
_PREDEFINED_IDS = {name: tid for tid, name in codec.PREDEFINED_TOPICS.items()}


@dataclass(slots=True)
class _Exchange:
    reply: type                       # Connack, Regack, Suback or Unsuback
    key: Optional[int]                # msg id or CONNECT_KEY; None: no id free
    topic: Optional[str]
    waiters: list                     # on_ok callbacks, each may be None
    retries_left: int = N_RETRY
    timer: Optional[Timer] = None
    frame: bytes = b""                # the request's octets, once sent
    rto: int = T_RETRY_US             # retry wait, fixed at the first send
    sent_us: int = 0                  # time of the last transmission


class ClientSession:
    def __init__(self, network: Network, client_id: str,
                 broker_addr: str) -> None:
        self.sim = network.sim
        self.network = network
        self.client_id = client_id
        self.broker_addr = broker_addr
        self.state = DISCONNECTED
        self.topic_ids: dict[str, int] = {}
        self.topic_names: dict[int, str] = {}
        self.on_message: Optional[Callable[[str, bytes], None]] = None
        self.on_disconnect: Optional[Callable[[], None]] = None
        self.send_failures = 0
        self.stray_packets = 0
        self.retransmits = 0
        self.rto_us = T_RETRY_US
        self._srtt: Optional[int] = None  # no round trip measured yet
        self._rttvar = 0
        self._pending: dict[int, _Exchange] = {}
        self._next_msg_id = 1
        self._rejoin: Optional[tuple] = None  # (on_ok,) of the last connect
        network.attach(client_id, self._on_datagram)

    # -- connection -----------------------------------------------------------

    def connect(self, on_ok: Optional[Callable] = None) -> None:
        """Connect; ``on_ok`` runs after every accepted CONNACK, this one
        and each that a reconnect after a drop brings."""
        if CONNECT_KEY in self._pending:
            return
        self._rejoin = (on_ok,)
        self.state = CONNECTING
        self._start(_Exchange(sn.Connack, CONNECT_KEY, None, [on_ok]),
                    sn.Connect(self.client_id))

    def _reconnect(self) -> None:
        if self.state == DISCONNECTED:
            self.connect(*self._rejoin)

    # -- subscriptions ----------------------------------------------------------

    def subscribe(self, topic: str, on_ok: Optional[Callable] = None) -> None:
        msg_id = self._take_msg_id()
        self._start(_Exchange(sn.Suback, msg_id, topic, [on_ok]),
                    sn.Subscribe(msg_id, topic))

    def unsubscribe(self, topic: str) -> None:
        msg_id = self._take_msg_id()
        self._start(_Exchange(sn.Unsuback, msg_id, topic, []),
                    sn.Unsubscribe(msg_id, topic))

    # -- publishing --------------------------------------------------------------

    def publish(self, topic: str, data: bytes) -> None:
        """Publish ``data`` at QoS 0.  A topic with a predefined id goes
        out under it at once; any other topic with no id yet is
        registered first, and nothing is sent if that REGISTER fails.
        A PUBLISH that cannot be encoded raises PacketError here, before
        anything is sent."""
        flags, topic_id = sn.TOPIC_TYPE_NORMAL, self.topic_ids.get(topic)
        if topic in _PREDEFINED_IDS:
            flags, topic_id = sn.TOPIC_TYPE_PREDEFINED, _PREDEFINED_IDS[topic]
        if topic_id is not None:
            self._send(sn.encode_publish(topic_id, data, flags), topic)
            return
        # Encoded now, under topic id 0, only so a bad one raises here;
        # once registered, the publish goes out under the granted id.
        sn.encode_publish(0, data)
        waiter = lambda: self.publish(topic, data)
        for exchange in self._pending.values():
            if exchange.reply is sn.Regack and exchange.topic == topic:
                exchange.waiters.append(waiter)
                return
        msg_id = self._take_msg_id()
        self._start(_Exchange(sn.Regack, msg_id, topic, [waiter]),
                    sn.Register(0, msg_id, topic))

    # -- inbound -----------------------------------------------------------------

    def _on_datagram(self, src: str, data: bytes) -> None:
        if src != self.broker_addr:
            return  # direct node-to-node traffic uses a different port
        try:
            pkt = sn.decode_shared(data)
        except sn.PacketError:
            self.stray_packets += 1
            return
        cls = type(pkt)
        if cls is sn.Publish:
            topic = (codec.PREDEFINED_TOPICS if pkt.predefined
                     else self.topic_names).get(pkt.topic_id)
            if topic is None:
                self.stray_packets += 1
            elif self.on_message is not None:
                self.on_message(topic, pkt.data)
            return
        key = getattr(pkt, "msg_id", CONNECT_KEY)
        exchange = self._pending.get(key)
        if exchange is None or exchange.reply is not cls:
            self.stray_packets += 1
            return
        del self._pending[key]
        exchange.timer.cancel()
        self._sample_rtt(self.sim.now - exchange.sent_us)
        code = getattr(pkt, "return_code", sn.ReturnCode.ACCEPTED)
        if code != sn.ReturnCode.ACCEPTED:
            if cls is sn.Connack:
                self._drop_session()
            return
        if cls is sn.Connack:
            self.state = ACTIVE
        elif cls is not sn.Unsuback:  # a REGACK or SUBACK grants an id
            self._learn_topic(exchange.topic, pkt.topic_id)
        elif exchange.topic in self.topic_ids:
            self.topic_names.pop(self.topic_ids.pop(exchange.topic))
        for on_ok in exchange.waiters:
            if on_ok is not None:
                on_ok()

    # -- retransmission -------------------------------------------------------------

    def _start(self, exchange: _Exchange, request: sn.SnPacket) -> None:
        if exchange.key is None:
            self.send_failures += 1
            return
        # An unencodable request raises here and leaves nothing pending.
        exchange.frame = sn.encode_packet(request)
        exchange.rto = self.rto_us
        self._transmit(exchange)
        self._pending[exchange.key] = exchange

    def _transmit(self, exchange: _Exchange, dup: bool = False) -> None:
        frame = exchange.frame
        if dup and exchange.reply is sn.Suback:
            frame = frame[:2] + bytes((frame[2] | sn.FLAG_DUP,)) + frame[3:]
        self._send(frame, exchange.topic)
        exchange.sent_us = self.sim.now
        exchange.timer = Timer(self.sim.call_at(
            exchange.sent_us + exchange.rto, self._on_retry_timeout, exchange))

    def _sample_rtt(self, rtt_us: int) -> None:
        """RFC 6298 section 2 in integer us, with alpha 1/8, beta 1/4, K 4."""
        if self._srtt is None:
            self._srtt, self._rttvar = rtt_us, rtt_us // 2
        else:
            self._rttvar = (3 * self._rttvar + abs(self._srtt - rtt_us)) // 4
            self._srtt = (7 * self._srtt + rtt_us) // 8
        self.rto_us = min(max(self._srtt + 4 * self._rttvar, T_RETRY_US),
                          RTO_MAX_US)

    def _on_retry_timeout(self, exchange: _Exchange) -> None:
        if exchange.retries_left > 0:
            exchange.retries_left -= 1
            self.retransmits += 1
            self._transmit(exchange, dup=True)
        else:
            self._drop_session()  # which forgets this exchange with the rest

    def _drop_session(self) -> None:
        self.state = DISCONNECTED
        for exchange in self._pending.values():
            exchange.timer.cancel()
        self._pending.clear()
        self.topic_ids.clear()
        self.topic_names.clear()
        self.rto_us, self._srtt, self._rttvar = T_RETRY_US, None, 0
        if self.on_disconnect is not None:
            self.on_disconnect()
        if self._rejoin is not None:
            self.sim.after(RECONNECT_US, self._reconnect)

    # -- plumbing -----------------------------------------------------------------

    def _learn_topic(self, name: str, topic_id: int) -> None:
        self.topic_ids[name] = topic_id
        self.topic_names[topic_id] = name

    def _take_msg_id(self) -> Optional[int]:
        """A free msg id, or None when all 65 535 are in flight."""
        for _ in range(0xFFFF):
            msg_id = self._next_msg_id
            self._next_msg_id = self._next_msg_id % 0xFFFF + 1
            if msg_id not in self._pending:
                return msg_id
        return None

    def _send(self, raw: bytes, topic: Optional[str]) -> None:
        try:
            self.network.send(self.client_id, self.broker_addr, raw,
                              topic=topic)
        except NoLink:
            self.send_failures += 1
