"""ROMANO registry server.

The server is an ordinary MQTT-SN client collocated with the broker.  It
subscribes to "init-info"; every ConnectionRequest heard there is
recorded (idempotently — a rejoin refreshes the join time) and answered
with the ConnectionAck, encoded once, on the joiner's ID topic.  A
RequestConnectedNodesInfo on "init-info" is answered on the requester's
ID topic with the roster, split across messages of at most 30 IDs so
each stays within the 255-octet frame.  Messages decode through
``codec.decode_message``, not the shared memo the nodes use: nearly
every frame the server hears is a one-off ConnectionRequest, and in the
memo it would only evict the frames every node decodes.

The server outlives broker outages as every client does: its session
connects again after a drop, and the server runs again once that
session holds "init-info".
"""

from __future__ import annotations

from . import codec
from .session import ACTIVE, ClientSession

# 30 ids make a 242-octet message; the frame itself could hold 31, but
# 2 + 31*8 = 250 octets would not fit the 248-octet publish data cap.
MAX_IDS_PER_INFO = 30
CONNECTION_ACK = codec.encode_message(codec.ConnectionAck())


class RegistryServer:
    def __init__(self, session: ClientSession) -> None:
        self.sim = session.sim
        self.session = session
        # ROMANO ID -> time of its latest join, us; a rejoin keeps its place
        self.registry: dict[str, int] = {}
        self.acks_sent = 0
        self.ignored = 0
        session.on_message = self._on_romano

    @property
    def running(self) -> bool:
        return (self.session.state == ACTIVE
                and codec.TOPIC_INIT_INFO in self.session.topic_ids)

    def start(self) -> None:
        self.session.connect(
            on_ok=lambda: self.session.subscribe(codec.TOPIC_INIT_INFO))

    # -- message handling ------------------------------------------------------

    def _on_romano(self, topic: str, data: bytes) -> None:
        try:
            msg = codec.decode_message(data)
        except codec.CodecError:
            self.ignored += 1
            return
        handler = self._HANDLERS.get(type(msg))
        if handler is None:
            self.ignored += 1
            return
        handler(self, topic, msg.romano_id)

    def _on_join(self, topic: str, romano_id: str) -> None:
        if topic != codec.TOPIC_INIT_INFO:
            return  # a join request counts only on init-info
        self.registry[romano_id] = self.sim.now
        self.session.publish(romano_id, CONNECTION_ACK)
        self.acks_sent += 1

    def _on_roster_request(self, topic: str, requester_id: str) -> None:
        # An unknown requester still gets an answer: the empty roster.
        ids = list(self.registry) if requester_id in self.registry else []
        chunks = [ids[i:i + MAX_IDS_PER_INFO]
                  for i in range(0, len(ids), MAX_IDS_PER_INFO)] or [[]]
        for chunk in chunks:
            raw = codec.encode_message(codec.ConnectedNodesInfo(tuple(chunk)))
            self.session.publish(requester_id, raw)

    # message type -> handler of the sender's ROMANO ID; any other type
    # counts in ``ignored``
    _HANDLERS = {
        codec.ConnectionRequest: _on_join,
        codec.RequestConnectedNodesInfo: _on_roster_request,
    }
