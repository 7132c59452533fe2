"""ROMANO node runtime.

A node joins the overlay in a fixed order: connect to the broker with
its IPv6 address as client id, subscribe to its own ROMANO-ID topic,
publish a ConnectionRequest carrying its ID on "init-info" (under its
predefined topic id, so no REGISTER goes first), then wait up to 2 s
for a ConnectionAck on its ID topic.  On timeout it republishes
the request, indefinitely; only after the ack does it subscribe to
"common" and become Ready.  A dropped session (an exhausted control
exchange or a rejected connect) puts the node back in Init; the
session's own reconnect then reruns the whole sequence, and on Ready
the node subscribes again to every topic an MqttSubscribe named and no
later MqttUnsubscribe took back, since the broker's clean-session
CONNECT forgot them.

Incoming ROMANO messages are dispatched by data type regardless of
which topic delivered them.  A built-in MovementControl order goes
straight to the drive layer's ``on_movement`` callback, any other to the
MovementControl data handler.  A type with no handler, a roster among
them, is dropped: the registry alone records who is connected.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import codec
from .session import ClientSession
from .simnet import Timer

ACK_WAIT_US = 2_000_000

INIT = "init"
AWAIT_ACK = "await-ack"
READY = "ready"

# message classes that go to the handler registered for their type code
_DATA_CLASSES = frozenset((codec.NormalData, codec.SensorData,
                           codec.CustomData))


class RomanoNode:
    def __init__(self, session: ClientSession) -> None:
        self.sim = session.sim
        self.session = session
        self.romano_id = codec.derive_romano_id(session.client_id)
        self.phase = INIT
        self.ready_time_us: Optional[int] = None
        self.unknown_types = 0
        self.unknown_controls = 0
        self.malformed = 0
        self.early_messages = 0
        self.stray_acks = 0
        self.on_movement: Optional[Callable] = None  # MovementControl -> None
        self._data_handlers: dict[int, Callable] = {}
        self._extension_codes: frozenset[int] = frozenset()
        self._ack_timer: Optional[Timer] = None
        self._instructed: dict[str, None] = {}  # subscribed on instruction
        session.on_message = self._on_romano
        session.on_disconnect = self._on_disconnect

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        self.session.connect(on_ok=self._on_connected)

    def _on_connected(self) -> None:
        self.session.subscribe(self.romano_id, on_ok=self._publish_join_request)

    def _publish_join_request(self) -> None:
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        self.phase = AWAIT_ACK
        raw = codec.encode_message(codec.ConnectionRequest(self.romano_id))
        # "init-info" has a predefined id, so the request leaves now and
        # retries are spaced exactly one ack-wait apart.
        self.session.publish(codec.TOPIC_INIT_INFO, raw)
        self._ack_timer = self.sim.after(ACK_WAIT_US,
                                         self._publish_join_request)

    def _on_ack(self) -> None:
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        self.session.subscribe(codec.TOPIC_COMMON, on_ok=self._on_ready)

    def _on_ready(self) -> None:
        self.phase = READY
        self.ready_time_us = self.sim.now
        for topic in self._instructed:  # empty until a rejoin
            self.session.subscribe(topic)

    def _on_disconnect(self) -> None:
        # The session reconnects by itself; the node only drops its timers.
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        self.phase = INIT
        self.ready_time_us = None

    # -- application wiring ---------------------------------------------------------

    def on_data(self, type_code: int, handler: Callable) -> None:
        """Register a handler for NormalData, SensorData, or a custom code.

        NormalData and SensorData handlers receive the decoded message;
        custom codes are also announced to the decoder so their payloads
        arrive as CustomData instead of raising UnknownType.
        """
        self._data_handlers[int(type_code)] = handler
        if int(type_code) not in codec.BUILTIN_TYPE_CODES:
            self._extension_codes |= {int(type_code)}

    # -- dispatch -----------------------------------------------------------------------

    def _on_romano(self, topic: str, data: bytes) -> None:
        try:
            msg = codec.decode_shared(data, self._extension_codes)
        except codec.UnknownType:
            self.unknown_types += 1
            return
        except codec.CodecError:
            self.malformed += 1
            return

        cls = type(msg)
        if cls is codec.ConnectionAck:
            if self.phase == AWAIT_ACK:
                self._on_ack()
            else:
                self.stray_acks += 1
            return
        if self.phase != READY:
            self.early_messages += 1
            return
        if cls in _DATA_CLASSES:
            handler = self._data_handlers.get(msg.type_code)
            if handler is not None:
                handler(msg)
            return
        handler = self._HANDLERS.get(cls)
        if handler is not None:
            handler(self, msg)

    def _on_subscribe(self, msg: codec.MqttSubscribe) -> None:
        self._instructed[msg.topic] = None
        self.session.subscribe(msg.topic)

    def _on_unsubscribe(self, msg: codec.MqttUnsubscribe) -> None:
        self._instructed.pop(msg.topic, None)
        self.session.unsubscribe(msg.topic)

    def enqueue_movement(self, msg: codec.MovementControl) -> None:
        """Hand a movement order on exactly as a received one would be."""
        # The built-in control types are 0..5, each with a 2-octet magnitude.
        if len(msg.data) == 2 and \
                0 <= msg.control_type <= codec.MovementType.ROTATE_RIGHT:
            if self.on_movement is not None:
                self.on_movement(msg)
            return
        handler = self._data_handlers.get(int(codec.DataType.MOVEMENT_CONTROL))
        if handler is not None:
            handler(msg)
        else:
            self.unknown_controls += 1

    # control message type -> handler once READY.  ConnectionRequest and
    # RequestConnectedNodesInfo are server business; nodes drop them and
    # every other type not named here.
    _HANDLERS = {
        codec.MqttSubscribe: _on_subscribe,
        codec.MqttUnsubscribe: _on_unsubscribe,
        codec.MqttPublishRequest:
            lambda self, msg: self.session.publish(msg.topic, msg.data),
        codec.MovementControl: enqueue_movement,
    }
