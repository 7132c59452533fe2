"""ROMANO message codec.

ROMANO messages ride inside the Data field of MQTT-SN PUBLISH packets.
Every message starts with the same two-octet header:

    octet 0     data type code
    octet 1     total message length in octets (header + payload)
    octet 2..   payload, 0-253 octets, layout per data type

Multi-octet integer fields are big-endian.  A node's ROMANO ID is the
last 8 hex digits of its expanded IPv6 address, lowercase; it doubles
as the node's private topic name.

Built-in payload layouts:

    ConnectionRequest / ConnectionAck / RequestConnectedNodesInfo /
    Heartbeat           8-octet ASCII ROMANO ID (ConnectionAck: empty)
    ConnectedNodesInfo  concatenated 8-octet ROMANO IDs
    NormalData          raw octets
    MqttSubscribe /
    MqttUnsubscribe     topic name
    MqttPublishRequest  octet 2 holds m, the index of the last topic
                        octet; topic name at octets 3..m; data follows
    MovementControl     2-octet control type, then control data
                        (built-in controls: 2-octet magnitude)
    SensorData          2-octet sensor type, then readings

Codes 0x11 and 0x12 are reserved for the ranging handshake (UdpSendReq
and UdpSendGo); other application types register through the
``extension_codes`` argument of :func:`decode_message` and travel as
:class:`CustomData`.
"""

from __future__ import annotations

import ipaddress
from enum import IntEnum
from functools import lru_cache
from typing import ClassVar, Union

from .mqttsn import DECODE_MEMO_SIZE, frozen

# -- Protocol constants ------------------------------------------------------

HEADER_LEN = 2
MAX_MESSAGE_LEN = 255
MAX_PAYLOAD_LEN = MAX_MESSAGE_LEN - HEADER_LEN

ROMANO_ID_LEN = 8
_ID_ALPHABET = frozenset("0123456789abcdef")


class DataType(IntEnum):
    """Built-in ROMANO data type codes."""

    CONNECTION_REQUEST = 0x00
    CONNECTION_ACK = 0x01
    REQUEST_CONNECTED_NODES_INFO = 0x02
    CONNECTED_NODES_INFO = 0x03
    HEARTBEAT = 0x04
    NORMAL_DATA = 0x05
    MQTT_SUBSCRIBE = 0x06
    MQTT_UNSUBSCRIBE = 0x07
    MQTT_PUBLISH_REQUEST = 0x08
    MOVEMENT_CONTROL = 0x09
    SENSOR_DATA = 0x0A


BUILTIN_TYPE_CODES = frozenset(int(t) for t in DataType)

# Reserved custom codes used by the ranging/dispersal application.
UDP_SEND_REQ = 0x11
UDP_SEND_GO = 0x12


class MovementType(IntEnum):
    """Built-in movement control types (magnitude in mm or degrees)."""

    MOVE_FRONT = 0x0000
    MOVE_BACK = 0x0001
    MOVE_LEFT = 0x0002
    MOVE_RIGHT = 0x0003
    ROTATE_LEFT = 0x0004
    ROTATE_RIGHT = 0x0005


# Well-known topic names.
TOPIC_INIT_INFO = "init-info"
TOPIC_COMMON = "common"

# MQTT-SN predefined topic id -> topic name, known to every client and
# broker, so a PUBLISH to either topic needs no REGISTER.
PREDEFINED_TOPICS = {1: TOPIC_INIT_INFO, 2: TOPIC_COMMON}


# -- Errors ------------------------------------------------------------------

class CodecError(Exception):
    """Base class for ROMANO encode/decode failures."""


class OversizePayload(CodecError):
    """Message would exceed the 255-octet total length."""


class TruncatedMessage(CodecError):
    """Buffer ends before the declared message length."""


class LengthMismatch(CodecError):
    """Declared length disagrees with the buffer or the variant layout."""


class UnknownType(CodecError):
    """Data type code is neither built-in nor a registered extension."""


class MalformedAddress(CodecError):
    """Not a valid IPv6 address or ROMANO ID."""


class InvalidField(CodecError):
    """A field of a type the wire cannot carry, such as data that is not
    octets or a topic name that UTF-8 cannot encode."""


# -- Message types -----------------------------------------------------------

@frozen
class ConnectionRequest:
    romano_id: str


@frozen
class ConnectionAck:
    """Join acknowledgement; carries no payload."""


@frozen
class RequestConnectedNodesInfo:
    romano_id: str


@frozen
class ConnectedNodesInfo:
    romano_ids: tuple[str, ...] = ()


@frozen
class Heartbeat:
    romano_id: str


@frozen
class NormalData:
    type_code: ClassVar[int] = DataType.NORMAL_DATA
    data: bytes = b""


@frozen
class MqttSubscribe:
    topic: str


@frozen
class MqttUnsubscribe:
    topic: str


@frozen
class MqttPublishRequest:
    topic: str
    data: bytes = b""


@frozen
class MovementControl:
    control_type: int
    data: bytes = b""

    @property
    def magnitude(self) -> int:
        """Magnitude of a built-in control (2-octet big-endian data)."""
        if len(self.data) != 2:
            raise LengthMismatch(
                "control data is {} octets, expected 2".format(len(self.data)))
        return int.from_bytes(self.data, "big")


@frozen
class SensorData:
    type_code: ClassVar[int] = DataType.SENSOR_DATA
    sensor_type: int
    data: bytes = b""


@frozen
class CustomData:
    """Message of a registered application-defined type."""

    type_code: int
    data: bytes = b""


RomanoMessage = Union[
    ConnectionRequest,
    ConnectionAck,
    RequestConnectedNodesInfo,
    ConnectedNodesInfo,
    Heartbeat,
    NormalData,
    MqttSubscribe,
    MqttUnsubscribe,
    MqttPublishRequest,
    MovementControl,
    SensorData,
    CustomData,
]


def movement_control(control_type: int, magnitude: int) -> MovementControl:
    """Build a built-in MovementControl with a 2-octet magnitude."""
    if not 0 <= magnitude <= 0xFFFF:
        raise OversizePayload(
            "magnitude {} outside unsigned 16-bit range".format(magnitude))
    return MovementControl(int(control_type), magnitude.to_bytes(2, "big"))


# -- ROMANO IDs --------------------------------------------------------------

def derive_romano_id(ipv6_address: str) -> str:
    """The address's last 4 octets as 8 lowercase hex digits, from one
    parse; an embedded IPv4 part ("::ffff:192.0.2.1") gives its octets.

    >>> derive_romano_id("fe80::212:4b00:abcd:1234")
    'abcd1234'

    Raises:
        MalformedAddress: if the string is not a valid IPv6 address, or
            it names a scope ("fe80::1%eth0").
    """
    try:
        address = ipaddress.IPv6Address(ipv6_address)
    except (ValueError, TypeError) as exc:
        raise MalformedAddress(
            "not an IPv6 address: {!r}".format(ipv6_address)) from exc
    if address.scope_id is not None:
        raise MalformedAddress(
            "scoped IPv6 address: {!r}".format(ipv6_address))
    return address.packed[-4:].hex()


def is_valid_romano_id(romano_id: str) -> bool:
    return (isinstance(romano_id, str)
            and len(romano_id) == ROMANO_ID_LEN
            and set(romano_id) <= _ID_ALPHABET)


def _check_id(romano_id: str) -> bytes:
    if not is_valid_romano_id(romano_id):
        raise MalformedAddress(
            "ROMANO ID must be 8 lowercase hex digits, got {!r}".format(romano_id))
    return romano_id.encode("ascii")


# -- Encoding ----------------------------------------------------------------

def encode_message(msg: RomanoMessage) -> bytes:
    """Serialize a ROMANO message to wire octets.

    Raises:
        OversizePayload: if the total length would exceed 255 octets.
        MalformedAddress: if an embedded ROMANO ID is invalid.
        InvalidField: if a field has the wrong type, or UTF-8 cannot
            encode a topic name.
        CodecError: for other unencodable field values.
    """
    entry = _ENCODERS.get(type(msg))
    if entry is None:
        raise CodecError("cannot encode object of type {}".format(
            type(msg).__name__))
    type_code, encode = entry
    if type_code is None:  # CustomData carries its own code
        type_code = msg.type_code
        if not 0 <= type_code <= 0xFF or type_code in BUILTIN_TYPE_CODES:
            raise UnknownType(
                "custom type code {:#04x} collides with a built-in or is out "
                "of range".format(type_code))
    try:
        payload = encode(msg)
    except (TypeError, UnicodeEncodeError) as exc:
        raise InvalidField("{}: {}".format(type(msg).__name__, exc)) from exc
    if len(payload) > MAX_PAYLOAD_LEN:
        raise OversizePayload(
            "payload of {} octets exceeds the {}-octet limit".format(
                len(payload), MAX_PAYLOAD_LEN))
    return bytes((type_code, HEADER_LEN + len(payload))) + payload


def _topic_bytes(topic: str) -> bytes:
    if not topic:
        raise CodecError("topic name must not be empty")
    return topic.encode("utf-8")


def _u16(value: int, what: str) -> bytes:
    if not 0 <= value <= 0xFFFF:
        raise OversizePayload(
            "{} {} outside unsigned 16-bit range".format(what, value))
    return value.to_bytes(2, "big")


def _encode_publish_request(msg: MqttPublishRequest) -> bytes:
    topic = _topic_bytes(msg.topic)
    # Octet 2 holds the index of the last topic octet, counted from the
    # start of the message; the topic begins at octet 3.
    last = HEADER_LEN + len(topic)
    if last > 0xFF:
        raise OversizePayload("topic of {} octets is unencodable".format(
            len(topic)))
    return bytes((last,)) + topic + msg.data


def _encode_id(msg) -> bytes:
    return _check_id(msg.romano_id)


# message class -> (data type code, payload encoder), keyed by exact type;
# ``+ msg.data`` takes bytes-like data only, where bytes(3) gives 3 zeros
_ENCODERS = {
    ConnectionRequest: (DataType.CONNECTION_REQUEST, _encode_id),
    ConnectionAck: (DataType.CONNECTION_ACK, lambda msg: b""),
    RequestConnectedNodesInfo:
        (DataType.REQUEST_CONNECTED_NODES_INFO, _encode_id),
    ConnectedNodesInfo: (DataType.CONNECTED_NODES_INFO, lambda msg: b"".join(
        _check_id(rid) for rid in msg.romano_ids)),
    Heartbeat: (DataType.HEARTBEAT, _encode_id),
    NormalData: (DataType.NORMAL_DATA, lambda msg: b"" + msg.data),
    MqttSubscribe:
        (DataType.MQTT_SUBSCRIBE, lambda msg: _topic_bytes(msg.topic)),
    MqttUnsubscribe:
        (DataType.MQTT_UNSUBSCRIBE, lambda msg: _topic_bytes(msg.topic)),
    MqttPublishRequest:
        (DataType.MQTT_PUBLISH_REQUEST, _encode_publish_request),
    MovementControl: (DataType.MOVEMENT_CONTROL, lambda msg: _u16(
        msg.control_type, "control type") + msg.data),
    SensorData: (DataType.SENSOR_DATA, lambda msg: _u16(
        msg.sensor_type, "sensor type") + msg.data),
    CustomData: (None, lambda msg: b"" + msg.data),
}


# -- Decoding ----------------------------------------------------------------

def decode_message(data: bytes,
                   extension_codes: frozenset[int] | set[int] = frozenset(),
                   ) -> RomanoMessage:
    """Parse wire octets into a ROMANO message.

    ``extension_codes`` lists application type codes that decode as
    :class:`CustomData`; anything else outside the built-in set raises.

    Raises:
        TruncatedMessage: buffer shorter than the header or the declared
            length.
        LengthMismatch: trailing octets after the declared length, a
            declared length below 2, or a variant payload that does not
            fit its layout.
        UnknownType: unrecognized data type code.
    """
    if len(data) < HEADER_LEN:
        raise TruncatedMessage(
            "message of {} octets is shorter than the 2-octet header".format(
                len(data)))
    type_code = data[0]
    msg_len = data[1]
    if msg_len < HEADER_LEN:
        raise LengthMismatch(
            "declared length {} is below the 2-octet minimum".format(msg_len))
    if len(data) < msg_len:
        raise TruncatedMessage(
            "buffer holds {} octets but message declares {}".format(
                len(data), msg_len))
    if len(data) > msg_len:
        raise LengthMismatch(
            "{} trailing octets after declared length {}".format(
                len(data) - msg_len, msg_len))
    payload = data[HEADER_LEN:msg_len]
    decode = _DECODERS.get(type_code)
    if decode is not None:
        return decode(payload)
    if type_code in extension_codes:
        return CustomData(type_code, payload)
    raise UnknownType("unrecognized data type code {:#04x}".format(type_code))


@lru_cache(maxsize=DECODE_MEMO_SIZE)
def decode_shared(data: bytes,
                  extension_codes: frozenset[int]) -> RomanoMessage:
    """``mqttsn.decode_shared`` for ROMANO messages, per extension codes."""
    return decode_message(data, extension_codes)


def _decode_connection_ack(payload: bytes) -> ConnectionAck:
    if payload:
        raise LengthMismatch(
            "ConnectionAck carries no payload, got {} octets".format(
                len(payload)))
    return ConnectionAck()


def _decode_roster(payload: bytes) -> ConnectedNodesInfo:
    if len(payload) % ROMANO_ID_LEN:
        raise LengthMismatch(
            "roster payload of {} octets is not a multiple of {}".format(
                len(payload), ROMANO_ID_LEN))
    ids = tuple(_parse_id(payload[i:i + ROMANO_ID_LEN])
                for i in range(0, len(payload), ROMANO_ID_LEN))
    return ConnectedNodesInfo(ids)


def _decode_publish_request(payload: bytes) -> MqttPublishRequest:
    if not payload:
        raise LengthMismatch("publish request is missing the topic field")
    # ``last`` indexes the message; the payload starts HEADER_LEN later.
    last = payload[0]
    if last < HEADER_LEN + 1 or last >= HEADER_LEN + len(payload):
        raise LengthMismatch(
            "topic end index {} outside message of {} octets".format(
                last, HEADER_LEN + len(payload)))
    topic = _parse_topic(payload[1:last + 1 - HEADER_LEN])
    return MqttPublishRequest(topic, payload[last + 1 - HEADER_LEN:])


def _decode_movement(payload: bytes) -> MovementControl:
    if len(payload) < 2:
        raise LengthMismatch("movement control shorter than its type field")
    return MovementControl(int.from_bytes(payload[:2], "big"), payload[2:])


def _decode_sensor(payload: bytes) -> SensorData:
    if len(payload) < 2:
        raise LengthMismatch("sensor data shorter than its type field")
    return SensorData(int.from_bytes(payload[:2], "big"), payload[2:])


# built-in data type code -> decoder, keyed by plain int
_DECODERS = {int(code): decode for code, decode in (
    (DataType.CONNECTION_REQUEST,
     lambda payload: ConnectionRequest(_parse_id(payload))),
    (DataType.CONNECTION_ACK, _decode_connection_ack),
    (DataType.REQUEST_CONNECTED_NODES_INFO,
     lambda payload: RequestConnectedNodesInfo(_parse_id(payload))),
    (DataType.CONNECTED_NODES_INFO, _decode_roster),
    (DataType.HEARTBEAT, lambda payload: Heartbeat(_parse_id(payload))),
    (DataType.NORMAL_DATA, NormalData),
    (DataType.MQTT_SUBSCRIBE,
     lambda payload: MqttSubscribe(_parse_topic(payload))),
    (DataType.MQTT_UNSUBSCRIBE,
     lambda payload: MqttUnsubscribe(_parse_topic(payload))),
    (DataType.MQTT_PUBLISH_REQUEST, _decode_publish_request),
    (DataType.MOVEMENT_CONTROL, _decode_movement),
    (DataType.SENSOR_DATA, _decode_sensor),
)}


def _parse_id(payload: bytes) -> str:
    if len(payload) != ROMANO_ID_LEN:
        raise LengthMismatch(
            "ROMANO ID field is {} octets, expected {}".format(
                len(payload), ROMANO_ID_LEN))
    try:
        romano_id = payload.decode("ascii")
    except UnicodeDecodeError as exc:
        raise LengthMismatch("ROMANO ID field is not ASCII") from exc
    if not is_valid_romano_id(romano_id):
        raise LengthMismatch(
            "ROMANO ID field {!r} is not 8 lowercase hex digits".format(romano_id))
    return romano_id


def _parse_topic(payload: bytes) -> str:
    if not payload:
        raise LengthMismatch("topic name must not be empty")
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LengthMismatch("topic name is not valid UTF-8") from exc
