"""MQTT-SN v1.2 packet codec for the subset a ROMANO deployment uses.

Supported packets: CONNECT, CONNACK, REGISTER, REGACK, SUBSCRIBE,
SUBACK, UNSUBSCRIBE, UNSUBACK and PUBLISH at QoS 0, the only QoS a ROMANO
deployment uses, so a PUBLISH at any other QoS raises and there is no
PUBACK.  All packets use the single-octet length form, so no packet may
exceed 255 octets; a PUBLISH carries at most 248 octets of data after
its 7-octet header:

    octet 0     packet length
    octet 1     message type
    octet 2     flags
    octets 3-4  topic id
    octets 5-6  message id (0x0000 at QoS 0)
    octets 7-n  data

Topic names are registered for 16-bit topic ids with REGISTER, or
resolved through the SUBACK of a by-name SUBSCRIBE.  A PUBLISH may
instead name a predefined topic id (TopicIdType 0b01), one that client
and gateway both know in advance, so it needs no REGISTER.  No other
TopicIdType is supported: a PUBLISH with a short name or the reserved
type, or a SUBSCRIBE or UNSUBSCRIBE with any but the normal type, raises.
"""

from __future__ import annotations

import struct
from dataclasses import MISSING, dataclass, fields
from enum import IntEnum
from functools import lru_cache, partial
from typing import Callable, Union

# -- Packet and flag constants -----------------------------------------------

MAX_PACKET_LEN = 255
PUBLISH_HEADER_LEN = 7
MAX_PUBLISH_DATA = MAX_PACKET_LEN - PUBLISH_HEADER_LEN  # 248
MAX_TOPIC_NAME = MAX_PACKET_LEN - 6  # 249 after a REGISTER's header

PROTOCOL_ID = 0x01


class MsgType(IntEnum):
    CONNECT = 0x04
    CONNACK = 0x05
    REGISTER = 0x0A
    REGACK = 0x0B
    PUBLISH = 0x0C
    SUBSCRIBE = 0x12
    SUBACK = 0x13
    UNSUBSCRIBE = 0x14
    UNSUBACK = 0x15


class ReturnCode(IntEnum):
    ACCEPTED = 0x00
    REJECTED_CONGESTION = 0x01
    REJECTED_INVALID_TOPIC_ID = 0x02
    REJECTED_NOT_SUPPORTED = 0x03


FLAG_DUP = 0x80
FLAG_QOS_MASK = 0x60
FLAG_QOS_SHIFT = 5
FLAG_CLEAN_SESSION = 0x04

FLAG_TOPIC_TYPE_MASK = 0x03
TOPIC_TYPE_NORMAL = 0x00  # registered 16-bit topic id (name in SUBSCRIBE)
TOPIC_TYPE_PREDEFINED = 0x01  # topic id known in advance (PUBLISH only)


# -- Errors ------------------------------------------------------------------

class PacketError(Exception):
    """Base class for MQTT-SN encode/decode failures."""


class TruncatedPacket(PacketError):
    pass


class PacketLengthMismatch(PacketError):
    pass


class UnsupportedPacket(PacketError):
    pass


class OversizePacket(PacketError):
    pass


class FieldOutOfRange(PacketError):
    """A field value that does not fit its octets on the wire, or data
    that is not octets."""


class MalformedString(PacketError):
    """A client id or topic name that is not valid UTF-8."""


# -- Packet types ------------------------------------------------------------

def frozen(cls):
    """``@dataclass(frozen=True, slots=True)`` whose ``__init__``, built
    once from ``fields(cls)`` with the same signature and defaults, sets
    each slot through its member descriptor (``cls.field.__set__``), not
    through ``object.__setattr__``: in two thirds of the time."""
    cls = dataclass(frozen=True, slots=True)(cls)
    env, params, body = {}, [], []
    for f in fields(cls):
        env["_s_" + f.name] = getattr(cls, f.name).__set__
        params.append(", " + f.name)
        if f.default is not MISSING:
            env["_d_" + f.name] = f.default
            params.append("=_d_" + f.name)
        body.append("_s_{0}(self, {0}); ".format(f.name))
    # the descriptors and defaults reach __init__ as closure cells
    scope: dict = {}
    exec("def make({}):\n def __init__(self{}):\n  {}pass\n return __init__"
         .format(", ".join(env), "".join(params), "".join(body)), scope)
    init = scope["make"](**env)
    init.__qualname__ = cls.__init__.__qualname__
    init.__annotations__ = cls.__init__.__annotations__
    cls.__init__ = init
    return cls


@frozen
class Connect:
    client_id: str
    clean_session: bool = True
    duration: int = 0


@frozen
class Connack:
    return_code: int = ReturnCode.ACCEPTED


@frozen
class Register:
    topic_id: int
    msg_id: int
    topic_name: str


@frozen
class Regack:
    topic_id: int
    msg_id: int
    return_code: int = ReturnCode.ACCEPTED


@frozen
class Publish:
    topic_id: int
    data: bytes
    msg_id: int = 0
    predefined: bool = False  # TopicIdType 0b01, not normal


@frozen
class Subscribe:
    msg_id: int
    topic_name: str
    qos: int = 0
    dup: bool = False


@frozen
class Suback:
    topic_id: int
    msg_id: int
    return_code: int = ReturnCode.ACCEPTED
    qos: int = 0


@frozen
class Unsubscribe:
    msg_id: int
    topic_name: str


@frozen
class Unsuback:
    msg_id: int


SnPacket = Union[
    Connect, Connack, Register, Regack, Publish, Subscribe, Suback,
    Unsubscribe, Unsuback,
]


# -- Encoding ----------------------------------------------------------------

# Fixed-layout prefix of each packet body, compiled once.
_B = struct.Struct("!B")
_H = struct.Struct("!H")
_BH = struct.Struct("!BH")
_HH = struct.Struct("!HH")
_BBH = struct.Struct("!BBH")
_BHH = struct.Struct("!BHH")
_HHB = struct.Struct("!HHB")
_BHHB = struct.Struct("!BHHB")


def encode_packet(pkt: SnPacket) -> bytes:
    """Serialize a packet.

    Raises:
        OversizePacket: the packet would exceed 255 octets.
        FieldOutOfRange: an id, duration or return code does not fit
            its field, or the data is not bytes-like.
        MalformedString: UTF-8 cannot encode the client id or topic name.
    """
    entry = _ENCODERS.get(type(pkt))
    if entry is None:
        raise PacketError("cannot encode object of type {}".format(
            type(pkt).__name__))
    return _frame(*entry, pkt)


def _frame(msg_type: int, encode: Callable[..., bytes], *fields) -> bytes:
    try:
        body = encode(*fields)
    except (struct.error, TypeError) as exc:
        raise FieldOutOfRange(
            "{}: {}".format(MsgType(msg_type).name, exc)) from exc
    except UnicodeEncodeError as exc:
        raise MalformedString(
            "{}: {}".format(MsgType(msg_type).name, exc)) from exc
    total = 2 + len(body)
    if total > MAX_PACKET_LEN:
        raise OversizePacket(
            "packet of {} octets exceeds the single-octet length form".format(
                total))
    return bytes((total, msg_type)) + body


def _flags(qos: int = 0, dup: bool = False) -> int:
    if qos not in (0, 1):
        raise PacketError("QoS {} not supported, use 0 or 1".format(qos))
    return (qos << FLAG_QOS_SHIFT) | (FLAG_DUP if dup else 0)


def _encode_connect(pkt: Connect) -> bytes:
    flags = FLAG_CLEAN_SESSION if pkt.clean_session else 0
    return (_BBH.pack(flags, PROTOCOL_ID, pkt.duration)
            + pkt.client_id.encode("utf-8"))


def _publish(topic_id: int, data: bytes, flags=0, msg_id=0) -> bytes:
    return _BHH.pack(flags, topic_id, msg_id) + data


# Framers straight from the fields, with the octets and errors encode_packet
# gives the matching packet: encode_publish(topic_id, data, flags=0,
# msg_id=0), encode_connack(return_code), encode_regack(topic_id, msg_id,
# return_code) and encode_suback(topic_id, msg_id, return_code), at QoS 0.
encode_publish = partial(_frame, MsgType.PUBLISH, _publish)
encode_connack = partial(_frame, MsgType.CONNACK, _B.pack)
encode_regack = partial(_frame, MsgType.REGACK, _HHB.pack)
encode_suback = partial(_frame, MsgType.SUBACK, _BHHB.pack, 0)

# packet class -> (message type code, body encoder), keyed by exact type;
# ``+ pkt.data`` takes bytes-like data only, where bytes(3) gives 3 zeros
_ENCODERS = {
    Connect: (MsgType.CONNECT, _encode_connect),
    Connack: (MsgType.CONNACK, lambda pkt: _B.pack(pkt.return_code)),
    Register: (MsgType.REGISTER, lambda pkt: _HH.pack(
        pkt.topic_id, pkt.msg_id) + pkt.topic_name.encode("utf-8")),
    Regack: (MsgType.REGACK, lambda pkt: _HHB.pack(
        pkt.topic_id, pkt.msg_id, pkt.return_code)),
    Publish: (MsgType.PUBLISH, lambda pkt: _publish(
        pkt.topic_id, pkt.data,
        TOPIC_TYPE_PREDEFINED if pkt.predefined else TOPIC_TYPE_NORMAL,
        pkt.msg_id)),
    Subscribe: (MsgType.SUBSCRIBE, lambda pkt: _BH.pack(
        _flags(pkt.qos, pkt.dup), pkt.msg_id) + pkt.topic_name.encode("utf-8")),
    Suback: (MsgType.SUBACK, lambda pkt: _BHHB.pack(
        _flags(pkt.qos), pkt.topic_id, pkt.msg_id, pkt.return_code)),
    Unsubscribe: (MsgType.UNSUBSCRIBE, lambda pkt: _BH.pack(
        0, pkt.msg_id) + pkt.topic_name.encode("utf-8")),
    Unsuback: (MsgType.UNSUBACK, lambda pkt: _H.pack(pkt.msg_id)),
}


# -- Decoding ----------------------------------------------------------------

def decode_packet(data: bytes) -> SnPacket:
    """Parse wire octets into a packet.

    Raises:
        TruncatedPacket: buffer shorter than declared or than a fixed
            layout requires.
        PacketLengthMismatch: trailing octets after the declared length,
            or a fixed-size packet declaring more than its fields.
        UnsupportedPacket: message type, QoS or TopicIdType unsupported.
        MalformedString: a client id or topic name is not valid UTF-8.
    """
    size = len(data)
    if size < 2:
        raise TruncatedPacket("packet of {} octets has no header".format(size))
    length, msg_type = data[0], data[1]
    if length < 2:
        raise PacketLengthMismatch(
            "declared length {} is below the 2-octet minimum".format(length))
    if size < length:
        raise TruncatedPacket(
            "buffer holds {} octets but packet declares {}".format(
                size, length))
    if size > length:
        raise PacketLengthMismatch(
            "{} trailing octets after declared length {}".format(
                size - length, length))
    decode = _DECODERS.get(msg_type)
    if decode is None:
        raise UnsupportedPacket(
            "message type {:#04x} outside the supported subset".format(
                msg_type))
    return decode(data)


# Entries of each codec's decode memo, about 0.4 MB.  A frame must stay
# while its copies fly: a dozen on a 16-robot broadcast.
DECODE_MEMO_SIZE = 256


@lru_cache(maxsize=DECODE_MEMO_SIZE)
def decode_shared(data: bytes) -> SnPacket:
    """``decode_packet`` memoized on the octets, for receivers.  Errors are
    not cached; a miss calls the decoder through the module attribute."""
    return decode_packet(data)


def _decode_connect(data: bytes) -> Connect:
    flags, proto, duration = _unpack(_BBH, data, "CONNECT")
    client_id = _text(data[6:], "CONNECT")
    if proto != PROTOCOL_ID:
        raise UnsupportedPacket(
            "protocol id {:#04x} is not MQTT-SN".format(proto))
    return Connect(client_id, bool(flags & FLAG_CLEAN_SESSION), duration)


def _decode_register(data: bytes) -> Register:
    topic_id, msg_id = _unpack(_HH, data, "REGISTER")
    return Register(topic_id, msg_id, _text(data[6:], "REGISTER"))


def _decode_publish(data: bytes) -> Publish:
    flags, topic_id, msg_id = _unpack(_BHH, data, "PUBLISH")
    # Clearing the predefined bit leaves the normal type, which _qos
    # accepts, and turns the reserved type 0b11 into 0b10, which it refuses.
    if _qos(flags & ~TOPIC_TYPE_PREDEFINED):
        raise UnsupportedPacket("PUBLISH at QoS 1, where only 0 is supported")
    return Publish(topic_id, data[7:], msg_id,
                   bool(flags & TOPIC_TYPE_PREDEFINED))


def _decode_subscribe(data: bytes) -> Subscribe:
    flags, msg_id = _unpack(_BH, data, "SUBSCRIBE")
    return Subscribe(msg_id, _text(data[5:], "SUBSCRIBE"), _qos(flags),
                     bool(flags & FLAG_DUP))


def _decode_suback(data: bytes) -> Suback:
    flags, topic_id, msg_id, code = _exact(_BHHB, data, "SUBACK")
    return Suback(topic_id, msg_id, code, _qos(flags & FLAG_QOS_MASK))


def _decode_unsubscribe(data: bytes) -> Unsubscribe:
    flags, msg_id = _unpack(_BH, data, "UNSUBSCRIBE")
    _qos(flags & FLAG_TOPIC_TYPE_MASK)  # TopicIdType: its only flag
    return Unsubscribe(msg_id, _text(data[5:], "UNSUBSCRIBE"))


# message type code -> decoder of the whole frame (the body from offset
# 2, so each field is sliced once), keyed by plain int
_DECODERS = {int(code): decode for code, decode in (
    (MsgType.CONNECT, _decode_connect),
    (MsgType.CONNACK, lambda data: Connack(*_exact(_B, data, "CONNACK"))),
    (MsgType.REGISTER, _decode_register),
    (MsgType.REGACK, lambda data: Regack(*_exact(_HHB, data, "REGACK"))),
    (MsgType.PUBLISH, _decode_publish),
    (MsgType.SUBSCRIBE, _decode_subscribe),
    (MsgType.SUBACK, _decode_suback),
    (MsgType.UNSUBSCRIBE, _decode_unsubscribe),
    (MsgType.UNSUBACK,
     lambda data: Unsuback(*_exact(_H, data, "UNSUBACK"))),
)}


def _qos(flags: int) -> int:
    """The QoS of a flags octet whose QoS and TopicIdType are supported."""
    qos = (flags & FLAG_QOS_MASK) >> FLAG_QOS_SHIFT
    if qos > 1 or flags & FLAG_TOPIC_TYPE_MASK != TOPIC_TYPE_NORMAL:
        raise UnsupportedPacket("QoS {} or TopicIdType {} unsupported".format(
            qos, flags & FLAG_TOPIC_TYPE_MASK))
    return qos


def _text(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedString(
            "{} string is not valid UTF-8".format(what)) from exc


def _unpack(layout: struct.Struct, data: bytes, what: str) -> tuple:
    """The fixed fields that open the body of the frame ``data``."""
    if len(data) - 2 < layout.size:
        raise TruncatedPacket(
            "{} body of {} octets shorter than its {}-octet layout".format(
                what, len(data) - 2, layout.size))
    return layout.unpack_from(data, 2)


def _exact(layout: struct.Struct, data: bytes, what: str) -> tuple:
    """``_unpack`` for a packet whose body is its fixed fields alone."""
    if len(data) - 2 > layout.size:
        raise PacketLengthMismatch("{} body of {} octets, layout {}".format(
            what, len(data) - 2, layout.size))
    return _unpack(layout, data, what)
