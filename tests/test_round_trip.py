"""Round-trip properties for both codecs: decode(encode(x)) == x.

Every packet and message type is drawn over its whole field space,
boundaries included: frame lengths 2 and 255, ids 0 and 65 535, empty
and maximal strings and data, and a 31-id roster.  Both encoders
dispatch on the exact type of their argument, so anything else, a
look-alike dataclass with the same name and fields included, must fail
with the codec's own error type.  So must an integer field outside
the range its octets hold, and data that is not bytes-like.
"""
from dataclasses import dataclass, fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from romano import codec
from romano import mqttsn as sn

ROUND_TRIP = settings(max_examples=60, derandomize=True, deadline=None)

U8 = st.integers(min_value=0, max_value=0xFF)
U16 = st.one_of(st.sampled_from((0, 0xFFFF)),
                st.integers(min_value=0, max_value=0xFFFF))
QOS = st.sampled_from((0, 1))


def text(max_octets: int, min_size: int = 0):
    """UTF-8 strings up to ``max_octets`` long, the longest one included."""
    edges = [s for s in ("", "t" * max_octets, "é" * (max_octets // 2))
             if len(s) >= min_size]
    # a code point takes at most 4 octets, so this never overflows
    drawn = st.text(min_size=min_size, max_size=max_octets // 4)
    return st.one_of(st.sampled_from(edges), drawn)


def octets(max_len: int):
    return st.one_of(st.sampled_from((b"", bytes(range(max_len)))),
                     st.binary(max_size=max_len))


# -- MQTT-SN packets ------------------------------------------------------------

# Octets a packet's body spends before its trailing string or data.
_STRING_ROOM = {sn.Connect: 4, sn.Register: 4, sn.Subscribe: 3,
                sn.Unsubscribe: 3, sn.Publish: 5}


def room(cls) -> int:
    return sn.MAX_PACKET_LEN - 2 - _STRING_ROOM[cls]


PACKETS = {
    sn.Connect: st.builds(sn.Connect, text(room(sn.Connect)), st.booleans(),
                          U16),
    sn.Connack: st.builds(sn.Connack, U8),
    sn.Register: st.builds(sn.Register, U16, U16, text(room(sn.Register))),
    sn.Regack: st.builds(sn.Regack, U16, U16, U8),
    sn.Publish: st.builds(sn.Publish, U16, octets(room(sn.Publish)), U16,
                          st.booleans()),
    sn.Subscribe: st.builds(sn.Subscribe, U16, text(room(sn.Subscribe)),
                            QOS, st.booleans()),
    sn.Suback: st.builds(sn.Suback, U16, U16, U8, QOS),
    sn.Unsubscribe: st.builds(sn.Unsubscribe, U16,
                              text(room(sn.Unsubscribe))),
    sn.Unsuback: st.builds(sn.Unsuback, U16),
}


def test_every_packet_type_has_a_strategy():
    assert set(PACKETS) == set(sn.SnPacket.__args__)


@pytest.mark.parametrize("strategy", PACKETS.values(),
                         ids=[cls.__name__ for cls in PACKETS])
@ROUND_TRIP
@given(data=st.data())
def test_packet_round_trip(strategy, data):
    pkt = data.draw(strategy)
    raw = sn.encode_packet(pkt)
    assert raw[0] == len(raw) <= sn.MAX_PACKET_LEN
    assert sn.decode_packet(raw) == pkt


@pytest.mark.parametrize("pkt", [
    sn.Connect("c" * room(sn.Connect), duration=0xFFFF),
    sn.Register(0, 0, "r" * room(sn.Register)),
    sn.Subscribe(0xFFFF, "s" * room(sn.Subscribe)),
    sn.Unsubscribe(0, "u" * room(sn.Unsubscribe)),
])
def test_largest_packets_fill_the_length_octet(pkt):
    raw = sn.encode_packet(pkt)
    assert len(raw) == sn.MAX_PACKET_LEN
    assert sn.decode_packet(raw) == pkt


# -- fixed-size packets ------------------------------------------------------------

# type code -> octets of a packet made of fixed fields alone
FIXED_SIZE = {sn.MsgType.CONNACK: 3, sn.MsgType.REGACK: 7,
              sn.MsgType.SUBACK: 8, sn.MsgType.UNSUBACK: 4}


@pytest.mark.parametrize("raw", [
    bytes([4, sn.MsgType.CONNACK, 0, 0xFF]),
] + [bytes([size + 1, code]) + bytes(size - 1)
     for code, size in FIXED_SIZE.items()], ids=lambda raw: raw.hex())
def test_fixed_size_packet_with_trailing_octets_is_rejected(raw):
    with pytest.raises(sn.PacketLengthMismatch):
        sn.decode_packet(raw)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_decodable_fixed_size_frame_re_encodes_to_itself(data):
    code = data.draw(st.sampled_from(sorted(FIXED_SIZE)))
    size = FIXED_SIZE[code] - 2
    body = data.draw(st.one_of(st.binary(min_size=size, max_size=size),
                               st.binary(max_size=size + 2)))
    if code == sn.MsgType.SUBACK and body:
        # Flags other than the granted QoS carry nothing a receiver keeps,
        # so a frame with them cannot come back octet for octet.
        body = bytes([body[0] & sn.FLAG_QOS_MASK]) + body[1:]
    raw = bytes([len(body) + 2, code]) + body
    try:
        pkt = sn.decode_packet(raw)
    except sn.PacketError:
        return
    assert sn.encode_packet(pkt) == raw


# -- integer fields outside their octets -----------------------------------------

BASES = [sn.Connect("x"), sn.Connack(), sn.Register(1, 1, "a"),
         sn.Regack(1, 1), sn.Publish(1, b""), sn.Subscribe(1, "a"),
         sn.Suback(1, 1), sn.Unsubscribe(1, "a"), sn.Unsuback(1)]

# (valid packet, integer field, largest value its octets hold); the QoS
# is a flag value with a check of its own
INT_FIELDS = [(base, f.name, 0xFF if f.name == "return_code" else 0xFFFF)
              for base in BASES for f in fields(base)
              if f.type == "int" and f.name != "qos"]


def test_every_packet_type_has_an_integer_field_case():
    assert {type(base) for base, _, _ in INT_FIELDS} == \
        set(sn.SnPacket.__args__)


@pytest.mark.parametrize("pkt", [
    sn.Regack(70000, 1), sn.Connack(256), sn.Publish(-1, b""),
    sn.Subscribe(70000, "a"), sn.Connect("x", duration=70000),
    sn.Publish(1, 3), sn.Publish(1, "x"),
], ids=repr)
def test_out_of_range_field_is_a_packet_error(pkt):
    with pytest.raises(sn.FieldOutOfRange):
        sn.encode_packet(pkt)


@pytest.mark.parametrize(
    "base, field, top", INT_FIELDS,
    ids=["{}.{}".format(type(b).__name__, f) for b, f, _ in INT_FIELDS])
@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_any_out_of_range_int_is_a_packet_error(base, field, top, data):
    value = data.draw(st.one_of(
        st.sampled_from((-1, top + 1)), st.integers(max_value=-1),
        st.integers(min_value=top + 1)))
    with pytest.raises(sn.FieldOutOfRange):
        sn.encode_packet(replace(base, **{field: value}))
    sn.encode_packet(replace(base, **{field: top}))  # the edge still fits


# A lone surrogate: a str that UTF-8 cannot encode.
UNENCODABLE = "\udcff"


@pytest.mark.parametrize("pkt", [
    sn.Connect(UNENCODABLE), sn.Register(0, 1, UNENCODABLE),
    sn.Subscribe(1, UNENCODABLE), sn.Unsubscribe(1, "t" + UNENCODABLE),
], ids=repr)
def test_name_utf8_cannot_encode_is_a_packet_error(pkt):
    with pytest.raises(sn.MalformedString):
        sn.encode_packet(pkt)


# -- ROMANO messages -------------------------------------------------------------

ROMANO_ID = st.text(alphabet="0123456789abcdef", min_size=8, max_size=8)
ROSTER = st.one_of(
    st.lists(ROMANO_ID, min_size=31, max_size=31),
    st.lists(ROMANO_ID, max_size=31)).map(tuple)
PAYLOAD = codec.MAX_PAYLOAD_LEN
CUSTOM_CODES = st.integers(min_value=0, max_value=0xFF).filter(
    lambda code: code not in codec.BUILTIN_TYPE_CODES)


@st.composite
def publish_requests(draw):
    topic = draw(text(PAYLOAD - 1, min_size=1))
    used = 1 + len(topic.encode("utf-8"))
    return codec.MqttPublishRequest(topic, draw(octets(PAYLOAD - used)))


MESSAGES = {
    codec.ConnectionRequest: st.builds(codec.ConnectionRequest, ROMANO_ID),
    codec.ConnectionAck: st.just(codec.ConnectionAck()),
    codec.RequestConnectedNodesInfo:
        st.builds(codec.RequestConnectedNodesInfo, ROMANO_ID),
    codec.ConnectedNodesInfo: st.builds(codec.ConnectedNodesInfo, ROSTER),
    codec.Heartbeat: st.builds(codec.Heartbeat, ROMANO_ID),
    codec.NormalData: st.builds(codec.NormalData, octets(PAYLOAD)),
    codec.MqttSubscribe: st.builds(codec.MqttSubscribe,
                                   text(PAYLOAD, min_size=1)),
    codec.MqttUnsubscribe: st.builds(codec.MqttUnsubscribe,
                                     text(PAYLOAD, min_size=1)),
    codec.MqttPublishRequest: publish_requests(),
    codec.MovementControl: st.builds(codec.MovementControl, U16,
                                     octets(PAYLOAD - 2)),
    codec.SensorData: st.builds(codec.SensorData, U16, octets(PAYLOAD - 2)),
    codec.CustomData: st.builds(codec.CustomData, st.one_of(
        st.sampled_from((codec.UDP_SEND_REQ, codec.UDP_SEND_GO, 0xFF)),
        CUSTOM_CODES), octets(PAYLOAD)),
}


def test_every_message_type_has_a_strategy():
    assert set(MESSAGES) == set(codec.RomanoMessage.__args__)


@pytest.mark.parametrize("strategy", MESSAGES.values(),
                         ids=[cls.__name__ for cls in MESSAGES])
@ROUND_TRIP
@given(data=st.data())
def test_message_round_trip(strategy, data):
    msg = data.draw(strategy)
    raw = codec.encode_message(msg)
    assert raw[1] == len(raw) <= codec.MAX_MESSAGE_LEN
    extension = {msg.type_code} if type(msg) is codec.CustomData else set()
    assert codec.decode_message(raw, extension_codes=extension) == msg


@pytest.mark.parametrize("msg, length", [
    (codec.ConnectionAck(), 2),
    (codec.NormalData(), 2),
    (codec.CustomData(codec.UDP_SEND_GO), 2),
    (codec.CustomData(0xFF, bytes(PAYLOAD)), 255),
    (codec.MqttSubscribe("t" * PAYLOAD), 255),
    (codec.MqttPublishRequest("t" * (PAYLOAD - 1)), 255),
    (codec.SensorData(0xFFFF, bytes(PAYLOAD - 2)), 255),
])
def test_message_length_boundaries(msg, length):
    raw = codec.encode_message(msg)
    assert len(raw) == length
    extension = {msg.type_code} if type(msg) is codec.CustomData else set()
    assert codec.decode_message(raw, extension_codes=extension) == msg


@pytest.mark.parametrize("code", sorted(codec.BUILTIN_TYPE_CODES) + [-1, 256])
def test_custom_code_must_not_be_builtin_or_out_of_range(code):
    with pytest.raises(codec.UnknownType):
        codec.encode_message(codec.CustomData(code))


# -- data that is not octets ---------------------------------------------------

# (encoder, valid value with a data field, error the encoder must raise)
DATA_FIELDS = [(sn.encode_packet, sn.Publish(1, b""), sn.FieldOutOfRange)] + [
    (codec.encode_message, msg, codec.InvalidField) for msg in (
        codec.NormalData(), codec.MqttPublishRequest("t"),
        codec.MovementControl(0), codec.SensorData(0),
        codec.CustomData(codec.UDP_SEND_GO))]

# Small ints only: ``bytes(n)`` makes n zero octets.
NOT_OCTETS = st.one_of(
    st.integers(min_value=-2, max_value=64), st.text(max_size=8), st.none(),
    st.floats(allow_nan=False), st.lists(U8, max_size=8),
    st.tuples(U8, U8))


@pytest.mark.parametrize("msg", [
    codec.NormalData(3), codec.SensorData(1, "ab"),
    codec.MovementControl(0, [0, 9]),
], ids=repr)
def test_data_that_is_not_octets_is_a_codec_error(msg):
    with pytest.raises(codec.InvalidField):
        codec.encode_message(msg)


@pytest.mark.parametrize(
    "encode, base, error", DATA_FIELDS,
    ids=[type(base).__name__ for _, base, _ in DATA_FIELDS])
@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_any_data_that_is_not_octets_is_a_codec_error(encode, base, error,
                                                      data):
    with pytest.raises(error):
        encode(replace(base, data=data.draw(NOT_OCTETS)))
    raw = data.draw(octets(8))
    # bytes-like data still encodes to the octets it holds
    assert encode(replace(base, data=bytearray(raw))) == \
        encode(replace(base, data=memoryview(raw))) == \
        encode(replace(base, data=raw))


# -- framing straight from the fields ------------------------------------------

PUBLISH_DATA = st.one_of(
    st.builds(lambda raw, as_buffer: as_buffer(raw),
              st.binary(max_size=sn.MAX_PUBLISH_DATA + 2),
              st.sampled_from((bytes, bytearray, memoryview))),
    NOT_OCTETS)


def _outcome(encode):
    """The frame ``encode()`` returns, or the type of its PacketError."""
    try:
        return encode()
    except sn.PacketError as exc:
        return type(exc)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(topic_id=st.one_of(U16, st.integers(min_value=-2, max_value=0x10001),
                          st.integers()),
       data=PUBLISH_DATA)
def test_encode_publish_is_encode_packet_of_a_plain_publish(topic_id, data):
    got = _outcome(lambda: sn.encode_publish(topic_id, data))
    assert got == _outcome(
        lambda: sn.encode_packet(sn.Publish(topic_id, data)))
    fits = (0 <= topic_id <= 0xFFFF
            and isinstance(data, (bytes, bytearray, memoryview))
            and len(data) <= sn.MAX_PUBLISH_DATA)
    assert isinstance(got, bytes) == fits


def _field(top: int):
    """Integers inside ``0..top``, its edges and just past them, and far."""
    return st.one_of(st.integers(0, top), st.sampled_from((-1, top + 1)),
                     st.integers())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(topic_id=_field(0xFFFF), msg_id=_field(0xFFFF),
       return_code=st.one_of(_field(0xFF), st.sampled_from(sn.ReturnCode)))
def test_reply_framers_equal_encode_packet(topic_id, msg_id, return_code):
    for framer, pkt, fields in [
            (sn.encode_connack, sn.Connack(return_code), (return_code,)),
            (sn.encode_regack, sn.Regack(topic_id, msg_id, return_code),
             (topic_id, msg_id, return_code)),
            (sn.encode_suback, sn.Suback(topic_id, msg_id, return_code),
             (topic_id, msg_id, return_code))]:
        got = _outcome(lambda: framer(*fields))
        assert got == _outcome(lambda: sn.encode_packet(pkt)), pkt
        fits = (0 <= return_code <= 0xFF
                and (framer is sn.encode_connack
                     or 0 <= topic_id <= 0xFFFF and 0 <= msg_id <= 0xFFFF))
        assert isinstance(got, bytes) == fits, pkt


@pytest.mark.parametrize("msg", [
    codec.MqttSubscribe(UNENCODABLE),
    codec.MqttPublishRequest("t" + UNENCODABLE, b"x"),
], ids=repr)
def test_topic_utf8_cannot_encode_is_a_codec_error(msg):
    with pytest.raises(codec.InvalidField):
        codec.encode_message(msg)


# -- objects of no codec type -----------------------------------------------------

@dataclass(frozen=True)
class Publish:
    """Same name and fields as ``mqttsn.Publish``, but not that class."""

    topic_id: int
    data: bytes
    msg_id: int = 0
    predefined: bool = False


@dataclass(frozen=True)
class Heartbeat:
    """Same name and field as ``codec.Heartbeat``, but not that class."""

    romano_id: str


@pytest.mark.parametrize("obj", [
    Publish(1, b"x"), None, b"\x03\x05\x00", codec.Heartbeat("0123abcd"),
], ids=repr)
def test_encode_packet_rejects_unknown_types(obj):
    with pytest.raises(sn.PacketError, match="cannot encode"):
        sn.encode_packet(obj)


@pytest.mark.parametrize("obj", [
    Heartbeat("0123abcd"), None, b"\x04\x02", sn.Connack(),
], ids=repr)
def test_encode_message_rejects_unknown_types(obj):
    with pytest.raises(codec.CodecError, match="cannot encode"):
        codec.encode_message(obj)
