"""Wire format tests for the overlay message codec.

Golden vectors are written out octet by octet from the layout rules
(type, total length, big-endian fields) rather than produced by the
encoder under test.
"""
import ipaddress
import random

import pytest
from hypothesis import given, settings, strategies as st

from romano import codec
from romano.codec import (
    ConnectionAck,
    ConnectionRequest,
    ConnectedNodesInfo,
    CustomData,
    DataType,
    Heartbeat,
    LengthMismatch,
    MalformedAddress,
    MovementControl,
    MqttPublishRequest,
    MqttSubscribe,
    MqttUnsubscribe,
    NormalData,
    OversizePayload,
    RequestConnectedNodesInfo,
    SensorData,
    TruncatedMessage,
    UnknownType,
    decode_message,
    derive_romano_id,
    encode_message,
    is_valid_romano_id,
    movement_control,
)

ID_A = "abcd1234"
ID_B = "00100002"

GOLDEN = [
    (ConnectionRequest(ID_A),
     bytes([0x00, 0x0A]) + b"abcd1234"),
    (ConnectionAck(),
     bytes([0x01, 0x02])),
    (RequestConnectedNodesInfo(ID_A),
     bytes([0x02, 0x0A]) + b"abcd1234"),
    (ConnectedNodesInfo((ID_A, ID_B)),
     bytes([0x03, 0x12]) + b"abcd1234" + b"00100002"),
    (Heartbeat(ID_A),
     bytes([0x04, 0x0A]) + b"abcd1234"),
    (NormalData(b"\x01\x02"),
     bytes([0x05, 0x04, 0x01, 0x02])),
    (MqttSubscribe("common"),
     bytes([0x06, 0x08]) + b"common"),
    (MqttUnsubscribe("common"),
     bytes([0x07, 0x08]) + b"common"),
    # topic "telemetry" spans octets 3..11, so octet 2 holds 0x0B
    (MqttPublishRequest("telemetry", b"\x01\x02"),
     bytes([0x08, 0x0E, 0x0B]) + b"telemetry" + bytes([0x01, 0x02])),
    (MovementControl(int(codec.MovementType.MOVE_FRONT), b"\x00\x64"),
     bytes([0x09, 0x06, 0x00, 0x00, 0x00, 0x64])),
    (SensorData(0x0007, b"\xFF"),
     bytes([0x0A, 0x05, 0x00, 0x07, 0xFF])),
]


class TestGoldenVectors:
    @pytest.mark.parametrize("msg,wire", GOLDEN,
                             ids=[type(m).__name__ for m, _ in GOLDEN])
    def test_encode(self, msg, wire):
        assert encode_message(msg) == wire

    @pytest.mark.parametrize("msg,wire", GOLDEN,
                             ids=[type(m).__name__ for m, _ in GOLDEN])
    def test_decode(self, msg, wire):
        assert decode_message(wire) == msg

    def test_second_octet_is_total_length(self):
        for msg, wire in GOLDEN:
            assert wire[1] == len(wire)

    def test_custom_data_needs_registration(self):
        wire = bytes([0x11, 0x0A]) + b"abcd1234"
        assert encode_message(CustomData(0x11, b"abcd1234")) == wire
        assert decode_message(wire, extension_codes={0x11}) == \
            CustomData(0x11, b"abcd1234")
        with pytest.raises(UnknownType):
            decode_message(wire)

    def test_movement_helper_matches_manual_build(self):
        msg = movement_control(codec.MovementType.ROTATE_LEFT, 90)
        assert msg == MovementControl(0x0004, b"\x00\x5A")
        assert msg.magnitude == 90
        assert movement_control(0x0004, 90) == msg


ADDRESS_ALPHABET = "0123456789abcdefABCDEF:.%"


@st.composite
def address_text(draw):
    """An IPv6 address written compressed, exploded or with an embedded
    IPv4 part, maybe with a scope, then with up to two characters
    replaced or deleted: about half of these are valid addresses."""
    address = draw(st.ip_addresses(v=6))
    ipv4 = ipaddress.IPv4Address(address.packed[-4:])
    text = draw(st.sampled_from([
        str(address), address.exploded,
        "{}:{}".format(address.exploded.rsplit(":", 2)[0], ipv4)]))
    if draw(st.booleans()):
        text += "%" + draw(st.text(ADDRESS_ALPHABET, max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["", *ADDRESS_ALPHABET]))
        text = text[:i] + edit + text[i + 1:]
    return text


class TestRomanoIds:
    def test_derived_from_expanded_ipv6_tail(self):
        assert derive_romano_id("fe80::212:4b00:0:1") == "00000001"
        assert derive_romano_id("fe80::212:4b00:10:1") == "00100001"
        assert derive_romano_id("2001:db8::ff00:42:8329") == "00428329"

    def test_expansion_is_lowercase(self):
        assert derive_romano_id("FE80::212:4B00:AB:CD") == "00ab00cd"

    def test_id_equals_private_topic_name(self):
        # The derived id doubles as the node's private topic name, so it
        # must be stable across equivalent address spellings.
        spellings = ["fe80::212:4b00:0:1",
                     "fe80:0:0:0:212:4b00:0:1",
                     "fe80:0000:0000:0000:0212:4b00:0000:0001"]
        assert len({derive_romano_id(s) for s in spellings}) == 1

    def test_rejects_non_ipv6(self):
        for bad in ("", "192.168.0.1", "not-an-address", "fe80::1::2"):
            with pytest.raises(MalformedAddress):
                derive_romano_id(bad)

    def test_embedded_ipv4_gives_its_four_octets(self):
        # The exploded text of such an address differs across Python
        # releases; the ID is read from the octets.
        assert derive_romano_id("::ffff:192.0.2.1") == "c0000201"
        assert derive_romano_id("::1.2.3.4") == "01020304"

    def test_rejects_scoped_address(self):
        for bad in ("fe80::1%eth0", "fe80::212:4b00:0:1%1"):
            with pytest.raises(MalformedAddress):
                derive_romano_id(bad)

    def test_int_address_is_accepted(self):
        assert derive_romano_id(5) == "00000005"

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.ip_addresses(v=6))
    def test_id_is_the_last_four_octets_in_any_spelling(self, address):
        want = address.packed[-4:].hex()
        for text in (str(address), address.exploded, str(address).upper()):
            got = derive_romano_id(text)
            assert got == want and is_valid_romano_id(got)

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(st.one_of(st.text(ADDRESS_ALPHABET, max_size=45), address_text()))
    def test_refuses_exactly_invalid_or_scoped_text(self, text):
        try:
            address = ipaddress.IPv6Address(text)
        except ValueError:
            address = None
        if address is None or address.scope_id is not None:
            with pytest.raises(MalformedAddress):
                derive_romano_id(text)
        else:
            assert derive_romano_id(text) == address.packed[-4:].hex()

    def test_encode_rejects_bad_ids(self):
        for bad in ("ABCD1234", "abcd123", "abcd12345", "ghijklmn", ""):
            with pytest.raises(MalformedAddress):
                encode_message(Heartbeat(bad))


def random_message(rng: random.Random) -> codec.RomanoMessage:
    def rid() -> str:
        return "".join(rng.choice("0123456789abcdef") for _ in range(8))

    def topic() -> str:
        return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz-/0123456789")
                       for _ in range(rng.randint(1, 40)))

    choice = rng.randrange(12)
    if choice == 0:
        return ConnectionRequest(rid())
    if choice == 1:
        return ConnectionAck()
    if choice == 2:
        return RequestConnectedNodesInfo(rid())
    if choice == 3:
        return ConnectedNodesInfo(tuple(rid() for _ in range(rng.randint(0, 31))))
    if choice == 4:
        return Heartbeat(rid())
    if choice == 5:
        return NormalData(rng.randbytes(rng.randint(0, 253)))
    if choice == 6:
        return MqttSubscribe(topic())
    if choice == 7:
        return MqttUnsubscribe(topic())
    if choice == 8:
        t = topic()
        return MqttPublishRequest(t, rng.randbytes(
            rng.randint(0, 253 - 1 - len(t))))
    if choice == 9:
        return MovementControl(rng.randint(0, 0xFFFF),
                               rng.randbytes(rng.randint(0, 64)))
    if choice == 10:
        return SensorData(rng.randint(0, 0xFFFF),
                          rng.randbytes(rng.randint(0, 64)))
    return CustomData(rng.choice([0x11, 0x12, 0x80, 0xFF]),
                      rng.randbytes(rng.randint(0, 253)))


EXTENSIONS = frozenset({0x11, 0x12, 0x80, 0xFF})


class TestRoundtrip:
    def test_seeded_corpus(self):
        rng = random.Random(0xC0DEC)
        for _ in range(2000):
            msg = random_message(rng)
            wire = encode_message(msg)
            assert len(wire) <= codec.MAX_MESSAGE_LEN
            assert wire[1] == len(wire)
            assert decode_message(wire, extension_codes=EXTENSIONS) == msg

    def test_unicode_topic(self):
        msg = MqttSubscribe("täglich/status")
        assert decode_message(encode_message(msg)) == msg

    def test_empty_roster_roundtrips(self):
        wire = encode_message(ConnectedNodesInfo(()))
        assert wire == bytes([0x03, 0x02])
        assert decode_message(wire) == ConnectedNodesInfo(())


class TestMalformed:
    def test_shorter_than_header(self):
        for buf in (b"", b"\x04"):
            with pytest.raises(TruncatedMessage):
                decode_message(buf)

    def test_buffer_below_declared_length(self):
        wire = bytes([0x04, 0x0B]) + b"abcd1234"  # declares 11, holds 10
        with pytest.raises(TruncatedMessage):
            decode_message(wire)

    def test_trailing_octets(self):
        wire = bytes([0x04, 0x0A]) + b"abcd1234" + b"\x00"
        with pytest.raises(LengthMismatch):
            decode_message(wire)

    def test_declared_length_below_header(self):
        for length in (0, 1):
            with pytest.raises(LengthMismatch):
                decode_message(bytes([0x04, length]))

    def test_ack_with_payload(self):
        with pytest.raises(LengthMismatch):
            decode_message(bytes([0x01, 0x03, 0x00]))

    def test_id_field_validation(self):
        for payload in (b"abcd123", b"ABCD1234X"[:8], b"\xff" * 8):
            wire = bytes([0x04, 2 + len(payload)]) + payload
            with pytest.raises(LengthMismatch):
                decode_message(wire)

    def test_roster_not_multiple_of_id_length(self):
        wire = bytes([0x03, 0x06]) + b"abcd"
        with pytest.raises(LengthMismatch):
            decode_message(wire)

    def test_publish_request_topic_bounds(self):
        # last-topic-octet index pointing at or past the end is invalid
        for last in (0, 1, 2, 0x0E, 0xFF):
            wire = bytes([0x08, 0x0E, last]) + b"telemetry" + b"\x01\x02"
            if last == 0x0B:
                continue
            with pytest.raises(LengthMismatch):
                decode_message(wire)

    def test_movement_control_needs_type_field(self):
        # and so does sensor data, whose type field is laid out the same
        for code in (DataType.MOVEMENT_CONTROL, DataType.SENSOR_DATA):
            with pytest.raises(LengthMismatch):
                decode_message(bytes([code, 0x03, 0x00]))

    def test_empty_topic(self):
        for code in (DataType.MQTT_SUBSCRIBE, DataType.MQTT_PUBLISH_REQUEST):
            with pytest.raises(LengthMismatch):
                decode_message(bytes([code, 0x02]))
        for msg in (MqttSubscribe(""), MqttPublishRequest("", b"x")):
            with pytest.raises(codec.CodecError, match="must not be empty"):
                encode_message(msg)

    def test_topic_not_utf8(self):
        wire = bytes([DataType.MQTT_SUBSCRIBE, 0x04]) + b"\xc3\x28"
        with pytest.raises(LengthMismatch, match="not valid UTF-8"):
            decode_message(wire)


class TestUnknownCodes:
    def test_exhaustive_code_space(self):
        builtin = codec.BUILTIN_TYPE_CODES
        for code in range(256):
            wire = bytes([code, 0x02])
            if code in builtin:
                continue  # layout-specific failures covered elsewhere
            if code in EXTENSIONS:
                assert decode_message(wire, extension_codes=EXTENSIONS) == \
                    CustomData(code, b"")
            else:
                with pytest.raises(UnknownType):
                    decode_message(wire, extension_codes=EXTENSIONS)

    def test_extension_cannot_shadow_builtin(self):
        wire = bytes([0x04, 0x0A]) + b"abcd1234"
        msg = decode_message(wire, extension_codes={0x04})
        assert isinstance(msg, Heartbeat)
        with pytest.raises(UnknownType):
            encode_message(CustomData(0x04, b""))


class TestLimits:
    def test_largest_payload(self):
        msg = NormalData(bytes(253))
        wire = encode_message(msg)
        assert len(wire) == 255 and wire[1] == 255
        assert decode_message(wire) == msg

    def test_payload_overflow(self):
        # a 254-octet topic would put its last octet at index 256
        for msg in (NormalData(bytes(254)), MqttPublishRequest("t" * 254)):
            with pytest.raises(OversizePayload):
                encode_message(msg)

    def test_magnitude_bounds(self):
        assert movement_control(0, 0xFFFF).magnitude == 0xFFFF
        for bad in (-1, 0x10000):
            with pytest.raises(OversizePayload):
                movement_control(0, bad)
        for data in (b"", b"\x00", b"\x00\x01\x02"):
            with pytest.raises(LengthMismatch):
                MovementControl(0, data).magnitude

    def test_u16_field_bounds(self):
        with pytest.raises(OversizePayload):
            encode_message(SensorData(0x10000, b""))

    def test_roster_chunk_limit_fits(self):
        # 31 ids is the largest roster a single message can carry
        msg = ConnectedNodesInfo(tuple("%08x" % i for i in range(31)))
        assert len(encode_message(msg)) == 2 + 31 * 8
        with pytest.raises(OversizePayload):
            encode_message(ConnectedNodesInfo(tuple("%08x" % i
                                                    for i in range(32))))
