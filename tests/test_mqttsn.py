"""Packet layer tests: golden vectors, roundtrips, size limits."""
import random
import struct

import pytest

from romano import mqttsn as sn


class TestGoldenVectors:
    def test_publish_32_octets_of_data(self):
        # 7-octet header + 32 data octets = 39-octet packet
        pkt = sn.Publish(topic_id=7, data=bytes(range(32)))
        wire = sn.encode_packet(pkt)
        assert wire == bytes([39, 0x0C, 0x00, 0x00, 0x07, 0x00, 0x00]) \
            + bytes(range(32))
        assert sn.decode_packet(wire) == pkt

    def test_publish_qos1_dup_flags(self):
        # DUP 0x80 | QoS1 0x20 is refused; DUP alone, at QoS 0, is not
        wire = bytes([8, 0x0C, 0xA0, 0x00, 0x01, 0x00, 0x09]) + b"x"
        with pytest.raises(sn.UnsupportedPacket):
            sn.decode_packet(wire)
        wire = bytes([8, 0x0C, 0x80]) + wire[3:]
        assert sn.decode_packet(wire) == sn.Publish(1, b"x", msg_id=9)
        assert struct.unpack("!H", wire[5:7]) == (9,)

    def test_connect(self):
        pkt = sn.Connect("fe80::1", clean_session=True, duration=30)
        wire = sn.encode_packet(pkt)
        assert wire == bytes([13, 0x04, 0x04, 0x01, 0x00, 30]) + b"fe80::1"

    def test_connack(self):
        assert sn.encode_packet(sn.Connack()) == bytes([3, 0x05, 0x00])

    def test_subscribe_by_name(self):
        wire = sn.encode_packet(sn.Subscribe(msg_id=2, topic_name="common"))
        assert wire == bytes([11, 0x12, 0x00, 0x00, 0x02]) + b"common"

    def test_suback_carries_topic_id(self):
        wire = sn.encode_packet(sn.Suback(topic_id=4, msg_id=2))
        assert wire == bytes([8, 0x13, 0x00, 0x00, 0x04, 0x00, 0x02, 0x00])

    def test_register_regack(self):
        wire = sn.encode_packet(sn.Register(5, 3, "telemetry"))
        assert wire == bytes([15, 0x0A, 0x00, 0x05, 0x00, 0x03]) + b"telemetry"
        wire = sn.encode_packet(sn.Regack(5, 3))
        assert wire == bytes([7, 0x0B, 0x00, 0x05, 0x00, 0x03, 0x00])

    def test_unsubscribe_unsuback(self):
        wire = sn.encode_packet(sn.Unsubscribe(8, "common"))
        assert wire == bytes([11, 0x14, 0x00, 0x00, 0x08]) + b"common"
        assert sn.encode_packet(sn.Unsuback(8)) == bytes([4, 0x15, 0x00, 0x08])


def random_packet(rng: random.Random) -> sn.SnPacket:
    def name() -> str:
        return "".join(rng.choice("abcdefghij-/")
                       for _ in range(rng.randint(1, 30)))

    choice = rng.randrange(9)
    if choice == 0:
        return sn.Connect(name(), rng.random() < 0.5, rng.randint(0, 0xFFFF))
    if choice == 1:
        return sn.Connack(rng.randint(0, 3))
    if choice == 2:
        return sn.Register(rng.randint(0, 0xFFFF), rng.randint(0, 0xFFFF),
                           name())
    if choice == 3:
        return sn.Regack(rng.randint(0, 0xFFFF), rng.randint(0, 0xFFFF),
                         rng.randint(0, 3))
    if choice == 4:
        return sn.Publish(rng.randint(0, 0xFFFF),
                          rng.randbytes(rng.randint(0, sn.MAX_PUBLISH_DATA)),
                          msg_id=rng.randint(0, 0xFFFF) if rng.random() < 0.2
                          else 0, predefined=rng.random() < 0.2)
    if choice == 5:
        return sn.Subscribe(rng.randint(0, 0xFFFF), name(),
                            qos=rng.randint(0, 1), dup=rng.random() < 0.2)
    if choice == 6:
        return sn.Suback(rng.randint(0, 0xFFFF), rng.randint(0, 0xFFFF),
                         rng.randint(0, 3), qos=rng.randint(0, 1))
    if choice == 7:
        return sn.Unsubscribe(rng.randint(0, 0xFFFF), name())
    return sn.Unsuback(rng.randint(0, 0xFFFF))


class TestRoundtrip:
    def test_seeded_corpus(self):
        rng = random.Random(0x5EED)
        for _ in range(2000):
            pkt = random_packet(rng)
            wire = sn.encode_packet(pkt)
            assert wire[0] == len(wire) <= sn.MAX_PACKET_LEN
            assert sn.decode_packet(wire) == pkt


class TestLimits:
    def test_largest_publish(self):
        pkt = sn.Publish(1, bytes(sn.MAX_PUBLISH_DATA))
        wire = sn.encode_packet(pkt)
        assert len(wire) == 255
        assert sn.decode_packet(wire) == pkt

    def test_publish_data_overflow(self):
        with pytest.raises(sn.OversizePacket):
            sn.encode_packet(sn.Publish(1, bytes(sn.MAX_PUBLISH_DATA + 1)))

    def test_qos2_unsupported(self):
        with pytest.raises(sn.UnsupportedPacket):
            sn.decode_packet(bytes([7, 0x0C, 2 << sn.FLAG_QOS_SHIFT,
                                    0x00, 0x01, 0x00, 0x01]))
        with pytest.raises(sn.PacketError):
            sn.encode_packet(sn.Subscribe(1, "t", qos=2))

    def test_oversize_client_id(self):
        with pytest.raises(sn.OversizePacket):
            sn.encode_packet(sn.Connect("x" * 300))


class TestMalformed:
    def test_short_buffer(self):
        for buf in (b"", b"\x02"):
            with pytest.raises(sn.TruncatedPacket):
                sn.decode_packet(buf)

    def test_truncated_body(self):
        wire = sn.encode_packet(sn.Regack(1, 2))
        with pytest.raises(sn.TruncatedPacket):
            sn.decode_packet(wire[:5])

    def test_trailing_octets(self):
        wire = sn.encode_packet(sn.Connack()) + b"\x00"
        with pytest.raises(sn.PacketLengthMismatch):
            sn.decode_packet(wire)

    def test_declared_length_below_header(self):
        for wire in (b"\x00\x04", b"\x01\x04"):
            with pytest.raises(sn.PacketLengthMismatch, match="minimum"):
                sn.decode_packet(wire)

    def test_unsupported_type(self):
        with pytest.raises(sn.UnsupportedPacket):
            sn.decode_packet(bytes([3, 0x18, 0x00]))  # DISCONNECT

    def test_wrong_protocol_id(self):
        wire = bytes([13, 0x04, 0x04, 0x7F, 0x00, 30]) + b"fe80::1"
        with pytest.raises(sn.UnsupportedPacket):
            sn.decode_packet(wire)


# a frame of each packet type that names its topic, with flags octet 0x00
TOPIC_FRAMES = {
    "PUBLISH": sn.encode_packet(sn.Publish(4, b"x")),
    "SUBSCRIBE": sn.encode_packet(sn.Subscribe(1, "common")),
    "UNSUBSCRIBE": sn.encode_packet(sn.Unsubscribe(1, "common")),
}


# TopicIdTypes the decoder refuses: every one but normal on a SUBSCRIBE or
# UNSUBSCRIBE, and a short name or the reserved type on a PUBLISH
UNSUPPORTED_TOPIC_TYPES = [
    (name, topic_type) for name in sorted(TOPIC_FRAMES)
    for topic_type in (0b01, 0b10, 0b11)
    if (name, topic_type) != ("PUBLISH", 0b01)]


@pytest.mark.parametrize(
    "name, topic_type", UNSUPPORTED_TOPIC_TYPES,
    ids=["{}-{}".format(name, {0b01: "predefined", 0b10: "short",
                               0b11: "reserved"}[topic_type])
         for name, topic_type in UNSUPPORTED_TOPIC_TYPES])
def test_topic_id_type_other_than_normal_is_unsupported(name, topic_type):
    raw = bytearray(TOPIC_FRAMES[name])
    sn.decode_packet(bytes(raw))  # the normal form decodes
    raw[2] |= topic_type
    with pytest.raises(sn.UnsupportedPacket):
        sn.decode_packet(bytes(raw))


def test_publish_to_a_predefined_topic_id_round_trips():
    pkt = sn.Publish(1, b"hi", predefined=True)
    wire = sn.encode_packet(pkt)
    assert wire == bytes([9, sn.MsgType.PUBLISH, sn.TOPIC_TYPE_PREDEFINED,
                          0, 1, 0, 0]) + b"hi"
    assert sn.encode_publish(1, b"hi", sn.TOPIC_TYPE_PREDEFINED) == wire
    assert sn.decode_packet(wire) == pkt

