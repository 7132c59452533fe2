"""Decoders are total: any octet string yields a message or a typed error.

Nothing a peer sends may raise out of a receive callback, because that
would abort the event loop for every other node in the run.
"""
from hypothesis import given, settings, strategies as st

from romano import codec
from romano import mqttsn as sn
from romano.broker import Broker
from romano.session import ClientSession
from romano.simnet import LinkModel, Network, Simulator

BROKER = "fe80::212:4b00:1:1"
CLIENT = "fe80::212:4b00:10:1"

# An UNSUBSCRIBE whose topic name is not valid UTF-8.
BAD_UTF8_TOPIC = bytes.fromhex("0c1484f8cf9bf4b76f479047")


def test_invalid_utf8_is_a_packet_error():
    for raw in (BAD_UTF8_TOPIC,
                bytes([0x08, sn.MsgType.CONNECT, 0x04, 0x01, 0, 0, 0xC3, 0x28]),
                bytes([0x07, sn.MsgType.REGISTER, 0, 0, 0, 1, 0xFF]),
                bytes([0x06, sn.MsgType.SUBSCRIBE, 0, 0, 1, 0x80])):
        try:
            sn.decode_packet(raw)
        except sn.MalformedString:
            continue
        raise AssertionError("decoded {}".format(raw.hex()))


def test_bad_string_neither_aborts_the_loop_nor_reaches_a_handler():
    sim = Simulator()
    net = Network(sim)
    net.set_link_pair(CLIENT, BROKER, LinkModel.fixed(1_000))
    broker = Broker(net, BROKER)
    session = ClientSession(net, CLIENT, BROKER)
    net.send(CLIENT, BROKER, BAD_UTF8_TOPIC)
    net.send(BROKER, CLIENT, BAD_UTF8_TOPIC)
    sim.run_until_idle()
    assert sim.now == 1_000
    assert broker.bad_packets == 1
    assert session.stray_packets == 1


# Arbitrary octets rarely carry a matching length octet, so half of the
# cases are framed first, which sends them into a type's body parser.
ANY_OCTETS = st.binary(max_size=300)


@st.composite
def packet_frames(draw):
    body = draw(st.binary(max_size=253))
    msg_type = draw(st.sampled_from(list(sn.MsgType)))
    return bytes((len(body) + 2, msg_type)) + body


@st.composite
def message_frames(draw):
    body = draw(st.binary(max_size=253))
    type_code = draw(st.integers(min_value=0, max_value=0xFF))
    return bytes((type_code, len(body) + 2)) + body


@settings(max_examples=500, deadline=None)
@given(st.one_of(ANY_OCTETS, packet_frames()))
def test_decode_packet_raises_only_packet_errors(raw):
    try:
        sn.decode_packet(raw)
    except sn.PacketError:
        pass


@settings(max_examples=500, deadline=None)
@given(st.one_of(ANY_OCTETS, message_frames()),
       st.frozensets(st.integers(min_value=0, max_value=0xFF), max_size=4))
def test_decode_message_raises_only_codec_errors(raw, extension_codes):
    try:
        codec.decode_message(raw, extension_codes=extension_codes)
    except codec.CodecError:
        pass
