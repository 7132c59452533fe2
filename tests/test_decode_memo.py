"""The receive-path decode memos, ``mqttsn.decode_shared`` and
``codec.decode_shared``.

A fan-out delivers one frame as the same octets to every subscriber, and
the broker forwards each PUBLISH it accepts as the octets it received, so
each distinct frame is decoded once in the process and the result shared.
That is sound only while every decoded object is immutable and every
receiver still sees its own errors and its own extension codes.
"""
import dataclasses
import inspect
from collections import Counter

import pytest

from romano import codec
from romano import mqttsn as sn
from romano.harness.config import ScenarioConfig
from romano.harness.experiments import encode_probe
from romano.harness.world import World

from test_node import BROKER, NODE_1, NODE_2, Rig

CUSTOM = 0x42


@pytest.fixture(autouse=True)
def empty_memos():
    sn.decode_shared.cache_clear()
    codec.decode_shared.cache_clear()


@pytest.mark.parametrize("encoders", [sn._ENCODERS, codec._ENCODERS],
                         ids=["mqttsn", "codec"])
def test_every_decoded_class_is_a_frozen_dataclass(encoders):
    for cls in encoders:
        assert dataclasses.is_dataclass(cls), cls
        assert cls.__dataclass_params__.frozen, cls
        assert not hasattr(object.__new__(cls), "__dict__"), cls  # slotted


# Every packet and message class, and a value for each type its fields use.
CLASSES = [*sn._ENCODERS, *codec._ENCODERS]
SAMPLE = {"int": 7, "str": "s", "bytes": b"d", "bool": True,
          "tuple[str, ...]": ("0123abcd",)}


def plain_twin(cls):
    """The plain frozen dataclass of ``cls``'s name, fields and defaults."""
    return dataclasses.make_dataclass(
        cls.__name__, [(f.name, f.type, dataclasses.field(default=f.default))
                       for f in dataclasses.fields(cls)],
        frozen=True, slots=True)


def sample(cls):
    return cls(*(SAMPLE[f.type] for f in dataclasses.fields(cls)))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_built_init_acts_as_a_plain_frozen_dataclass_init(cls):
    twin = plain_twin(cls)
    assert inspect.signature(cls) == inspect.signature(twin)
    names = [f.name for f in dataclasses.fields(cls)]
    values = [SAMPLE[f.type] for f in dataclasses.fields(cls)]
    required = [SAMPLE[f.type] for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING]
    for args, kwargs in [(values, {}), ((), dict(zip(names, values))),
                         (values[:1], dict(zip(names[1:], values[1:]))),
                         (required, {})]:
        obj, ref = cls(*args, **kwargs), twin(*args, **kwargs)
        assert repr(obj) == repr(ref) and hash(obj) == hash(ref)
        assert obj == cls(*args, **kwargs) and obj != ref
    obj = sample(cls)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 1)
    assert obj == sample(cls)


def test_classes_of_equal_fields_are_unequal():
    assert sn.Connack(0) != sn.Unsuback(0)
    assert sn.Regack(1, 2, 0) != sn.Suback(1, 2, 0)
    objs = [sample(cls) for cls in CLASSES]
    for i, obj in enumerate(objs):
        assert [other == obj for other in objs] == [
            j == i for j in range(len(objs))], obj


def ready_pair() -> tuple:
    rig = Rig()
    nodes = [rig.add_node(NODE_1), rig.add_node(NODE_2)]
    for each in nodes:
        each.start()
        rig.ready(each)
    return rig, nodes


def test_same_malformed_octets_count_at_each_session():
    rig, nodes = ready_pair()
    junk = b"\x05\x0c"  # declares 5 octets, holds 2
    for each in nodes:
        rig.net.send(BROKER, each.session.client_id, junk)
    rig.sim.run_until_idle()
    assert [each.session.stray_packets for each in nodes] == [1, 1]


@pytest.mark.parametrize("registered_first", [True, False])
def test_extension_codes_are_part_of_the_key(registered_first):
    rig, (registered, other) = ready_pair()
    got = []
    registered.on_data(CUSTOM, got.append)
    raw = codec.encode_message(codec.CustomData(CUSTOM, b"zz"))
    order = [registered, other] if registered_first else [other, registered]
    for each in order:
        each._on_romano(codec.TOPIC_COMMON, raw)
    assert got == [codec.CustomData(CUSTOM, b"zz")]
    assert registered.unknown_types == 0
    assert other.unknown_types == 1


def test_broadcast_decodes_each_fanout_frame_once(monkeypatch):
    world = World(ScenarioConfig(n_robots=16))
    world.run_ready()
    net = world.net
    delivered = Counter()   # octets -> copies delivered, broker included

    def tap(addr: str) -> None:
        inner = net.endpoint(addr)

        def wrapped(src: str, data: bytes) -> None:
            delivered[data] += 1
            inner(src, data)

        net.attach(addr, wrapped)

    for addr in [world.cell.addr, world.commander.client_id,
                 world.server.session.client_id, *world.cell.robot_addrs()]:
        tap(addr)
    calls = 0
    decode = sn.decode_packet

    def counting(data: bytes) -> sn.SnPacket:
        nonlocal calls
        calls += 1
        return decode(data)

    sn.decode_shared.cache_clear()
    monkeypatch.setattr(sn, "decode_packet", counting)
    for seq in range(20):
        world.commander.publish(codec.TOPIC_COMMON,
                                encode_probe(seq, world.sim.now, 32))
    world.sim.run_until_idle()
    # The broker gets each probe, under the predefined id of "common"
    # with no REGISTER first, and 16 robots each probe as the octets the
    # broker got.
    assert sorted(delivered.values()) == [17] * 20
    # Each distinct frame is decoded once in the whole process.
    assert calls == len(delivered) == 20


def test_the_server_keeps_its_join_requests_out_of_the_memo():
    # Each ConnectionRequest is heard once, by the server alone; in the
    # memo it would only push out the ConnectionAck every node decodes.
    rig, nodes = ready_pair()
    assert len(rig.server.registry) == 2
    info = codec.decode_shared.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
