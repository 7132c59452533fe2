"""End-to-end acceptance checks, one test per headline guarantee.

Each test prints a single scoreboard line (run with ``-s`` to see them
all even when green) and then asserts, so a red run still shows every
verdict reached before the failure.
"""

import random
import time

import pytest

from romano import codec
from romano import mqttsn as sn
from romano.harness.cli import main
from romano.harness.config import ScenarioConfig
from romano.harness.demos import run_bridge, run_dispersal, run_path_copy
from romano.harness.experiments import run_scalability, run_throughput
from romano.harness.world import World, robot_addr
from romano.node import READY

from faults import Swallow, connection_ack
from test_codec import EXTENSIONS, random_message
from test_mqttsn import random_packet


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = "criterion {} ({}): {}".format(num, name, "PASS" if ok else "FAIL")
    if detail:
        line += "  [{}]".format(detail)
    print(line)
    assert ok, line


def test_criterion_1_codec_soundness():
    started = time.perf_counter()
    rng = random.Random(0xACCE97)
    for _ in range(10_000):
        msg = random_message(rng)
        wire = codec.encode_message(msg)
        again = codec.decode_message(wire, extension_codes=EXTENSIONS)
        assert again == msg
        assert codec.encode_message(again) == wire
    for _ in range(10_000):
        pkt = random_packet(rng)
        wire = sn.encode_packet(pkt)
        again = sn.decode_packet(wire)
        assert again == pkt
        assert sn.encode_packet(again) == wire

    rejected = True
    for buf, err in [
            (b"", codec.TruncatedMessage),
            (b"\x04", codec.TruncatedMessage),
            (bytes([0x04, 0x0B]) + b"abcd1234", codec.TruncatedMessage),
            (bytes([0x04, 0x0A]) + b"abcd1234" + b"\x00", codec.LengthMismatch),
            (bytes([0x7F, 0x02]), codec.UnknownType),
            (b"", sn.TruncatedPacket),
            (sn.encode_packet(sn.Regack(1, 2))[:5], sn.TruncatedPacket),
            (sn.encode_packet(sn.Connack()) + b"\x00", sn.PacketLengthMismatch),
            (bytes([3, 0x18, 0x00]), sn.UnsupportedPacket),
    ]:
        decoder = sn.decode_packet if err.__module__ == sn.__name__ \
            else codec.decode_message
        try:
            decoder(buf)
            rejected = False
        except err:
            pass
    elapsed = time.perf_counter() - started
    verdict(1, "codec soundness", rejected and elapsed < 10.0,
            "10000+10000 roundtrips bit-identical in {:.1f}s".format(elapsed))


def test_criterion_2_establishment():
    cfg = ScenarioConfig()
    clean = World(cfg)
    clean.run_ready()
    clean_ok = (all(node.phase == READY for node in clean.nodes)
                and len(clean.server.registry) == cfg.n_robots)

    perturbed = World(cfg)
    victim = robot_addr(1)
    lost_ack = Swallow(perturbed.net, victim, connection_ack, count=1)
    perturbed.run_ready()
    # On the join topic the node sends one 15-octet topic registration,
    # then a 17-octet publish per join attempt.
    joins = [r.time_us for r in perturbed.trace.query(
        kind="send", src=victim, topic=codec.TOPIC_INIT_INFO)
        if r.nbytes == 17]
    gap = joins[1] - joins[0] if len(joins) == 2 else None
    ok = (clean_ok and gap == 2_000_000
          and lost_ack.swallowed == 1
          and perturbed.nodes[0].phase == READY
          and len(perturbed.server.registry) == cfg.n_robots)
    verdict(2, "establishment", ok,
            "registry {}/{}, retry gap {} us".format(
                len(perturbed.server.registry), cfg.n_robots, gap))


def test_criterion_3_throughput_envelope():
    base = ScenarioConfig()         # 5 robots, 32-octet payload, 5000 messages
    ok = True
    ratios = []
    for rate in (1.0, 10.0, 50.0, 100.0, 200.0):
        started = time.perf_counter()
        res = run_throughput(base.replace(rate_mps=rate))
        wall = time.perf_counter() - started
        ratios.append(res.delivery_ratio)
        ok = ok and (res.delivery_ratio >= 0.995 and res.buffer_dropped == 0
                     and res.overflow_onset is None and res.conservation_ok
                     and wall < 60.0)

    onsets = []
    for rate, nominal in ((300.0, 2200), (400.0, 1300), (500.0, 600)):
        started = time.perf_counter()
        res = run_throughput(base.replace(rate_mps=rate))
        wall = time.perf_counter() - started
        onset = res.overflow_onset
        onsets.append(onset)
        ok = ok and (onset is not None
                     and nominal // 2 <= onset <= nominal + nominal // 2
                     and res.conservation_ok and wall < 60.0)
    ok = ok and None not in onsets and onsets[0] > onsets[1] > onsets[2]
    verdict(3, "throughput envelope", ok,
            "min ratio {:.6f} at <=200 msg/s; onsets {} at 300/400/500".format(
                min(ratios), "/".join(str(o) for o in onsets)))


def test_criterion_4_delay_scaling():
    cfg = ScenarioConfig(n_robots=10, rate_mps=20.0, n_messages=400,
                         latency_lo_us=20_000, latency_hi_us=20_000)
    res = run_scalability(cfg)
    exact = all(set(stats.delays) == {20_000 + (stats.index - 1) * 8_000}
                for n in res.n_values for stats in res.per_n[n])
    ok = (res.n_values == list(range(1, 11)) and exact
          and abs(res.slope_us - 8_000.0) <= 100.0
          and res.r_squared > 0.999)
    verdict(4, "delay scaling", ok,
            "delay 20ms + (i-1)*8ms exact; slope {:.3f} us/robot,"
            " R^2 {:.6f}".format(res.slope_us, res.r_squared))


def test_criterion_5_path_copy():
    res = run_path_copy(ScenarioConfig(n_robots=3))
    failed = "; ".join(c.name for c in res.checks if not c.passed)
    verdict(5, "path copy", res.passed,
            failed or "{} followers replayed {} orders and closed the square"
            .format(len(res.robots) - 1, len(res.robots[0].executed)))


def test_criterion_6_dispersal():
    base = ScenarioConfig()
    near = run_dispersal(base.replace(initial_separation_mm=300.0))
    far = run_dispersal(base.replace(initial_separation_mm=5_000.0))
    failed = "; ".join(c.name for r in (near, far)
                       for c in r.checks if not c.passed)
    verdict(6, "dispersal", near.passed and far.passed,
            failed or "band reached and held from 0.3 m and from 5 m")


def test_criterion_7_bridge():
    res = run_bridge(ScenarioConfig(n_robots=3), soak_messages=10_000)
    failed = "; ".join(c.name for c in res.checks if not c.passed)
    verdict(7, "bridge", res.passed,
            failed or "remote orders reached exactly the subscribed robots;"
            " 10000-message soak crossed once each")


def test_criterion_8_determinism(tmp_path, capsys):
    argv = ["throughput", "--rate", "300", "--messages", "1200", "--seed", "9"]
    first, second = tmp_path / "a", tmp_path / "b"
    codes = [main(argv + ["--out-dir", str(first)]),
             main(argv + ["--out-dir", str(second)])]
    capsys.readouterr()
    names = ("report.csv", "wire_trace.log", "pose_trace.csv")
    same = [(first / n).read_bytes() == (second / n).read_bytes()
            for n in names]
    verdict(8, "determinism", codes == [0, 0] and all(same),
            "same seed, byte-identical {}".format(", ".join(names)))
