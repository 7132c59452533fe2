"""Harness tests: config, runners, reports, CLI, reproducibility."""
import csv
import functools
import io

import pytest

from romano import codec
from romano.broker import DISPATCH_INTERVAL_US, Broker
from romano.harness import report
from romano.harness.cli import main
from romano.harness.config import (ConfigError, ScenarioConfig, build_config,
                                   parse_scenario_text)
from romano.harness.demos import DEMOS, BridgedWorld, run_group_control
from romano.harness.experiments import (decode_probe, encode_probe,
                                        linear_fit, publish_times,
                                        run_scalability, run_throughput)
from romano.harness.world import World, WorldNotReady, robot_addr
from romano.node import READY
from romano.simnet import LinkModel, NoLink, Simulator, WireTrace

from faults import Swallow


# Scenario keys that no run set to a second value; each is now a constant.
REMOVED_KEYS = ["heartbeat_period_us", "rssi_p0_dbm", "rssi_d0_mm",
                "rssi_exponent", "rssi_threshold_dbm", "dispersal_stride_mm",
                "dispersal_interval_us", "max_rounds", "bridge_latency_us",
                "dispatch_interval_us", "radio_tx_interval_us"]


class TestConfig:
    def test_defaults(self):
        assert build_config() == ScenarioConfig()

    def test_scenario_text_parsing(self):
        text = """
        # comment and blank lines are ignored

        seed = 42
        rate_mps = 12.5
        radio_buffer_capacity = 0x20
        bridge_topics = alpha, beta
        """
        overrides = parse_scenario_text(text)
        assert overrides == {"seed": 42, "rate_mps": 12.5,
                             "radio_buffer_capacity": 32,
                             "bridge_topics": "alpha, beta"}
        cfg = build_config(overrides)
        assert cfg.seed == 42
        assert cfg.bridge_topic_list() == ("alpha", "beta")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_scenario_text("robots = 4")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_scenario_text("just words")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_scenario_text("seed = many")

    def test_cli_overrides_file(self):
        cfg = build_config({"seed": 3, "n_robots": 7},
                           {"seed": 9, "n_robots": None})
        assert cfg.seed == 9       # CLI wins
        assert cfg.n_robots == 7   # None means "flag not given"

    @pytest.mark.parametrize("overrides", [
        {"n_robots": 0},
        {"payload_octets": 13},
        {"payload_octets": 256},
        {"latency_lo_us": 30_000, "latency_hi_us": 20_000},
        {"loss_prob": 1.0},
        {"loss_prob": -0.1},
        {"rate_mps": 0.0},
        {"rate_mps": float("nan")},
        {"rate_mps": float("inf")},
        {"rate_mps": 1e-300},
        {"initial_separation_mm": 0.0},
        {"bridge_topics": ","},
        {"n_messages": 0},
        {"bridge_topics": "squad-remote," + "x" * 247},
        {"bridge_topics": "\u00e9" * 124},
        {"n_robots": -1},
        {"latency_hi_us": -1},
        {"radio_buffer_capacity": -1},
        {"ready_deadline_us": -1},
        {"loss_prob": float("nan")},
        {"initial_separation_mm": float("inf")},
        {"initial_separation_mm": -300.0},
        {"bridge_topics": ""},
    ])
    def test_validation(self, overrides):
        with pytest.raises(ConfigError):
            build_config(overrides)

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_is_unknown(self, key):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_scenario_text(f"{key} = 1")
        with pytest.raises(ConfigError, match="unknown config keys"):
            build_config({key: 1})


class TestProbeMath:
    def test_probe_roundtrip_and_size(self):
        raw = encode_probe(7, 123_456_789, 32)
        assert len(raw) == 32
        msg = codec.decode_message(raw)
        assert decode_probe(msg.data) == (7, 123_456_789)

    def test_minimum_probe(self):
        raw = encode_probe(0xFFFFFFFF, 2**63, 14)
        assert len(raw) == 14
        assert decode_probe(codec.decode_message(raw).data) == (0xFFFFFFFF,
                                                                2**63)

    def test_publish_times_even_rate(self):
        assert publish_times(1000, 400.0, 3) == [1000, 3500, 6000]

    def test_publish_times_rounds_fractions(self):
        assert publish_times(0, 3.0, 4) == [0, 333333, 666667, 1000000]

    def test_linear_fit_exact(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        slope, intercept, r2 = linear_fit(xs, [3 * x + 7 for x in xs])
        assert (slope, intercept, r2) == pytest.approx((3.0, 7.0, 1.0))

    def test_linear_fit_imperfect(self):
        _, _, r2 = linear_fit([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
        assert r2 < 1.0

    def test_linear_fit_rejects_degenerate(self):
        with pytest.raises(ValueError):
            linear_fit([1.0], [2.0])
        with pytest.raises(ValueError):
            linear_fit([2.0, 2.0], [1.0, 5.0])


class TestWorld:
    def test_world_comes_up(self):
        cfg = ScenarioConfig(n_robots=3, seed=5)
        world = World(cfg)
        world.run_ready()
        assert all(node.phase == READY for node in world.nodes)
        assert world.server.running
        assert [n.romano_id for n in world.nodes] == ["00100001", "00100002",
                                                      "00100003"]
        # every robot observes the broadcast topic; with jittered links
        # the join order races, so only membership is guaranteed
        assert set(world.broker.subscribers(codec.TOPIC_COMMON)) == {
            robot_addr(i) for i in range(1, 4)}

    def test_a_cells_robots_share_one_radio_link_model(self):
        cfg = ScenarioConfig(n_robots=3, loss_prob=0.1)
        world = World(cfg)
        radio = world.cell.radio
        assert (radio.latency_us, radio.loss_prob) == (
            (cfg.latency_lo_us, cfg.latency_hi_us), 0.1)
        radio.connected = False   # cuts every robot's link, both ways
        for addr in world.cell.robot_addrs():
            for src, dst in ((addr, world.broker.addr),
                             (world.broker.addr, addr)):
                with pytest.raises(NoLink):
                    world.net.send(src, dst, b"")

    def test_ready_sees_a_node_fall_back_after_the_scan_passed_it(self):
        world = World(ScenarioConfig(n_robots=3, seed=5))
        world.run_ready()
        assert world.ready()   # every node has been scanned as READY
        cell, (first, second, _) = world.cell, world.nodes
        for i in (1, 2):
            world.net.set_link_pair(robot_addr(i), world.broker.addr,
                                    LinkModel(connected=False))

        def fall_back(node) -> None:
            # With the link down the SUBSCRIBE exhausts its retries, which
            # ends the session and sends the node back to INIT.
            node.session.subscribe("unreachable")
            assert world.sim.run_until_true(lambda: node.phase != READY,
                                            world.sim.now + 60 * 10**6)

        def second_still_joining() -> bool:
            # Each event of the rejoin: the cursor's node is not READY, so
            # ready() exits at it, with the cursor where it was.
            if second.phase == READY:
                return True
            assert not world.ready() and cell._unready == 1
            return False

        fall_back(second)
        assert first.phase == READY and not world.ready()
        assert cell._unready == 1
        fall_back(first)   # behind the cursor, while the second is joining
        assert not second_still_joining()
        world.net.set_link_pair(robot_addr(2), world.broker.addr, cell.radio)
        assert world.sim.run_until_true(second_still_joining,
                                        world.sim.now + 60 * 10**6)
        # Past the cursor every node is READY, so the scan starts over
        # and finds the first node still down.
        assert first.phase != READY and not world.ready()
        assert cell._unready == 0

    @pytest.mark.parametrize("world_class", [World, BridgedWorld],
                             ids=lambda cls: cls.__name__)
    def test_every_client_rejoins_after_a_broker_outage_at_boot(
            self, world_class):
        # The first cell's broker hears nothing for 3 s, so every client
        # there (robots, registry, commander and, bridged, its relay)
        # drops its session at least once and has to connect again.
        world = world_class(ScenarioConfig(n_robots=3, seed=1))
        down = Swallow(world.net, world.broker.addr)
        world.sim.at(3_000_000, down.lift)
        world.start()
        assert world.sim.run_until_true(world.ready, 30_000_000)
        assert world.sim.now > 3_000_000 and down.swallowed > 0

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "a fresh broker holds no session and a READY client sends "
        "nothing that would notice; needs ROADMAP item 5, MQTT-SN "
        "keep-alive"))
    def test_broadcasts_reach_the_swarm_again_after_a_broker_restart(self):
        world = World(ScenarioConfig(n_robots=5, seed=1))
        world.run_ready()
        got = []
        for node in world.nodes:
            node.on_data(int(codec.DataType.NORMAL_DATA), got.append)
        raw = codec.encode_message(codec.NormalData(b"x"))
        world.commander.publish(codec.TOPIC_COMMON, raw)
        world.sim.run_until(world.sim.now + 1_000_000)
        assert len(got) == 5
        got.clear()
        Broker(world.net, world.broker.addr,
               radio_buffer_capacity=world.cfg.radio_buffer_capacity,
               local_clients=world.broker.local_clients)
        start = world.sim.now
        for k in range(10):
            world.sim.at(start + k * 1_000_000, functools.partial(
                world.commander.publish, codec.TOPIC_COMMON, raw))
        world.sim.run_until(start + 30_000_000)
        assert len(got) == 50

    def test_two_thousand_robots_form_within_the_default_deadline(self):
        # The broker queues no duplicate reply, so the gate carries
        # little beyond each robot's own join frames.
        world = World(ScenarioConfig(n_robots=2000, seed=1))
        world.run_ready()  # raises WorldNotReady past the 10 s default
        assert len(world.server.registry) == 2000

    def test_order_without_kinematics_does_not_abort_the_run(self):
        world = World(ScenarioConfig(n_robots=2))
        world.run_ready()
        world.commander.publish(codec.TOPIC_COMMON, codec.encode_message(
            codec.MovementControl(0x0100, b"\x00\x05")))
        world.sim.run_until_idle()
        assert [r.executed for r in world.robots] == [[], []]
        assert [n.unknown_controls for n in world.nodes] == [1, 1]

    def test_unreachable_deadline(self):
        cfg = ScenarioConfig(n_robots=2, ready_deadline_us=1)
        with pytest.raises(WorldNotReady):
            World(cfg).run_ready()


SMALL = ScenarioConfig(n_robots=3, rate_mps=100.0, n_messages=50, seed=7)


class TestThroughput:
    def test_clean_run_delivers_everything(self):
        res = run_throughput(SMALL)
        assert res.published == 50
        assert [r.received for r in res.per_robot] == [50, 50, 50]
        assert res.delivery_ratio == 1.0
        assert res.conservation_ok
        assert res.overflow_onset is None
        assert res.buffer_dropped == 0 and res.link_dropped == 0
        lo, hi = SMALL.latency_lo_us, SMALL.latency_hi_us
        for stats in res.per_robot:
            worst = hi + (SMALL.n_robots - 1) * DISPATCH_INTERVAL_US
            assert min(stats.delays) >= lo
            assert max(stats.delays) <= worst

    def test_lossy_links_conserve_copies(self):
        cfg = SMALL.replace(loss_prob=0.2, n_messages=200, rate_mps=50.0,
                            seed=3)
        res = run_throughput(cfg)
        assert res.link_dropped > 0
        assert res.delivery_ratio < 1.0
        assert res.conservation_ok

    def test_lost_join_frames_are_not_lost_copies(self):
        # Robots' SUBSCRIBE("common") frames lost while the swarm joins
        # are tagged "common" too, but they are not fan-out copies.
        cfg = ScenarioConfig(n_robots=5, rate_mps=100.0, n_messages=100,
                             seed=1, loss_prob=0.2,
                             ready_deadline_us=60_000_000)
        res = run_throughput(cfg)
        assert res.delivered == 402 and res.buffer_dropped == 0
        assert res.link_dropped == 98
        assert res.conservation_ok

    def test_same_seed_reproduces_exactly(self):
        first = run_throughput(SMALL)
        second = run_throughput(SMALL)
        assert list(first.trace.records) == list(second.trace.records)
        assert report.throughput_rows(first) == report.throughput_rows(second)

    def test_different_seed_differs(self):
        other = run_throughput(SMALL.replace(seed=8))
        base = run_throughput(SMALL)
        assert list(base.trace.records) != list(other.trace.records)


class TestScalability:
    def test_delay_grows_one_dispatch_step_per_robot(self):
        cfg = ScenarioConfig(n_robots=3, rate_mps=20.0, n_messages=30,
                             seed=2, latency_lo_us=20_000,
                             latency_hi_us=20_000)
        res = run_scalability(cfg)
        assert res.n_values == [1, 2, 3]
        for n in res.n_values:
            for stats in res.per_n[n]:
                want = 20_000 + (stats.index - 1) * 8_000
                assert set(stats.delays) == {want}
            assert res.max_delay_us(n) == 20_000 + (n - 1) * 8_000
        assert res.slope_us == pytest.approx(8_000.0)
        assert res.intercept_us == pytest.approx(12_000.0)
        assert res.r_squared == pytest.approx(1.0)

    def test_one_robot_fits_a_flat_line_through_its_delay(self):
        cfg = ScenarioConfig(n_robots=1, rate_mps=20.0, n_messages=10,
                             seed=2, latency_hi_us=30_000)
        res = run_scalability(cfg)
        assert res.n_values == [1]
        assert res.max_delay_us(1) == 30_000
        assert (res.slope_us, res.intercept_us, res.r_squared) == (
            0.0, 30_000.0, 1.0)


class TestReport:
    def test_throughput_rows_shape(self):
        res = run_throughput(SMALL)
        rows = report.throughput_rows(res)
        assert len(rows) == SMALL.n_robots + 1
        assert [r[0] for r in rows] == ["robot"] * 3 + ["total"]
        total = rows[-1]
        assert total[6] == "50" and total[7] == "150"
        assert total[8] == "1.000000" and total[-1] == "yes"
        for row in rows:
            assert len(row) == len(report.THROUGHPUT_HEADER)

    def test_run_dir_artifacts(self, tmp_path):
        res = run_throughput(SMALL)
        out = report.write_run_dir(tmp_path / "run", report.THROUGHPUT_HEADER,
                                   report.throughput_rows(res),
                                   {"": res.trace}, res.robots)
        with open(out / "report.csv", newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == report.THROUGHPUT_HEADER
        assert len(table) == 1 + SMALL.n_robots + 1
        trace_lines = (out / "wire_trace.log").read_text().splitlines()
        assert trace_lines == [r.line() for r in res.trace.records]
        with open(out / "pose_trace.csv", newline="") as fh:
            poses = list(csv.reader(fh))
        assert poses[0] == report.POSE_HEADER
        assert len(poses) == 1 + sum(len(r.pose_trace) for r in res.robots)

    def test_demo_registry_is_complete(self):
        assert set(DEMOS) == {"group-control", "path-copy", "dispersal",
                              "bridge"}

    def test_group_control_demo_passes(self):
        res = run_group_control(ScenarioConfig(n_robots=3))
        assert res.passed
        assert res.trace is not None and res.robots


def _every_kind_trace(offset: int) -> WireTrace:
    trace = WireTrace()
    for row in [(offset, "a", "b", "send", 3, "common"),
                (offset + 9, "a", "b", "deliver", 3, "common"),
                (offset + 9, "b", "a", "drop-link", 70_000, ""),
                (2 ** 33, "a", "c", "drop-buffer", 2, None),
                (2 ** 33, "c", "a", "send", 0, "capteur/température")]:
        trace.record(*row)
    return trace


class TestTraceLog:
    """The log is written from the trace columns; each line must read as
    the record it came from, field by field."""

    def test_lines_match_records(self):
        trace = _every_kind_trace(5)
        out = io.StringIO()
        trace.write(out)
        lines = out.getvalue().splitlines()
        assert lines == [r.line() for r in trace.records]
        assert lines[2:4] == ["14\tb\ta\tdrop-link\t70000\t",
                              "8589934592\ta\tc\tdrop-buffer\t2\t"]

    def test_run_dir_log_holds_every_record_under_its_heading(self, tmp_path):
        traces = {"cell 1": _every_kind_trace(5), "": _every_kind_trace(7)}
        out = report.write_run_dir(tmp_path, ["x"], [], traces, [])
        want = "".join(
            (heading + "\n" if heading else "")
            + "".join("\t".join(map(str, r)) + "\n" for r in trace.records)
            for heading, trace in traces.items())
        assert (out / "wire_trace.log").read_text(encoding="utf-8") == want


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_throughput_command(self, tmp_path, capsys):
        code = self.run("throughput", "--robots", "2", "--rate", "50",
                        "--messages", "30", "--seed", "4",
                        "--out-dir", str(tmp_path / "tp"))
        out = capsys.readouterr().out
        assert code == 0
        assert "ratio 1.000000" in out
        for name in ("report.csv", "wire_trace.log", "pose_trace.csv"):
            assert (tmp_path / "tp" / name).is_file()

    def test_scenario_file_and_flag_precedence(self, tmp_path, capsys):
        scenario = tmp_path / "desk.scenario"
        scenario.write_text("rate_mps = 10\nn_robots = 2\nn_messages = 20\n")
        code = self.run("throughput", "--scenario", str(scenario),
                        "--rate", "25", "--out-dir", str(tmp_path / "tp"))
        out = capsys.readouterr().out
        assert code == 0
        assert "rate 25 msg/s, 2 robots" in out

    def test_scalability_command(self, tmp_path, capsys):
        # --robots sets the largest swarm, else a scenario file's
        # n_robots, else 10
        scenario = tmp_path / "two.scenario"
        scenario.write_text("n_robots = 2\n")
        for argv, top in ((["--robots", "3"], 3),
                          (["--scenario", str(scenario)], 2), ([], 10)):
            out_dir = tmp_path / f"sc{top}"
            code = self.run("scalability", *argv, "--rate", "20",
                            "--messages", "10", "--out-dir", str(out_dir))
            out = capsys.readouterr().out
            assert code == 0
            assert "slope 8000.000 us/robot" in out
            sections = [line for line in
                        (out_dir / "wire_trace.log").read_text().splitlines()
                        if line.startswith("# n_robots=")]
            assert sections == [f"# n_robots={n}" for n in range(1, top + 1)]

    def test_demo_command(self, tmp_path, capsys):
        code = self.run("demo", "--demo", "group-control", "--robots", "2",
                        "--out-dir", str(tmp_path / "demo"))
        assert code == 0
        assert "demo group-control: PASS" in capsys.readouterr().out

    def test_command_moves_the_swarm(self, tmp_path, capsys):
        code = self.run("command", "--control", "front",
                        "--magnitude", "150", "--robots", "2",
                        "--out-dir", str(tmp_path / "cmd"))
        assert code == 0
        with open(tmp_path / "cmd" / "report.csv", newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == report.COMMAND_HEADER
        assert [row[2] for row in table[1:]] == ["150.000000", "150.000000"]

    def test_private_topic_command(self, tmp_path, capsys):
        code = self.run("command", "--control", "rotate-left",
                        "--magnitude", "90", "--robots", "2",
                        "--target", "00100002",
                        "--out-dir", str(tmp_path / "cmd"))
        assert code == 0
        with open(tmp_path / "cmd" / "report.csv", newline="") as fh:
            table = list(csv.reader(fh))
        assert [row[4] for row in table[1:]] == ["0.000000", "90.000000"]

    def test_sweep_command(self, tmp_path, capsys):
        code = self.run("sweep", "--rates", "5,10", "--seeds", "1,2",
                        "--robots", "2", "--messages", "10",
                        "--out-dir", str(tmp_path / "sw"))
        assert code == 0
        for rate in ("5", "10"):
            for seed in ("1", "2"):
                sub = tmp_path / "sw" / f"rate-{rate}-seed-{seed}"
                assert (sub / "report.csv").is_file()
        with open(tmp_path / "sw" / "report.csv", newline="") as fh:
            table = list(csv.reader(fh))
        assert len(table) == 1 + 4 * (2 + 1)  # four runs, three rows each

    def test_invalid_payload_exits_2(self, tmp_path, capsys):
        code = self.run("throughput", "--payload", "5",
                        "--out-dir", str(tmp_path / "bad"))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", ["249", "250"])
    def test_payload_past_one_publish_exits_2(self, tmp_path, capsys,
                                              payload):
        code = self.run("throughput", "--payload", payload, "--robots", "2",
                        "--messages", "5", "--out-dir", str(tmp_path / "big"))
        assert code == 2
        assert "payload_octets must be in [14, 248]" in capsys.readouterr().err
        assert not (tmp_path / "big").exists()

    def test_largest_payload_runs(self, tmp_path, capsys):
        code = self.run("throughput", "--payload", "248", "--robots", "2",
                        "--messages", "5", "--out-dir", str(tmp_path / "max"))
        assert code == 0
        assert "ratio 1.000000" in capsys.readouterr().out

    @pytest.mark.parametrize("line", [
        "latency_lo_us = -20000",
        "n_messages = -3",
    ])
    def test_negative_scenario_value_exits_2(self, tmp_path, capsys, line):
        scenario = tmp_path / "neg.scenario"
        scenario.write_text(f"n_robots = 2\nn_messages = 20\n{line}\n")
        code = self.run("throughput", "--scenario", str(scenario),
                        "--out-dir", str(tmp_path / "neg"))
        assert code == 2
        assert "must not be negative" in capsys.readouterr().err
        assert not (tmp_path / "neg").exists()

    @pytest.mark.parametrize("argv, error", [
        (["throughput", "--rate", "nan"], "rate_mps must be finite"),
        (["throughput", "--rate", "1e-300"], "rate_mps is too low"),
        (["sweep", "--rates", "0"], "rate_mps must be positive"),
        (["sweep", "--rates", "-1"], "rate_mps must be positive"),
        (["sweep", "--rates", "nan"], "rate_mps must be finite"),
        (["sweep", "--rates", "10,0"], "rate_mps must be positive"),
        (["sweep", "--rates", "x"], "bad grid value in 'x'"),
        (["sweep", "--rates", ","], "empty sweep grid"),
    ])
    def test_bad_rate_exits_2(self, tmp_path, capsys, argv, error):
        code = self.run(*argv, "--robots", "2", "--messages", "5",
                        "--out-dir", str(tmp_path / "bad"))
        assert code == 2
        assert error in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("target", [
        "", "x" * 250, "\u00e9" * 125, "\udcff",
    ], ids=["empty", "250-ascii", "250-octet-utf8", "not-utf8"])
    def test_bad_target_exits_2_before_the_world_is_built(
            self, tmp_path, capsys, monkeypatch, target):
        monkeypatch.setattr("romano.harness.cli.World", pytest.fail)
        code = self.run("command", "--control", "front", "--robots", "1",
                        "--target", target, "--out-dir", str(tmp_path / "bad"))
        assert code == 2
        assert "error: --target must be 1 to 249" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_longest_target_is_accepted(self, tmp_path, capsys):
        code = self.run("command", "--control", "front", "--robots", "1",
                        "--target", "x" * 249, "--out-dir", str(tmp_path))
        assert code == 0

    @pytest.mark.parametrize("demo, line, error", [
        ("dispersal", "initial_separation_mm = 0",
         "initial_separation_mm must be positive"),
        ("bridge", "bridge_topics = ,",
         "bridge_topics must name at least one topic"),
        ("group-control", "n_messages = 0", "n_messages must be positive"),
        pytest.param(
            "bridge", "bridge_topics = " + "x" * 247,
            "each bridge topic must be at most 246 octets of UTF-8",
            id="bridge-bridge_topics = 247 octets"),
    ])
    def test_bad_demo_value_exits_2(self, tmp_path, capsys, demo, line,
                                    error):
        scenario = tmp_path / "bad.scenario"
        scenario.write_text(f"{line}\n")
        code = self.run("demo", "--demo", demo, "--scenario", str(scenario),
                        "--out-dir", str(tmp_path / "bad"))
        assert code == 2
        assert error in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_longest_bridge_topic_is_accepted(self, tmp_path):
        scenario = tmp_path / "long.scenario"
        scenario.write_text("bridge_topics = {}\n".format("x" * 246))
        code = self.run("demo", "--demo", "bridge", "--scenario",
                        str(scenario), "--out-dir", str(tmp_path / "run"))
        assert code == 0

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_scenario_key_exits_2_before_the_world_is_built(
            self, tmp_path, capsys, monkeypatch, key):
        # Each key is simply unknown now: the run exits before a World
        # is built.
        monkeypatch.setattr("romano.harness.cli.World", pytest.fail)
        scenario = tmp_path / "old.scenario"
        scenario.write_text(f"{key} = 1000000\n")
        code = self.run("command", "--control", "front", "--robots", "2",
                        "--scenario", str(scenario),
                        "--out-dir", str(tmp_path / "old"))
        assert code == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "old").exists()

    @pytest.mark.parametrize("flag", [["--rate", "10"], ["--messages", "5"],
                                      ["--payload", "32"]],
                             ids=lambda flag: flag[0][2:])
    @pytest.mark.parametrize("argv", [["demo", "--demo", "group-control"],
                                      ["command", "--control", "front"]],
                             ids=lambda argv: argv[0])
    def test_probe_flag_of_a_run_without_probes_exits_2(
            self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            self.run(*argv, *flag, "--out-dir", str(tmp_path / "run"))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, rates", [
        (("throughput", "--rate", "0.04", "--messages", "2"), ["0.04"]),
        (("sweep", "--rates", "12.2,12.25", "--messages", "5"),
         ["12.2", "12.25"]),
    ])
    def test_report_holds_the_exact_rate(self, tmp_path, capsys, argv,
                                         rates):
        # one decimal would read 0.0 for 0.04 and 12.2 for both 12.2 and
        # 12.25
        code = self.run(*argv, "--robots", "1", "--out-dir", str(tmp_path))
        assert code == 0
        with open(tmp_path / "report.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        assert [row["rate_mps"] for row in table] == [
            rate for rate in rates for _ in range(2)]

    def test_sweep_rate_is_its_grid(self, tmp_path, capsys):
        # --rate abbreviates --rates, so it sets the whole grid
        code = self.run("sweep", "--rate", "300", "--messages", "5",
                        "--robots", "1", "--out-dir", str(tmp_path))
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == [
            "rate-300-seed-1"]

    @pytest.mark.parametrize("line, flag", [("seed = 5", "--seeds"),
                                            ("rate_mps = 20", "--rates")])
    def test_sweep_grid_key_in_a_scenario_exits_2(self, tmp_path, capsys,
                                                  line, flag):
        scenario = tmp_path / "grid.scenario"
        scenario.write_text(f"{line}\n")
        code = self.run("sweep", "--scenario", str(scenario), "--rates", "10",
                        "--robots", "1", "--messages", "5",
                        "--out-dir", str(tmp_path / "sw"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and line.split()[0] in err
        assert flag in err
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("rates, seeds", [("50.0000001,50", "1"),
                                              ("50", "1,1")])
    def test_sweep_points_sharing_a_run_directory_exit_2(
            self, tmp_path, capsys, monkeypatch, rates, seeds):
        monkeypatch.setattr("romano.harness.cli.run_throughput", pytest.fail)
        code = self.run("sweep", "--rates", rates, "--seeds", seeds,
                        "--robots", "1", "--messages", "5",
                        "--out-dir", str(tmp_path / "sw"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "rate-50-seed-1" in err
        assert not (tmp_path / "sw").exists()

    def test_spent_event_budget_exits_1_with_an_error_line(
            self, tmp_path, capsys, monkeypatch):
        budget = functools.partialmethod(Simulator.run_until_idle,
                                         max_events=100)
        monkeypatch.setattr(Simulator, "run_until_idle", budget)
        code = self.run("throughput", "--robots", "2", "--messages", "50",
                        "--out-dir", str(tmp_path / "run"))
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("error: event budget of 100 events spent before the"
                       " simulation went idle\n")
        assert not (tmp_path / "run").exists()

    def test_bad_scenario_key_exits_2(self, tmp_path, capsys):
        scenario = tmp_path / "bad.scenario"
        scenario.write_text("robots = 3\n")
        code = self.run("throughput", "--scenario", str(scenario),
                        "--out-dir", str(tmp_path / "bad"))
        assert code == 2

    def test_reruns_are_byte_identical(self, tmp_path):
        argv = ["throughput", "--robots", "2", "--rate", "50",
                "--messages", "30", "--seed", "11"]
        assert self.run(*argv, "--out-dir", str(tmp_path / "one")) == 0
        assert self.run(*argv, "--out-dir", str(tmp_path / "two")) == 0
        for name in ("report.csv", "wire_trace.log", "pose_trace.csv"):
            first = (tmp_path / "one" / name).read_bytes()
            second = (tmp_path / "two" / name).read_bytes()
            assert first == second
