"""Command line front end.

Subcommands::

    throughput    broadcast probes at a fixed rate, report delivery/delay
    scalability   max delay versus swarm size, with a linear fit
    demo          run one scripted application (see --demo)
    command       drive the swarm with a single movement order
    sweep         throughput across a rate x seed grid

Every run writes ``report.csv``, ``wire_trace.log`` and
``pose_trace.csv`` into the run directory (``--out-dir``).  Runs are
fully deterministic in the seed: repeating a command reproduces the
artifacts byte for byte.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .. import codec, mqttsn as sn
from ..simnet import SimulationLimit
from . import report
from .config import (ConfigError, ScenarioConfig, build_config, check_config,
                     load_scenario)
from .demos import DEMOS, DemoError
from .experiments import (ExperimentError, run_scalability, run_throughput)
from .world import World, WorldNotReady

CONTROLS = {
    "front": codec.MovementType.MOVE_FRONT,
    "back": codec.MovementType.MOVE_BACK,
    "left": codec.MovementType.MOVE_LEFT,
    "right": codec.MovementType.MOVE_RIGHT,
    "rotate-left": codec.MovementType.ROTATE_LEFT,
    "rotate-right": codec.MovementType.ROTATE_RIGHT,
}


SHARED_FLAGS = {
    "--scenario": dict(metavar="FILE",
                       help="scenario file with key = value overrides"),
    "--seed": dict(type=int, help="simulation seed"),
    "--robots": dict(type=int,
                     help="swarm size (scalability: largest size)"),
    "--rate": dict(type=float, help="publish rate, messages/s"),
    "--messages": dict(type=int, help="probe count per run"),
    "--payload": dict(type=int, help="probe message size, octets"),
    "--out-dir": dict(dest="out_dir", metavar="DIR",
                      help="run directory (default romano-out/<command>)"),
}
# demo and command send no probes, so they read none of the probe flags
RUN_FLAGS = ("--scenario", "--seed", "--robots", "--out-dir")


def _shared_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, **SHARED_FLAGS[name])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="romano-sim",
        description="Simulated MQTT-SN robot swarm experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("throughput", help="delivery ratio at a fixed rate")
    _shared_flags(p, *SHARED_FLAGS)

    p = sub.add_parser("scalability", help="max delay versus swarm size")
    _shared_flags(p, *SHARED_FLAGS)

    p = sub.add_parser("demo", help="run a scripted application")
    _shared_flags(p, *RUN_FLAGS)
    p.add_argument("--demo", required=True, choices=sorted(DEMOS),
                   help="which application to run")

    p = sub.add_parser("command", help="send one movement order")
    _shared_flags(p, *RUN_FLAGS)
    p.add_argument("--control", required=True, choices=sorted(CONTROLS),
                   help="movement control type")
    p.add_argument("--magnitude", type=int, default=100,
                   help="millimetres, or degrees for rotations")
    p.add_argument("--target", default=codec.TOPIC_COMMON,
                   help="topic: 'common' or a robot's 8-hex id")

    p = sub.add_parser("sweep", help="throughput across rates and seeds")
    # --rates and --seeds set the rate and seed of every grid point
    _shared_flags(p, "--scenario", "--robots", "--messages", "--payload",
                  "--out-dir")
    p.add_argument("--rates", default="1,10,50,100,200,300,400,500",
                   help="comma separated publish rates")
    p.add_argument("--seeds", default="1",
                   help="comma separated seeds")
    return parser


def _config_from(args: argparse.Namespace) -> ScenarioConfig:
    file_overrides = load_scenario(args.scenario) if args.scenario else {}
    if args.command == "sweep":
        for key, flag in (("seed", "--seeds"), ("rate_mps", "--rates")):
            if key in file_overrides:
                raise ConfigError(f"sweep takes {key} from {flag}, not from"
                                  " a scenario file")
    elif args.command == "scalability":
        file_overrides.setdefault("n_robots", 10)  # its largest swarm size
    # A flag the subcommand does not take is not in ``args``.
    cli = {
        "seed": getattr(args, "seed", None),
        "n_robots": args.robots,
        "rate_mps": getattr(args, "rate", None),
        "n_messages": getattr(args, "messages", None),
        "payload_octets": getattr(args, "payload", None),
    }
    return build_config(file_overrides, cli)


def _out_dir(args: argparse.Namespace) -> Path:
    return Path(args.out_dir or f"romano-out/{args.command}")


def _cmd_throughput(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    res = run_throughput(cfg)
    out = report.write_run_dir(_out_dir(args), report.THROUGHPUT_HEADER,
                               report.throughput_rows(res), {"": res.trace},
                               res.robots)
    print(f"rate {cfg.rate_mps:g} msg/s, {cfg.n_robots} robots,"
          f" seed {cfg.seed}")
    print(f"published {res.published}, delivered {res.delivered},"
          f" ratio {res.delivery_ratio:.6f}")
    print(f"dropped: buffer {res.buffer_dropped}, link {res.link_dropped}")
    onset = ("none" if res.overflow_onset is None
             else f"after {res.overflow_onset} messages")
    print(f"radio buffer overflow: {onset}")
    print(f"conservation: {'ok' if res.conservation_ok else 'VIOLATED'}")
    print(f"artifacts in {out}")
    return 0 if res.conservation_ok else 1


def _cmd_scalability(args: argparse.Namespace) -> int:
    res = run_scalability(_config_from(args))
    out = report.write_run_dir(
        _out_dir(args), report.SCALABILITY_HEADER,
        report.scalability_rows(res),
        {f"# n_robots={n}": res.traces[n] for n in res.n_values}, res.robots)
    for n in res.n_values:
        print(f"n={n:2d}  max delay {res.max_delay_us(n)} us")
    print(f"fit: slope {res.slope_us:.3f} us/robot,"
          f" intercept {res.intercept_us:.3f} us, R^2 {res.r_squared:.6f}")
    print(f"artifacts in {out}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    res = DEMOS[args.demo](cfg)
    out = report.write_run_dir(_out_dir(args), report.DEMO_HEADER,
                               report.demo_rows(res), {"": res.trace},
                               res.robots)
    for check in res.checks:
        mark = "ok  " if check.passed else "FAIL"
        tail = f" ({check.detail})" if check.detail else ""
        print(f"{mark} {check.name}{tail}")
    print(f"demo {res.demo}: {'PASS' if res.passed else 'FAIL'}")
    print(f"artifacts in {out}")
    return 0 if res.passed else 1


def _cmd_command(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    try:
        octets = len(args.target.encode("utf-8"))
    except UnicodeEncodeError:  # argv held octets that are not UTF-8
        octets = 0
    if not 0 < octets <= sn.MAX_TOPIC_NAME:
        raise ConfigError(f"--target must be 1 to {sn.MAX_TOPIC_NAME}"
                          " octets of UTF-8")
    order = codec.movement_control(CONTROLS[args.control], args.magnitude)
    world = World(cfg)
    world.run_ready()
    world.commander.publish(args.target, codec.encode_message(order))
    world.sim.run_until_idle()
    out = report.write_run_dir(_out_dir(args), report.COMMAND_HEADER,
                               report.command_rows(world.robots),
                               {"": world.trace}, world.robots)
    for i, robot in enumerate(world.robots, start=1):
        pose = robot.pose
        print(f"robot {i} ({robot.romano_id}): x {pose.x_mm:.1f} mm,"
              f" y {pose.y_mm:.1f} mm, heading {pose.heading_deg:.1f} deg,"
              f" {len(robot.executed)} orders")
    print(f"artifacts in {out}")
    return 0


def _parse_grid(text: str, kind) -> list:
    try:
        values = [kind(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid value in {text!r}") from exc
    if not values:
        raise ConfigError("empty sweep grid")
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg, out = _config_from(args), _out_dir(args)
    grid: dict[Path, ScenarioConfig] = {}  # run directory -> its config
    for rate in _parse_grid(args.rates, float):
        for seed in _parse_grid(args.seeds, int):
            run_dir = out / f"rate-{rate:g}-seed-{seed}"
            if run_dir in grid:
                raise ConfigError(f"two grid points share run dir {run_dir}")
            grid[run_dir] = check_config(cfg.replace(rate_mps=rate, seed=seed))
    out.mkdir(parents=True, exist_ok=True)
    combined: list[list[str]] = []
    ok = True
    for run_dir, sub in grid.items():
        res = run_throughput(sub)
        rows = report.throughput_rows(res)
        combined.extend(rows)
        report.write_run_dir(run_dir, report.THROUGHPUT_HEADER, rows,
                             {"": res.trace}, res.robots)
        ok = ok and res.conservation_ok
        onset = ("-" if res.overflow_onset is None
                 else str(res.overflow_onset))
        print(f"rate {sub.rate_mps:7g}  seed {sub.seed:3d}  ratio"
              f" {res.delivery_ratio:.6f}  overflow {onset}")
    report.write_csv(out / "report.csv", report.THROUGHPUT_HEADER, combined)
    print(f"artifacts in {out}")
    return 0 if ok else 1


_HANDLERS = {
    "throughput": _cmd_throughput,
    "scalability": _cmd_scalability,
    "demo": _cmd_demo,
    "command": _cmd_command,
    "sweep": _cmd_sweep,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, codec.CodecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (WorldNotReady, SimulationLimit, ExperimentError,
            DemoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
