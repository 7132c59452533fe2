"""Run artifacts: report.csv, wire_trace.log and pose_trace.csv.

Every run directory gets the same three files.  All values derive from
simulated time and seeded randomness, so a repeated run with the same
seed produces byte-identical artifacts; nothing here reads the wall
clock.  The wire trace log is streamed line by line from the trace's
columns, so no record object or list of lines is built for it.
"""
from __future__ import annotations

import csv
import statistics
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..robot import Robot
from ..simnet import WireTrace
from .demos import DemoResult
from .experiments import ScalabilityResult, ThroughputResult

THROUGHPUT_HEADER = [
    "kind", "rate_mps", "seed", "n_robots", "robot", "romano_id",
    "published", "received", "delivery_ratio",
    "delay_min_us", "delay_mean_us", "delay_max_us",
    "buffer_dropped", "link_dropped", "overflow_onset", "conservation_ok",
]

SCALABILITY_HEADER = [
    "kind", "n_robots", "robot", "samples",
    "delay_min_us", "delay_mean_us", "delay_max_us",
    "slope_us_per_robot", "intercept_us", "r_squared",
]

DEMO_HEADER = ["demo", "check", "passed", "detail"]

COMMAND_HEADER = ["robot", "romano_id", "x_mm", "y_mm", "heading_deg",
                  "orders_executed"]

POSE_HEADER = ["robot", "romano_id", "time_us", "x_mm", "y_mm", "heading_deg"]


def _f(x: float, digits: int = 3) -> str:
    return f"{x:.{digits}f}"


def _delay_cells(delays: Sequence[int]) -> list[str]:
    if not delays:
        return ["", "", ""]
    return [str(min(delays)), _f(statistics.fmean(delays)), str(max(delays))]


def throughput_rows(res: ThroughputResult) -> list[list[str]]:
    cfg = res.cfg
    rate = repr(float(cfg.rate_mps))  # exact, so no two rates read alike
    rows = []
    for stats in res.per_robot:
        ratio = stats.received / res.published if res.published else 1.0
        rows.append(["robot", rate, str(cfg.seed),
                     str(cfg.n_robots), str(stats.index), stats.romano_id,
                     str(res.published), str(stats.received), _f(ratio, 6)]
                    + _delay_cells(stats.delays) + ["", "", "", ""])
    all_delays = [d for s in res.per_robot for d in s.delays]
    rows.append(["total", rate, str(cfg.seed),
                 str(cfg.n_robots), "", "", str(res.published),
                 str(res.delivered), _f(res.delivery_ratio, 6)]
                + _delay_cells(all_delays)
                + [str(res.buffer_dropped), str(res.link_dropped),
                   "" if res.overflow_onset is None else str(res.overflow_onset),
                   "yes" if res.conservation_ok else "NO"])
    return rows


def scalability_rows(res: ScalabilityResult) -> list[list[str]]:
    rows = []
    for n in res.n_values:
        for stats in res.per_n[n]:
            rows.append(["robot", str(n), str(stats.index),
                         str(stats.received)]
                        + _delay_cells(stats.delays) + ["", "", ""])
    rows.append(["fit", "", "", "", "", "", "",
                 _f(res.slope_us), _f(res.intercept_us),
                 _f(res.r_squared, 6)])
    return rows


def demo_rows(res: DemoResult) -> list[list[str]]:
    return [[res.demo, c.name, "yes" if c.passed else "NO", c.detail]
            for c in res.checks]


def command_rows(robots: Iterable[Robot]) -> list[list[str]]:
    return [[str(i), robot.romano_id, _f(robot.pose.x_mm, 6),
             _f(robot.pose.y_mm, 6), _f(robot.pose.heading_deg, 6),
             str(len(robot.executed))]
            for i, robot in enumerate(robots, start=1)]


def pose_rows(robots: Iterable[Robot]) -> list[list[str]]:
    rows = []
    for i, robot in enumerate(robots, start=1):
        for time_us, pose in robot.pose_trace:
            rows.append([str(i), robot.romano_id, str(time_us),
                         _f(pose.x_mm, 6), _f(pose.y_mm, 6),
                         _f(pose.heading_deg, 6)])
    return rows


def write_csv(path: Path, header: Sequence[str],
              rows: Iterable[Sequence[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_run_dir(out_dir, header: Sequence[str],
                  rows: Iterable[Sequence[str]],
                  traces: Mapping[str, WireTrace],
                  robots: Iterable[Robot]) -> Path:
    """Write the standard three artifacts under ``out_dir``.

    The log holds each trace under its heading; "" writes no heading.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "report.csv", header, rows)
    with open(out / "wire_trace.log", "w", encoding="utf-8") as fh:
        for heading, trace in traces.items():
            if heading:
                fh.write(heading + "\n")
            trace.write(fh)
    write_csv(out / "pose_trace.csv", POSE_HEADER, pose_rows(robots))
    return out
