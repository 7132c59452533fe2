"""romano-sim benchmark: one workload per invocation.

    python3 bench/run.py --workload broadcast-16 --seed 1 --seconds 20 --trace 0

Builds nothing: it imports ``romano`` from ``src/`` next to this
directory and refuses to run if that copy is missing.  With
``--trace 0`` it repeats the workload at one seed for ``--seconds``
seconds and reports every end-to-end metric; with ``--trace 1`` it
alternates untraced and traced repetitions, reports every per-layer
metric and the tracing overhead, then replays the traced run's wire
frames through the decoders.  Human-readable lines come first; the last
line of standard output is one JSON object.  The exit code is 1 when a
correctness check fails.

Virtual-time results (delivery ratio, delays, frames per op, the
behaviour digest and every per-layer count) must repeat exactly across
the repetitions of one run; a mismatch is a failed check.

Host times are measured against a yardstick.  The shared host runs the
same repetition anywhere from 1x to 2x its fastest time, in spells of
seconds to minutes, so a run's wall times say as much about the spells
it met as about the program.  A fixed reference loop (``reference.py``)
runs before and after every repetition, for as long in all as the
repetition itself.  Both host times are given in seconds of a nominal
host, one on which the reference takes ``reference.NOMINAL_S``:
``run_s`` is the mean wall time of the measured phase and ``setup_s``
the mean wall time of one set-up, each divided by the reference's mean
wall time in the same run and multiplied by ``NOMINAL_S``.  Means
weight every spell by how long the run spent in it, as the reference's
mean does, so the ratios move far less than the times; a median jumps
between spells.  The wall times themselves (median and sample count)
are printed in the human-readable lines.

Self-test at tiny sizes: ``python3 -m pytest bench``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import Optional

SRC = Path(__file__).resolve().parent.parent / "src"

MIN_REPS = 3
SETUP_BATCH_S = 0.5  # wall time of back-to-back set-ups per round
REPLAY_FRAMES = 20_000
REPLAY_PASSES = 5

END_TO_END = [
    ("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"),
    ("delivery_ratio", "1"), ("vdelay_p50_us", "us"), ("vdelay_p99_us", "us"),
    ("frames_per_op", "frames"),
]


def load_romano() -> bool:
    """Import ``romano`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import romano
    except ImportError as exc:
        print(f"error: cannot import romano from {SRC}: {exc}",
              file=sys.stderr)
        return False
    if Path(romano.__file__).resolve().parent.parent != SRC:
        print(f"error: romano imported from {romano.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


@dataclass
class Rep:
    """What one repetition leaves behind once its world is gone."""

    run_s: float
    ops: dict        # delivery_ratio, vdelay_*, frames_per_op
    missing: int     # ops that did not complete
    checks: list
    digest: str


def behaviour_digest(trace, delays: list) -> str:
    """SHA-256 over the wire-trace lines and every op's outcome.

    Hashed record by record, so no copy of the whole trace text exists
    while the world is alive to raise ``peak_rss_mb``.
    """
    h = hashlib.sha256()
    for record in trace.records:
        h.update(record.line().encode())
        h.update(b"\n")
    h.update(b"--\n")
    for d in delays:
        h.update(b"-\n" if d is None else b"%d\n" % d)
    return h.hexdigest()


def setup_batch(cls, seed: int, params: dict) -> list[float]:
    """Times of back-to-back set-ups spanning SETUP_BATCH_S of wall time."""
    took = []
    began = perf_counter()
    while not took or perf_counter() - began < SETUP_BATCH_S:
        wl = cls(seed, **params)
        gc.collect()
        start = perf_counter()
        wl.setup()
        took.append(perf_counter() - start)
        del wl
    return took


def repetition(cls, seed: int, params: dict, tracer=None) -> Rep:
    from tracer import percentile

    wl = cls(seed, **params)
    wl.setup()
    net = wl.world.net
    first = len(net.trace.records)
    gc.collect()
    if tracer is None:
        start = perf_counter()
        wl.run()
        run_s = perf_counter() - start
    else:
        with tracer.installed(net, wl.cells, wl.bridge_ends):
            start = perf_counter()
            wl.run()
            run_s = perf_counter() - start
    delays = wl.delays()
    checks = wl.checks(delays)
    if tracer is not None:
        checks.append(("gate: offered = transmitted + dropped + queued,"
                       " offers counted by the tracer",
                       tracer.gate_balanced()))
    frames = sum(1 for r in islice(net.trace.records, first, None)
                 if r.kind == "send")
    done = sorted(d for d in delays if d is not None)
    ops = {
        "delivery_ratio": len(done) / wl.expected_ops,
        "vdelay_p50_us": percentile(done, 50),
        "vdelay_p99_us": percentile(done, 99),
        "frames_per_op": frames / wl.expected_ops,
    }
    return Rep(run_s, ops, len(delays) - len(done), checks,
               behaviour_digest(net.trace, delays))


def time_reference(budget_s: float) -> list[tuple[float, bool]]:
    """Wall times of reference loops run back to back for ``budget_s``,
    each with whether it did its fixed work."""
    from reference import RECORDS, reference

    took = []
    began = perf_counter()
    while not took or perf_counter() - began < budget_s:
        gc.collect()
        start = perf_counter()
        records = reference()
        took.append((perf_counter() - start, records == RECORDS))
    return took


def replay(frames: list[bytes]) -> tuple[dict, bool]:
    """Decode and re-encode captured frames in a tight loop.

    Uses an evenly spaced sample of at most REPLAY_FRAMES frames, so the
    packet mix is the workload's.  Returns the median rates over
    REPLAY_PASSES passes and whether every frame re-encoded to itself.
    """
    from romano import codec, mqttsn

    sample = frames[::max(1, len(frames) // REPLAY_FRAMES)]
    packets = [mqttsn.decode_packet(f) for f in sample]
    round_trip = all(mqttsn.encode_packet(p) == f
                     for p, f in zip(packets, sample))
    payloads = [p.data for p in packets if isinstance(p, mqttsn.Publish)]

    def rate(fn, items) -> float:
        passes = []
        for _ in range(REPLAY_PASSES):
            start = perf_counter()
            for item in items:
                fn(item)
            passes.append(len(items) / (perf_counter() - start))
        return statistics.median(passes)

    return {
        "mqttsn.decode_per_s": rate(mqttsn.decode_packet, sample),
        "mqttsn.encode_per_s": rate(mqttsn.encode_packet, packets),
        "codec.decode_per_s": rate(codec.decode_message, payloads),
    }, round_trip


def measure(workload: str, seed: int, seconds: float, trace: bool,
            params: Optional[dict] = None) -> dict:
    """Run one workload for about ``seconds`` and return the result."""
    from reference import NOMINAL_S
    from tracer import LAYER_METRICS, Tracer
    from workloads import WORKLOADS

    cls, params = WORKLOADS[workload], params or {}
    expected = cls(seed, **params).expected_ops
    began = perf_counter()
    reps: list[Rep] = []
    layers: list[dict] = []          # per-layer metrics of each traced rep
    frames: list[bytes] = []         # the first traced rep's wire frames
    traced: list[Rep] = []
    setups: list[float] = []         # every timed set-up
    yardstick: list[tuple[float, bool]] = []   # time_reference() results
    rounds = 0

    def time_left() -> bool:
        # Start another round only if one more, at the mean so far, fits.
        spent = perf_counter() - began
        return spent + spent / rounds < seconds

    if not trace:
        # A warm-up repetition, checked but not timed, runs before the
        # reference ever has, so the high-water mark it leaves is the
        # workload's own.
        reps.append(repetition(cls, seed, params))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # The reference brackets every repetition and set-up batch, half
        # before and half after, for as long in all as the repetition: it
        # meets the same spells of host load, and its own sampling of
        # short spells adds no more noise to the ratio than the
        # repetition's does.
        while rounds < MIN_REPS or time_left():
            yardstick.extend(time_reference(reps[-1].run_s / 2))
            reps.append(repetition(cls, seed, params))
            yardstick.extend(time_reference(reps[-1].run_s / 2))
            setups.extend(setup_batch(cls, seed, params))
            rounds += 1
    else:
        while not rounds or time_left():
            reps.append(repetition(cls, seed, params))
            tracer = Tracer()
            traced.append(repetition(cls, seed, params, tracer))
            layers.append(tracer.metrics())
            frames = frames or tracer.frames
            rounds += 1
        replayed, round_trip = replay(frames)

    everything = reps + traced
    checks: dict[str, bool] = {}
    for rep in everything:
        for name, ok in rep.checks:
            checks[name] = checks.get(name, True) and ok
    digests = {rep.digest for rep in everything}
    checks["behaviour digest repeats across repetitions"
           + (", traced or not" if trace else "")] = len(digests) == 1
    timed = reps[1:] if not trace else reps   # all but the warm-up
    run_s = statistics.median(rep.run_s for rep in timed)
    wall = {"run_s": run_s, "samples": len(timed)}   # for the report only
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    if not trace:
        reference_s = statistics.fmean(took for took, _ in yardstick)
        wall.update(setup_s=statistics.fmean(setups), reference_s=reference_s)
        metrics = {
            "setup_s": wall["setup_s"] * NOMINAL_S / reference_s,
            "run_s": statistics.fmean(rep.run_s for rep in timed)
            * NOMINAL_S / reference_s,
            "peak_rss_mb": peak_rss_mb,
            **reps[0].ops,
        }
        units = dict(END_TO_END)
        checks["reference loop did its fixed work"] = all(
            ok for _, ok in yardstick)
    else:
        units = {name: unit for name, unit, _, _ in LAYER_METRICS}
        for name, value in layers[0].items():
            if units[name] == "s":
                metrics[name] = statistics.median(m[name] for m in layers)
            else:
                metrics[name] = value
        checks["per-layer counts repeat across traced repetitions"] = all(
            m[name] == layers[0][name] for m in layers for name in m
            if units[name] != "s")
        checks["replayed frames re-encode to the same octets"] = round_trip
        metrics["simnet.events_per_s"] = metrics["simnet.events"] / run_s
        metrics["tracing_overhead"] = (
            statistics.median(rep.run_s for rep in traced) / run_s)
        metrics.update(replayed)
        metrics = {name: metrics[name] for name in units}

    correct = all(checks.values())
    attempted = expected * len(everything)
    failed = sum(rep.missing for rep in everything) if correct else attempted
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "repetitions": len(reps), "traced_repetitions": len(traced),
        "setups": len(setups), "wall": wall,
        "digest": reps[0].digest, "checks": checks,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in metrics},
    }


def report(result: dict) -> str:
    """Human-readable lines, then the JSON result line."""
    lines = [f"workload {result['workload']}  seed {result['seed']}  "
             f"trace {int(result['trace'])}  repetitions "
             f"{result['repetitions']} untraced, "
             f"{result['traced_repetitions']} traced, "
             f"{result['setups']} set-ups"]
    moves = {}
    if result["trace"]:
        from tracer import LAYER_METRICS
        moves = {name: f"  moves {m}" for name, _, _, m in LAYER_METRICS}
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<30} {m['value']:>16.6g} {m['unit']:<6}"
                     + moves.get(name, ""))
    wall = result["wall"]
    lines.append(f"  wall time: measured phase median {wall['run_s']:.6g} s"
                 f" over {wall['samples']} timed repetitions")
    if "reference_s" in wall:
        lines.append(f"  wall time: one set-up mean {wall['setup_s']:.6g} s,"
                     f" reference mean {wall['reference_s']:.6g} s")
    lines.append(f"  ops attempted {result['attempted']}  "
                 f"failed {result['failed']}")
    for name, ok in result["checks"].items():
        lines.append(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    lines.append(f"  digest {result['digest']}")
    lines.append(json.dumps({key: result[key] for key in
                             ("correct", "attempted", "failed", "metrics")}))
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["broadcast-16", "join-1000", "bridge-soak"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not load_romano():
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(report(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
