"""Self-test of the benchmark at tiny sizes: ``python3 -m pytest bench``."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

assert run.load_romano()

import tracer  # noqa: E402
import workloads  # noqa: E402
from romano.simnet import Simulator  # noqa: E402

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(workload, seed=1, trace=False):
    return run.measure(workload, seed, 0, trace, workloads.TINY[workload])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [(name, unit, better)
            for name, unit, better, _ in tracer.LAYER_METRICS]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result = tiny(workload, trace=trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"], result["checks"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    assert Simulator.at.__qualname__ == "Simulator.at"   # tracer removed


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_digest_repeats_at_one_seed_and_moves_with_the_seed(workload):
    first = tiny(workload)
    assert first["checks"]["behaviour digest repeats across repetitions"]
    assert tiny(workload)["digest"] == first["digest"]
    assert tiny(workload, seed=2)["digest"] != first["digest"]


def test_one_missing_delivery_fails_the_run(monkeypatch):
    honest_run = workloads.Broadcast.run

    def lose_one(self):
        honest_run(self)
        self.got[0].pop()

    monkeypatch.setattr(workloads.Broadcast, "run", lose_one)
    result = tiny("broadcast-16")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "join-1000",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
