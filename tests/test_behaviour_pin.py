"""Behaviour pin: fixed runs must reproduce their artifacts byte for byte.

Each case runs the command line front end with a fixed seed (and, where
listed, a scenario file) and compares the SHA-256 of ``report.csv``,
``wire_trace.log`` and ``pose_trace.csv`` with the values recorded
below; the sweep case hashes its combined ``report.csv`` and the three
artifacts of one grid point.  Criterion 8 only shows that two runs of the same build agree;
this pin shows that a refactor kept the behaviour the pinned build had.
A change that moves a hash on purpose must say why in CHANGES.md and
record the new value here.

The cases cover a clean throughput run, an overflowing gate, a lossy
link, a rate x seed sweep, the scalability sweep, all four demos, a large
join whose gate drops force retransmissions, and a lossy join whose
exhausted exchanges drop sessions and rerun the reconnect path.
"""

import hashlib

import pytest

from romano.harness.cli import main

ARTIFACTS = ("report.csv", "wire_trace.log", "pose_trace.csv")

CASES = {
    "throughput-clean": (
        ["throughput", "--rate", "200", "--messages", "500", "--seed", "1"],
        ""),
    "throughput-overflow": (
        ["throughput", "--rate", "400", "--messages", "1500", "--seed", "2"],
        ""),
    "throughput-lossy": (
        ["throughput", "--rate", "100", "--messages", "300", "--seed", "3"],
        "loss_prob = 0.05\n"),
    "scalability": (
        ["scalability", "--robots", "4", "--messages", "50"],
        ""),
    "demo-bridge": (
        ["demo", "--demo", "bridge", "--seed", "4"],
        ""),
    "demo-dispersal": (
        ["demo", "--demo", "dispersal", "--seed", "5"],
        ""),
    "demo-group-control": (
        ["demo", "--demo", "group-control", "--seed", "8"],
        ""),
    "demo-path-copy": (
        ["demo", "--demo", "path-copy", "--seed", "9"],
        ""),
    "sweep": (
        ["sweep", "--rates", "100,400", "--seeds", "1,2", "--messages", "600"],
        ""),
    "command-gate-drops": (
        ["command", "--robots", "300", "--control", "front",
         "--magnitude", "10", "--seed", "6"],
        "radio_buffer_capacity = 60\n"),
    "command-lossy-join": (
        ["command", "--robots", "20", "--control", "front",
         "--magnitude", "10", "--seed", "7"],
        "loss_prob = 0.4\nready_deadline_us = 60000000\n"),
}

# Files hashed per case, relative to the run directory, where not ARTIFACTS.
FILES = {
    "sweep": ("report.csv", "rate-400-seed-2/report.csv",
              "rate-400-seed-2/wire_trace.log",
              "rate-400-seed-2/pose_trace.csv"),
}

# SHA-256 of each case's files, in the order of FILES or ARTIFACTS.
PINS = {
    "command-gate-drops": (
        "cdd44ac06414993998c2c09959c2c6a0e7e7ca38c1d5d51ef92ee62e59fb502d",
        "be24f949f51e6cca07bac35e70e6b76cd06718088e2a58cdc38e6e99a3cabfc6",
        "f93377067a69141faa15d037038b86e5f33a5a078bd2edd7300956b7c5d00bab",
    ),
    "command-lossy-join": (
        "9c804a3dd3fb9e526b32bf2d3acdd3ab4d25d0ac723b59ee77405c61d484e78c",
        "e25e9e1e5b4ba10aa4cff5686cbc5de2576fe1575a4f2c566e2b259bb1a95034",
        "70afa3b26ae5e40631ff77d7cea3645e4bc222ddd4d22596f1b240c08d2b147f",
    ),
    "demo-bridge": (
        "735e97aec11b4eb13dae03fce709ab19d12df824f60bf744205152d3b7a66ad2",
        "0f8469bdb37a118be612e222f904fcce162135bfb8005ee314531e50ba1a0e70",
        "2b2e26500d4d9de286441ba02622e81d3f907dbb42d361f5617061cccf8aea98",
    ),
    "demo-dispersal": (
        "900ac95c9540fa56ca8a1176b354ab204c44b3a4ec767eb8213b6c64602445fd",
        "1c94e8675caa9f247ac344490bf22e591932dd85267d5d8dc4cf79fb6283c046",
        "aff020b69df7e8d890fa3a95b5a3610e08a1ab79c8288512f89e95a00b3f392b",
    ),
    "demo-group-control": (
        "f800dc8292aed678aed48b4c0d528242288e369b060d44a588cf6c6d1ed30b16",
        "2401a3ce3e17443123cbcd0ef5f71d08eb6ec82f5a88fed794f7f16db7044c8a",
        "729f25e10539f93d987e825e622839884b408a760e2c2d46a4c7d146c2edcbd5",
    ),
    "demo-path-copy": (
        "6e0add636a1c52eb3d2570364a8c9279b87b69a2490a0e4bf50d1be4d33c8cde",
        "0f0ec7a13960e7fbecb32a9a1a2b515a6b874e29d1df28e9367d331c108e253f",
        "8546e6fa8f9df19000232de7b1bffd3482b01ea3ef540c08537b5fa4276d5aae",
    ),
    "scalability": (
        "57bb1c1c50f05c8452e6dd71133ce52ee91b4e23021dd8ee84f0c58674b22b19",
        "cd53834c0d354505aabe8701912f657bf5ac7c6e6397e6d0bc421bcf6bb49302",
        "8bf73acf12d8d9e92c8d90e0ce1826c2c07534dadecb1e74bfcb8d99b1d2b1bb",
    ),
    "sweep": (
        "affaf27ba41e6dd495c877f07d274b9d1f31a2ac93b43a019518ed7c2d81b934",
        "bb30430cd11bc668cb8a4f688f1102e7b61162e436995fad2b02419773fb9c15",
        "708466262dcc78120695d42c4633c0a5c1b02d2947950f9584cd8a2fc6be6c27",
        "8f1529a7191a389c900183a12d82e2d2cce7a0c230eb9e761acf47ce8b6169e7",
    ),
    "throughput-clean": (
        "cb7e917446373b8957f0de70ed6e265e0f25e9f206f40d117136aa3110453d78",
        "3b1b26759b2b8848ae67c0469964de8f840a9c9b0d55eff617b3c829963368c7",
        "8f1529a7191a389c900183a12d82e2d2cce7a0c230eb9e761acf47ce8b6169e7",
    ),
    "throughput-lossy": (
        "e8e4a91c2f34ee88855bbb7c8f9c2d8800f80a05d00db0366de788d979362a2d",
        "db8fc788d4c1401fbc69771afe16cc5fc0b14cd91079219c1717515538593ede",
        "8f1529a7191a389c900183a12d82e2d2cce7a0c230eb9e761acf47ce8b6169e7",
    ),
    "throughput-overflow": (
        "73cf53b102b03125490b49f6de8c0125395b144d3014d385a2f44ad9c34ac498",
        "4036ee7c1d6a44f70ee206aac67ae2c1acc9ee69ad047d87d6d2367bff6f7e13",
        "8f1529a7191a389c900183a12d82e2d2cce7a0c230eb9e761acf47ce8b6169e7",
    ),
}


def run_case(tmp_path, argv, scenario, files=ARTIFACTS):
    if scenario:
        path = tmp_path / "scenario.txt"
        path.write_text(scenario, encoding="utf-8")
        argv = argv + ["--scenario", str(path)]
    out = tmp_path / "run"
    assert main(argv + ["--out-dir", str(out)]) == 0
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in files)


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_pin(tmp_path, case):
    files = FILES.get(case, ARTIFACTS)
    got = run_case(tmp_path, *CASES[case], files)
    assert len(got) == len(PINS[case])
    for name, want, have in zip(files, PINS[case], got):
        assert have == want, "{} of {} moved".format(name, case)


def test_every_case_has_a_pin():
    assert CASES.keys() == PINS.keys()
