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
        "7753052c043824e3a598c14489b25600c41d0367c863cdc900f9931beb358355",
        "6b32eadc1a23ae53cce83944efff35394ef91ad7361672524e1f033af366ac38",
    ),
    "command-lossy-join": (
        "bfba7cf6c4b05377939b0e7d5f9401f28c5c0e1d4f4002401c55bea5d5d095df",
        "486f9bd403aa63da9152d77d88afcf1a0f290898b45ecff1256bf9e4bfb6fe7b",
        "1bf5dc15b7fa63e4511368f55475e7ded9638ac5c32e57b4317c00343a6d1794",
    ),
    "demo-bridge": (
        "735e97aec11b4eb13dae03fce709ab19d12df824f60bf744205152d3b7a66ad2",
        "de325c8533ca6addac994310e11ef538080252434530969fba41b866c7245b0a",
        "c968fc42d441f867fcf3c35b01b06e133ea12033726c4b5a332c2d8c4d38382d",
    ),
    "demo-dispersal": (
        "900ac95c9540fa56ca8a1176b354ab204c44b3a4ec767eb8213b6c64602445fd",
        "d3bb953f2d526c4976608c8af31ddc6711636b76208462900a0e54a1a03efb0d",
        "9d280cd4b3dd1851d091710e9527d81db57870793c4537c8a4e8cbef859a5e8b",
    ),
    "demo-group-control": (
        "f800dc8292aed678aed48b4c0d528242288e369b060d44a588cf6c6d1ed30b16",
        "40c2d4b8b4cb647b23b7e52de44353517feab2cf885044d076c9534e4a06fd82",
        "10c03f1f71fcf56af95100a13513e1089e5ec3824d4bcda8107434f5552b8821",
    ),
    "demo-path-copy": (
        "6e0add636a1c52eb3d2570364a8c9279b87b69a2490a0e4bf50d1be4d33c8cde",
        "98dd6921c0286cc54940e2b22fbaba42ff3a3f63e609c3f7afe739d4b13f8194",
        "8abc5e513767772c59dcea2e75571105bfb30728af6ea2c94a78c448febfc5bb",
    ),
    "scalability": (
        "57bb1c1c50f05c8452e6dd71133ce52ee91b4e23021dd8ee84f0c58674b22b19",
        "b34b64276c4a0b7de181666bb641f1e6b2548cde8c70f3c2b2ca88d7df3966a1",
        "8bf73acf12d8d9e92c8d90e0ce1826c2c07534dadecb1e74bfcb8d99b1d2b1bb",
    ),
    "sweep": (
        "a62040283b85a113e5da3e97cc8b1165385c669e21e6c7f46e0e2e333e16d7ba",
        "69708a377dcef9f2be5b1df6871644df564ba10e8567002619fd75b5a35f3484",
        "ab97694bf0fdd83fcd96f158065a1a342697b5280dfd904cd224193d961a6506",
        "8f1529a7191a389c900183a12d82e2d2cce7a0c230eb9e761acf47ce8b6169e7",
    ),
    "throughput-clean": (
        "8add17067a41f2b18cb1554e806a8ca414adf55abd2eaf8e660942e8f5602197",
        "29f3d6298283a7443e66f3c96229467c52fc4f070c4f53a9b66299b7b3c2093f",
        "8f1529a7191a389c900183a12d82e2d2cce7a0c230eb9e761acf47ce8b6169e7",
    ),
    "throughput-lossy": (
        "58d01d8bfd908c0f3460b0616a35d6ef812a2861080a52d93d14218015bb7673",
        "0b3c2643f83417feadf95bd6e374264265e1fd2a42c716111af50f1f6a176f0a",
        "8f1529a7191a389c900183a12d82e2d2cce7a0c230eb9e761acf47ce8b6169e7",
    ),
    "throughput-overflow": (
        "7c87a082b5cbd85ffdde17fdc98673c2bedfbed61df382150bd62854a32eac22",
        "d755ed480d61e23555a8fb211b936272f7306a6e835cc16fba95cef065ab6e7a",
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
