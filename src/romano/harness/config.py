"""Scenario configuration.

A scenario file is line oriented ``key = value`` text.  Blank lines and
lines starting with ``#`` are ignored.  Keys mirror the field names of
:class:`ScenarioConfig`; values are coerced to the field's annotated type.
Command line flags override file values, which override the defaults.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Mapping

from .. import broker, codec
from ..mqttsn import MAX_PUBLISH_DATA
from ..simnet import US_PER_SEC


class ConfigError(ValueError):
    """Bad scenario file or malformed value."""


@dataclass
class ScenarioConfig:
    """Knobs for building a simulated world and driving an experiment."""

    seed: int = 1
    n_robots: int = 5
    rate_mps: float = 20.0
    n_messages: int = 5000
    payload_octets: int = 32
    # radio link between each robot and the broker
    latency_lo_us: int = 10_000
    latency_hi_us: int = 20_000
    loss_prob: float = 0.0
    # the broker's egress buffer (its timings are broker constants)
    radio_buffer_capacity: int = broker.DEFAULT_RADIO_BUFFER_CAPACITY
    ready_deadline_us: int = 10_000_000
    # dispersal behaviour
    initial_separation_mm: float = 300.0
    # inter-network bridging
    bridge_topics: str = "squad-remote"

    def bridge_topic_list(self) -> tuple:
        return tuple(t.strip() for t in self.bridge_topics.split(",") if t.strip())

    def replace(self, **kw: Any) -> "ScenarioConfig":
        return dataclasses.replace(self, **kw)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)}


def _coerce(key: str, raw: str) -> Any:
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw, 0)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def parse_scenario_text(text: str) -> dict:
    """Parse scenario file text into an override mapping."""
    overrides: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        overrides[key] = _coerce(key, value.strip())
    return overrides


def load_scenario(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario_text(fh.read())


def build_config(file_overrides: Mapping[str, Any] | None = None,
                 cli_overrides: Mapping[str, Any] | None = None) -> ScenarioConfig:
    """Merge defaults, scenario file values and CLI flags, in that order."""
    merged: dict = {}
    for source in (file_overrides, cli_overrides):
        if source:
            merged.update({k: v for k, v in source.items() if v is not None})
    unknown = set(merged) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return check_config(ScenarioConfig(**merged))


def check_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """Return ``cfg``, or raise ConfigError naming its first bad value."""
    for key, kind in _FIELD_TYPES.items():
        value = getattr(cfg, key)
        if kind == "int" and key != "seed" and value < 0:
            raise ConfigError(f"{key} must not be negative")
        if kind == "float" and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite")
    if cfg.n_robots < 1:
        raise ConfigError("n_robots must be at least 1")
    if not 14 <= cfg.payload_octets <= MAX_PUBLISH_DATA:
        # 2 header + 4 seq + 8 send-time octets at minimum; the whole
        # probe rides in the data of one PUBLISH
        raise ConfigError(
            f"payload_octets must be in [14, {MAX_PUBLISH_DATA}]")
    if cfg.latency_lo_us > cfg.latency_hi_us:
        raise ConfigError("latency_lo_us must not exceed latency_hi_us")
    if not 0.0 <= cfg.loss_prob < 1.0:
        raise ConfigError("loss_prob must be in [0, 1)")
    if cfg.rate_mps <= 0:
        raise ConfigError("rate_mps must be positive")
    # A probe's send time is a u64.  The first probe leaves 1 ms after the
    # swarm is ready, by the ready deadline, and the last (n - 1) / rate later.
    last_probe_us = (cfg.ready_deadline_us + 1_000
                     + (cfg.n_messages - 1) * US_PER_SEC / cfg.rate_mps)
    if last_probe_us >= 1 << 64:
        raise ConfigError("rate_mps is too low: the last probe's send time"
                          " overflows its 64-bit field")
    for key in ("n_messages", "initial_separation_mm"):
        if getattr(cfg, key) <= 0:
            raise ConfigError(f"{key} must be positive")
    if not cfg.bridge_topic_list():
        raise ConfigError("bridge_topics must name at least one topic")
    # The bridge demo orders a subscription to each topic with an
    # MqttSubscribe, which rides in the data of one PUBLISH.
    longest = MAX_PUBLISH_DATA - codec.HEADER_LEN
    if any(len(t.encode("utf-8")) > longest
           for t in cfg.bridge_topic_list()):
        raise ConfigError(
            f"each bridge topic must be at most {longest} octets of UTF-8")
    return cfg
