"""Scenario configuration: schema, defaults, parsing and validation.

Configs are YAML mappings with sections mirroring the solver modules:

    material: {rho, b, a, reg_eta}
    mesh:     {L, n_cells, degree_policy}
    time:     {dt, t_final, alpha}
    drive:    {A, omega}
    newton:   {tol, k_max}
    output:   {snapshot_interval, samples, directory}

`_KEYS` is the schema: the one place that names a key and gives its
type and default.  Each section of ScenarioConfig is a dataclass whose
fields are exactly that section's keys, in the same order, so a config
is built from its merged mapping and turned back into one without
naming a key again.  Only material.b is required; everything else has a
documented default.  Unknown sections or keys are rejected.  A run
manifest (mapping with a "config" key) is accepted anywhere a config
is, so runs can be reproduced from their own manifests.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, get_type_hints

from .constitutive import MaterialParams
from .fe_space import uniform_mesh
from .integrator import BoundaryDrive, HhtParams, NewtonSettings


class ConfigError(ValueError):
    """Malformed or invalid scenario configuration."""


@dataclass(frozen=True)
class MeshConfig:
    L: float
    n_cells: int
    degree_policy: str

    def __post_init__(self):
        uniform_mesh(self.L, self.n_cells, self.degree_policy)


@dataclass(frozen=True)
class TimeConfig:
    dt: float
    t_final: float
    alpha: float

    def __post_init__(self):
        HhtParams(alpha=self.alpha, dt=self.dt)


@dataclass(frozen=True)
class OutputConfig:
    snapshot_interval: float
    samples: int
    directory: str


@dataclass(frozen=True)
class ScenarioConfig:
    material: MaterialParams
    mesh: MeshConfig
    time: TimeConfig
    drive: BoundaryDrive
    newton: NewtonSettings
    output: OutputConfig


# section -> key -> (type, default), the one place a default is written;
# material.b has none and must be given
_KEYS = {
    "material": {"rho": (float, 1.0), "b": (float, None),
                 "a": (float, 1.5), "reg_eta": (float, MaterialParams.reg_eta)},
    "mesh": {"L": (float, 1.0), "n_cells": (int, 128),
             "degree_policy": (str, "uniform(1)")},
    "time": {"dt": (float, 1.0e-3), "t_final": (float, 1.0),
             "alpha": (float, -0.05)},
    "drive": {"A": (float, 0.02), "omega": (float, 2.0 * math.pi)},
    "newton": {"tol": (float, 1.0e-10), "k_max": (int, 20)},
    "output": {"snapshot_interval": (float, 0.05), "samples": (int, 256),
               "directory": (str, "out")},
}


def _coerce(section: str, key: str, value: Any, typ):
    if typ is float:
        if isinstance(value, str):  # YAML 1.1 reads 1e-3 as a string
            with contextlib.suppress(ValueError):
                value = float(value)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{section}.{key}: expected a number, got {value!r}")
        if not abs(value) <= math.nextafter(math.inf, 0.0):  # as a float64
            raise ConfigError(f"{section}.{key}: must be finite, got {value!r}")
        return float(value)
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{section}.{key}: expected an integer, got {value!r}")
        return int(value)
    if not isinstance(value, str):
        raise ConfigError(f"{section}.{key}: expected a string, got {value!r}")
    return value


def _merged_sections(mapping: Mapping) -> dict:
    unknown = set(mapping) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown, key=repr)}")
    merged: dict = {}
    for section, keys in _KEYS.items():
        given = {} if mapping.get(section) is None else mapping[section]
        if not isinstance(given, Mapping):
            raise ConfigError(f"section {section!r} must be a mapping")
        bad = set(given) - set(keys)
        if bad:
            raise ConfigError(f"unknown key(s) in section {section!r}: {sorted(bad, key=repr)}")
        values = {key: default for key, (_, default) in keys.items()}
        for key, value in given.items():
            values[key] = _coerce(section, key, value, keys[key][0])
        merged[section] = values
    if merged["material"]["b"] is None:
        raise ConfigError("material.b is required")
    return merged


def _validated(merged: dict) -> ScenarioConfig:
    m, t = merged["material"], merged["time"]
    d, o = merged["drive"], merged["output"]
    # the law squares reg_eta, so a square that underflows is a width of 0
    if m["reg_eta"] * m["reg_eta"] == 0.0 and m["a"] < 2.0:
        raise ConfigError("material.reg_eta: must be positive when a < 2, "
                          "where eps''' is infinite at sigma = 0")
    if t["dt"] <= 0:
        raise ConfigError(f"time.dt: must be positive, got {t['dt']}")
    if t["t_final"] <= 0:
        raise ConfigError(f"time.t_final: must be positive, got {t['t_final']}")
    if not t["t_final"] / t["dt"] <= 2.0**53:  # (k + 1) dt hits every step time
        raise ConfigError(f"time.dt: t_final / dt is {t['t_final'] / t['dt']:g}, over 2**53")
    h, w = min(0.5 * t["dt"], t["t_final"]), 1.0 - t["alpha"]
    if 0.25 * w * w * h * h == 0.0:  # beta h^2; no step of a run is shorter
        raise ConfigError(f"time: a step as short as {h:g} has beta dt^2 = 0 "
                          f"(underflow)")
    if d["A"] < 0:
        raise ConfigError(f"drive.A: must be non-negative, got {d['A']}")
    if o["snapshot_interval"] < 0:
        raise ConfigError("output.snapshot_interval: must be non-negative")
    if not 1 <= o["samples"] <= 2**31:  # 2**31 samples need over 100 GB
        raise ConfigError(f"output.samples: must be in [1, 2**31], got {o['samples']}")

    sections = {}
    for section, cls in get_type_hints(ScenarioConfig).items():
        try:
            sections[section] = cls(**merged[section])
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    return ScenarioConfig(**sections)


def parse_config(source) -> ScenarioConfig:
    """Build a validated ScenarioConfig from YAML text or a mapping.

    A manifest mapping (containing a "config" key) is unwrapped, so a
    previous run's manifest reproduces that run.
    """
    if isinstance(source, Mapping):
        mapping = source
    else:
        try:
            # JSON first: manifests are JSON, and PyYAML mis-reads
            # exponent literals like 1e-08 as strings
            mapping = json.loads(source)
        except json.JSONDecodeError:
            import yaml  # 15-20 ms to import: only text that is not JSON pays it
            try:
                mapping = yaml.safe_load(source)
            except yaml.YAMLError as exc:
                raise ConfigError(f"config parse error: {exc}") from exc
    if mapping is None:
        mapping = {}
    if not isinstance(mapping, Mapping):
        raise ConfigError("config root must be a mapping")
    if "config" in mapping:  # manifest of a previous run
        mapping = mapping["config"]
        if not isinstance(mapping, Mapping):
            raise ConfigError("manifest 'config' entry must be a mapping")
    return _validated(_merged_sections(mapping))


def load_config(path) -> ScenarioConfig:
    """Parse a UTF-8 config (or manifest) file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                          f"{exc.start})") from exc
    return parse_config(text)


def config_to_mapping(config: ScenarioConfig) -> dict:
    """Plain mapping of every resolved parameter (manifest content)."""
    return dataclasses.asdict(config)
