import math

import pytest

from stresswave.config import (ConfigError, config_to_mapping, parse_config)


def test_minimal_config_fills_defaults():
    cfg = parse_config({"material": {"b": 0.0}})
    assert cfg.material.rho == 1.0
    assert cfg.material.b == 0.0
    assert cfg.material.a == 1.5
    assert cfg.material.reg_eta == 1e-8
    assert cfg.mesh.L == 1.0
    assert cfg.mesh.n_cells == 128
    assert cfg.mesh.degree_policy == "uniform(1)"
    assert cfg.time.dt == 1e-3
    assert cfg.time.t_final == 1.0
    assert cfg.time.alpha == -0.05
    assert cfg.drive.amplitude == 0.02
    assert cfg.drive.omega == pytest.approx(2.0 * math.pi)
    assert cfg.newton.tol == 1e-10
    assert cfg.newton.k_max == 20
    assert cfg.output.snapshot_interval == 0.05
    assert cfg.output.samples == 256
    assert cfg.output.directory == "out"


def test_yaml_text_source():
    cfg = parse_config("material:\n  b: 2.5\n  a: 3.0\nmesh:\n  n_cells: 20\n")
    assert cfg.material.b == 2.5
    assert cfg.material.a == 3.0
    assert cfg.mesh.n_cells == 20


def test_missing_b_rejected():
    with pytest.raises(ConfigError, match="material.b"):
        parse_config({"material": {"rho": 1.0}})


def test_alpha_out_of_range_rejected():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config({"material": {"b": 0.0}, "time": {"alpha": 0.1}})


def test_nonpositive_exponent_rejected():
    with pytest.raises(ConfigError):
        parse_config({"material": {"b": 1.0, "a": 0.0}})


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config({"material": {"b": 0.0}, "solver": {}})


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"material": {"b": 0.0, "nu": 0.3}})


def test_bad_types_rejected():
    with pytest.raises(ConfigError, match="mesh.n_cells"):
        parse_config({"material": {"b": 0.0}, "mesh": {"n_cells": "many"}})
    with pytest.raises(ConfigError, match="time.dt"):
        parse_config({"material": {"b": 0.0}, "time": {"dt": "fast"}})


def test_invalid_numbers_rejected():
    for section, kv in (("time", {"dt": -1e-3}),
                        ("time", {"t_final": 0.0}),
                        ("drive", {"A": -0.1}),
                        ("newton", {"tol": 0.0}),
                        ("newton", {"k_max": 0}),
                        ("mesh", {"n_cells": 1}),
                        ("mesh", {"degree_policy": "uniform(7)"}),
                        ("output", {"samples": 0})):
        with pytest.raises(ConfigError):
            parse_config({"material": {"b": 0.0}, section: kv})


def test_step_count_limit():
    # (k + 1) dt lands on every step time only up to 2**53 steps
    parse_config({"material": {"b": 0.0},
                  "time": {"dt": 1.0, "t_final": 2.0**53}})
    for t in ({"dt": 1.0, "t_final": 2.0**54},
              {"dt": 1.0e-300, "t_final": 1.0e300}):
        with pytest.raises(ConfigError, match=r"^time\.dt: "):
            parse_config({"material": {"b": 0.0}, "time": t})


def test_yaml_exponent_string_is_a_float():
    # YAML 1.1 reads 1e-3 (no dot in the mantissa) as the string "1e-3"
    cfg = parse_config("material: {b: 1e0}\ntime: {dt: 1e-3, t_final: 2E-1}\n")
    assert cfg.time.dt == 0.001
    assert cfg.time.t_final == 0.2
    assert cfg.material.b == 1.0
    for text in ("nan", "-inf", "1e400"):
        with pytest.raises(ConfigError, match="time.dt: must be finite"):
            parse_config({"material": {"b": 0.0}, "time": {"dt": text}})
    with pytest.raises(ConfigError, match="mesh.n_cells"):
        parse_config({"material": {"b": 0.0}, "mesh": {"n_cells": "1e2"}})


def test_yaml_parse_error():
    with pytest.raises(ConfigError, match="parse error"):
        parse_config("material: [unclosed\n  b: 1")


def test_non_mapping_rejected():
    with pytest.raises(ConfigError):
        parse_config("- a\n- b\n")


def test_manifest_unwrapping():
    inner = {"material": {"b": 3.0}, "mesh": {"n_cells": 9}}
    manifest = {"config": inner, "stats": {"steps": 10}}
    cfg = parse_config(manifest)
    assert cfg.material.b == 3.0
    assert cfg.mesh.n_cells == 9


def test_mapping_roundtrip():
    cfg = parse_config({"material": {"b": 1.5, "a": 2.0},
                        "time": {"dt": 5e-4, "alpha": -0.1},
                        "output": {"directory": "runs/x"}})
    assert parse_config(config_to_mapping(cfg)) == cfg
