"""The input contract of `simulate`, `sweep` and the MMS studies: whatever
a config holds, the command ends with exit 0, 2 (config error) or 3
(solver failure), never a traceback, and a failure is one line on stderr
(a line per failed sweep member) that starts "config error: " on 2 and
"solver failure: " on 3.  The command runs through `test_cli`'s
in-process driver.  Config mappings are drawn key by key
from the defaults, edge values, wrong types and unknown names, with sizes
kept small (n_cells <= 64, samples <= 16, at most 20 steps a run) so that
no example allocates much."""
import contextlib
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_cli import in_process

EDGES = [0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300,
         "nan", "inf", "-inf", 10**400]  # the last, an integer beyond float64
WRONG = [True, None, "x", [1.0], {"k": 1}]
MAX_STEPS = 20
# section -> key -> typical values; each key also draws from EDGES and
# WRONG (floats) or from small integers and WRONG (integers)
FLOATS = {
    "material": {"rho": [1.0, 2.5], "b": [0.0, 1.0, 5.0],
                 "a": [0.3, 1.5, 2.0, 10.0], "reg_eta": [1e-8]},
    "mesh": {"L": [1.0, 3.0]},
    "time": {"dt": [1e-3, 1e-2], "t_final": [0.01, 0.02],
             "alpha": [-0.05, 0.0, -1.0 / 3.0, 0.1]},
    "drive": {"A": [0.02, 0.3], "omega": [6.28]},
    "newton": {"tol": [1e-10]},
    "output": {"snapshot_interval": [0.0, 0.005]},
}
INTS = {"mesh": {"n_cells": (-1, 64)}, "newton": {"k_max": (-1, 25)},
        "output": {"samples": (-1, 16)}}
BOUNDED = {("mesh", "n_cells"), ("output", "samples")}  # defaults too large
POLICIES = ["uniform(2)", "uniform(3)", "center_graded"]
ABSENT = object()
PREFIX = {0: "", 2: "config error: ", 3: "solver failure: "}


def _typical(section, key):
    """A valid value of the key, or its default (ABSENT) where that is."""
    if key == "degree_policy":
        return st.sampled_from([ABSENT] + POLICIES)
    if key in FLOATS[section]:
        values = st.sampled_from(FLOATS[section][key])
    else:
        values = st.integers(2 if key == "n_cells" else 1, INTS[section][key][1])
    if (section, key) in BOUNDED or key == "b":  # b has no default
        return values
    return values | st.just(ABSENT)


def _odd(section, key):
    """An edge value, a wrong type or the default of the key."""
    if key == "degree_policy":
        return st.sampled_from(["uniform(4)", "uniform(\uff11)", "", 1])
    if key in FLOATS[section]:
        values = st.sampled_from(EDGES + WRONG)
    else:
        values = st.integers(*INTS[section][key]) | st.sampled_from(
            [1.5, "8", 10**400] + WRONG)
    return values if (section, key) in BOUNDED else values | st.just(ABSENT)


NAMES = [(section, key) for section in FLOATS
         for key in [*FLOATS[section], *INTS.get(section, {})]
         + (["degree_policy"] if section == "mesh" else [])]


@st.composite
def configs(draw):
    """Every key typical or default, then up to three keys made odd, and
    at times an unknown key or section."""
    values = {name: draw(_typical(*name)) for name in NAMES}
    odd = draw(st.lists(st.sampled_from(NAMES), max_size=3, unique=True))
    for name in odd:
        values[name] = draw(_odd(*name))
    mapping = {section: {} for section in FLOATS}
    for (section, key), v in values.items():
        if v is not ABSENT:
            mapping[section][key] = v
    unknown = draw(st.integers(0, 15))
    if unknown == 0:
        mapping["extra"] = {}
    elif unknown == 1:
        mapping[draw(st.sampled_from(list(FLOATS)))]["bogus"] = 1.0
    _bound_steps(mapping["time"])
    return mapping


def _bound_steps(time, dt=None):
    """At most MAX_STEPS steps of dt (the config's if None): a t_final
    over MAX_STEPS dt becomes MAX_STEPS dt, unless t_final / dt is over
    2**53 (an exit-2 case)."""
    def number(key, default):
        v = time.get(key, default)
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            if not isinstance(v, bool):
                return float(v)
        return math.nan
    dt, t_final = dt or number("dt", 1e-3), number("t_final", 1.0)
    if dt > 0 and MAX_STEPS < t_final / dt <= 2.0**53:
        time["t_final"] = MAX_STEPS * dt


def _exit_and_lines(argv, mapping):
    """(exit code, stderr lines) of the command `argv` on the config,
    each line with the prefix of its exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "run.json").write_text(json.dumps(mapping))
        code, err = in_process(
            [*argv, "--config", "run.json", "--out", "o", "--quiet"], tmp)
    lines = err.splitlines()
    assert code in PREFIX
    assert all(line.startswith(PREFIX[code]) for line in lines), lines
    return code, lines


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mapping=configs())
def test_simulate_exits_0_2_or_3_with_one_line(mapping):
    code, lines = _exit_and_lines(["simulate"], mapping)
    assert len(lines) == (0 if code == 0 else 1), lines


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mapping=configs())
# Newton fails in every nonlinear member, after its one iteration
@example(mapping={"material": {"b": 1.0}, "newton": {"k_max": 1},
                  "time": {"t_final": 0.005}})
def test_sweep_exits_0_2_or_3_with_a_line_per_failed_member(mapping):
    # each member's solver failure is its own line, and the sweep goes on
    code, lines = _exit_and_lines(["sweep", "--grid", "b", "--jobs", "1"],
                                  mapping)
    member = [line.startswith("solver failure: sweep member b") for line in lines]
    assert (1 <= len(lines) <= 4 and all(member) if code == 3
            else len(lines) == (code == 2)), lines


@settings(max_examples=30, deadline=None, derandomize=True)
@given(mapping=configs())
@example(mapping={"material": {"b": 1.0}, "time": {"t_final": 1e-300}})
@example(mapping={"material": {"b": 1.0}, "time": {"t_final": 1e300,
                                                   "dt": 1e300}})
@example(mapping={"material": {"b": 1.0}, "mesh": {"L": 1e-153, "n_cells": 2},
                  "time": {}})
def test_mms_studies_exit_0_2_or_3_with_one_line(mapping):
    # a study runs each rung to t_final at the rung's own dt (1e-3 to
    # 8e-3, then 1e-5) and on its own mesh (16 to 128 cells): one step of
    # 1e-300, whose beta dt^2 is 0, 1e302 steps and more, or an L that
    # separates 2 cells but not 16, are config errors
    for kind, dt in (("temporal", 1e-3), ("spatial", 1e-5)):
        _bound_steps(mapping["time"], dt)
        code, lines = _exit_and_lines([f"mms-{kind}"], mapping)
        assert len(lines) == (0 if code == 0 else 1), lines
