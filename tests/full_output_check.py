"""Full-size snapshot output: every float in every CSV is exact %.17g text.

Runs `stresswave simulate` on two scenarios and checks every CSV each
writes: the header, the row count, `\\r\\n` row ends, that every float token
equals '%.17g' % float(token), and that spacetime.csv is the snapshot
files' rows in time order, each prefixed by '%.17g,' % t.  Each scenario
runs again with the snapshot writer in the other placement (in a forked
child or in the run's own process), and every CSV of the two runs must be
the same bytes.

- driven-graded: b=5, a=1.5, 128 center-graded cells, 1,000 steps of 1e-3,
  a snapshot every 0.01 with 2,048 samples: 101 snapshots of 2,049 rows,
  each a block of output on its own;
- sweep-sized: a `sweep` member (b=5, a=1.5 on the default mesh), a
  snapshot every 0.05 with 256 samples: 21 snapshots of 257 rows, written
  in blocks of several snapshots.

    PYTHONPATH=src python tests/full_output_check.py [OUT_DIR]
"""
import json
import sys
import tempfile
import time
from pathlib import Path

from stresswave import cli
from stresswave.cli import main
from stresswave.config import parse_config
from stresswave.integrator import snapshot_schedule
from stresswave.postprocess import snapshot_filename

CASES = {
    "driven_graded": ({
        "material": {"rho": 1.0, "b": 5.0, "a": 1.5},
        "mesh": {"L": 1.0, "n_cells": 128, "degree_policy": "center_graded"},
        "time": {"dt": 1.0e-3, "t_final": 1.0, "alpha": -0.05},
        "output": {"snapshot_interval": 0.01, "samples": 2048},
    }, 101, 2049),
    "sweep_sized": ({
        "material": {"b": 5.0, "a": 1.5},
        "output": {"snapshot_interval": 0.05, "samples": 256},
    }, 21, 257),
}


def check_csv(path: Path, header: bytes, rows: int) -> int:
    """Assert the layout and exact %.17g text of one CSV; return its floats."""
    data = path.read_bytes()
    assert data.endswith(b"\r\n"), f"{path.name}: last row not ended by \\r\\n"
    lines = data[:-2].split(b"\r\n")
    assert lines[0] == header, f"{path.name}: header {lines[0]!r}"
    assert len(lines) == rows + 1, f"{path.name}: {len(lines) - 1} rows, not {rows}"
    tokens = b",".join(lines[1:]).split(b",")
    width = header.count(b",") + 1
    assert len(tokens) == rows * width, f"{path.name}: not {width} fields a row"
    bad = [tok for tok in tokens if b"%.17g" % float(tok) != tok]
    assert not bad, f"{path.name}: {len(bad)} tokens are not %.17g, e.g. {bad[:3]}"
    return len(tokens)


def check_spacetime(result: Path, times: list) -> None:
    """Assert spacetime.csv is the snapshot files' rows in time order, each
    prefixed by '%.17g,' % t."""
    want = [b"t,x,sigma,u,v,eps,c\r\n"]
    for t in times:
        rows = (result / snapshot_filename(t)).read_bytes().split(b"\r\n", 1)[1]
        prefix = b"%.17g," % t
        want.append(prefix + rows[:-2].replace(b"\r\n", b"\r\n" + prefix) + b"\r\n")
    assert (result / "spacetime.csv").read_bytes() == b"".join(want), \
        "spacetime.csv is not the snapshot files' rows prefixed by t"


def simulate(config: Path, result: Path, forked: bool) -> float:
    """Run simulate with the writer placed as asked; return its seconds."""
    default = cli.FORK_MIN_ROWS
    cli.FORK_MIN_ROWS = 0 if forked else 2**62
    try:
        start = time.perf_counter()
        code = main(["simulate", "--config", str(config), "--out",
                     str(result), "--quiet"])
        ran = time.perf_counter() - start
    finally:
        cli.FORK_MIN_ROWS = default
    assert code == 0, f"{result.name}: simulate exited {code}"
    writer = json.loads((result / "manifest.json").read_text())["telemetry"]
    assert writer["writer"] == ("forked" if forked else "inline")
    return ran


def run_case(out: Path, name: str, mapping: dict, snapshots: int,
             rows: int) -> None:
    config = out / f"{name}.json"
    config.write_text(json.dumps(mapping))
    parsed = parse_config(mapping)
    forked = len(snapshot_schedule(
        parsed.time.dt, parsed.time.t_final, parsed.output.snapshot_interval)
    ) * (parsed.output.samples + 1) >= cli.FORK_MIN_ROWS
    result = out / name
    start = time.perf_counter()
    ran = simulate(config, result, forked)
    files = sorted(result.glob("snapshot_t*.csv"))
    assert len(files) == snapshots, f"{name}: {len(files)} snapshot files"
    floats = sum(check_csv(path, b"x,sigma,u,v,eps,c", rows) for path in files)
    floats += check_csv(result / "spacetime.csv", b"t,x,sigma,u,v,eps,c",
                        snapshots * rows)
    times = [t for _, t in snapshot_schedule(
        parsed.time.dt, parsed.time.t_final, parsed.output.snapshot_interval)]
    assert [snapshot_filename(t) for t in times] == [p.name for p in files]
    check_spacetime(result, times)
    checked = time.perf_counter() - start - ran
    other = out / f"{name}_other"
    simulate(config, other, not forked)
    names = sorted(p.name for p in result.glob("*.csv"))
    assert names == sorted(p.name for p in other.glob("*.csv"))
    for csv in names:
        assert (result / csv).read_bytes() == (other / csv).read_bytes(), \
            f"{name}: {csv} differs between the forked and inline writers"
    placement = "forked" if forked else "inline"
    print(f"{name}: {snapshots} snapshots and spacetime.csv: {floats} floats, "
          f"all exact %.17g, spacetime.csv their rows in time order "
          f"(simulate {ran:.1f} s with the {placement} writer, check "
          f"{checked:.1f} s); the other writer wrote the same bytes")


def run(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, (mapping, snapshots, rows) in CASES.items():
        run_case(out, name, mapping, snapshots, rows)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        run(Path(sys.argv[1]))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            run(Path(tmp))
