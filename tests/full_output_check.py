"""Full-size snapshot output: every float in every CSV is exact %.17g text.

Runs `stresswave simulate` on the driven, center-graded scenario (b=5,
a=1.5, 128 cells, 1,000 steps of 1e-3, a snapshot every 0.01 with 2,048
samples: 101 snapshots of 2,049 rows) and checks every CSV it writes: the
header, the row count, `\\r\\n` row ends, and that every float token equals
'%.17g' % float(token).

    PYTHONPATH=src python tests/full_output_check.py [OUT_DIR]
"""
import json
import sys
import tempfile
import time
from pathlib import Path

from stresswave.cli import main

MAPPING = {
    "material": {"rho": 1.0, "b": 5.0, "a": 1.5},
    "mesh": {"L": 1.0, "n_cells": 128, "degree_policy": "center_graded"},
    "time": {"dt": 1.0e-3, "t_final": 1.0, "alpha": -0.05},
    "output": {"snapshot_interval": 0.01, "samples": 2048},
}
SNAPSHOTS, ROWS = 101, 2049


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


def run(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    config = out / "driven_graded.json"
    config.write_text(json.dumps(MAPPING))
    start = time.perf_counter()
    code = main(["simulate", "--config", str(config), "--out",
                 str(out / "result"), "--quiet"])
    assert code == 0, f"simulate exited {code}"
    ran = time.perf_counter() - start
    snapshots = sorted((out / "result").glob("snapshot_t*.csv"))
    assert len(snapshots) == SNAPSHOTS, f"{len(snapshots)} snapshot files"
    floats = sum(check_csv(path, b"x,sigma,u,v,eps,c", ROWS)
                 for path in snapshots)
    floats += check_csv(out / "result" / "spacetime.csv",
                        b"t,x,sigma,u,v,eps,c", SNAPSHOTS * ROWS)
    print(f"{SNAPSHOTS} snapshots and spacetime.csv: {floats} floats, all "
          f"exact %.17g (simulate {ran:.1f} s, check "
          f"{time.perf_counter() - start - ran:.1f} s)")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        run(Path(sys.argv[1]))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            run(Path(tmp))
