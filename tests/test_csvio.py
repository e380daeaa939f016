"""Byte contract of the CSV artifacts.

``trajectory.csv`` is written one snapshot at a time with each grid axis
formatted once. The reference below is the straightforward writer it
replaced: one tuple per cell, every value through ``fmt``, with the explicit
infinity branch ``fmt`` used to have. Both must produce the same bytes.
"""
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from kpplab.cli import _write_trajectory
from kpplab.config import parse_config
from kpplab.csvio import write_csv
from kpplab.grids import GridFunction
from kpplab.solver import Snapshot, Trajectory, solve

SPECIAL = [math.inf, -math.inf, math.nan, -math.nan, -0.0, 0.0, 5e-324, 1e22, 0.1 + 0.2, -1e-300]


def reference_fmt(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".17g")
    return str(value)


def reference_trajectory_bytes(traj) -> bytes:
    rows = []
    if traj.problem.dimension == 1:
        header = ["t", "x", "u", "rhs"]
        for snap in traj:
            x = snap.u.axis(0)
            for i in range(x.size):
                rows.append((snap.t, float(x[i]), float(snap.u.values[i]), float(snap.rhs.values[i])))
    else:
        header = ["t", "x", "y", "u", "rhs"]
        for snap in traj:
            x = snap.u.axis(0)
            y = snap.u.axis(1)
            for i in range(x.size):
                for j in range(y.size):
                    rows.append(
                        (
                            snap.t,
                            float(x[i]),
                            float(y[j]),
                            float(snap.u.values[i, j]),
                            float(snap.rhs.values[i, j]),
                        )
                    )
    lines = [",".join(header)] + [",".join(reference_fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def written_bytes(traj, tmp_path: Path) -> bytes:
    _write_trajectory(traj, tmp_path)
    return (tmp_path / "trajectory.csv").read_bytes()


def hand_built(shape, times, h=0.1, seed=0) -> Trajectory:
    """Snapshots on a grid with a non-dyadic spacing; SPECIAL values sit in u and rhs."""
    rng = np.random.default_rng(seed)
    origin = tuple(-h * (n // 2) - 1 / 3 for n in shape)
    snaps = []
    for k, t in enumerate(times):
        u = rng.uniform(0.0, 1.0, shape)
        rhs = rng.normal(0.0, 1e-3, shape)
        idx = (k + 3 * np.arange(len(SPECIAL))) % u.size
        u.flat[idx] = SPECIAL
        rhs.flat[(idx + 1) % rhs.size] = SPECIAL[::-1]
        snaps.append(Snapshot(t=t, u=GridFunction(u, h, origin), rhs=GridFunction(rhs, h, origin)))
    return Trajectory(problem=SimpleNamespace(dimension=len(shape)), config=None, snapshots=snaps)


TIMES = [0.0, 1 / 3, 2 / 3, np.float64(1.0) / 3, 0.1 + 0.2, 1e-7, 12.5]


def test_trajectory_bytes_match_reference_1d(tmp_path):
    traj = hand_built((41,), TIMES)
    data = written_bytes(traj, tmp_path)
    assert data == reference_trajectory_bytes(traj)
    lines = data.decode().split("\n")
    assert lines[0] == "t,x,u,rhs" and lines[-1] == ""
    assert len(lines) == 2 + 41 * len(TIMES)
    assert b"\r" not in data
    for token in (b"-inf", b"nan", b"-0,", b"4.9406564584124654e-324", b"1e+22", b"0.30000000000000004"):
        assert token in data


def test_trajectory_bytes_match_reference_2d(tmp_path):
    traj = hand_built((9, 13), TIMES[:4], h=0.3, seed=1)
    data = written_bytes(traj, tmp_path)
    assert data == reference_trajectory_bytes(traj)
    assert data.split(b"\n", 1)[0] == b"t,x,y,u,rhs"
    assert data.count(b"\n") == 1 + 9 * 13 * 4


def test_trajectory_of_no_snapshots_is_header_only(tmp_path):
    traj = Trajectory(problem=SimpleNamespace(dimension=2), config=None, snapshots=[])
    assert written_bytes(traj, tmp_path) == b"t,x,y,u,rhs\n"


def test_solved_trajectory_bytes_match_reference(tmp_path):
    base = {
        "problem": {
            "dimension": 1,
            "half_width": 10.0,
            "coefficient": {"kind": "sine", "base": 1.0, "amplitude": 0.3, "wavelength": 2.7},
            "reaction": {"kind": "logistic", "rate": 1.0},
            "initial": {"kind": "bump", "radius": 1.0, "height": 1.0},
        },
        "solver": {"h": 0.1, "t_final": 1.0, "snapshot_every": 1 / 3},
    }
    for dim in (1, 2):
        base["problem"]["dimension"] = dim
        setup = parse_config(base)
        traj = solve(setup.problem, setup.solver, validate=False)
        out = tmp_path / f"d{dim}"
        assert written_bytes(traj, out) == reference_trajectory_bytes(traj), dim


def test_write_csv_row_of_mixed_types(tmp_path):
    row = [3, "PASS", np.float64(0.1), math.inf, -math.inf, math.nan, -0.0, np.int64(7), 1 / 3]
    path = write_csv(tmp_path / "sub" / "mixed.csv", ["a", "b", "c", "d", "e", "f", "g", "h", "i"], [row])
    assert path == tmp_path / "sub" / "mixed.csv"
    assert path.read_bytes() == (
        b"a,b,c,d,e,f,g,h,i\n3,PASS,0.10000000000000001,inf,-inf,nan,-0,7,0.33333333333333331\n"
    )
