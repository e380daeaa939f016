"""Byte contract of the CSV artifacts.

``trajectory.csv`` is written one snapshot at a time, in blocks of rows, with
each grid axis formatted once and each distinct bit pattern of a snapshot's
values formatted once. The reference below is the straightforward writer it
replaced: one tuple per cell, every value through ``fmt``, with the explicit
infinity branch ``fmt`` used to have. Both must produce the same bytes, in
process and in the forked child that ``kpplab run`` streams snapshots to.

``protocol.csv`` and ``protocol_events.csv`` are written from their record
classes, one column per field. Their reference is the writer that spelled
each column by hand.
"""
import math
import os
import pickle
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from kpplab import tumor, verify
from kpplab.cli import BLOCK_ROWS, _run_protocol, _TrajectoryWriter, _write_trajectory
from kpplab.config import parse_config
from kpplab.csvio import write_csv
from kpplab.grids import GridFunction
from kpplab.model import homogeneous_kpp
from kpplab.solver import Snapshot, SolverConfig, Trajectory, solve
from kpplab.tumor import EventDiagnostics, ProtocolPoint, ProtocolResult, TreatmentSchedule

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


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def written_bytes(traj, tmp_path: Path) -> bytes:
    """trajectory.csv as written in process; the forked writer, sent the same
    snapshots one by one, must write the same bytes."""
    _write_trajectory(traj, tmp_path)
    data = (tmp_path / "trajectory.csv").read_bytes()
    forked = tmp_path / "forked"
    forked.mkdir()
    with _TrajectoryWriter(traj.problem, forked) as writer:
        for snap in traj:
            writer.send(snap)
        writer.close()
    assert_no_child_left()
    assert (forked / "trajectory.csv").read_bytes() == data
    return data


def trajectory_of(fields, times, h=0.1) -> Trajectory:
    """Snapshots (t, u, rhs) with ``fields`` = [(u, rhs), ...] on a grid with a
    non-dyadic spacing."""
    shape = fields[0][0].shape
    origin = tuple(-h * (n // 2) - 1 / 3 for n in shape)
    snaps = [
        Snapshot(t=t, u=GridFunction(u, h, origin), rhs=GridFunction(rhs, h, origin))
        for t, (u, rhs) in zip(times, fields)
    ]
    return Trajectory(problem=SimpleNamespace(dimension=len(shape)), config=None, snapshots=snaps)


def hand_built(shape, times, h=0.1, seed=0) -> Trajectory:
    """Random snapshots; SPECIAL values sit in u and rhs."""
    rng = np.random.default_rng(seed)
    fields = []
    for k in range(len(times)):
        u = rng.uniform(0.0, 1.0, shape)
        rhs = rng.normal(0.0, 1e-3, shape)
        idx = (k + 3 * np.arange(len(SPECIAL))) % u.size
        u.flat[idx] = SPECIAL
        rhs.flat[(idx + 1) % rhs.size] = SPECIAL[::-1]
        fields.append((u, rhs))
    return trajectory_of(fields, times, h)


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


def test_values_shared_by_u_and_rhs_keep_their_own_bits(tmp_path):
    # -0 and 0, and two NaNs that differ only in payload, are distinct bit patterns
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000002], dtype=np.uint64).view(np.float64)
    pool = np.array([0.0, -0.0, *nans, 1 / 3, 0.1 + 0.2, 5e-324, -5e-324, math.inf, 1.0])
    rng = np.random.default_rng(2)
    fields = [(rng.choice(pool, (7, 5)), rng.choice(pool, (7, 5))) for _ in range(3)]
    fields[0][1][:] = fields[0][0]  # rhs repeats u cell for cell
    traj = trajectory_of(fields, TIMES[:3])
    data = written_bytes(traj, tmp_path)
    assert data == reference_trajectory_bytes(traj)
    body = data.decode().splitlines()[1:]
    u0 = [line.split(",")[3] for line in body[:35]]
    assert u0 == [line.split(",")[4] for line in body[:35]]
    assert {"0", "-0", "nan", "4.9406564584124654e-324", "-4.9406564584124654e-324"} <= set(u0)


def test_snapshot_larger_than_a_write_block(tmp_path):
    # the rows of one snapshot span several blocks, the last one partly filled;
    # its u and rhs bits fill a default Linux pipe buffer (64 KiB) twice over
    cells = 2 * BLOCK_ROWS + 37
    assert 16 * cells > 2 * 65536
    traj = hand_built((cells,), TIMES[:2], seed=3)
    data = written_bytes(traj, tmp_path)
    assert data == reference_trajectory_bytes(traj)
    assert data.count(b"\n") == 1 + 2 * cells


def test_stream_that_ends_inside_a_snapshot_leaves_no_file(tmp_path, capfd):
    # the child has written the first snapshot's rows when the second stops
    # halfway: an aborted run, whose partial file is removed without a word
    traj = hand_built((41,), TIMES[:2])
    data = pickle.dumps(traj.snapshots[1], pickle.HIGHEST_PROTOCOL)
    with pytest.raises(RuntimeError, match="aborted"):
        with _TrajectoryWriter(traj.problem, tmp_path) as writer:
            writer.send(traj.snapshots[0])
            writer._pipe.write(data[: len(data) // 2])
            raise RuntimeError("aborted")
    assert not (tmp_path / "trajectory.csv").exists()
    assert_no_child_left()
    assert capfd.readouterr().err == ""


def test_sent_snapshot_reaches_the_child_before_the_next_is_sent(tmp_path):
    # the child formats one snapshot while the caller solves the next, so all
    # of a sent snapshot is in the pipe when send returns; its first block of
    # rows outgrows the file buffer, so the child's progress shows on disk
    traj = hand_built((2 * BLOCK_ROWS + 37,), TIMES[:2], seed=3)
    path = tmp_path / "trajectory.csv"
    with _TrajectoryWriter(traj.problem, tmp_path) as writer:
        writer.send(traj.snapshots[0])
        deadline = time.monotonic() + 10.0
        while not (path.exists() and path.stat().st_size) and time.monotonic() < deadline:
            time.sleep(0.01)
        streamed = path.exists() and path.stat().st_size > 0
        writer.send(traj.snapshots[1])
        writer.close()
    assert streamed
    assert path.read_bytes() == reference_trajectory_bytes(traj)
    assert_no_child_left()


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
    # a constant coefficient on a dyadic grid: the nodes, and with them the
    # solution, are symmetric about both axes and the diagonal bit for bit
    sine, symmetric = base["problem"]["coefficient"], {"kind": "constant", "value": 1.0}
    for dim, coefficient, h in ((1, sine, 0.1), (2, sine, 0.1), (2, symmetric, 0.25)):
        base["problem"].update(dimension=dim, coefficient=coefficient)
        base["solver"]["h"] = h
        setup = parse_config(base)
        out = tmp_path / f"d{dim}_{coefficient['kind']}"
        out.mkdir()
        # each snapshot goes to the forked writer as the solver records it
        with _TrajectoryWriter(setup.problem, out) as writer:
            traj = solve(setup.problem, setup.solver, validate=False, on_snapshot=writer.send)
            writer.close()
        assert_no_child_left()
        want = reference_trajectory_bytes(traj)
        assert (out / "trajectory.csv").read_bytes() == want, out.name
        assert written_bytes(traj, out / "in-process") == want, out.name
    u = traj.snapshots[-1].u.values
    assert np.array_equal(u, u[::-1]) and np.array_equal(u, u.T)
    values = np.concatenate([u.ravel(), traj.snapshots[-1].rhs.values.ravel()])
    assert np.unique(values.view(np.int64)).size < values.size / 4


def test_write_csv_row_of_mixed_types(tmp_path):
    row = [3, "PASS", np.float64(0.1), math.inf, -math.inf, math.nan, -0.0, np.int64(7), 1 / 3]
    path = write_csv(tmp_path / "sub" / "mixed.csv", ["a", "b", "c", "d", "e", "f", "g", "h", "i"], [row])
    assert path == tmp_path / "sub" / "mixed.csv"
    assert path.read_bytes() == (
        b"a,b,c,d,e,f,g,h,i\n3,PASS,0.10000000000000001,inf,-inf,nan,-0,7,0.33333333333333331\n"
    )


def reference_table_bytes(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(reference_fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def reference_protocol_tables(proto, sigma_img) -> tuple[bytes, bytes, dict]:
    """The bytes of protocol.csv and protocol_events.csv and the sweep metrics
    as the hand-spelled writer made them."""
    series = reference_table_bytes(
        ["t", "S", "mass", "event_flag"],
        [(pt.t, pt.S, pt.mass, pt.event_flag) for pt in proto.series],
    )
    events = reference_table_bytes(
        [
            "t0",
            "beta",
            "sigma",
            "S_before",
            "S_after",
            "mass_before",
            "mass_after",
            "boundary_rhs_min",
            "dS_sign",
            "dmass_sign",
            "grazing",
        ],
        [
            (
                ev.t0,
                ev.beta,
                sigma_img,
                ev.S_before,
                ev.S_after,
                ev.mass_before,
                ev.mass_after,
                ev.boundary_rhs_min,
                ev.dS_sign,
                ev.dmass_sign,
                int(ev.grazing),
            )
            for ev in proto.events
        ],
    )
    metrics = {}
    if proto.events:
        ev = proto.events[0]
        metrics.update(
            beta=ev.beta,
            sigma=sigma_img,
            t0=ev.t0,
            dS_sign=ev.dS_sign,
            dmass_sign=ev.dmass_sign,
            boundary_rhs_min=ev.boundary_rhs_min,
        )
    metrics["S_final"] = proto.series[-1].S
    metrics["mass_final"] = proto.series[-1].mass
    return series, events, metrics


def assert_protocol_tables_match_reference(proto, sched, outdir, monkeypatch):
    monkeypatch.setattr(tumor, "run_protocol", lambda traj, s: proto)
    metrics = _run_protocol(SimpleNamespace(schedule=sched), None, outdir, {"tau_star": 1.5})
    series, events, want = reference_protocol_tables(proto, sched.sigma_img)
    assert (outdir / "protocol.csv").read_bytes() == series
    assert (outdir / "protocol_events.csv").read_bytes() == events
    assert repr(metrics) == repr({"tau_star": 1.5, **want})  # sweep.csv columns and their order
    return events


@pytest.mark.parametrize(
    "dim, events",
    [(1, ((3.0, 0.6), (5.7, 0.5))), (2, ((2.5, 0.5),))],
    ids=["two-events-1d", "2d"],
)
def test_solved_protocol_tables_match_reference(tmp_path, monkeypatch, dim, events):
    if dim == 1:
        p, cfg = homogeneous_kpp(half_width=60.0), SolverConfig(h=0.1, t_final=8.0, snapshot_every=1.0)
    else:
        p = homogeneous_kpp(half_width=15.0, dimension=2)
        cfg = SolverConfig(h=0.5, t_final=4.0, snapshot_every=1.0, boundary_leak_tolerance=1.0)
    sched = TreatmentSchedule(events, 0.3)
    proto = tumor.run_protocol(solve(p, cfg, validate=False), sched)
    assert len(proto.events) == len(events)
    # a 1D event has a finite boundary rhs; a 2D event has none
    assert all(math.isnan(ev.boundary_rhs_min) == (dim == 2) for ev in proto.events)
    assert_protocol_tables_match_reference(proto, sched, tmp_path, monkeypatch)


def test_hand_built_protocol_tables_match_reference(tmp_path, monkeypatch):
    # one grazing event and one not; the float columns hold the special values
    sched = TreatmentSchedule(((0.5, 0.5), (1.0, 0.4)), 1 / 3)
    common = dict(sigma=1 / 3, S_before=2.5, mass_before=0.1 + 0.2, mass_after=-0.0)
    grazing = EventDiagnostics(
        t0=0.5, beta=0.5, S_after=0.0, boundary_rhs_min=-1e-300, dS_sign=-1, dmass_sign=1,
        grazing=True, **common,
    )
    clear = EventDiagnostics(t0=1.0, beta=0.4, S_after=1.25, boundary_rhs_min=math.nan, grazing=False, **common)
    series = [
        ProtocolPoint(0.0, 2.5, 0.1 + 0.2, 0),
        ProtocolPoint(0.5, 5e-324, -0.0, 1),
        ProtocolPoint(1.0, math.inf, 1e22, 1),
    ]
    proto = ProtocolResult(series=series, events=[grazing, clear])
    events = assert_protocol_tables_match_reference(proto, sched, tmp_path, monkeypatch)
    signs_and_grazing = [line.split(b",")[-3:] for line in events.splitlines()[1:]]
    assert signs_and_grazing == [[b"-1", b"1", b"1"], [b"0", b"0", b"0"]]


def test_verify_tumor_jump_protocol_table_matches_reference(tmp_path, monkeypatch):
    run, seen = tumor.run_protocol, []

    def recorded(traj, sched):
        seen.append((run(traj, sched), sched))
        return seen[-1][0]

    monkeypatch.setattr(tumor, "run_protocol", recorded)
    assert all(res.passed for res in verify.suite_tumor_jump(tmp_path))
    ((proto, sched),) = seen
    want = reference_protocol_tables(proto, sched.sigma_img)[0]
    assert (tmp_path / "protocol.csv").read_bytes() == want
