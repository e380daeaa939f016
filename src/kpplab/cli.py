"""Command-line front door: run simulations, verification suites, sweeps.

Exit codes: 0 success, 1 verification failure, 2 schema/usage or output
error, 3 numerical abort; `main` maps the errors to them, in one place.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import json
import math
import os
import pickle
import shutil
import signal
import sys
import time
from functools import partial
from itertools import product
from multiprocessing import get_context
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import analysis as an
from . import tumor as tu
from .config import RunSetup, SchemaError, load_config, parse_config, read_config
from .csvio import FLOAT, fmt, format_floats, open_csv, records, write_csv
from .model import validate_problem
from .solver import NumericalError, Snapshot, Trajectory, solve
from .verify import SUITES, run_suite


# Rows formatted per write: the writer holds one block of text, not a snapshot's.
BLOCK_ROWS = 4096


def _write_trajectory(traj, outdir: Path) -> None:
    """Write trajectory.csv one snapshot at a time, rows ordered by t, then x (then y)."""
    axes = ["x"] if traj.problem.dimension == 1 else ["x", "y"]
    cells = None  # one row per cell: coordinates, u, rhs
    with open_csv(outdir / "trajectory.csv", ["t", *axes, "u", "rhs"]) as fh:
        for snap in traj:
            if cells is None:
                # Every snapshot is on the same grid, so its axes are formatted once;
                # product() gives the 2D cells in i-major, j-minor order, as ravel() does.
                strings = [[FLOAT % v for v in snap.u.axis(k).tolist()] for k in range(len(axes))]
                cells = np.empty((snap.u.values.size, 3), dtype=object)
                cells[:, 0] = [",".join(c) for c in product(*strings)]
            n = len(cells)
            text = format_floats(np.concatenate([snap.u.values.ravel(), snap.rhs.values.ravel()]))
            cells[:, 1], cells[:, 2] = text[:n], text[n:]
            row = f"{fmt(snap.t)},%s,%s,%s\n"
            for lo in range(0, n, BLOCK_ROWS):
                block = cells[lo : lo + BLOCK_ROWS]
                fh.write((row * len(block)) % tuple(block.ravel().tolist()))


class _TrajectoryWriter:
    """Writes ``outdir/trajectory.csv`` in a forked child process while the
    caller goes on solving (POSIX fork).

    ``send`` pickles each snapshot into a pipe; pickle carries the u and rhs
    buffers as their raw bytes, so the child's `_write_trajectory` writes the
    bytes of an in-process write, NaN payloads and -0 included. ``close``
    ends the stream with None. Leaving the ``with`` block waits for the child
    and raises OSError if it could not write the file. If the block raises
    before ``close``, the child sees the stream end early and removes its
    partial file, so an aborted run leaves no trajectory.csv."""

    def __init__(self, problem, outdir: Path):
        self.path = outdir / "trajectory.csv"
        read, write = os.pipe()
        try:
            self._pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self._pid == 0:
            os.close(write)
            self._child(read, problem, outdir)
        os.close(read)
        self._pipe = open(write, "wb")

    def _child(self, read: int, problem, outdir: Path) -> None:
        """Write the file from the stream, then leave without running the
        parent's exit handlers or flushing its buffers. Interrupts are the
        parent's to handle: the child ends when the stream does."""
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        status = 1
        try:
            with open(read, "rb") as fh:
                # the writer iterates once, taking each snapshot as it arrives
                snaps = iter(partial(pickle.load, fh), None)
                _write_trajectory(Trajectory(problem, None, snaps), outdir)
            status = 0
        except (EOFError, pickle.UnpicklingError):  # the stream ended early
            self.path.unlink(missing_ok=True)
            status = 0
        except BaseException as exc:
            os.write(2, f"kpplab: could not write {self.path}: {exc}\n".encode())
        finally:
            os._exit(status)

    def send(self, snap: Snapshot) -> None:
        try:
            pickle.dump(snap, self._pipe, pickle.HIGHEST_PROTOCOL)
            # the pickle's last bytes would otherwise wait in the buffer for the
            # next snapshot, and the child could not format this one meanwhile
            self._pipe.flush()
        except BrokenPipeError:  # the child has exited early: joining says why
            self._join()
            raise

    def close(self) -> None:
        """End the stream: the child writes the rest of the file and exits."""
        with contextlib.suppress(BrokenPipeError):  # a child that failed is reported by _join
            pickle.dump(None, self._pipe)
            self._pipe.flush()

    def _join(self) -> None:
        with contextlib.suppress(BrokenPipeError):  # closes the pipe even so
            self._pipe.close()
        if self._pid is None:
            return
        pid, self._pid = self._pid, None
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code != 0:
            raise OSError(f"could not write {self.path}: the writer process exited with status {code}")

    def __enter__(self) -> "_TrajectoryWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._join()
        else:
            with contextlib.suppress(OSError):  # the error already raised is the one to report
                self._join()


def _run_untreated(setup: RunSetup, outdir: Path, then=None) -> tuple[Trajectory, dict, list[str]]:
    """Solve and certify the untreated run and write its artifacts; returns the
    trajectory, its headline metrics and the names of the files written.
    trajectory.csv is written by a child process while the solve and the
    certificates run, and is complete when this returns. ``then(traj=...,
    metrics=...)``, when given, runs after the other artifacts are written and
    before the child is waited for, so it overlaps the end of trajectory.csv."""
    outdir.mkdir(parents=True, exist_ok=True)
    metrics: dict = {}
    report = validate_problem(setup.problem)
    if setup.validate and not report.all_pass:
        raise NumericalError("problem fails hypothesis validation:\n" + report.summary())

    with _TrajectoryWriter(setup.problem, outdir) as writer:
        traj = solve(setup.problem, setup.solver, validate=False, on_snapshot=writer.send)
        writer.close()
        written = ["trajectory.csv"]

        # one read of the run feeds every certificate, each pass keeping what it needs
        opts = setup.analysis
        mono = an.MonotonicityPass(opts.eps_list, opts.tau_floor, opts.margin) if opts.eps_list else None
        levels = opts.levels if setup.problem.dimension == 1 else ()  # level curves are 1D only
        curves = [an.LevelCurve(level, opts.side) for level in levels]
        sign = an.GlobalSignPass(opts.margin) if an.global_sign_mismatch(setup.problem) is None else None
        passes = [p for p in (mono, *curves, sign) if p is not None]
        result = dict(zip(passes, an.read_once(traj, *passes)))

        cert_lines = ["hypothesis report", report.summary(), ""]
        if mono is not None:
            cert = result[mono]
            cert_lines.append(cert.to_text())
            write_csv(outdir / "inf_rhs.csv", ["t", "inf_rhs"], cert.inf_ut_curve)
            write_csv(outdir / "t_eps.csv", ["eps", "T_eps"], sorted(cert.T_eps.items()))
            written += ["inf_rhs.csv", "t_eps.csv"]
            metrics["tau_star"] = cert.tau_star_estimate
            finite = [v for v in cert.T_eps.values() if math.isfinite(v)]
            metrics["T_eps_min"] = min(finite) if finite else math.inf

        for k, curve in enumerate(curves):
            name = "level_pos.csv" if k == 0 else f"level_pos_{k + 1}.csv"
            write_csv(outdir / name, ["t", "level_pos"], result[curve])
            written.append(name)
            if opts.speed_window is not None:
                try:
                    speed = an.curve_speed(result[curve], opts.speed_window)
                    cert_lines.append(f"speed(level={curve.level:g}) = {speed:.6g}")
                    metrics.setdefault("speed", speed)
                except ValueError as exc:
                    cert_lines.append(f"speed(level={curve.level:g}) unavailable: {exc}")

        if sign is not None:
            cert_lines.append(f"global sign time tau_global = {result[sign].tau_global:g}")
            metrics["tau_global"] = result[sign].tau_global

        (outdir / "certificate.txt").write_text("\n".join(cert_lines) + "\n")
        written.append("certificate.txt")
        if then is not None:
            then(traj=traj, metrics=metrics)
    return traj, metrics, written


def _run_protocol(setup: RunSetup, traj: Trajectory, outdir: Path, metrics: dict) -> dict:
    """Run the treatment schedule on from the untreated ``traj``, write the two
    protocol CSVs and add the protocol's metrics to ``metrics``; returns it."""
    if setup.schedule is None:
        return metrics
    proto = tu.run_protocol(traj, setup.schedule)
    write_csv(outdir / "protocol.csv", *records(tu.ProtocolPoint, proto.series))
    write_csv(outdir / "protocol_events.csv", *records(tu.EventDiagnostics, proto.events))
    metrics.update(proto.metrics())
    return metrics


def _run_pipeline(setup: RunSetup, outdir: Path) -> dict:
    """Solve, certify, and write artifacts; returns headline metrics. The
    protocol runs while the writer child finishes trajectory.csv, so a writer
    failure is reported after the protocol's files are written."""
    return _run_untreated(setup, outdir, then=partial(_run_protocol, setup, outdir=outdir))[1]


def cmd_run(args) -> int:
    _run_pipeline(load_config(args.config), Path(args.out))
    print(f"artifacts written to {args.out}")
    return 0


def cmd_verify(args) -> int:
    outdir = Path(args.out) if args.out else None
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    results = run_suite(args.suite, outdir)
    print(f"verify {args.suite}: {time.perf_counter() - start:.3f} s", file=sys.stderr)
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 1


def _descend(node, key: str, dotted: str):
    if isinstance(node, list):
        if not key.lstrip("-").isdigit() or not -len(node) <= int(key) < len(node):
            raise SchemaError(f"axis path '{dotted}' does not name a config key.")
        return int(key)
    if not isinstance(node, dict) or key not in node:
        raise SchemaError(f"axis path '{dotted}' does not name a config key.")
    return key


def _set_path(data: dict, dotted: str, value) -> None:
    """Assign into a nested config; numeric path parts index lists, so the
    treatment factor of the first event is e.g. tumor.events.0.1."""
    keys = dotted.split(".")
    node = data
    for key in keys[:-1]:
        node = node[_descend(node, key, dotted)]
    last = _descend(node, keys[-1], dotted)
    if isinstance(node[last], bool) or not isinstance(node[last], (int, float)):
        raise SchemaError(f"axis path '{dotted}' targets a non-numeric key.")
    node[last] = value


def _describe(assignment) -> str:
    return ", ".join(f"{k}={v!r}" for k, v in assignment)


def _axis_column(dotted: str) -> str:
    last = dotted.split(".")[-1]
    return last if not last.lstrip("-").isdigit() else dotted.replace(".", "_")


def _point_data(data: dict, assignment) -> dict:
    """The config of one sweep point: the base config with its axis values."""
    data = copy.deepcopy(data)
    for dotted, value in assignment:
        _set_path(data, dotted, value)
    return data


def _point_dir(assignment) -> str:
    return "_".join(f"{_axis_column(k)}={v:g}" for k, v in assignment) or "single"


def _sweep_worker(payload) -> list[tuple[int, dict]]:
    """Run one chunk of sweep points that share everything but the tumor
    block: the untreated run once, into the first point's directory, copies
    of its files for the others, then each point's protocol from the shared
    trajectory, which marches each event schedule once for the points that
    differ only in sigma_img. Returns (index, row) per point."""
    data, chunk, outdir = payload
    traj = metrics = written = first = None
    rows = []
    for index, assignment in chunk:
        setup = parse_config(_point_data(data, assignment))
        pointdir = Path(outdir) / _point_dir(assignment)
        if traj is None:
            traj, metrics, written = _run_untreated(setup, pointdir)
            first = pointdir
        else:
            pointdir.mkdir(parents=True, exist_ok=True)
            for name in written:
                shutil.copyfile(first / name, pointdir / name)
        row = {_axis_column(k): v for k, v in assignment}
        row.update(_run_protocol(setup, traj, pointdir, dict(metrics)))
        rows.append((index, row))
    return rows


def _parse_axes(specs) -> list[tuple[str, list[float]]]:
    axes: list[tuple[str, list[float]]] = []
    columns: dict[str, str] = {}
    for spec in specs:
        if "=" not in spec:
            raise SchemaError(f"axis '{spec}' must look like key.path=v1,v2,...")
        dotted, _, values = spec.partition("=")
        column = _axis_column(dotted)
        if column in columns:
            raise SchemaError(
                f"axes '{columns[column]}' and '{dotted}' share the sweep.csv column '{column}'."
            )
        columns[column] = dotted
        parsed = []
        for tok in values.split(","):
            try:
                parsed.append(json.loads(tok))
            except json.JSONDecodeError as exc:
                raise SchemaError(f"axis value '{tok}' is not a number.") from exc
            if not isinstance(parsed[-1], (int, float)):
                raise SchemaError(f"axis value '{tok}' is not a number.")
        axes.append((dotted, parsed))
    return axes


def _chunks(groups: list[list[list]], workers: int) -> list[list]:
    """Each group, a list of schedule sub-groups of points, split into
    ceil(workers / groups) chunks that take the sub-groups in turn: one chunk
    per group unless there are fewer groups than workers. The points of one
    sub-group share their treated march, so they stay in one chunk."""
    split = math.ceil(workers / len(groups))
    chunks = ([p for sub in group[k::split] for p in sub] for group in groups for k in range(split))
    return [chunk for chunk in chunks if chunk]


def cmd_sweep(args) -> int:
    data = read_config(args.config)
    axes = _parse_axes(args.axis or [])
    assignments: list[tuple[tuple[str, float], ...]] = [()]
    for dotted, values in axes:
        assignments = [prev + ((dotted, v),) for prev in assignments for v in values]
    if args.jobs < 1:
        raise SchemaError(f"--jobs must be at least 1, got {args.jobs}.")
    groups: dict[str, dict[str, list]] = {}  # untreated config -> events -> points
    dirs: dict[str, tuple] = {}
    for index, assignment in enumerate(assignments):  # every point is checked before any runs
        point = _point_data(data, assignment)
        parse_config(point)
        name = _point_dir(assignment)
        if name in dirs:
            raise SchemaError(
                f"sweep points {_describe(dirs[name])} and {_describe(assignment)} "
                f"share the directory '{name}'."
            )
        dirs[name] = assignment
        untreated = json.dumps({k: v for k, v in point.items() if k != "tumor"}, sort_keys=True)
        events = json.dumps(point.get("tumor", {}).get("events"))
        groups.setdefault(untreated, {}).setdefault(events, []).append((index, assignment))

    chunks = _chunks([list(g.values()) for g in groups.values()], min(args.jobs, len(assignments)))
    payloads = [(data, chunk, args.out) for chunk in chunks]
    path, count = _run_sweep(payloads, min(args.jobs, len(payloads)), Path(args.out))
    print(f"sweep table written to {path} ({count} runs)")
    return 0


def _run_sweep(payloads: list, workers: int, outdir: Path) -> tuple[Path, int]:
    """Run the chunks on a pool of ``workers`` processes (in this process for
    one) and write sweep.csv, one row per point in point order; returns its
    path and the number of rows."""
    outdir.mkdir(parents=True, exist_ok=True)
    if workers > 1:
        with get_context("fork").Pool(processes=workers) as pool:
            done = pool.map(_sweep_worker, payloads)
    else:
        done = [_sweep_worker(pl) for pl in payloads]
    rows = [row for _, row in sorted((pair for chunk in done for pair in chunk), key=itemgetter(0))]

    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    table = [[row.get(c, math.nan) for c in columns] for row in rows]
    return write_csv(outdir / "sweep.csv", columns, table), len(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpplab",
        description="Reaction-diffusion laboratory: runs, verification suites, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured simulation")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="run a pinned verification suite")
    p_ver.add_argument("suite", choices=SUITES)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_sw = sub.add_parser("sweep", help="cross-product parameter sweep")
    p_sw.add_argument("--config", required=True)
    p_sw.add_argument("--axis", action="append", metavar="key.path=v1,v2,...")
    p_sw.add_argument("--out", default="out")
    p_sw.add_argument("--jobs", type=int, default=1)
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
