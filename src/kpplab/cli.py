"""Command-line front door: run simulations, verification suites, sweeps.

Exit codes: 0 success, 1 verification failure, 2 schema/usage error,
3 numerical abort.
"""
from __future__ import annotations

import argparse
import copy
import json
import math
import shutil
import sys
from itertools import product
from multiprocessing import get_context
from operator import itemgetter
from pathlib import Path

from . import analysis as an
from . import tumor as tu
from .config import RunSetup, SchemaError, load_config, parse_config, read_config
from .csvio import FLOAT, fmt, open_csv, write_csv
from .model import validate_problem
from .solver import NumericalError, Trajectory, solve
from .verify import SUITES, run_suite


def _write_trajectory(traj, outdir: Path) -> None:
    """Write trajectory.csv one snapshot at a time, rows ordered by t, then x (then y)."""
    axes = ["x"] if traj.problem.dimension == 1 else ["x", "y"]
    coords = None
    with open_csv(outdir / "trajectory.csv", ["t", *axes, "u", "rhs"]) as fh:
        for snap in traj:
            if coords is None:
                # Every snapshot is on the same grid, so its axes are formatted once;
                # product() gives the 2D cells in i-major, j-minor order, as ravel() does.
                strings = [[FLOAT % v for v in snap.u.axis(k).tolist()] for k in range(len(axes))]
                coords = [",".join(c) for c in product(*strings)]
            row = f"{fmt(snap.t)},%s,{FLOAT},{FLOAT}\n"
            cells = zip(coords, snap.u.values.ravel().tolist(), snap.rhs.values.ravel().tolist())
            fh.write("".join(map(row.__mod__, cells)))


def _run_untreated(setup: RunSetup, outdir: Path) -> tuple[Trajectory, dict, list[str]]:
    """Solve and certify the untreated run and write its artifacts; returns the
    trajectory, its headline metrics and the names of the files written."""
    outdir.mkdir(parents=True, exist_ok=True)
    metrics: dict = {}
    report = validate_problem(setup.problem)
    if setup.validate and not report.all_pass:
        raise NumericalError("problem fails hypothesis validation:\n" + report.summary())

    traj = solve(setup.problem, setup.solver, validate=False)
    _write_trajectory(traj, outdir)
    written = ["trajectory.csv"]

    cert_lines = ["hypothesis report", report.summary(), ""]
    opts = setup.analysis
    if opts.eps_list:
        cert = an.monotonicity_report(
            traj, opts.eps_list, t_floor=opts.tau_floor, margin=opts.margin
        )
        cert_lines.append(cert.to_text())
        write_csv(outdir / "inf_rhs.csv", ["t", "inf_rhs"], cert.inf_ut_curve)
        write_csv(
            outdir / "t_eps.csv",
            ["eps", "T_eps"],
            sorted(cert.T_eps.items()),
        )
        written += ["inf_rhs.csv", "t_eps.csv"]
        metrics["tau_star"] = cert.tau_star_estimate
        finite = [v for v in cert.T_eps.values() if math.isfinite(v)]
        metrics["T_eps_min"] = min(finite) if finite else math.inf

    if setup.problem.dimension == 1 and opts.levels:
        for k, level in enumerate(opts.levels):
            curve = an.level_curve(traj, level, opts.side)
            name = "level_pos.csv" if k == 0 else f"level_pos_{k + 1}.csv"
            write_csv(outdir / name, ["t", "level_pos"], curve)
            written.append(name)
            if opts.speed_window is not None:
                try:
                    speed = an.spreading_speed(traj, level, opts.speed_window, opts.side)
                    cert_lines.append(f"speed(level={level:g}) = {speed:.6g}")
                    metrics.setdefault("speed", speed)
                except ValueError as exc:
                    cert_lines.append(f"speed(level={level:g}) unavailable: {exc}")

    try:
        cert2 = an.global_sign_report(traj, margin=opts.margin)
        cert_lines.append(f"global sign time tau_global = {cert2.tau_global:g}")
        metrics["tau_global"] = cert2.tau_global
    except an.HypothesisMismatchError:
        pass

    (outdir / "certificate.txt").write_text("\n".join(cert_lines) + "\n")
    written.append("certificate.txt")
    return traj, metrics, written


def _run_protocol(setup: RunSetup, traj: Trajectory, outdir: Path, metrics: dict) -> dict:
    """Run the treatment schedule on from the untreated ``traj``, write the two
    protocol CSVs and add the protocol's metrics to ``metrics``; returns it."""
    if setup.schedule is None:
        return metrics
    proto = tu.run_protocol(traj, setup.schedule)
    write_csv(
        outdir / "protocol.csv",
        ["t", "S", "mass", "event_flag"],
        [(pt.t, pt.S, pt.mass, pt.event_flag) for pt in proto.series],
    )
    write_csv(
        outdir / "protocol_events.csv",
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
                setup.schedule.sigma_img,
                ev.S_before,
                ev.S_after,
                ev.mass_before,
                ev.mass_after,
                ev.boundary_rhs_min,
                ev.dS_sign_next,
                ev.dmass_sign_next,
                int(ev.grazing),
            )
            for ev in proto.events
        ],
    )
    if proto.events:
        ev = proto.events[0]
        metrics.update(
            beta=ev.beta,
            sigma=setup.schedule.sigma_img,
            t0=ev.t0,
            dS_sign=ev.dS_sign_next,
            dmass_sign=ev.dmass_sign_next,
            boundary_rhs_min=ev.boundary_rhs_min,
        )
    metrics["S_final"] = proto.series[-1].S
    metrics["mass_final"] = proto.series[-1].mass
    return metrics


def _run_pipeline(setup: RunSetup, outdir: Path) -> dict:
    """Solve, certify, and write artifacts; returns headline metrics."""
    traj, metrics, _ = _run_untreated(setup, outdir)
    return _run_protocol(setup, traj, outdir, metrics)


def cmd_run(args) -> int:
    try:
        setup = load_config(args.config)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        _run_pipeline(setup, Path(args.out))
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    print(f"artifacts written to {args.out}")
    return 0


def cmd_verify(args) -> int:
    outdir = Path(args.out) if args.out else None
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
    results = run_suite(args.suite, outdir)
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
    trajectory. Returns (index, row) per point."""
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


def _chunks(groups: list[list], workers: int) -> list[list]:
    """Each group split into ceil(workers / groups) strided chunks: one chunk
    per group unless there are fewer groups than workers."""
    split = math.ceil(workers / len(groups))
    return [chunk for group in groups for chunk in (group[k::split] for k in range(split)) if chunk]


def cmd_sweep(args) -> int:
    try:
        data = read_config(args.config)
        axes = _parse_axes(args.axis or [])
        assignments: list[tuple[tuple[str, float], ...]] = [()]
        for dotted, values in axes:
            assignments = [prev + ((dotted, v),) for prev in assignments for v in values]
        if args.jobs < 1:
            raise SchemaError(f"--jobs must be at least 1, got {args.jobs}.")
        groups: dict[str, list] = {}
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
            groups.setdefault(untreated, []).append((index, assignment))
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    chunks = _chunks(list(groups.values()), min(args.jobs, len(assignments)))
    payloads = [(data, chunk, str(outdir)) for chunk in chunks]
    workers = min(args.jobs, len(payloads))
    try:
        if workers > 1:
            with get_context("fork").Pool(processes=workers) as pool:
                done = pool.map(_sweep_worker, payloads)
        else:
            done = [_sweep_worker(pl) for pl in payloads]
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    rows = [row for _, row in sorted((pair for chunk in done for pair in chunk), key=itemgetter(0))]

    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    table = [[row.get(c, math.nan) for c in columns] for row in rows]
    path = write_csv(outdir / "sweep.csv", columns, table)
    print(f"sweep table written to {path} ({len(rows)} runs)")
    return 0


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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
