"""Output checks: every unit the benchmark times is checked here, and a unit
with any problem counts as failed.

- ``run``: the fitted speed is within 5% of 2*sqrt(a*rate) on the far-field
  coefficient and rate; T_eps is finite for every requested eps, and
  tau_global is finite for the piecewise reaction.
- ``trajectory.csv``: right header, snapshots x cells rows, u in [0, 1].
- tumor: the jump identity rhs(beta u) = beta rhs(u) + rate beta (1-beta) u^2
  holds to 1e-12 on the written snapshot before the first event, and S does
  not decrease on the comb after each event.
- ``verify``: every criterion line is a PASS.
- ``sweep``: ``sweep.csv`` has one row per point of the cross product with
  a finite S_final, and every point's trajectory and protocol pass the
  checks above (the jump identity is checked on the ``run`` workloads only,
  because a point's rate and beta are not in its own artifacts).
"""
from __future__ import annotations

import csv
import math
import re
from pathlib import Path

import numpy as np

SPEED_TOL = 0.05
JUMP_TOL = 1e-12
S_TOL = 1e-9


def _far_field(problem) -> tuple[float, float]:
    """Diffusivity and rate seen by the right-moving front."""
    coeff, reaction = problem.coefficient, problem.reaction
    a = coeff.value if coeff.kind == "constant" else coeff.a_plus
    rate = reaction.rate if reaction.kind == "logistic" else reaction.rate_plus
    return a, rate


def _snapshot_count(cfg) -> int:
    """t=0 plus one snapshot every ``snapshot_every`` (all benchmark configs
    use ``snapshot_every``)."""
    return int(math.floor(cfg.t_final / cfg.snapshot_every + 1e-9)) + 1


def read_trajectory(path: Path, setup) -> tuple[list[str], np.ndarray]:
    """Problems with ``trajectory.csv`` and its rows as an array."""
    problems = []
    dim = setup.problem.dimension
    header = "t,x,u,rhs" if dim == 1 else "t,x,y,u,rhs"
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            return [f"{path.name}: header {first!r}, expected {header!r}"], np.empty((0, dim + 3))
        try:
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            return [f"{path.name}: unreadable rows ({exc})"], np.empty((0, dim + 3))
    n_axis = int(round(2 * setup.problem.half_width / setup.solver.h)) + 1
    n_snap = _snapshot_count(setup.solver)
    expected = n_snap * n_axis**dim
    if rows.shape != (expected, dim + 3) or np.unique(rows[:, 0]).size != n_snap:
        problems.append(
            f"{path.name}: shape {rows.shape}, expected {n_snap} snapshots x {n_axis**dim} cells"
        )
        return problems, rows
    u = rows[:, dim + 1]
    if not (np.all(np.isfinite(u)) and u.min() >= 0.0 and u.max() <= 1.0):
        problems.append(f"{path.name}: u leaves [0, 1] (range {u.min():.3g}..{u.max():.3g})")
    return problems, rows


def _jump_identity(rows: np.ndarray, setup) -> list[str]:
    from kpplab.grids import GridFunction
    from kpplab.solver import discrete_rhs

    p, dim = setup.problem, setup.problem.dimension
    t0, beta = setup.schedule.events[0]
    times = np.unique(rows[:, 0])
    before = times[times <= t0 + 1e-12]
    sel = rows[rows[:, 0] == before[-1]]
    n_axis = int(round(2 * p.half_width / setup.solver.h)) + 1
    shape = (n_axis,) * dim
    u = sel[:, dim + 1].reshape(shape)
    rhs = sel[:, dim + 2].reshape(shape)
    origin = (-p.half_width,) * dim
    after = discrete_rhs(GridFunction(beta * u, setup.solver.h, origin), p).values
    worst = float(np.max(np.abs(after - (beta * rhs + p.reaction.rate * beta * (1 - beta) * u**2))))
    if not worst <= JUMP_TOL:
        return [f"jump identity residual {worst:.3e} > {JUMP_TOL:g} at t={before[-1]:g}"]
    return []


def _read_table(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _protocol(outdir: Path, setup) -> list[str]:
    rows = _read_table(outdir / "protocol.csv")
    events = _read_table(outdir / "protocol_events.csv")
    problems = []
    if len(events) != len(setup.schedule.events):
        problems.append(f"protocol_events.csv: {len(events)} events, expected {len(setup.schedule.events)}")
    bounds = [t for t, _ in setup.schedule.events] + [math.inf]
    for t0, t1 in zip(bounds, bounds[1:]):
        comb = [r for r in rows if t0 + 1e-12 < float(r["t"]) < t1 + 1e-12 and r["event_flag"] == "0"]
        post = [r for r in rows if abs(float(r["t"]) - t0) <= 1e-12 and r["event_flag"] == "1"]
        sizes = [float(r["S"]) for r in post + comb]
        if not comb or not post:
            problems.append(f"protocol.csv: no rows after the event at t={t0:g}")
        elif any(b < a - S_TOL for a, b in zip(sizes, sizes[1:])):
            problems.append(f"protocol.csv: S decreases after the event at t={t0:g}")
    return problems


def _certificate(outdir: Path, setup) -> list[str]:
    problems = []
    text = (outdir / "certificate.txt").read_text()
    opts = setup.analysis
    if setup.problem.dimension == 1 and opts.levels and opts.speed_window is not None:
        speeds = re.findall(r"^speed\(level=[^)]*\) = (\S+)$", text, re.M)
        a, rate = _far_field(setup.problem)
        target = 2.0 * math.sqrt(a * rate)
        if not speeds:
            problems.append("certificate.txt: no fitted speed")
        for s in speeds:
            if not abs(float(s) / target - 1.0) <= SPEED_TOL:
                problems.append(f"speed {s} not within {SPEED_TOL:.0%} of {target:.6g}")
    if opts.eps_list:
        t_eps = _read_table(outdir / "t_eps.csv")
        if len(t_eps) != len(opts.eps_list) or not all(math.isfinite(float(r["T_eps"])) for r in t_eps):
            problems.append(f"t_eps.csv: T_eps not finite for every eps ({t_eps})")
    if setup.problem.dimension == 1 and setup.problem.reaction.kind == "piecewise-kpp":
        tau = re.findall(r"^global sign time tau_global = (\S+)$", text, re.M)
        if not (tau and math.isfinite(float(tau[0]))):
            problems.append(f"certificate.txt: tau_global not finite ({tau})")
    return problems


def check_run(outdir: Path, setup, jump: bool = True) -> list[str]:
    """Problems with the artifacts of one ``kpplab run`` (or sweep point)."""
    problems, rows = read_trajectory(outdir / "trajectory.csv", setup)
    problems += _certificate(outdir, setup)
    if setup.schedule is not None:
        problems += _protocol(outdir, setup)
        if jump and not problems and setup.problem.reaction.kind == "logistic":
            problems += _jump_identity(rows, setup)
    return problems


def check_sweep(outdir: Path, setup, axes) -> list[str]:
    """Problems with a sweep's table and every point's artifacts; ``setup``
    is the base config, whose grid and event times every point shares."""
    rows = _read_table(outdir / "sweep.csv")
    n_points = math.prod(len(vals) for _, vals in axes)
    problems = []
    if len(rows) != n_points or not all(math.isfinite(float(r["S_final"])) for r in rows):
        problems.append(f"sweep.csv: {len(rows)} rows, expected {n_points} with finite S_final")
    dirs = sorted(p for p in outdir.iterdir() if p.is_dir())
    if len(dirs) != n_points:
        problems.append(f"{len(dirs)} point directories, expected {n_points}")
    for d in dirs:
        problems += [f"{d.name}: {p}" for p in check_run(d, setup, jump=False)]
    return problems


def check_verify(stdout: str) -> list[str]:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        return ["no criterion lines"]
    return [f"not a PASS: {ln}" for ln in lines if not ln.startswith("PASS")]
