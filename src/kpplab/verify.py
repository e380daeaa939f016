"""Self-contained verification suites with pinned configurations.

Each suite returns a list of CheckResult, one per criterion, with the
measured numbers in the detail string. The CLI prints one pass/fail line per
criterion; the acceptance test module asserts them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from . import analysis as an
from . import kernels as kn
from . import tumor as tu
from .csvio import write_csv
from .grids import Grid, GridFunction
from .model import Constant, Sine, homogeneous_kpp, piecewise_kpp_problem
from .solver import SolverConfig, fundamental_solution, solve, solve_linear_halfline

SUITES = (
    "theorem1",
    "theorem2",
    "green",
    "kernel-mono",
    "aronson",
    "tumor-jump",
    "prop91-scan",
)


@dataclass
class CheckResult:
    criterion: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.criterion}: {self.detail}"


@lru_cache(maxsize=None)
def invasion_bundle(h: float = 0.1):
    """The homogeneous KPP acceptance run and its certificate (cached)."""
    p = homogeneous_kpp(half_width=200.0)
    traj = solve(p, SolverConfig(h=h, t_final=80.0, snapshot_every=1.0))
    cert = an.monotonicity_report(traj, eps_list=(0.1,), t_floor=20.0)
    return p, traj, cert


def suite_invasion(outdir: Optional[Path] = None) -> list[CheckResult]:
    _, traj, cert = invasion_bundle(0.1)
    _, traj_f, cert_f = invasion_bundle(0.05)
    results = []

    speed = an.spreading_speed(traj, 0.5, (40.0, 80.0))
    results.append(
        CheckResult(
            "spreading-speed",
            abs(speed - 2.0) <= 0.1,
            f"fitted level-0.5 speed {speed:.4f} vs 2.0 +/- 0.1",
        )
    )

    T = cert.T_eps[0.1]
    ok_T = math.isfinite(T) and T <= 40.0
    T_f = cert_f.T_eps[0.1]
    comb = 1.0
    stable = math.isfinite(T_f) and abs(T_f - T) <= comb + 1e-9
    results.append(
        CheckResult(
            "sign-above-eps",
            ok_T and stable,
            f"T_eps(0.1) = {T:g} (<= 40), h/2 gives {T_f:g} (moves <= one comb step)",
        )
    )

    infs = dict(cert.inf_ut_curve)
    tail80, tail40 = abs(infs[80.0]), abs(infs[40.0])
    results.append(
        CheckResult(
            "inf-rhs-tail",
            tail80 <= 1e-3 and tail80 <= tail40 + 1e-300,
            f"|inf rhs|(80) = {tail80:.3e} <= 1e-3 and <= |inf rhs|(40) = {tail40:.3e}",
        )
    )

    T_mono, T_mono_f = cert.T_mono, cert_f.T_mono
    results.append(
        CheckResult(
            "T-monotone",
            T_mono is not None
            and math.isfinite(T_mono)
            and T_mono_f is not None
            and abs(T_mono_f - T_mono) <= comb + 1e-9,
            f"T_mono = {T_mono:g}, h/2 gives {T_mono_f:g} (stable within one snapshot)",
        )
    )

    if outdir is not None:
        write_csv(outdir / "inf_rhs.csv", ["t", "inf_rhs"], cert.inf_ut_curve)
        write_csv(
            outdir / "level_pos.csv",
            ["t", "level_pos"],
            an.level_curve(traj, 0.5),
        )
    return results


def suite_global_sign(outdir: Optional[Path] = None) -> list[CheckResult]:
    p = piecewise_kpp_problem(
        half_width=120.0, rate_minus=0.5, rate_plus=1.0, theta=0.3, a_minus=1.0, a_plus=1.0, radius=10.0
    )
    traj = solve(p, SolverConfig(h=0.1, t_final=40.0, snapshot_every=1.0))
    cert = an.global_sign_report(traj)
    results = [
        CheckResult(
            "global-sign-time",
            cert.passed,
            f"tau_global = {cert.tau_global:g}; rhs > 0 at every reliable cell afterwards",
        )
    ]
    T0 = an.two_sided_t0(0.5, 1.0)
    C, pairs = an.harnack_shift_check(traj, T0, 1.0, 1.0)
    results.append(
        CheckResult(
            "harnack-shift",
            C > 0,
            f"fitted shift constant C = {C:.4f} over {pairs} snapshot pairs (T0 = {T0:.4f})",
        )
    )
    return results


def _indicator_v0(length: float, h: float) -> GridFunction:
    grid = Grid.halfline(length, h)
    x = grid.axis(0)
    return GridFunction(np.where((x >= 1.0) & (x <= 2.0), 1.0, 0.0), h, (0.0,))


def suite_green(outdir: Optional[Path] = None) -> list[CheckResult]:
    pp = kn.HalfLineParams(a=1.0, lam_lin=1.0)
    v0 = _indicator_v0(30.0, 0.02)
    w = kn.halfline_quadrature(pp, v0, 0.5)
    (_, v, _), = solve_linear_halfline(1.0, 1.0, v0, lambda t: 0.0, [0.5])
    err = float(np.max(np.abs(w.values - v.values)) / np.max(np.abs(w.values)))
    return [
        CheckResult(
            "green-equivalence",
            err <= 1e-2,
            f"quadrature vs zero-boundary PDE solve: rel Linf error {err:.3e} <= 1e-2",
        )
    ]


def suite_kernel_mono(outdir: Optional[Path] = None) -> list[CheckResult]:
    results = []
    rep = kn.check_kernel_ratio(Constant(1.0), tau=4.0, sigma=0.8, keep_rows=outdir is not None)
    predicted = rep.constant_coeff_prediction
    exact = (
        rep.passed
        and abs(rep.min_ratio - predicted) <= 1e-3
        and abs(rep.argmin_x) <= 0.05 + 1e-12
    )
    results.append(
        CheckResult(
            "kernel-ratio-constant",
            exact,
            f"min ratio {rep.min_ratio:.6f} vs (tau/(tau+1))^(1/2) = {predicted:.6f} at x = {rep.argmin_x:g}",
        )
    )
    neg = kn.check_kernel_ratio(Constant(1.0), tau=1.0, sigma=0.99)
    results.append(
        CheckResult(
            "kernel-ratio-negative-control",
            not neg.passed,
            f"tau=1, sigma=0.99: min ratio {neg.min_ratio:.6f} < 0.99 fails as predicted",
        )
    )
    passing = []
    for amp in (0.05, 0.1, 0.2, 0.4):
        repa = kn.check_kernel_ratio(Sine(1.0, amp, 5.0), tau=4.0, sigma=0.8)
        if repa.passed:
            passing.append(amp)
    results.append(
        CheckResult(
            "kernel-ratio-variable",
            0.05 in passing,
            f"sine amplitudes passing at sigma=0.8, tau=4: {passing or 'none'} "
            f"(largest {max(passing) if passing else 'n/a'})",
        )
    )
    if outdir is not None and rep.rows:
        write_csv(outdir / "kernel_ratio.csv", ["tau", "sigma", "x", "ratio"], rep.rows)
    return results


def suite_aronson(outdir: Optional[Path] = None) -> list[CheckResult]:
    grid = Grid.centered(40.0, 0.05, 1)
    times = [0.5, 1.0, 2.0, 4.0]
    res = fundamental_solution(Sine(1.0, 0.5, 5.0), times, (0.0,), grid)
    fit = kn.fit_aronson_K(res.pairs(), res.source, x_max=10.0, floor=1e-12)
    results = [
        CheckResult(
            "aronson-sandwich",
            fit.K <= 50.0,
            f"sine coefficient: K = {fit.K:.3f} (<= 50) on t in {times}, |x| <= 10, "
            f"{fit.n_points} points; gaussian-normalized K = {fit.K_gaussian:.3f}",
        )
    ]
    res1 = fundamental_solution(Constant(1.0), times, (0.0,), grid)
    fit1 = kn.fit_aronson_K(res1.pairs(), res1.source, x_max=10.0, floor=1e-12)
    results.append(
        CheckResult(
            "aronson-exact-gaussian",
            abs(fit1.K_gaussian - 1.0) <= 0.05,
            f"constant D=1: gaussian-normalized K = {fit1.K_gaussian:.4f} (exact kernel -> 1); "
            f"literal-form K = {fit1.K:.3f}",
        )
    )
    return results


def suite_tumor_jump(outdir: Optional[Path] = None) -> list[CheckResult]:
    p = homogeneous_kpp(half_width=60.0)
    traj = solve(p, SolverConfig(h=0.1, t_final=5.0, snapshot_every=1.0))
    snap = traj.snapshot_at(5.0)
    worst = 0.0
    for beta in (0.3, 0.5, 0.8):
        _, mx = tu.jump_identity_residual(snap.u, snap.rhs, beta, p)
        worst = max(worst, mx)
    results = [
        CheckResult(
            "jump-identity",
            worst <= 1e-12,
            f"max |residual| over beta in (0.3,0.5,0.8) at t0=5: {worst:.3e} <= 1e-12",
        )
    ]

    p_wide = homogeneous_kpp(half_width=100.0)
    sched = tu.TreatmentSchedule(events=((20.0, 0.5),), sigma_img=0.3)
    cfg = SolverConfig(h=0.1, t_final=30.0, snapshot_every=0.5, boundary_leak_tolerance=1e-6)
    untreated = solve(p_wide, cfg)
    cert = an.monotonicity_report(untreated, eps_list=(0.3,), t_floor=10.0)
    T_eps = cert.T_eps[0.3]
    proto = tu.run_protocol(untreated, sched)
    ev = proto.events[0]
    after = [pt.S for pt in proto.series_after(20.0, 10)]
    nondec = all(b >= a - 1e-9 for a, b in zip(after, after[1:]))
    ok = (
        math.isfinite(T_eps)
        and ev.t0 > T_eps
        and ev.boundary_rhs_min > 0
        and not ev.grazing
        and len(after) == 10
        and nondec
    )
    results.append(
        CheckResult(
            "observed-size-implication",
            ok,
            f"event at t0=20 > T_eps = {T_eps:g}, boundary rhs min {ev.boundary_rhs_min:.4f} > 0, "
            f"S nondecreasing on next 10 comb points: {nondec}",
        )
    )
    if outdir is not None:
        write_csv(
            outdir / "protocol.csv",
            ["t", "S", "mass", "event_flag"],
            [(pt.t, pt.S, pt.mass, pt.event_flag) for pt in proto.series],
        )
    return results


def suite_halfline_scan(outdir: Optional[Path] = None) -> list[CheckResult]:
    scan = kn.scan_green_dt_region(keep_rows=outdir is not None)
    results = [
        CheckResult(
            "green-dt-region-scan",
            scan.passed,
            f"{scan.n_points} sampled points in the guaranteed region, "
            f"{scan.n_violations} sign violations (min G_t = {scan.min_value:.3e})",
        )
    ]
    t0 = kn.t0_threshold(kn.HalfLineParams(1.0, 1.0))
    results.append(
        CheckResult(
            "t0-threshold",
            abs(t0 - 2.0819767) <= 1e-6,
            f"t0(1) = {t0:.7f} vs 2.0819767 +/- 1e-6",
        )
    )

    pp = kn.HalfLineParams(1.0, 1.0)
    v0 = _indicator_v0(40.0, 0.05)
    t_grid = np.linspace(t0, 3 * t0, 12)
    verdict = an.halfline_sign_verify(pp, v0, lambda t: 1.0 - math.exp(-t), t_grid)
    results.append(
        CheckResult(
            "full-solution-sign",
            verdict.passed,
            f"numerical v with g(t)=1-exp(-t): rhs > 0 at all {verdict.n_checked} sampled "
            f"points in the region (min rhs {verdict.min_rhs:.3e})",
        )
    )
    if outdir is not None and scan.rows:
        write_csv(
            outdir / "green_scan.csv",
            ["a", "lambda", "t", "x", "y", "G", "G_t"],
            scan.rows,
        )
    return results


def run_suite(name: str, outdir: Optional[Path] = None) -> list[CheckResult]:
    table = {
        "theorem1": suite_invasion,
        "theorem2": suite_global_sign,
        "green": suite_green,
        "kernel-mono": suite_kernel_mono,
        "aronson": suite_aronson,
        "tumor-jump": suite_tumor_jump,
        "prop91-scan": suite_halfline_scan,
    }
    if name not in table:
        raise ValueError(f"unknown suite '{name}'; choose from {', '.join(SUITES)}.")
    return table[name](outdir)
