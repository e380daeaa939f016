"""Large-time monotonicity certificates extracted from trajectories.

The discrete time derivative is the stored rhs field (the PDE's right-hand
side at the snapshot), not a finite difference in t. Strict sign checks
exclude the far-field zero region (values below 1e-300) and a configurable
margin near the truncation boundary, where the Dirichlet wall pollutes the
sign of the discrete operator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .grids import GridFunction, level_crossings
from .kernels import HalfLineParams, sign_region_x, t0_threshold
from .solver import Trajectory, solve_linear_halfline

ORDER_TOL = 1e-10
ZERO_FLOOR = 1e-300
# Where 1-u underflows the rounding of the discrete operator, the sign of the
# rhs is as meaningless as in the sub-1e-300 zero region; such saturated cells
# are excluded from strict sign checks.
ONE_FLOOR = 1e-10


class LevelNotCrossedError(ValueError):
    """The snapshot does not cross the requested level on that side."""


class HypothesisMismatchError(ValueError):
    """Trajectory does not belong to the problem class the check covers."""


def level_position(snapshot: GridFunction, level: float, side: str = "right") -> float:
    """Outermost crossing of ``level`` with linear sub-cell interpolation."""
    if not 0 < level < 1:
        raise ValueError("level must lie in (0,1).")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'.")
    positions, _ = level_crossings(snapshot, level)
    if not positions.size:
        raise LevelNotCrossedError(f"no crossing of level {level} in the snapshot.")
    return float(positions[-1] if side == "right" else positions[0])


def spreading_speed(
    traj: Trajectory,
    level: float,
    window: tuple[float, float],
    side: str = "right",
) -> float:
    """Least-squares slope of the level position over the time window."""
    ts, xs = [], []
    for snap in traj:
        if window[0] - 1e-9 <= snap.t <= window[1] + 1e-9:
            try:
                xs.append(level_position(snap.u, level, side))
                ts.append(snap.t)
            except LevelNotCrossedError:
                continue
    if len(ts) < 5:
        raise ValueError(f"need >= 5 crossings in the window, found {len(ts)}.")
    slope = np.polyfit(ts, xs, 1)[0]
    return float(slope)


def level_curve(traj: Trajectory, level: float, side: str = "right") -> list[tuple[float, float]]:
    out = []
    for snap in traj:
        try:
            out.append((snap.t, level_position(snap.u, level, side)))
        except LevelNotCrossedError:
            continue
    return out


def _holds_from(ok: np.ndarray) -> Optional[int]:
    """First index from which ``ok`` holds at every later entry; None when
    the last entry fails."""
    hit = np.flatnonzero(np.logical_and.accumulate(ok[::-1])[::-1])
    return int(hit[0]) if hit.size else None


def find_T_monotone(traj: Trajectory, tol: float = ORDER_TOL) -> float:
    """Smallest snapshot shift T with u(1+t,.) >= u(1,.) - tol for every
    snapshot shift t >= T; +inf sentinel when no shift qualifies."""
    try:
        base = traj.snapshot_at(1.0)
    except KeyError:
        raise ValueError("find_T_monotone needs a snapshot at t=1 (request it in the config).")
    later = [s for s in traj if s.t > 1.0 + 1e-12]
    if not later:
        return math.inf
    ok = np.array([float(np.min(s.u.values - base.u.values)) >= -tol for s in later])
    i = _holds_from(ok)
    return math.inf if i is None else float(later[i].t - 1.0)


def estimate_tau_star(traj: Trajectory, t_floor: float, tol: float = ORDER_TOL) -> float:
    """Smallest comb shift tau with u(t+tau',.) >= u(t,.) - tol for every comb
    shift tau' >= tau and every comb time t >= t_floor; +inf sentinel."""
    comb = [s for s in traj if s.t >= t_floor - 1e-9]
    if len(comb) < 20:
        raise ValueError(f"time comb too coarse after t_floor: {len(comb)} < 20 snapshots.")
    times = np.array([s.t for s in comb])
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-6, atol=1e-9):
        raise ValueError("snapshots after t_floor must form a uniform comb.")
    delta = float(steps[0])
    fields = np.stack([s.u.values for s in comb])
    m = len(comb)
    ordered = np.empty(m, dtype=bool)
    ordered[0] = True
    for j in range(1, m):
        diff = fields[j:] - fields[: m - j]
        ordered[j] = bool(np.min(diff) >= -tol)
    j = _holds_from(ordered)
    return math.inf if j is None else float(max(j, 1) * delta)


@dataclass
class ClauseVerdict:
    passed: bool
    detail: str
    checked_times: tuple[float, ...]


@dataclass
class MonotonicityCertificate:
    """Certificate bundle for the large-time monotonicity statements."""

    T_mono: Optional[float]
    tau_star_estimate: Optional[float]
    T_eps: dict[float, float]
    inf_ut_curve: list[tuple[float, float]]
    verdicts: dict[str, ClauseVerdict]
    margin: float
    zero_floor: float

    def to_text(self) -> str:
        lines = ["monotonicity certificate"]
        lines.append(f"  boundary margin: {self.margin:g}   zero floor: {self.zero_floor:g}")
        if self.T_mono is not None:
            lines.append(f"  T_mono (shift past t=1): {self.T_mono:g}")
        if self.tau_star_estimate is not None:
            lines.append(f"  tau* comb estimate: {self.tau_star_estimate:g}")
        for eps in sorted(self.T_eps):
            lines.append(f"  T_eps({eps:g}) = {self.T_eps[eps]:g}")
        if self.inf_ut_curve:
            t_last, v_last = self.inf_ut_curve[-1]
            lines.append(f"  inf rhs at t={t_last:g}: {v_last:.6e}")
        for key in sorted(self.verdicts):
            v = self.verdicts[key]
            lines.append(f"  {key}: {'pass' if v.passed else 'FAIL'} ({v.detail})")
        return "\n".join(lines)


def _sign_masks(snap, margin: float, zero_floor: float, one_floor: float) -> np.ndarray:
    mask = snap.u.interior_mask(margin)
    return mask & (snap.u.values >= zero_floor) & (snap.u.values <= 1.0 - one_floor)


def monotonicity_report(
    traj: Trajectory,
    eps_list: Sequence[float],
    t_floor: Optional[float] = None,
    margin: float = 1.0,
    zero_floor: float = ZERO_FLOOR,
    one_floor: float = ONE_FLOOR,
    tail_tolerance: float = 1e-3,
) -> MonotonicityCertificate:
    """For each eps: first snapshot time after which rhs > 0 wherever
    u >= eps, verified on all later snapshots; plus the inf-rhs curve."""
    snaps = list(traj)
    if any(s.rhs is None for s in snaps):
        raise ValueError("trajectory snapshots carry no rhs fields.")
    times = np.array([s.t for s in snaps])

    # On the whole space inf_x u_t <= 0 for every t (u_t -> 0 at infinity), so
    # the truncated proxy includes that limit: the curve is the nonpositive
    # part of the masked minimum, 0 when the rhs is positive everywhere.
    inf_curve: list[tuple[float, float]] = []
    for s in snaps:
        m = _sign_masks(s, margin, zero_floor, one_floor)
        inf_curve.append((s.t, min(0.0, float(np.min(s.rhs.values[m]))) if m.any() else 0.0))

    verdicts: dict[str, ClauseVerdict] = {}
    T_eps: dict[float, float] = {}
    for eps in eps_list:
        ok = np.empty(len(snaps), dtype=bool)
        for i, s in enumerate(snaps):
            qualify = _sign_masks(s, margin, zero_floor, one_floor) & (s.u.values >= eps)
            ok[i] = bool(np.all(s.rhs.values[qualify] > 0.0)) if qualify.any() else True
        i = _holds_from(ok)
        T = math.inf if i is None else float(times[i])
        T_eps[float(eps)] = T
        verdicts[f"sign_above_{eps:g}"] = ClauseVerdict(
            passed=math.isfinite(T),
            detail=f"T_eps={T:g}" if math.isfinite(T) else "no qualifying time in the run",
            checked_times=tuple(float(t) for t in times),
        )

    tail = abs(inf_curve[-1][1])
    verdicts["inf_rhs_tail"] = ClauseVerdict(
        passed=tail <= tail_tolerance,
        detail=f"|inf rhs|({times[-1]:g}) = {tail:.3e} vs {tail_tolerance:g}",
        checked_times=(float(times[-1]),),
    )

    T_mono: Optional[float] = None
    try:
        T_mono = find_T_monotone(traj)
    except ValueError:
        pass
    tau_star: Optional[float] = None
    floor = t_floor if t_floor is not None else float(times[-1]) / 2.0
    try:
        tau_star = estimate_tau_star(traj, floor)
    except ValueError:
        pass

    return MonotonicityCertificate(
        T_mono=T_mono,
        tau_star_estimate=tau_star,
        T_eps=T_eps,
        inf_ut_curve=inf_curve,
        verdicts=verdicts,
        margin=margin,
        zero_floor=zero_floor,
    )


@dataclass
class GlobalSignCertificate:
    tau_global: float
    checked_times: tuple[float, ...]
    margin: float
    zero_floor: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.tau_global)


def global_sign_report(
    traj: Trajectory,
    margin: float = 1.0,
    zero_floor: float = ZERO_FLOOR,
    one_floor: float = ONE_FLOOR,
) -> GlobalSignCertificate:
    """Smallest snapshot time after which rhs > 0 at every cell above the
    zero floor (inside the reliable window), for all later snapshots.

    Only valid for the 1D class: reaction piecewise with linear pieces near 0
    and coefficient exactly constant for large |x|.
    """
    p = traj.problem
    if p.dimension != 1:
        raise HypothesisMismatchError("global sign certificate requires a 1D problem.")
    if not p.reaction.linear_near_zero:
        raise HypothesisMismatchError(
            "global sign certificate requires the piecewise reaction with linear pieces near 0."
        )
    if not p.coefficient.constant_at_infinity:
        raise HypothesisMismatchError(
            "global sign certificate requires a coefficient constant for large |x|."
        )
    snaps = list(traj)
    if any(s.rhs is None for s in snaps):
        raise ValueError("trajectory snapshots carry no rhs fields.")
    times = np.array([s.t for s in snaps])
    ok = np.empty(len(snaps), dtype=bool)
    for i, s in enumerate(snaps):
        m = _sign_masks(s, margin, zero_floor, one_floor)
        ok[i] = bool(np.all(s.rhs.values[m] > 0.0)) if m.any() else True
    i = _holds_from(ok)
    # t=0 carries the raw initial datum; the statement concerns t >= tau > 0
    hits = [] if i is None else [t for t in times[i:] if t > 1e-12]
    tau = float(hits[0]) if hits else math.inf
    return GlobalSignCertificate(
        tau_global=tau,
        checked_times=tuple(float(t) for t in times),
        margin=margin,
        zero_floor=zero_floor,
    )


def two_sided_t0(rate_minus: float, rate_plus: float) -> float:
    """Largest of the two half-line sign thresholds t0(lam±)."""
    return max(
        t0_threshold(HalfLineParams(1.0, rate_minus)),
        t0_threshold(HalfLineParams(1.0, rate_plus)),
    )


def harnack_shift_check(
    traj: Trajectory,
    T0: float,
    a_plus: float,
    a_minus: float,
    t_min: float = 1.0,
    floor: float = 1e-12,
) -> tuple[float, int]:
    """Empirical Harnack-type constant: smallest ratio
    u(t+T0, x±sqrt(8a±T0)) / u(t,x) over sampled snapshot pairs.

    T0 is rounded to the nearest snapshot spacing and the space shifts to
    whole cells. Returns (fitted C, number of sampled pairs).
    """
    snaps = [s for s in traj if s.t >= t_min - 1e-9]
    if len(snaps) < 2:
        raise ValueError("not enough snapshots past t_min.")
    times = np.array([s.t for s in snaps])
    h = snaps[0].u.h
    n = snaps[0].u.values.size
    shift_plus = int(round(math.sqrt(8.0 * a_plus * T0) / h))
    shift_minus = int(round(math.sqrt(8.0 * a_minus * T0) / h))
    c_fit = math.inf
    pairs = 0
    for i, s in enumerate(snaps):
        j = int(np.argmin(np.abs(times - (s.t + T0))))
        if j <= i or abs(times[j] - (s.t + T0)) > 0.51 * float(np.min(np.diff(times))):
            continue
        u_now = s.u.values
        u_later = snaps[j].u.values
        for shift, sign in ((shift_plus, +1), (shift_minus, -1)):
            if sign > 0:
                base = u_now[: n - shift]
                moved = u_later[shift:]
            else:
                base = u_now[shift:]
                moved = u_later[: n - shift]
            keep = base >= floor
            if keep.any():
                c_fit = min(c_fit, float(np.min(moved[keep] / base[keep])))
                pairs += 1
    if not math.isfinite(c_fit):
        raise ValueError("no usable snapshot pairs for the Harnack check.")
    return c_fit, pairs


@dataclass
class HalflineSignVerdict:
    passed: bool
    n_checked: int
    min_rhs: float
    violations: list[tuple[float, float, float]]  # (t, x, rhs)
    t0: float
    mirrored: bool = False


def halfline_sign_verify(
    pp: HalfLineParams,
    v0: GridFunction,
    g: Callable[[float], float],
    t_grid: Sequence[float],
    margin: float = 5.0,
    zero_floor: float = ZERO_FLOOR,
    mirrored: bool = False,
) -> HalflineSignVerdict:
    """Solve the half-line boundary value problem numerically and assert
    rhs > 0 at all sampled (t, x) with t >= t0 and x >= sqrt(8 a t), inside
    the reliable window (margin away from the truncation).

    ``mirrored=True`` runs the reflected problem on x <= 0 via x -> -x; the
    verdict is identical by the change of variable.
    """
    if np.min(v0.values) < 0:
        raise ValueError("v0 must be nonnegative.")
    if not np.any(v0.values > 0):
        raise ValueError("v0 must be nontrivial.")
    t_grid = sorted(float(t) for t in t_grid)
    t0 = t0_threshold(pp)
    gs = np.array([float(g(t)) for t in np.linspace(0.0, t_grid[-1], 256)])
    if np.min(gs) < -1e-12:
        raise ValueError("boundary trace g must be nonnegative.")
    if np.min(np.diff(gs)) < -1e-9:
        raise ValueError("boundary trace g must be nondecreasing.")

    sols = solve_linear_halfline(pp.a, pp.lam_lin, v0, g, t_grid)
    x = v0.axis(0)
    x_hi = x[-1] - margin
    n_checked = 0
    min_rhs = math.inf
    violations: list[tuple[float, float, float]] = []
    for t, v, rhs in sols:
        if t < t0 - 1e-12:
            continue
        region = (x >= sign_region_x(pp, t)) & (x <= x_hi) & (v.values >= zero_floor)
        region[0] = region[-1] = False
        vals = rhs.values[region]
        n_checked += int(vals.size)
        if vals.size:
            m = float(np.min(vals))
            min_rhs = min(min_rhs, m)
            if m <= 0:
                for xi, ri in zip(x[region][vals <= 0], vals[vals <= 0]):
                    violations.append((t, float(xi) * (-1 if mirrored else 1), float(ri)))
    if n_checked == 0:
        raise ValueError("no sample points fall in the guaranteed region.")
    return HalflineSignVerdict(
        passed=not violations,
        n_checked=n_checked,
        min_rhs=min_rhs,
        violations=violations,
        t0=t0,
        mirrored=mirrored,
    )
