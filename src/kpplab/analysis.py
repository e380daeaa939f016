"""Large-time monotonicity certificates extracted from trajectories.

Each trajectory certificate is one pass over the snapshots: it reads any
iterable of them once, in time order, and keeps only what it needs (one
bool per snapshot, the inf-rhs curve, the t = 1 base of T_mono, u after
tau*'s floor, one level position per snapshot). :func:`read_once` feeds one
stream, such as :func:`kpplab.solver.march`, to several passes.

The discrete time derivative is the stored rhs field (the PDE's right-hand
side at the snapshot), not a finite difference in t. Strict sign checks
exclude the far-field zero region (values below 1e-300) and a configurable
margin near the truncation boundary, where the Dirichlet wall pollutes the
sign of the discrete operator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .grids import GridFunction, level_crossings
from .kernels import HalfLineParams, sign_region_x, t0_threshold
from .solver import SNAPSHOT_TOL, Snapshot, Trajectory, solve_linear_halfline

ORDER_TOL = 1e-10
ZERO_FLOOR = 1e-300
# Where 1-u underflows the rounding of the discrete operator, the sign of the
# rhs is as meaningless as in the sub-1e-300 zero region; such saturated cells
# are excluded from strict sign checks.
ONE_FLOOR = 1e-10
TAIL_TOL = 1e-3  # the inf-rhs curve must end within this of 0
HALFLINE_MARGIN = 5.0  # half-line sign checks stay this far from the truncation
HARNACK_T_MIN = 1.0  # first snapshot time of a Harnack pair
HARNACK_FLOOR = 1e-12  # smallest u(t,x) that enters a Harnack ratio


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


def read_once(snapshots: Iterable[Snapshot], *passes):
    """Feed each snapshot of ``snapshots``, read once and in time order, to
    every pass's ``add``; returns the passes' ``result()`` in order.

    A pass keeps only what its certificate needs, so a stream from
    :func:`kpplab.solver.march` is certified without keeping a trajectory.
    """
    for snap in snapshots:
        for p in passes:
            p.add(snap)
    return tuple(p.result() for p in passes)


class LevelCurve:
    """One pass: the outermost crossing of ``level`` per snapshot, as (t, x);
    snapshots that do not cross it are skipped."""

    def __init__(self, level: float, side: str = "right"):
        self.level, self.side = level, side
        self.points: list[tuple[float, float]] = []

    def add(self, snap: Snapshot) -> None:
        try:
            self.points.append((snap.t, level_position(snap.u, self.level, self.side)))
        except LevelNotCrossedError:
            pass

    def result(self) -> list[tuple[float, float]]:
        return self.points


def level_curve(
    traj: Iterable[Snapshot], level: float, side: str = "right"
) -> list[tuple[float, float]]:
    return read_once(traj, LevelCurve(level, side))[0]


def curve_speed(curve: Sequence[tuple[float, float]], window: tuple[float, float]) -> float:
    """Least-squares slope of a level curve over the time window."""
    lo, hi = window[0] - 1e-9, window[1] + 1e-9
    points = [(t, x) for t, x in curve if lo <= t <= hi]
    if len(points) < 5:
        raise ValueError(f"need >= 5 crossings in the window, found {len(points)}.")
    ts, xs = zip(*points)
    return float(np.polyfit(ts, xs, 1)[0])


def spreading_speed(
    traj: Iterable[Snapshot],
    level: float,
    window: tuple[float, float],
    side: str = "right",
) -> float:
    """Least-squares slope of the level curve over the time window."""
    return curve_speed(level_curve(traj, level, side), window)


def _holds_from(ok: np.ndarray) -> Optional[int]:
    """First index from which ``ok`` holds at every later entry; None when
    the last entry fails."""
    hit = np.flatnonzero(np.logical_and.accumulate(ok[::-1])[::-1])
    return int(hit[0]) if hit.size else None


def _settles_at(times: np.ndarray, ok: np.ndarray) -> float:
    """First time from which ``ok`` holds at every later entry; +inf sentinel."""
    i = _holds_from(ok)
    return math.inf if i is None else float(times[i])


class _ShiftPass:
    """One pass for T_mono: keeps the t = 1 snapshot's u and one bool per
    later snapshot."""

    def __init__(self) -> None:
        self.base: Optional[np.ndarray] = None
        self.times: list[float] = []
        self.ok: list[bool] = []

    def add(self, snap: Snapshot) -> None:
        if self.base is None and abs(snap.t - 1.0) <= SNAPSHOT_TOL:
            self.base = snap.u.values
        if self.base is not None and snap.t > 1.0 + 1e-12:
            self.times.append(snap.t)
            self.ok.append(float(np.min(snap.u.values - self.base)) >= -ORDER_TOL)

    def result(self) -> float:
        if self.base is None:
            raise ValueError("find_T_monotone needs a snapshot at t=1 (request it in the config).")
        if not self.times:
            return math.inf
        return _settles_at(np.array(self.times), np.array(self.ok)) - 1.0


def find_T_monotone(traj: Iterable[Snapshot]) -> float:
    """Smallest snapshot shift T with u(1+t,.) >= u(1,.) - ORDER_TOL for every
    snapshot shift t >= T; +inf sentinel when no shift qualifies."""
    return read_once(traj, _ShiftPass())[0]


class _CombPass:
    """One pass for tau*: keeps u of the snapshots at or after the floor, and
    for each of them one bool per later snapshot, min(u_later - u) >=
    -ORDER_TOL, taken when the later one arrives. Without ``t_floor`` the
    floor is half the last time seen, so a snapshot is dropped, with its
    bools, once it falls below half of the latest time."""

    def __init__(self, t_floor: Optional[float]):
        self.t_floor = t_floor
        self.kept: list[tuple[float, np.ndarray, list[bool]]] = []
        self.diff: Optional[np.ndarray] = None

    def add(self, snap: Snapshot) -> None:
        floor = self.t_floor if self.t_floor is not None else snap.t / 2.0
        while self.kept and self.kept[0][0] < floor - 1e-9:
            self.kept.pop(0)
        if snap.t < floor - 1e-9:
            return
        u = snap.u.values
        if self.diff is None:
            self.diff = np.empty_like(u)
        for _, earlier, ok in self.kept:
            np.subtract(u, earlier, out=self.diff)
            ok.append(bool(np.min(self.diff) >= -ORDER_TOL))
        self.kept.append((snap.t, u, []))

    def result(self) -> float:
        m = len(self.kept)
        if m < 20:
            raise ValueError(f"time comb too coarse after t_floor: {m} < 20 snapshots.")
        steps = np.diff([t for t, _, _ in self.kept])
        if not np.allclose(steps, steps[0], rtol=1e-6, atol=1e-9):
            raise ValueError("snapshots after t_floor must form a uniform comb.")
        # shift j holds when every pair j snapshots apart is ordered
        ordered = np.array(
            [True] + [all(ok[j - 1] for _, _, ok in self.kept[: m - j]) for j in range(1, m)]
        )
        j = _holds_from(ordered)
        return math.inf if j is None else float(max(j, 1) * steps[0])


def estimate_tau_star(traj: Iterable[Snapshot], t_floor: float) -> float:
    """Smallest comb shift tau with u(t+tau',.) >= u(t,.) - ORDER_TOL for every
    comb shift tau' >= tau and every comb time t >= t_floor; +inf sentinel."""
    return read_once(traj, _CombPass(t_floor))[0]


@dataclass
class ClauseVerdict:
    passed: bool
    detail: str


@dataclass
class MonotonicityCertificate:
    """Certificate bundle for the large-time monotonicity statements."""

    T_mono: Optional[float]
    tau_star_estimate: Optional[float]
    T_eps: dict[float, float]
    inf_ut_curve: list[tuple[float, float]]
    verdicts: dict[str, ClauseVerdict]
    margin: float

    def to_text(self) -> str:
        lines = ["monotonicity certificate"]
        lines.append(f"  boundary margin: {self.margin:g}   zero floor: {ZERO_FLOOR:g}")
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


def _reliable(snap: Snapshot, margin: float) -> np.ndarray:
    """Cells where the sign of the rhs means something: at least ``margin``
    from the truncation, above the zero floor and below the saturation floor."""
    u = snap.u.values
    return snap.u.interior_mask(margin) & (u >= ZERO_FLOOR) & (u <= 1.0 - ONE_FLOOR)


class _SignPass:
    """One pass for the sign certificates: per snapshot after ``t_after``,
    one bool per eps (rhs > 0 at every reliable cell with u >= eps, true
    when none qualifies) and the inf-rhs curve."""

    def __init__(self, eps_list: Sequence[float], margin: float, t_after: float = -math.inf):
        self.eps_list, self.margin, self.t_after = eps_list, margin, t_after
        self.times: list[float] = []
        self.ok: list[list[bool]] = []
        self.inf_curve: list[tuple[float, float]] = []

    def add(self, snap: Snapshot) -> None:
        if snap.rhs is None:
            raise ValueError("trajectory snapshots carry no rhs fields.")
        if snap.t <= self.t_after:
            return
        m = _reliable(snap, self.margin)
        rhs, u = snap.rhs.values, snap.u.values
        # On the whole space inf_x u_t <= 0 for every t (u_t -> 0 at infinity),
        # so the truncated proxy includes that limit: the curve is the
        # nonpositive part of the masked minimum, 0 when the rhs is positive.
        self.inf_curve.append((snap.t, min(0.0, float(np.min(rhs[m]))) if m.any() else 0.0))
        self.times.append(snap.t)
        self.ok.append([bool(np.all(rhs[m & (u >= eps)] > 0.0)) for eps in self.eps_list])

    def result(self) -> dict[float, float]:
        """T_eps per eps: the first time from which its bool holds for good."""
        times = np.array(self.times)
        ok = np.array(self.ok, dtype=bool).reshape(len(self.times), len(self.eps_list))
        return {float(eps): _settles_at(times, ok[:, k]) for k, eps in enumerate(self.eps_list)}


class MonotonicityPass:
    """One pass for :func:`monotonicity_report`: the sign bools and inf-rhs
    curve, the t = 1 base of T_mono and the comb of tau*."""

    def __init__(self, eps_list: Sequence[float], t_floor: Optional[float] = None, margin: float = 1.0):
        self.margin = margin
        self.signs = _SignPass(eps_list, margin)
        self.shift = _ShiftPass()
        self.comb = _CombPass(t_floor)

    def add(self, snap: Snapshot) -> None:
        self.signs.add(snap)
        self.shift.add(snap)
        self.comb.add(snap)

    def result(self) -> MonotonicityCertificate:
        verdicts: dict[str, ClauseVerdict] = {}
        T_eps = self.signs.result()
        for eps, T in T_eps.items():
            verdicts[f"sign_above_{eps:g}"] = ClauseVerdict(
                passed=math.isfinite(T),
                detail=f"T_eps={T:g}" if math.isfinite(T) else "no qualifying time in the run",
            )
        t_last, inf_last = self.signs.inf_curve[-1]
        tail = abs(inf_last)
        verdicts["inf_rhs_tail"] = ClauseVerdict(
            passed=tail <= TAIL_TOL,
            detail=f"|inf rhs|({t_last:g}) = {tail:.3e} vs {TAIL_TOL:g}",
        )
        return MonotonicityCertificate(
            T_mono=_or_none(self.shift.result),
            tau_star_estimate=_or_none(self.comb.result),
            T_eps=T_eps,
            inf_ut_curve=self.signs.inf_curve,
            verdicts=verdicts,
            margin=self.margin,
        )


def _or_none(result: Callable[[], float]) -> Optional[float]:
    try:
        return result()
    except ValueError:
        return None


def monotonicity_report(
    traj: Iterable[Snapshot],
    eps_list: Sequence[float],
    t_floor: Optional[float] = None,
    margin: float = 1.0,
) -> MonotonicityCertificate:
    """For each eps: first snapshot time after which rhs > 0 wherever
    u >= eps, verified on all later snapshots; plus the inf-rhs curve,
    T_mono and tau* (None where the run cannot give them; tau*'s floor
    defaults to half the last snapshot time)."""
    return read_once(traj, MonotonicityPass(eps_list, t_floor, margin))[0]


@dataclass
class GlobalSignCertificate:
    tau_global: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.tau_global)


def global_sign_mismatch(problem) -> Optional[str]:
    """Why the global sign certificate does not cover ``problem``, or None
    when it does: the 1D class with the reaction piecewise, linear near 0,
    and the coefficient exactly constant for large |x|."""
    if problem.dimension != 1:
        return "global sign certificate requires a 1D problem."
    if not problem.reaction.linear_near_zero:
        return "global sign certificate requires the piecewise reaction with linear pieces near 0."
    if not problem.coefficient.constant_at_infinity:
        return "global sign certificate requires a coefficient constant for large |x|."
    return None


class GlobalSignPass(_SignPass):
    """One pass for :func:`global_sign_report`: the sign test at eps = 0 on
    the snapshots after t = 0, which carries the raw initial datum (the
    statement concerns t >= tau > 0)."""

    def __init__(self, margin: float = 1.0):
        super().__init__((0.0,), margin, t_after=1e-12)

    def result(self) -> GlobalSignCertificate:
        return GlobalSignCertificate(tau_global=super().result()[0.0])


def global_sign_report(traj: Trajectory, margin: float = 1.0) -> GlobalSignCertificate:
    """Smallest positive snapshot time after which rhs > 0 at every reliable
    cell, for all later snapshots: the sign test of ``monotonicity_report``
    at eps = 0.

    Raises :class:`HypothesisMismatchError` outside the class of
    :func:`global_sign_mismatch`. ``traj`` is any iterable of snapshots with
    a ``problem`` attribute, read once.
    """
    reason = global_sign_mismatch(traj.problem)
    if reason is not None:
        raise HypothesisMismatchError(reason)
    return read_once(traj, GlobalSignPass(margin))[0]


def two_sided_t0(rate_minus: float, rate_plus: float) -> float:
    """Largest of the two half-line sign thresholds t0(lam±)."""
    return max(
        t0_threshold(HalfLineParams(1.0, rate_minus)),
        t0_threshold(HalfLineParams(1.0, rate_plus)),
    )


def harnack_shift_check(
    traj: Trajectory, T0: float, a_plus: float, a_minus: float
) -> tuple[float, int]:
    """Empirical Harnack-type constant: smallest ratio
    u(t+T0, x±sqrt(8a±T0)) / u(t,x) over sampled snapshot pairs.

    T0 is rounded to the nearest snapshot spacing and the space shifts to
    whole cells. Returns (fitted C, number of sampled pairs).
    """
    snaps = [s for s in traj if s.t >= HARNACK_T_MIN - 1e-9]
    if len(snaps) < 2:
        raise ValueError(f"not enough snapshots past t={HARNACK_T_MIN:g}.")
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
            keep = base >= HARNACK_FLOOR
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


def halfline_sign_verify(
    pp: HalfLineParams,
    v0: GridFunction,
    g: Callable[[float], float],
    t_grid: Sequence[float],
) -> HalflineSignVerdict:
    """Solve the half-line boundary value problem numerically and assert
    rhs > 0 at all sampled (t, x) with t >= t0 and x >= sqrt(8 a t), inside
    the reliable window (HALFLINE_MARGIN away from the truncation)."""
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
    x_hi = x[-1] - HALFLINE_MARGIN
    n_checked = 0
    min_rhs = math.inf
    for t, v, rhs in sols:
        if t < t0 - 1e-12:
            continue
        region = (x >= sign_region_x(pp, t)) & (x <= x_hi) & (v.values >= ZERO_FLOOR)
        region[0] = region[-1] = False
        vals = rhs.values[region]
        n_checked += int(vals.size)
        if vals.size:
            min_rhs = min(min_rhs, float(np.min(vals)))
    if n_checked == 0:
        raise ValueError("no sample points fall in the guaranteed region.")
    return HalflineSignVerdict(passed=min_rhs > 0, n_checked=n_checked, min_rhs=min_rhs)
