"""Imaging-threshold tumor model: multiplicative treatments, observed size,
total mass, and the post-treatment derivative jump identity.

A treatment at time t0 replaces the density by beta*density; imaging reports
the measure of the super-level set {u > sigma}. The jump identity
rhs(beta*u) = beta*rhs(u) + rate*beta*(1-beta)*u^2 is algebraic in the
discrete system as well (linear diffusion, logistic nonlinearity).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grids import GridFunction, assert_same_grid, level_crossings
from .model import Logistic, Problem
from .solver import Snapshot, Trajectory, discrete_rhs, solve

GRAZING_SLOPE = 1e-10
SUBCELLS = 8  # midpoint samples per axis of a 2D cell that the level set cuts


@dataclass(frozen=True)
class TreatmentSchedule:
    """Ordered multiplicative treatment events plus the imaging threshold."""

    events: tuple[tuple[float, float], ...]
    sigma_img: float

    def __post_init__(self) -> None:
        if not 0 < self.sigma_img < 1:
            raise ValueError("sigma_img must lie in (0,1).")
        ts = [t for t, _ in self.events]
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("event times must be strictly increasing.")
        if any(not 0 < b < 1 for _, b in self.events):
            raise ValueError("every treatment factor must lie in (0,1).")


def apply_treatment(state: GridFunction, beta: float) -> GridFunction:
    """Instantaneous multiplicative dose: pointwise state * beta."""
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0,1).")
    return state.with_values(state.values * beta)


def _observed_size_1d(values: np.ndarray, sigma: float, h: float) -> float:
    above = values > sigma
    lo = values[:-1]
    hi = values[1:]
    both = above[:-1] & above[1:]
    mixed = above[:-1] ^ above[1:]
    size = float(np.count_nonzero(both)) * h
    if mixed.any():
        top = np.maximum(lo[mixed], hi[mixed])
        bot = np.minimum(lo[mixed], hi[mixed])
        size += float(np.sum((top - sigma) / (top - bot))) * h
    return size


def _observed_size_2d(values: np.ndarray, sigma: float, h: float) -> float:
    above = values > sigma
    c00 = above[:-1, :-1]
    c10 = above[1:, :-1]
    c01 = above[:-1, 1:]
    c11 = above[1:, 1:]
    count = (
        c00.astype(int) + c10.astype(int) + c01.astype(int) + c11.astype(int)
    )
    size = float(np.count_nonzero(count == 4)) * h * h
    mixed = (count > 0) & (count < 4)
    if mixed.any():
        # fraction above sigma of the bilinear interpolant, midpoint-sampled
        ii, jj = np.nonzero(mixed)
        s = (np.arange(SUBCELLS) + 0.5) / SUBCELLS
        S, T = np.meshgrid(s, s, indexing="ij")
        v00 = values[ii, jj][:, None, None]
        v10 = values[ii + 1, jj][:, None, None]
        v01 = values[ii, jj + 1][:, None, None]
        v11 = values[ii + 1, jj + 1][:, None, None]
        bil = (
            v00 * (1 - S) * (1 - T)
            + v10 * S * (1 - T)
            + v01 * (1 - S) * T
            + v11 * S * T
        )
        frac = np.mean(bil > sigma, axis=(1, 2))
        size += float(np.sum(frac)) * h * h
    return size


def observed_size(state: GridFunction, sigma_img: float) -> float:
    """Measure of the super-level set {u > sigma}: length in 1D (linear
    sub-cell interpolation at crossings), area in 2D (bilinear cell
    fractions). Empty set gives 0."""
    if not 0 < sigma_img < 1:
        raise ValueError("sigma_img must lie in (0,1).")
    if not np.all(np.isfinite(state.values)):
        raise ValueError("state must be finite.")
    if state.dim == 1:
        return _observed_size_1d(state.values, sigma_img, state.h)
    return _observed_size_2d(state.values, sigma_img, state.h)


def total_mass(state: GridFunction) -> float:
    """Trapezoid integral of the density over the truncated domain."""
    v = state.values
    if state.dim == 1:
        w = np.ones(v.shape[0])
        w[0] = w[-1] = 0.5
        return float(np.sum(w * v) * state.h)
    wx = np.ones(v.shape[0])
    wx[0] = wx[-1] = 0.5
    wy = np.ones(v.shape[1])
    wy[0] = wy[-1] = 0.5
    return float(wx @ v @ wy * state.h**2)


def sigma_crossings(state: GridFunction, sigma: float) -> tuple[np.ndarray, bool]:
    """Interpolated positions of the boundary of {u > sigma} in 1D, plus a
    grazing flag when a crossing cell is nearly flat (ill-conditioned)."""
    pos, rise = level_crossings(state, sigma)
    return pos, bool(np.any(np.abs(rise) < GRAZING_SLOPE))


def _interp_at(state: GridFunction, positions: np.ndarray) -> np.ndarray:
    x = state.axis(0)
    return np.interp(positions, x, state.values)


@dataclass(kw_only=True)
class EventDiagnostics:
    """One-sided diagnostics of one treatment event: a row of
    protocol_events.csv, whose columns are these fields in this order."""

    t0: float
    beta: float
    sigma: float  # the imaging threshold
    S_before: float
    S_after: float
    mass_before: float
    mass_after: float
    boundary_rhs_min: float  # min post-treatment rhs on the new boundary; nan without one
    dS_sign: int = 0  # signs of the change to the next comb point; 0 without one
    dmass_sign: int = 0
    grazing: bool


@dataclass
class ProtocolPoint:
    """Observed size and mass at one time: a row of protocol.csv, whose
    columns are these fields in this order. event_flag is 1 on the
    post-treatment row at an event time."""

    t: float
    S: float
    mass: float
    event_flag: int


# The sweep.csv columns taken from a protocol's first event, in sweep.csv order.
SWEEP_EVENT_FIELDS = ("beta", "sigma", "t0", "dS_sign", "dmass_sign", "boundary_rhs_min")


@dataclass
class ProtocolResult:
    series: list[ProtocolPoint]
    events: list[EventDiagnostics]

    def series_after(self, t0: float, n: int) -> list[ProtocolPoint]:
        """The first n comb points strictly after t0 (post-event rows excluded)."""
        rows = [p for p in self.series if p.t > t0 + 1e-12 and p.event_flag == 0]
        return rows[:n]

    def metrics(self) -> dict:
        """The protocol's sweep.csv columns: the SWEEP_EVENT_FIELDS of the
        first event, if there is one, then S and mass of the last row."""
        out = {name: getattr(ev, name) for ev in self.events[:1] for name in SWEEP_EVENT_FIELDS}
        out.update(S_final=self.series[-1].S, mass_final=self.series[-1].mass)
        return out


def _continue(
    traj: Trajectory, events: tuple[tuple[float, float], ...], start: Snapshot, t_end: float
) -> tuple[GridFunction, list[Snapshot]]:
    """The run continued from ``start`` on the comb of ``traj`` up to and
    including t_end: the rhs at ``start`` and the snapshots after it.

    ``start`` is the state that ``traj`` reaches through ``events``, so the
    segment depends only on them and on t_end: it is solved once and kept on
    ``traj``, and protocols that share the events (those that differ only in
    sigma_img) read the same snapshots."""
    key = (events, t_end)
    if key not in traj.continued:
        cfg = traj.config
        comb = tuple(cfg.resolved_snapshot_times())
        seg_cfg = replace(cfg, t_final=t_end, snapshot_every=None, snapshot_times=(*comb, t_end))
        first, *after = solve(traj.problem, seg_cfg, validate=False, start=start).snapshots
        traj.continued[key] = first.rhs, after
    return traj.continued[key]


def run_protocol(traj: Trajectory, sched: TreatmentSchedule) -> ProtocolResult:
    """Continue an untreated run with multiplicative jumps at the scheduled events.

    ``traj`` is the untreated run; its snapshots are the rows up to the first
    event, and the march resumes from its last snapshot at or before it.
    Event times are inserted into the snapshot comb exactly; the series holds
    one row per comb time plus a flagged post-event row at each event.
    Boundary diagnostics interpolate the post-treatment rhs, which the
    treated segment's solve computes at its start, at the sigma-crossings of
    the post-treatment state. The treated segments are kept on ``traj``, so
    schedules that share their events march once.
    """
    t_final = traj.config.t_final
    if any(not 0 < t < t_final for t, _ in sched.events):
        raise ValueError("every event must fall strictly inside (0, t_final).")
    sigma = sched.sigma_img

    def row(snap: Snapshot, event_flag: int = 0) -> ProtocolPoint:
        return ProtocolPoint(
            t=snap.t, S=observed_size(snap.u, sigma), mass=total_mass(snap.u), event_flag=event_flag
        )

    t_first = sched.events[0][0] if sched.events else t_final
    snaps = [s for s in traj if s.t <= t_first + 1e-12]
    if snaps[-1].t < t_first - 1e-12:  # the first event falls between comb points
        snaps += _continue(traj, (), snaps[-1], t_first)[1]
    series = [row(s) for s in snaps]
    events: list[EventDiagnostics] = []
    ends = [t for t, _ in sched.events[1:]] + [t_final]
    for k, ((t0, beta), t_end) in enumerate(zip(sched.events, ends)):
        pre = snaps[-1]
        post_u = apply_treatment(pre.u, beta)
        post = Snapshot(t0, post_u)
        post_rhs, snaps = _continue(traj, sched.events[: k + 1], post, t_end)
        crossings, grazing = sigma_crossings(post_u, sigma) if post_u.dim == 1 else (np.array([]), False)
        if post_u.dim == 1 and crossings.size:
            boundary_rhs_min = float(np.min(_interp_at(post_rhs, crossings)))
        else:
            boundary_rhs_min = math.nan
        series.append(row(post, event_flag=1))
        events.append(
            EventDiagnostics(
                t0=t0,
                beta=beta,
                sigma=sigma,
                S_before=observed_size(pre.u, sigma),
                S_after=series[-1].S,
                mass_before=total_mass(pre.u),
                mass_after=series[-1].mass,
                boundary_rhs_min=boundary_rhs_min,
                grazing=grazing,
            )
        )
        series += [row(s) for s in snaps]

    for ev in events:
        nxt = [p_ for p_ in series if p_.t > ev.t0 + 1e-12 and p_.event_flag == 0]
        if nxt:
            ev.dS_sign = int(np.sign(nxt[0].S - ev.S_after))
            ev.dmass_sign = int(np.sign(nxt[0].mass - ev.mass_after))
    return ProtocolResult(series=series, events=events)


def jump_identity_residual(
    state_before: GridFunction,
    rhs_before: GridFunction,
    beta: float,
    p: Problem,
) -> tuple[GridFunction, float]:
    """Residual of the treatment jump identity, computed with the discrete
    operator:  rhs(beta u) - [beta rhs(u) + rate beta (1-beta) u^2].

    Exact (to rounding) for logistic reactions; raises for any other kind.
    """
    if not isinstance(p.reaction, Logistic):
        raise ValueError("jump identity is derived for the logistic reaction only.")
    if not 0 < beta <= 1:
        raise ValueError("beta must lie in (0,1].")
    assert_same_grid(state_before, rhs_before)
    rate = p.reaction.rate
    rhs_after = discrete_rhs(apply_treatment(state_before, beta) if beta < 1 else state_before, p)
    expected = beta * rhs_before.values + rate * beta * (1.0 - beta) * state_before.values**2
    residual = rhs_after.values - expected
    return state_before.with_values(residual), float(np.max(np.abs(residual)))
