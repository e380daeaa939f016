"""The certificate routines against the loops they replaced.

``monotonicity_report`` and ``global_sign_report`` share one per-snapshot
sign test, ``spreading_speed`` fits the points of ``level_curve``, and both
Aronson forms go through one feasibility test. The references below are the
earlier code: a separate mask-and-test loop per eps, the global-sign loop
over every snapshot with t = 0 dropped afterwards, a windowed loop over the
snapshots, and one feasibility closure per Aronson form. On synthetic
trajectories and random kernel samples both must give exactly the same
numbers.
"""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpplab import analysis as an
from kpplab.analysis import ONE_FLOOR, ZERO_FLOOR
from kpplab.grids import Grid, GridFunction
from kpplab.kernels import KERNEL_FLOOR, AronsonFitError, fit_aronson_K, gaussian_kernel
from kpplab.model import piecewise_kpp_problem
from kpplab.solver import Snapshot, SolverConfig, Trajectory

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)

GRID = Grid.centered(3.0, 0.5, 1)
# values on both sides of the zero floor, the saturation floor and the eps levels
U_VALUES = (
    0.0, 1e-301, ZERO_FLOOR, 2e-300, 0.05, 0.1, 0.3, 0.5, 0.9,
    1.0 - 2.0 * ONE_FLOOR, 1.0 - ONE_FLOOR, 1.0 - 0.5 * ONE_FLOOR, 1.0,
)
POSITIVE_RHS = (5e-324, 1e-300, 1e-3, 1.0)
ANY_RHS = POSITIVE_RHS + (0.0, -0.0, -5e-324, -1e-3, -1.0)
EPS_VALUES = (ZERO_FLOOR, 0.05, 0.1, 0.3, 0.5, 1.0)


def reference_masks(snap, margin):
    mask = snap.u.interior_mask(margin)
    return mask & (snap.u.values >= ZERO_FLOOR) & (snap.u.values <= 1.0 - ONE_FLOOR)


def reference_monotonicity(traj, eps_list, margin):
    snaps = list(traj)
    times = np.array([s.t for s in snaps])
    inf_curve = []
    for s in snaps:
        m = reference_masks(s, margin)
        inf_curve.append((s.t, min(0.0, float(np.min(s.rhs.values[m]))) if m.any() else 0.0))
    T_eps = {}
    for eps in eps_list:
        ok = np.empty(len(snaps), dtype=bool)
        for i, s in enumerate(snaps):
            qualify = reference_masks(s, margin) & (s.u.values >= eps)
            ok[i] = bool(np.all(s.rhs.values[qualify] > 0.0)) if qualify.any() else True
        i = an._holds_from(ok)
        T_eps[float(eps)] = math.inf if i is None else float(times[i])
    return T_eps, inf_curve


def reference_tau_global(traj, margin):
    snaps = list(traj)
    times = np.array([s.t for s in snaps])
    ok = np.empty(len(snaps), dtype=bool)
    for i, s in enumerate(snaps):
        m = reference_masks(s, margin)
        ok[i] = bool(np.all(s.rhs.values[m] > 0.0)) if m.any() else True
    i = an._holds_from(ok)
    hits = [] if i is None else [t for t in times[i:] if t > 1e-12]
    return float(hits[0]) if hits else math.inf


def reference_speed(traj, level, window, side):
    ts, xs = [], []
    for snap in traj:
        if window[0] - 1e-9 <= snap.t <= window[1] + 1e-9:
            try:
                xs.append(an.level_position(snap.u, level, side))
                ts.append(snap.t)
            except an.LevelNotCrossedError:
                continue
    if len(ts) < 5:
        raise ValueError(f"need >= 5 crossings in the window, found {len(ts)}.")
    return float(np.polyfit(ts, xs, 1)[0])


def reference_bisect(feasible, tol=1e-3, k_max=1e6):
    hi = 2.0
    while not feasible(hi):
        hi *= 2.0
        if hi > k_max:
            raise AronsonFitError("no sandwich constant fits the window.")
    lo = 1.0
    if feasible(lo):
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def reference_aronson(kernels, x_max, dim):
    ts, ds, ps = [], [], []
    for t, gf in kernels:
        if dim == 1:
            d = np.abs(gf.axis(0))
        else:
            X, Y = gf.points()
            d = np.sqrt(X**2 + Y**2)
        keep = (d <= x_max) & (gf.values >= KERNEL_FLOOR)
        ts.append(np.full(int(np.count_nonzero(keep)), t))
        ds.append(d[keep].ravel())
        ps.append(gf.values[keep].ravel())
    t, d, p = np.concatenate(ts), np.concatenate(ds), np.concatenate(ps)
    if t.size == 0:
        raise AronsonFitError("window is empty after floor filtering.")
    d2t = d**2 / t
    tn = t ** (dim / 2.0)
    logp = np.log(p)

    def feasible_literal(K):
        lower_ok = np.all(-K * d2t - math.log(K) - np.log(tn) <= logp + 1e-12)
        upper_ok = np.all(logp <= math.log(K) - d2t / K - np.log(tn) + 1e-12)
        return bool(lower_ok and upper_ok)

    def feasible_gaussian(K):
        norm = np.log((4.0 * math.pi * t) ** (dim / 2.0))
        lower_ok = np.all(-K * d2t / 4.0 - math.log(K) - norm <= logp + 1e-12)
        upper_ok = np.all(logp <= math.log(K) - d2t / (4.0 * K) - norm + 1e-12)
        return bool(lower_ok and upper_ok)

    return reference_bisect(feasible_literal), reference_bisect(feasible_gaussian)


def _field(values) -> GridFunction:
    return GridFunction(np.array(values, dtype=float), GRID.h, GRID.origin)


@st.composite
def sign_trajectories(draw):
    """Snapshots on a 13-cell grid: an optional t = 0 entry, u on both sides
    of every floor, and rhs that is either positive or of any sign."""
    n = GRID.npoints[0]
    steps = draw(st.lists(st.sampled_from((0.5, 1.0)), min_size=1, max_size=7))
    times = ([0.0] if draw(st.booleans()) else []) + list(np.cumsum(steps))
    snaps = []
    for t in times:
        u = draw(st.lists(st.sampled_from(U_VALUES), min_size=n, max_size=n))
        rhs_values = POSITIVE_RHS if draw(st.booleans()) else ANY_RHS
        rhs = draw(st.lists(st.sampled_from(rhs_values), min_size=n, max_size=n))
        snaps.append(Snapshot(t=float(t), u=_field(u), rhs=_field(rhs)))
    problem = piecewise_kpp_problem(half_width=3.0, radius=1.0)
    cfg = SolverConfig(h=GRID.h, t_final=float(times[-1]))
    return Trajectory(problem=problem, config=cfg, snapshots=snaps)


MARGINS = st.sampled_from((0.0, 0.5, 1.0, 2.5))


@PROPERTY
@given(
    traj=sign_trajectories(),
    eps_list=st.lists(st.sampled_from(EPS_VALUES), min_size=1, max_size=3, unique=True),
    margin=MARGINS,
)
def test_T_eps_and_inf_curve_match_the_per_eps_loop(traj, eps_list, margin):
    cert = an.monotonicity_report(traj, eps_list, t_floor=0.0, margin=margin)
    T_eps, inf_curve = reference_monotonicity(traj, eps_list, margin)
    assert cert.T_eps == T_eps
    assert cert.inf_ut_curve == inf_curve


@PROPERTY
@given(traj=sign_trajectories(), margin=MARGINS)
def test_tau_global_matches_the_global_sign_loop(traj, margin):
    tau = an.global_sign_report(traj, margin=margin).tau_global
    assert tau == reference_tau_global(traj, margin)


@st.composite
def front_trajectories(draw):
    """Logistic fronts at drawn positions; a low amplitude gives a snapshot
    with no crossing of the level."""
    x = GRID.axis(0)
    steps = draw(st.lists(st.sampled_from((0.25, 0.5)), min_size=4, max_size=16))
    times = [0.0] + list(np.cumsum(steps))
    snaps = []
    for t in times:
        centre = draw(st.floats(-1.0, 2.5))
        width = draw(st.sampled_from((0.3, 1.0)))
        height = draw(st.sampled_from((0.2, 1.0, 1.0, 1.0)))
        u = height / (1.0 + np.exp((np.abs(x) - centre) / width))
        snaps.append(Snapshot(t=float(t), u=_field(u), rhs=None))
    problem = piecewise_kpp_problem(half_width=3.0, radius=1.0)
    cfg = SolverConfig(h=GRID.h, t_final=float(times[-1]))
    return Trajectory(problem=problem, config=cfg, snapshots=snaps)


@PROPERTY
@given(
    traj=front_trajectories(),
    level=st.sampled_from((0.1, 0.5)),
    window=st.sampled_from(((0.0, 2.0), (1.0, 3.0), (0.5, 20.0))),
    side=st.sampled_from(("left", "right")),
)
def test_speed_matches_the_windowed_loop(traj, level, window, side):
    try:
        expected = reference_speed(traj, level, window, side)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            an.spreading_speed(traj, level, window, side)
        return
    assert an.spreading_speed(traj, level, window, side) == expected


@PROPERTY
@given(
    dim=st.sampled_from((1, 2)),
    times=st.lists(st.sampled_from((0.25, 0.5, 1.0, 2.0)), min_size=1, max_size=3, unique=True),
    noise=st.sampled_from((0.0, 0.05, 0.5, 3.0)),
    x_max=st.sampled_from((0.5, 1.5, 10.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_aronson_constants_match_the_two_feasibility_closures(dim, times, noise, x_max, seed):
    rng = np.random.default_rng(seed)
    grid = Grid.centered(2.0 if dim == 2 else 4.0, 0.25, dim)
    r = np.abs(grid.axis(0)) if dim == 1 else np.hypot(*grid.points())
    kernels = []
    for t in times:
        exact = gaussian_kernel(1.0, t, r, dim=dim)
        # multiplicative noise, and a few samples pushed below the kernel floor
        values = exact * np.exp(noise * rng.uniform(-1.0, 1.0, r.shape))
        values[rng.uniform(size=r.shape) < 0.05] = 0.5 * KERNEL_FLOOR
        kernels.append((t, GridFunction(values, grid.h, grid.origin)))
    fit = fit_aronson_K(kernels, (0.0,) * dim, x_max=x_max)
    assert (fit.K, fit.K_gaussian) == reference_aronson(kernels, x_max, dim)
