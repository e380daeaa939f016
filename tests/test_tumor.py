import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kpplab.config import load_config
from kpplab.grids import Grid, GridFunction
from kpplab.model import homogeneous_kpp, piecewise_kpp_problem
from kpplab.solver import Snapshot, SolverConfig, discrete_rhs, solve
from kpplab.tumor import (
    EventDiagnostics,
    ProtocolPoint,
    TreatmentSchedule,
    apply_treatment,
    jump_identity_residual,
    observed_size,
    run_protocol,
    sigma_crossings,
    total_mass,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_apply_treatment_scales_pointwise():
    gf = GridFunction(np.array([0.0, 0.4, 1.0]), 1.0, (0.0,))
    out = apply_treatment(gf, 0.5)
    assert np.allclose(out.values, [0.0, 0.2, 0.5], rtol=0, atol=0)


def test_treatment_composition_is_single_product_dose():
    rng = np.random.default_rng(3)
    gf = GridFunction(rng.uniform(0.0, 1.0, 64), 0.1, (0.0,))
    twice = apply_treatment(apply_treatment(gf, 0.6), 0.7)
    once = apply_treatment(gf, 0.42)
    assert np.max(np.abs(twice.values - once.values)) <= 1e-15


def test_treatment_fixes_zero_state():
    gf = GridFunction(np.zeros(32), 0.1, (0.0,))
    assert np.all(apply_treatment(gf, 0.3).values == 0.0)


def test_treatment_rejects_bad_factor():
    gf = GridFunction(np.zeros(8), 1.0, (0.0,))
    for beta in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            apply_treatment(gf, beta)


def test_observed_size_hand_interpolation():
    gf = GridFunction(np.array([0.0, 0.2, 0.6, 0.9, 0.6, 0.2, 0.0]), 1.0, (0.0,))
    assert observed_size(gf, 0.5) == pytest.approx(2.5)


def test_observed_size_full_and_empty():
    gf = GridFunction(np.ones(21), 0.5, (0.0,))
    assert observed_size(gf, 0.5) == pytest.approx(10.0)  # full domain length
    assert observed_size(gf, 0.999) == pytest.approx(10.0)
    low = GridFunction(np.full(21, 0.3), 0.5, (0.0,))
    assert observed_size(low, 0.5) == 0.0


def test_observed_size_monotone_in_threshold():
    rng = np.random.default_rng(5)
    vals = np.clip(rng.uniform(0, 1, 200), 0.0, 1.0)
    gf = GridFunction(vals, 0.1, (0.0,))
    sigmas = np.linspace(0.05, 0.95, 19)
    sizes = [observed_size(gf, s) for s in sigmas]
    assert all(b <= a + 1e-12 for a, b in zip(sizes, sizes[1:]))


def test_observed_size_2d_disk_area():
    grid = Grid.centered(2.0, 0.02, 2)
    X, Y = grid.points()
    gf = GridFunction(np.where(X**2 + Y**2 <= 1.0, 1.0, 0.0), grid.h, grid.origin)
    assert observed_size(gf, 0.5) == pytest.approx(math.pi, rel=0.02)


def test_total_mass_constant_state():
    gf = GridFunction(np.full(201, 0.25), 0.1, (-10.0,))
    assert total_mass(gf) == pytest.approx(20.0 * 0.25, rel=1e-12)


def test_total_mass_box_bump():
    grid = Grid.centered(10.0, 0.1, 1)
    x = grid.axis(0)
    gf = GridFunction(np.where(np.abs(x) <= 1.0, 1.0, 0.0), grid.h, grid.origin)
    assert abs(total_mass(gf) - 2.0) <= grid.h + 1e-9


def test_treatment_scales_mass_exactly():
    rng = np.random.default_rng(9)
    gf = GridFunction(rng.uniform(0, 1, 4001), 0.1, (-200.0,))
    for beta in (0.3, 0.5, 0.8):
        ratio = total_mass(apply_treatment(gf, beta)) / total_mass(gf)
        assert ratio == pytest.approx(beta, rel=1e-13)


def test_jump_identity_point_arithmetic():
    # beta=0.5, rate=1, phi=0.4, rhs(phi)=0.1 -> rhs(beta phi) = 0.05 + 0.04
    beta, rate, phi, rhs = 0.5, 1.0, 0.4, 0.1
    assert beta * rhs + rate * beta * (1 - beta) * phi**2 == pytest.approx(0.09)


@pytest.fixture(scope="module")
def kpp_state():
    p = homogeneous_kpp(half_width=60.0)
    traj = solve(p, SolverConfig(h=0.1, t_final=5.0, snapshot_every=1.0))
    return p, traj.snapshot_at(5.0)


def test_jump_identity_residual_is_rounding_level(kpp_state):
    p, snap = kpp_state
    for beta in (0.3, 0.5, 0.8):
        _, mx = jump_identity_residual(snap.u, snap.rhs, beta, p)
        assert mx <= 1e-12


def test_jump_identity_no_treatment_and_zero_state(kpp_state):
    p, snap = kpp_state
    _, mx = jump_identity_residual(snap.u, snap.rhs, 1.0, p)
    assert mx == 0.0
    zero = snap.u.with_values(np.zeros_like(snap.u.values))
    _, mz = jump_identity_residual(zero, zero, 0.5, p)
    assert mz == 0.0


def test_jump_identity_rejects_non_logistic(kpp_state):
    _, snap = kpp_state
    with pytest.raises(ValueError):
        jump_identity_residual(snap.u, snap.rhs, 0.5, piecewise_kpp_problem(half_width=60.0))


def test_schedule_invariants():
    with pytest.raises(ValueError):
        TreatmentSchedule(events=((2.0, 0.5), (1.0, 0.5)), sigma_img=0.3)
    with pytest.raises(ValueError):
        TreatmentSchedule(events=((1.0, 1.5),), sigma_img=0.3)
    with pytest.raises(ValueError):
        TreatmentSchedule(events=((1.0, 0.5),), sigma_img=1.2)


def test_protocol_event_mass_jump_and_signs():
    p = homogeneous_kpp(half_width=100.0)
    sched = TreatmentSchedule(events=((6.0, 0.5),), sigma_img=0.3)
    res = run_protocol(solve(p, SolverConfig(h=0.1, t_final=12.0, snapshot_every=0.5)), sched)
    ev = res.events[0]
    assert ev.mass_after / ev.mass_before == pytest.approx(0.5, rel=1e-13)
    assert ev.dmass_sign_next == 1  # mass regrows immediately (f >= 0)
    series_t = [pt.t for pt in res.series if pt.event_flag == 0]
    assert all(b > a for a, b in zip(series_t, series_t[1:]))


def test_protocol_rejects_event_outside_horizon():
    p = homogeneous_kpp(half_width=40.0)
    sched = TreatmentSchedule(events=((20.0, 0.5),), sigma_img=0.3)
    with pytest.raises(ValueError):
        run_protocol(solve(p, SolverConfig(h=0.1, t_final=10.0, snapshot_every=1.0)), sched)


def test_protocol_without_events_fills_the_box():
    p = homogeneous_kpp(half_width=15.0)
    sched = TreatmentSchedule(events=(), sigma_img=0.5)
    cfg = SolverConfig(
        h=0.1,
        t_final=25.0,
        snapshot_every=1.0,
        boundary_leak_tolerance=2.0,
        hard_leak_threshold=2.0,
    )
    res = run_protocol(solve(p, cfg), sched)
    # the absorbing wall keeps an O(1) boundary layer below the threshold
    assert res.series[-1].S >= 2 * 15.0 - 3.0
    sizes = [pt.S for pt in res.series]
    assert all(b >= a - 1e-9 for a, b in zip(sizes, sizes[1:]))


def test_grazing_crossing_is_flagged():
    gf = GridFunction(np.array([0.5, 0.3 + 2e-11, 0.3 - 2e-11, 0.1]), 1.0, (0.0,))
    _, grazing = sigma_crossings(gf, 0.3)
    assert grazing
    gf2 = GridFunction(np.array([0.5, 0.4, 0.2, 0.1]), 1.0, (0.0,))
    _, grazing2 = sigma_crossings(gf2, 0.3)
    assert not grazing2


def test_mass_continuous_away_from_events():
    p = homogeneous_kpp(half_width=100.0)
    sched = TreatmentSchedule(events=((6.0, 0.5),), sigma_img=0.3)
    res = run_protocol(solve(p, SolverConfig(h=0.1, t_final=12.0, snapshot_every=0.25)), sched)
    pts = [pt for pt in res.series if pt.event_flag == 0]
    event_times = {ev.t0 for ev in res.events}
    jumps = [
        abs(b.mass - a.mass)
        for a, b in zip(pts, pts[1:])
        if abs(b.t - a.t) < 0.3 and a.t not in event_times
    ]
    ev = res.events[0]
    event_jump = ev.mass_before - ev.mass_after
    # smooth comb increments stay well below the event discontinuity
    assert max(jumps) <= 0.25 * event_jump


def test_protocol_inserts_exact_off_comb_event_time():
    p = homogeneous_kpp(half_width=60.0)
    sched = TreatmentSchedule(events=((4.3, 0.5),), sigma_img=0.3)
    res = run_protocol(solve(p, SolverConfig(h=0.1, t_final=8.0, snapshot_every=1.0)), sched)
    times = [pt.t for pt in res.series]
    assert times.count(4.3) == 2  # one-sided values at the event
    flags = [pt.event_flag for pt in res.series if pt.t == 4.3]
    assert flags == [0, 1]


def reference_protocol(p, sched, cfg):
    """The segment-by-segment protocol of earlier versions: it solves [0, t0]
    again from the initial datum, shifts each segment's comb to start at 0 and
    back, merges the segment ends into it, and skips each segment's first
    snapshot when the previous segment recorded it."""
    comb = cfg.resolved_snapshot_times()
    sigma = sched.sigma_img
    series, events = [], []
    start, t_cursor = None, 0.0
    for t_end, beta in list(sched.events) + [(cfg.t_final, None)]:
        inside = comb[(comb > t_cursor + 1e-12) & (comb <= t_end + 1e-12)] - t_cursor
        seg_cfg = replace(
            cfg, t_final=t_end - t_cursor, snapshot_every=None, snapshot_times=tuple(inside)
        )
        targets = seg_cfg.resolved_snapshot_times() + t_cursor
        targets = np.unique(np.concatenate([targets, [t_cursor, t_end]]))
        targets = targets[(targets >= t_cursor - 1e-12) & (targets <= t_end + 1e-9)]
        abs_cfg = replace(cfg, t_final=t_end, snapshot_every=None, snapshot_times=tuple(targets))
        traj = solve(p, abs_cfg, validate=False, start=start)
        for snap in traj:
            if abs(snap.t - t_cursor) <= 1e-12 and series and abs(series[-1].t - snap.t) <= 1e-12:
                continue
            series.append(ProtocolPoint(snap.t, observed_size(snap.u, sigma), total_mass(snap.u), 0))
        if beta is None:
            break
        pre = traj.snapshots[-1]
        post_u = apply_treatment(pre.u, beta)
        post_rhs = discrete_rhs(post_u, p)
        crossings, grazing = sigma_crossings(post_u, sigma) if post_u.dim == 1 else (np.array([]), False)
        if post_u.dim == 1 and crossings.size:
            boundary_rhs_min = float(np.min(np.interp(crossings, post_u.axis(0), post_rhs.values)))
        else:
            boundary_rhs_min = math.nan
        events.append(
            EventDiagnostics(
                t0=t_end,
                beta=beta,
                S_before=observed_size(pre.u, sigma),
                S_after=observed_size(post_u, sigma),
                mass_before=total_mass(pre.u),
                mass_after=total_mass(post_u),
                boundary_rhs_min=boundary_rhs_min,
                grazing=grazing,
            )
        )
        series.append(ProtocolPoint(t_end, events[-1].S_after, events[-1].mass_after, 1))
        start, t_cursor = Snapshot(t_end, post_u), t_end
    for ev in events:
        nxt = [pt for pt in series if pt.t > ev.t0 + 1e-12 and pt.event_flag == 0]
        if nxt:
            ev.dS_sign_next = int(np.sign(nxt[0].S - ev.S_after))
            ev.dmass_sign_next = int(np.sign(nxt[0].mass - ev.mass_after))
    return series, events


def _protocol_case(name):
    if name == "tumor_protocol":
        setup = load_config(CONFIGS / "tumor_protocol.json")
        return setup.problem, setup.schedule, setup.solver
    if name == "small-2d":
        p = homogeneous_kpp(half_width=15.0, dimension=2)
        cfg = SolverConfig(h=0.5, t_final=4.0, snapshot_every=1.0, boundary_leak_tolerance=1.0)
        return p, TreatmentSchedule(((2.5, 0.5),), 0.3), cfg
    events = {
        "off-comb": ((4.3, 0.5),),
        "on-and-off-comb": ((3.0, 0.6), (5.7, 0.5)),
        "no-events": (),
    }[name]
    cfg = SolverConfig(h=0.1, t_final=8.0, snapshot_every=1.0)
    return homogeneous_kpp(half_width=60.0), TreatmentSchedule(events, 0.3), cfg


@pytest.mark.parametrize(
    "name", ["tumor_protocol", "off-comb", "on-and-off-comb", "no-events", "small-2d"]
)
def test_protocol_continuing_the_run_matches_the_segmented_reference(name):
    p, sched, cfg = _protocol_case(name)
    res = run_protocol(solve(p, cfg, validate=False), sched)
    series, events = reference_protocol(p, sched, cfg)
    assert repr(res.series) == repr(series)
    assert repr(res.events) == repr(events)
    assert len(res.events) == len(sched.events)
