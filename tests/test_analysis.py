import math

import numpy as np
import pytest

from kpplab import analysis as an
from kpplab.grids import Grid, GridFunction
from kpplab.kernels import HalfLineParams, t0_threshold
from kpplab.model import homogeneous_kpp, piecewise_kpp_problem
from kpplab.solver import Snapshot, SolverConfig, Trajectory, solve


def test_level_position_hand_interpolation():
    gf = GridFunction(np.array([0.0, 0.2, 0.6, 0.9]), 1.0, (0.0,))
    assert an.level_position(gf, 0.5, "right") == pytest.approx(1.75)


def test_level_position_exact_grid_hit():
    gf = GridFunction(np.array([0.0, 0.5, 1.0]), 1.0, (0.0,))
    assert an.level_position(gf, 0.5, "left") == pytest.approx(1.0)


def test_level_position_symmetric_profile():
    x = np.linspace(-5.0, 5.0, 101)
    gf = GridFunction(np.exp(-(x**2)), 0.1, (-5.0,))
    right = an.level_position(gf, 0.3, "right")
    left = an.level_position(gf, 0.3, "left")
    assert right == pytest.approx(-left, abs=1e-12)


def test_level_position_raises_without_crossing():
    gf = GridFunction(np.full(10, 0.2), 1.0, (0.0,))
    with pytest.raises(an.LevelNotCrossedError):
        an.level_position(gf, 0.5)


def _synthetic_trajectory(u_of_tx, times, rhs_of_tx=None, half_width=10.0, h=0.5):
    grid = Grid.centered(half_width, h, 1)
    x = grid.axis(0)
    problem = homogeneous_kpp(half_width=half_width)
    cfg = SolverConfig(h=h, t_final=float(times[-1]) if times[-1] > 0 else 1.0)
    snaps = []
    for t in times:
        u = GridFunction(u_of_tx(t, x), h, grid.origin)
        rhs = GridFunction(rhs_of_tx(t, x), h, grid.origin) if rhs_of_tx else None
        snaps.append(Snapshot(t=float(t), u=u, rhs=rhs))
    return Trajectory(problem=problem, config=cfg, snapshots=snaps)


def test_find_T_monotone_globally_increasing_profile():
    times = np.arange(0.0, 11.0)
    traj = _synthetic_trajectory(lambda t, x: (1.0 - math.exp(-t)) * np.ones_like(x), times)
    assert an.find_T_monotone(traj) == pytest.approx(1.0)  # first available shift


def test_find_T_monotone_requires_time_one_snapshot():
    traj = _synthetic_trajectory(lambda t, x: np.ones_like(x), [0.0, 2.0, 4.0])
    with pytest.raises(ValueError):
        an.find_T_monotone(traj)


def test_find_T_monotone_heat_decay_returns_sentinel():
    # pure decay at the origin: u(1+t,0) < u(1,0) for all t
    times = np.arange(0.0, 12.0)
    traj = _synthetic_trajectory(
        lambda t, x: np.exp(-(x**2) / (4.0 * (t + 0.5))) / math.sqrt(t + 0.5), times
    )
    assert an.find_T_monotone(traj) == math.inf


def test_estimate_tau_star_monotone_construction():
    times = np.arange(0.0, 25.0)
    traj = _synthetic_trajectory(lambda t, x: np.minimum(1.0, np.exp(t - np.abs(x))), times)
    assert an.estimate_tau_star(traj, t_floor=0.0) == pytest.approx(1.0)  # one comb step


def test_estimate_tau_star_time_shift_invariance():
    build = lambda shift: _synthetic_trajectory(
        lambda t, x: np.minimum(1.0, np.exp((t - shift) - np.abs(x))), np.arange(0.0, 25.0) + shift
    )
    a = an.estimate_tau_star(build(0.0), t_floor=0.0)
    b = an.estimate_tau_star(build(7.0), t_floor=7.0)
    assert a == b


def test_estimate_tau_star_needs_fine_comb():
    traj = _synthetic_trajectory(lambda t, x: np.ones_like(x), np.arange(0.0, 10.0))
    with pytest.raises(ValueError):
        an.estimate_tau_star(traj, t_floor=0.0)


def test_theorem1_report_on_monotone_synthetic_trajectory():
    times = np.arange(0.0, 30.0)
    traj = _synthetic_trajectory(
        lambda t, x: (1.0 - math.exp(-t - 0.1)) * np.exp(-(x**2) / 50.0),
        times,
        rhs_of_tx=lambda t, x: math.exp(-t - 0.1) * np.exp(-(x**2) / 50.0),
    )
    cert = an.monotonicity_report(traj, eps_list=(0.05, 0.2, 0.5), t_floor=5.0, margin=0.0)
    assert all(math.isfinite(T) for T in cert.T_eps.values())
    assert cert.tau_star_estimate == pytest.approx(1.0)
    assert all(v <= 0.0 for _, v in cert.inf_ut_curve)


def test_theorem1_report_requires_rhs_fields():
    traj = _synthetic_trajectory(lambda t, x: np.ones_like(x), np.arange(0.0, 5.0))
    with pytest.raises(ValueError):
        an.monotonicity_report(traj, eps_list=(0.1,))


@pytest.fixture(scope="module")
def kpp_run():
    p = homogeneous_kpp(half_width=100.0)
    return solve(p, SolverConfig(h=0.1, t_final=30.0, snapshot_every=1.0))


@pytest.fixture(scope="module")
def kpp_run_fine_comb():
    p = homogeneous_kpp(half_width=100.0)
    return solve(p, SolverConfig(h=0.1, t_final=30.0, snapshot_every=0.5))


def test_curve_speed_needs_five_crossings_in_the_window():
    curve = [(float(t), 3.0 * t + 1.0) for t in range(10)]
    with pytest.raises(ValueError, match="found 4"):
        an.curve_speed(curve, (0.0, 3.0))
    assert an.curve_speed(curve, (0.0, 4.0)) == pytest.approx(3.0)


def test_curve_speed_window_ends_are_inclusive_to_1e_9():
    curve = [(float(t), 3.0 * t + 1.0) for t in range(1, 6)]
    assert an.curve_speed(curve, (1.0 + 0.5e-9, 5.0 - 0.5e-9)) == pytest.approx(3.0)
    for window in ((1.0 + 2e-9, 5.0), (1.0, 5.0 - 2e-9)):
        with pytest.raises(ValueError, match="found 4"):
            an.curve_speed(curve, window)


def test_curve_speed_of_the_level_curve_is_the_spreading_speed(kpp_run):
    for level, window in ((0.5, (10.0, 30.0)), (0.1, (15.0, 25.0))):
        speed = an.curve_speed(an.level_curve(kpp_run, level), window)
        assert speed == an.spreading_speed(kpp_run, level, window)


def test_speed_is_level_insensitive_for_steep_fronts(kpp_run):
    speeds = [an.spreading_speed(kpp_run, lvl, (10.0, 30.0)) for lvl in (0.3, 0.5, 0.7)]
    assert max(speeds) - min(speeds) <= 0.01 * 2.0


def test_pure_heat_level_slows_down():
    from kpplab.model import Constant, Gaussian, Problem, Zero

    p = Problem(
        dimension=1,
        half_width=40.0,
        coefficient=Constant(1.0),
        reaction=Zero(),
        initial=Gaussian(1.0, 0.05),
    )
    traj = solve(
        p,
        SolverConfig(h=0.1, t_final=24.0, snapshot_every=1.0, boundary_leak_tolerance=1e-4),
        validate=False,
    )
    early = an.spreading_speed(traj, 0.2, (2.0, 8.0))
    late = an.spreading_speed(traj, 0.2, (14.0, 24.0))
    assert 0 < late < early  # diffusive sqrt(t) spreading decelerates


def test_speed_scales_like_sqrt_of_diffusivity():
    cfg = SolverConfig(h=0.1, t_final=30.0, snapshot_every=1.0)
    s1 = an.spreading_speed(solve(homogeneous_kpp(half_width=120.0), cfg), 0.5, (15.0, 30.0))
    s2 = an.spreading_speed(
        solve(homogeneous_kpp(half_width=120.0, diffusivity=2.0), cfg), 0.5, (15.0, 30.0)
    )
    assert s2 / s1 == pytest.approx(math.sqrt(2.0), rel=0.05)


def test_T_eps_stable_under_comb_refinement(kpp_run, kpp_run_fine_comb):
    coarse = an.monotonicity_report(kpp_run, eps_list=(0.1,), t_floor=10.0)
    fine = an.monotonicity_report(kpp_run_fine_comb, eps_list=(0.1,), t_floor=10.0)
    assert abs(coarse.T_eps[0.1] - fine.T_eps[0.1]) <= 1.0 + 1e-9


def test_tau_star_estimate_shrinks_with_comb(kpp_run, kpp_run_fine_comb):
    coarse = an.estimate_tau_star(kpp_run, t_floor=10.0)
    fine = an.estimate_tau_star(kpp_run_fine_comb, t_floor=10.0)
    assert coarse <= 2.0 + 1e-9
    assert fine <= coarse


def test_find_T_monotone_finite_on_kpp_run(kpp_run):
    T = an.find_T_monotone(kpp_run)
    assert math.isfinite(T)


@pytest.fixture(scope="module")
def global_sign_run():
    p = piecewise_kpp_problem(half_width=120.0)
    return solve(p, SolverConfig(h=0.1, t_final=40.0, snapshot_every=1.0))


def test_theorem2_report_finds_finite_global_time(global_sign_run):
    cert = an.global_sign_report(global_sign_run)
    assert cert.passed
    assert 0 < cert.tau_global <= 40.0


def test_theorem2_report_rejects_wrong_class(kpp_run):
    with pytest.raises(an.HypothesisMismatchError):
        an.global_sign_report(kpp_run)  # logistic reaction, not the linear-near-0 class


def test_theorem2_report_rejects_coefficient_not_constant_at_infinity():
    from kpplab.model import Bump, PiecewiseKPP, Problem, Sine

    p = Problem(1, 20.0, Sine(2.0, 0.5, 5.0), PiecewiseKPP(0.5, 1.0, 0.3, 10.0), Bump(1.0, 1.0))
    traj = solve(p, SolverConfig(h=0.25, t_final=1.0, snapshot_every=0.5))
    with pytest.raises(an.HypothesisMismatchError, match="coefficient constant"):
        an.global_sign_report(traj)


def test_theorem2_report_rejects_two_dimensional():
    p = homogeneous_kpp(half_width=8.0, dimension=2)
    traj = solve(p, SolverConfig(h=0.25, t_final=1.0, snapshot_every=0.5, boundary_leak_tolerance=1e-3))
    with pytest.raises(an.HypothesisMismatchError):
        an.global_sign_report(traj)


def test_global_sign_mismatch_names_the_failed_hypothesis():
    from kpplab.model import Bump, PiecewiseKPP, Problem, Sine

    sine = Problem(1, 20.0, Sine(2.0, 0.5, 5.0), PiecewiseKPP(0.5, 1.0, 0.3, 10.0), Bump(1.0, 1.0))
    expected = {
        "global sign certificate requires a 1D problem.": homogeneous_kpp(half_width=8.0, dimension=2),
        "global sign certificate requires the piecewise reaction with linear pieces near 0.":
            homogeneous_kpp(),
        "global sign certificate requires a coefficient constant for large |x|.": sine,
    }
    for message, problem in expected.items():
        assert an.global_sign_mismatch(problem) == message
    assert an.global_sign_mismatch(piecewise_kpp_problem()) is None


def test_harnack_shift_constant_positive(global_sign_run):
    T0 = an.two_sided_t0(0.5, 1.0)
    C, pairs = an.harnack_shift_check(global_sign_run, T0, 1.0, 1.0)
    assert pairs > 10
    assert C > 0


def _halfline_indicator(length, h, lo=1.0, hi=2.0):
    grid = Grid.halfline(length, h)
    x = grid.axis(0)
    return GridFunction(np.where((x >= lo) & (x <= hi), 1.0, 0.0), h, (0.0,))


def test_prop91_full_solution_and_mirror_agree():
    pp = HalfLineParams(1.0, 1.0)
    v0 = _halfline_indicator(40.0, 0.05)
    t0 = t0_threshold(pp)
    t_grid = np.linspace(t0, 3 * t0, 8)
    g = lambda t: 1.0 - math.exp(-t)
    direct = an.halfline_sign_verify(pp, v0, g, t_grid)
    assert direct.passed


def test_prop91_pure_initial_part_passes():
    pp = HalfLineParams(1.0, 1.0)
    v0 = _halfline_indicator(40.0, 0.05)
    t0 = t0_threshold(pp)
    verdict = an.halfline_sign_verify(pp, v0, lambda t: 0.0, np.linspace(t0, 3 * t0, 8))
    assert verdict.passed


def test_prop91_rejects_bad_boundary_trace():
    pp = HalfLineParams(1.0, 1.0)
    v0 = _halfline_indicator(20.0, 0.1)
    with pytest.raises(ValueError):
        an.halfline_sign_verify(pp, v0, lambda t: -1.0, [3.0])
    with pytest.raises(ValueError):
        an.halfline_sign_verify(pp, v0, lambda t: math.exp(-t), [3.0])  # decreasing


def test_prop91_rejects_trivial_initial_datum():
    pp = HalfLineParams(1.0, 1.0)
    grid = Grid.halfline(20.0, 0.1)
    with pytest.raises(ValueError):
        an.halfline_sign_verify(pp, grid.zero_field(), lambda t: 1.0, [3.0])


def test_spreading_speed_needs_enough_crossings(kpp_run):
    with pytest.raises(ValueError):
        an.spreading_speed(kpp_run, 0.5, (0.0, 2.0))  # front not formed yet


def test_theorem1_report_reports_unattainable_eps_without_abort():
    from kpplab.model import Constant, Gaussian, Problem, Zero

    p = Problem(
        dimension=1,
        half_width=30.0,
        coefficient=Constant(1.0),
        reaction=Zero(),
        initial=Gaussian(1.0, 0.5),
    )
    traj = solve(p, SolverConfig(h=0.1, t_final=10.0, snapshot_every=0.5), validate=False)
    cert = an.monotonicity_report(traj, eps_list=(0.05,))
    assert cert.T_eps[0.05] == math.inf  # pure decay: the clause never certifies
    assert not cert.verdicts["sign_above_0.05"].passed


def test_eps_one_clause_is_vacuously_true_once_u_below_one(kpp_run):
    cert = an.monotonicity_report(kpp_run, eps_list=(1.0,))
    # no grid point qualifies once u < 1 strictly: empty quantifier passes
    assert math.isfinite(cert.T_eps[1.0])
