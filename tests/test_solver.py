import math

import numpy as np
import pytest

from kpplab.grids import Grid, GridFunction
from kpplab.model import (
    Constant,
    Gaussian,
    Problem,
    Sine,
    Zero,
    homogeneous_kpp,
)
from kpplab.solver import (
    NumericalError,
    Snapshot,
    SolverConfig,
    StabilityError,
    discrete_rhs,
    fundamental_solution,
    solve,
    solve_linear_halfline,
    step,
)


def heat_problem(half_width=20.0, amplitude=0.8, beta=0.5):
    return Problem(
        dimension=1,
        half_width=half_width,
        coefficient=Constant(1.0),
        reaction=Zero(),
        initial=Gaussian(amplitude, beta),
    )


def heat_exact(x, t, amplitude=0.8, beta=0.5):
    # variance sigma0^2 = 1/(2 beta) grows to sigma0^2 + 2t
    var = 1.0 / (2.0 * beta) + 2.0 * t
    return amplitude * np.sqrt(1.0 / (2.0 * beta) / var) * np.exp(-(x**2) / (2.0 * var))


def test_steady_states_zero_and_one():
    p = homogeneous_kpp(half_width=10.0)
    cfg = SolverConfig(h=0.1, t_final=1.0)
    grid = Grid.centered(10.0, 0.1, 1)
    zero = grid.zero_field()
    one = zero.with_values(np.ones_like(zero.values))
    assert np.all(step(zero, 0.0, p, cfg).values == 0.0)
    assert np.all(step(one, 0.0, p, cfg).values == 1.0)


def test_heat_gaussian_matches_closed_form():
    p = heat_problem()
    cfg = SolverConfig(h=0.05, t_final=1.0, snapshot_times=(1.0,))
    traj = solve(p, cfg, validate=False)
    snap = traj.snapshot_at(1.0)
    x = snap.u.axis(0)
    exact = heat_exact(x, 1.0)
    err = np.max(np.abs(snap.u.values - exact)) / np.max(exact)
    assert err <= 1e-3


def test_second_order_in_space():
    # error against the closed form drops by >= 3.5 when h is halved
    errs = []
    for h in (0.1, 0.05):
        traj = solve(heat_problem(), SolverConfig(h=h, t_final=1.0, snapshot_times=(1.0,)), validate=False)
        snap = traj.snapshot_at(1.0)
        x = snap.u.axis(0)
        errs.append(np.max(np.abs(snap.u.values - heat_exact(x, 1.0))))
    assert errs[0] / errs[1] >= 3.5


def test_constant_state_follows_logistic_ode():
    p = homogeneous_kpp(half_width=20.0)
    grid = Grid.centered(20.0, 0.2, 1)
    state = grid.zero_field().with_values(np.full(grid.npoints, 0.5))
    # the domain-filling datum touches the boundary by construction
    cfg = SolverConfig(
        h=0.2,
        t_final=5.0,
        dt=2e-4,
        snapshot_times=(5.0,),
        boundary_leak_tolerance=2.0,
        hard_leak_threshold=2.0,
    )
    traj = solve(p, cfg, validate=False, start=Snapshot(0.0, state))
    snap = traj.snapshot_at(5.0)
    x = snap.u.axis(0)
    window = np.abs(x) <= 5.0  # away from the held boundary nodes
    exact = 1.0 / (1.0 + math.exp(-5.0))
    err = np.max(np.abs(snap.u.values[window] - exact)) / exact
    assert err <= 1e-4


def test_invasion_run_reaches_one_at_origin():
    p = homogeneous_kpp(half_width=200.0)
    traj = solve(p, SolverConfig(h=0.1, t_final=40.0, snapshot_every=5.0))
    mid = traj.snapshot_at(40.0).u.values.size // 2
    vals = [s.u.values[mid] for s in traj if s.t >= 10.0]
    assert vals[-1] >= 0.999
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def _random_smooth_field(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    x = grid.axis(0)
    f = np.zeros_like(x)
    for _ in range(3):
        c = rng.uniform(-5.0, 5.0)
        w = rng.uniform(0.5, 2.0)
        a = rng.uniform(0.2, 1.0)
        f += a * np.exp(-((x - c) ** 2) / w)
    return np.clip(f, 0.0, 1.0)


def test_comparison_principle_on_random_ordered_pairs():
    rng = np.random.default_rng(2024)
    p = homogeneous_kpp(half_width=10.0)
    grid = Grid.centered(10.0, 0.1, 1)
    cfg = SolverConfig(h=0.1, t_final=2.0, snapshot_every=0.5, boundary_leak_tolerance=1.0, hard_leak_threshold=2.0)
    for _ in range(20):
        upper = _random_smooth_field(grid, rng)
        lower = upper * rng.uniform(0.1, 1.0)
        traj_a = solve(p, cfg, validate=False, start=Snapshot(0.0, GridFunction(lower, grid.h, grid.origin)))
        traj_b = solve(p, cfg, validate=False, start=Snapshot(0.0, GridFunction(upper, grid.h, grid.origin)))
        for sa, sb in zip(traj_a, traj_b):
            assert np.all(sa.u.values <= sb.u.values + 1e-12)


def test_maximum_principle_on_snapshots():
    p = homogeneous_kpp(half_width=30.0)
    traj = solve(
        p, SolverConfig(h=0.1, t_final=10.0, snapshot_every=1.0, boundary_leak_tolerance=1e-5)
    )
    for s in traj:
        assert np.min(s.u.values) >= -1e-12
        assert np.max(s.u.values) <= 1.0 + 1e-12


def test_rhs_field_matches_explicit_update():
    p = homogeneous_kpp(half_width=10.0)
    grid = Grid.centered(10.0, 0.1, 1)
    from kpplab.model import make_initial

    state = make_initial(p.initial, grid)
    cfg = SolverConfig(h=0.1, t_final=1.0, dt=0.004)
    after = step(state, 0.0, p, cfg)
    rhs = discrete_rhs(state, p)
    fd = (after.values - state.values) / 0.004
    assert np.max(np.abs(fd - rhs.values)) <= 1e-9


def test_stability_bound_enforced():
    p = homogeneous_kpp(half_width=10.0)
    # explicit: dt*(2/h^2 + L) <= 1, so 1/201 at h=0.1, rate 1; IMEX: dt*L <= 1
    too_large = [
        SolverConfig(h=0.1, t_final=1.0, dt=0.01),
        SolverConfig(h=0.1, t_final=1.0, dt=0.005),
        SolverConfig(h=0.1, t_final=1.0, dt=1.01, scheme="imex-diffusion-implicit"),
    ]
    for cfg in too_large:
        with pytest.raises(StabilityError):
            solve(p, cfg)
    solve(p, SolverConfig(h=0.1, t_final=0.01, dt=1 / 201))
    solve(p, SolverConfig(h=0.1, t_final=0.01, dt=1.0, scheme="imex-diffusion-implicit"))


def test_nan_detection_aborts():
    p = homogeneous_kpp(half_width=10.0)
    grid = Grid.centered(10.0, 0.1, 1)
    bad = grid.zero_field().values
    bad[5] = np.nan
    with pytest.raises(NumericalError):
        step(GridFunction(bad, grid.h, grid.origin), 0.0, p, SolverConfig(h=0.1, t_final=1.0))


def test_boundary_leak_warning_and_abort():
    p = homogeneous_kpp(half_width=10.0)
    with pytest.warns(RuntimeWarning):
        solve(p, SolverConfig(h=0.1, t_final=3.0, snapshot_every=1.0, hard_leak_threshold=2.0))
    with pytest.warns(RuntimeWarning), pytest.raises(NumericalError):
        solve(p, SolverConfig(h=0.1, t_final=8.0, snapshot_every=1.0))


def test_solve_validates_unless_overridden():
    with pytest.raises(ValueError):
        solve(heat_problem(), SolverConfig(h=0.1, t_final=1.0))  # zero reaction fails (8)


def test_imex_matches_explicit():
    p = homogeneous_kpp(half_width=20.0)
    cfg_e = SolverConfig(h=0.1, t_final=2.0, snapshot_times=(2.0,))
    cfg_i = SolverConfig(h=0.1, t_final=2.0, snapshot_times=(2.0,), scheme="imex-diffusion-implicit", dt=0.02)
    u_e = solve(p, cfg_e).snapshot_at(2.0).u.values
    u_i = solve(p, cfg_i).snapshot_at(2.0).u.values  # dt above the explicit bound
    assert np.max(np.abs(u_e - u_i)) <= 5e-3


def test_trajectory_times_strictly_increasing():
    p = homogeneous_kpp(half_width=10.0)
    traj = solve(p, SolverConfig(h=0.1, t_final=1.0, snapshot_every=0.25))
    t = traj.times()
    assert np.all(np.diff(t) > 0)


@pytest.mark.parametrize(
    "comb, t_final, want",
    [
        ({"snapshot_every": 7.0}, 5.0, [0.0, 5.0]),
        ({"snapshot_every": 7.0}, 30.0, [0.0, 7.0, 14.0, 21.0, 28.0, 30.0]),
        ({"snapshot_times": (1.0, 2.0)}, 5.0, [0.0, 1.0, 2.0, 5.0]),
        ({"snapshot_every": 0.5}, 2.0, [0.0, 0.5, 1.0, 1.5, 2.0]),
    ],
)
def test_resolved_snapshot_times_end_at_t_final(comb, t_final, want):
    cfg = SolverConfig(h=0.1, t_final=t_final, **comb)
    assert cfg.resolved_snapshot_times().tolist() == want


def test_run_reaches_t_final_when_the_comb_overshoots_it():
    # a comb of 7 with t_final 5 once marched nothing and stopped at t = 0
    traj = solve(homogeneous_kpp(half_width=30.0), SolverConfig(h=0.1, t_final=5.0, snapshot_every=7.0))
    assert traj.times().tolist() == [0.0, 5.0]
    assert not np.array_equal(traj.snapshots[0].u.values, traj.snapshots[1].u.values)


def test_fundamental_solution_matches_heat_kernel():
    grid = Grid.centered(40.0, 0.05, 1)
    res = fundamental_solution(Constant(1.0), [1.0], (0.0,), grid)
    kernel = res.kernels[0]
    x = kernel.axis(0)
    exact = np.exp(-(x**2) / 4.0) / math.sqrt(4.0 * math.pi)
    window = np.abs(x) <= 4.0  # away from the kernel floor
    err = np.max(np.abs(kernel.values[window] - exact[window]) / exact[window])
    assert err <= 1e-2
    assert res.masses[0] == pytest.approx(1.0, abs=1e-6)


def test_fundamental_solution_symmetry_in_source_and_target():
    grid = Grid.centered(40.0, 0.05, 1)
    coeff = Sine(1.0, 0.5, 5.0)
    k_from_0 = fundamental_solution(coeff, [1.0], (0.0,), grid).kernels[0]
    k_from_2 = fundamental_solution(coeff, [2.0 if False else 1.0], (2.0,), grid).kernels[0]
    x = k_from_0.axis(0)
    at_2 = k_from_0.values[np.argmin(np.abs(x - 2.0))]
    at_0 = k_from_2.values[np.argmin(np.abs(x))]
    assert abs(at_2 - at_0) / at_2 <= 1e-2


def test_fundamental_solution_mass_guard():
    grid = Grid.centered(5.0, 0.05, 1)
    with pytest.raises(NumericalError):
        fundamental_solution(Constant(1.0), [20.0], (0.0,), grid)


def test_halfline_solver_blowup_guard():
    grid = Grid.halfline(20.0, 0.1)
    x = grid.axis(0)
    v0 = GridFunction(np.where((x >= 1) & (x <= 2), 1.0, 0.0), 0.1, (0.0,))
    out = solve_linear_halfline(1.0, 1.0, v0, lambda t: 0.0, [0.5])
    assert out[0][1].values[0] == 0.0
    assert np.min(out[0][1].values) >= -1e-12
    with pytest.raises(NumericalError, match="blew up"):
        solve_linear_halfline(1.0, 1.0, v0, lambda t: math.nan, [0.5])


def textbook_halfline(a, lam, v0, g, targets):
    """Reference: the three-point stencil a(v[i+1] - 2v[i] + v[i-1])/h^2 + lam v[i]
    marched by explicit Euler, with v[0] = g(t) after every step."""
    h = v0.h
    dt = 0.9 * h**2 / (2.0 * a)
    if lam > 0:
        dt = min(dt, 0.5 / lam)

    def rhs(v):
        out = np.zeros_like(v)
        out[1:-1] = a * (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2 + lam * v[1:-1]
        return out

    v = v0.values.copy()
    v[0] = g(0.0)
    t = 0.0
    out = []
    for target in targets:
        while t < target - 1e-12:
            dtk = min(dt, target - t)
            v = v + dtk * rhs(v)
            t += dtk
            v[0] = g(t)
        t = target
        out.append((v, rhs(v)))
    return out


@pytest.mark.parametrize("a, lam", [(1.5, 0.7), (1.0, 0.0)])
def test_halfline_solver_matches_textbook_stencil(a, lam):
    grid = Grid.halfline(10.0, 0.1)
    x = grid.axis(0)
    v0 = GridFunction(np.where((x >= 1) & (x <= 2), 1.0, 0.0), 0.1, (0.0,))
    g = lambda t: 1.0 - math.exp(-t)
    targets = [0.3, 1.0]
    got = solve_linear_halfline(a, lam, v0, g, targets)
    for (_, v, rhs), (v_ref, rhs_ref) in zip(got, textbook_halfline(a, lam, v0, g, targets)):
        assert np.max(np.abs(v.values - v_ref)) <= 1e-12 * np.max(np.abs(v_ref))
        assert np.array_equal(np.sign(rhs.values), np.sign(rhs_ref))


def test_two_dimensional_heat_preserves_mass_and_range():
    grid = Grid.centered(8.0, 0.2, 2)
    res = fundamental_solution(Constant(1.0), [0.5, 1.0], (0.0, 0.0), grid)
    assert res.masses[-1] == pytest.approx(1.0, abs=1e-6)
    p = homogeneous_kpp(half_width=8.0, dimension=2)
    traj = solve(
        p, SolverConfig(h=0.2, t_final=1.0, snapshot_every=0.5, boundary_leak_tolerance=1e-4)
    )
    for s in traj:
        assert np.min(s.u.values) >= -1e-12
        assert np.max(s.u.values) <= 1.0 + 1e-12


def test_imex_is_one_dimensional_only():
    p = homogeneous_kpp(half_width=5.0, dimension=2)
    cfg = SolverConfig(h=0.25, t_final=0.5, scheme="imex-diffusion-implicit", dt=0.01)
    with pytest.raises(NotImplementedError):
        solve(p, cfg)


@pytest.mark.parametrize(
    "dimension, scheme, h",
    [(1, "explicit-euler", 0.1), (1, "imex-diffusion-implicit", 0.1), (2, "explicit-euler", 0.5)],
)
def test_solve_from_a_snapshot_reproduces_the_rest_of_the_run(dimension, scheme, h):
    # IMEX is one-dimensional only, so its 2D case does not exist
    p = homogeneous_kpp(half_width=20.0, dimension=dimension)
    cfg = SolverConfig(h=h, t_final=4.0, scheme=scheme, snapshot_times=(0.7, 1.5, 2.0, 3.25, 4.0))
    run = solve(p, cfg).snapshots
    for k in (0, 2, 4):
        cont = solve(p, cfg, start=run[k]).snapshots
        assert [s.t for s in cont] == [s.t for s in run[k:]]
        for a, b in zip(cont, run[k:]):
            assert a.u.values.tobytes() == b.u.values.tobytes()
            assert a.rhs.values.tobytes() == b.rhs.values.tobytes()
