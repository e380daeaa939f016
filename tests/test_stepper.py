"""The explicit step kernel, its time-step bound and the principles it keeps.

``_Stepper`` computes div_h(a grad_h u) + f(x,u) into buffers it owns and
updates the interior of the state in place. The reference below is the
allocating kernel it replaced: a fresh flux array, a full-row 2D flux sliced
to the interior afterwards, the reaction closures as they were before they
took ``out=``, and a step on ``u.copy()``. Both must give the same bits,
signed zeros and subnormals included.
"""
import gc
import weakref
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kpplab.config import load_config
from kpplab.grids import Grid, GridFunction
from kpplab.model import (
    Constant,
    Gaussian,
    Logistic,
    Piecewise,
    PiecewiseKPP,
    Problem,
    Reaction,
    Separable,
    Sine,
    Zero,
    homogeneous_kpp,
)
from kpplab.solver import (
    IMEX_DT_MAX,
    MAXPRINCIPLE_TOL,
    Snapshot,
    SolverConfig,
    _resolve_dt,
    _Stepper,
    fundamental_solution,
    solve,
    solve_linear_halfline,
    step,
)

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def reference_reaction(reaction: Reaction, points):
    if reaction.kind == "zero":
        return None
    if reaction.kind == "logistic":
        rate = reaction.rate
        return lambda u: rate * u * (1.0 - u)
    x = np.asarray(points[0] if isinstance(points, tuple) else points, dtype=float)
    if reaction.kind == "separable":
        rx = np.asarray(reaction.r_func(x), dtype=float)
        return lambda u: rx * np.asarray(reaction.g_func(u), dtype=float)
    w = reaction.blend_weight(x)
    return lambda u: (
        w * reaction.tent(u, reaction.rate_plus) + (1.0 - w) * reaction.tent(u, reaction.rate_minus)
    )


def reference_rhs_interior(stepper: _Stepper, u: np.ndarray) -> np.ndarray:
    if stepper.grid.dim == 1:
        flux = stepper.faces * (u[1:] - u[:-1])
        div = (flux[1:] - flux[:-1]) * stepper.inv_h2
        inner = u[1:-1]
        points = stepper.grid.axis(0)[1:-1]
    else:
        fx = stepper.faces_x * (u[1:, :] - u[:-1, :])
        fy = stepper.faces_y * (u[:, 1:] - u[:, :-1])
        div = ((fx[1:, :] - fx[:-1, :])[:, 1:-1] + (fy[:, 1:] - fy[:, :-1])[1:-1, :]) * stepper.inv_h2
        inner = u[1:-1, 1:-1]
        x, y = stepper.grid.axis(0), stepper.grid.axis(1)
        points = tuple(np.meshgrid(x[1:-1], y[1:-1], indexing="ij"))
    f = reference_reaction(stepper.reaction, points)
    if f is not None:
        div = div + f(inner)
    return div


def reference_rhs(stepper: _Stepper, u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    out[stepper.interior] = reference_rhs_interior(stepper, u)
    return out


def reference_step(stepper: _Stepper, u: np.ndarray, dt: float) -> np.ndarray:
    new = u.copy()
    new[stepper.interior] += dt * reference_rhs_interior(stepper, u)
    return new


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


COEFFICIENTS = st.one_of(
    st.just(Constant(1.0)),
    st.floats(0.2, 3.0).map(Constant),
    st.tuples(st.floats(0.5, 2.0), st.floats(0.0, 0.4), st.floats(0.5, 4.0)).map(
        lambda b: Sine(b[0], b[0] * b[1], b[2])
    ),
    st.builds(
        Piecewise, st.floats(0.3, 2.0), st.floats(0.3, 2.0), st.floats(0.2, 2.0)
    ),
)

REACTIONS = st.one_of(
    st.just(Zero()),
    st.floats(0.1, 50.0).map(Logistic),
    st.floats(0.1, 5.0).map(
        lambda r: Separable(lambda x: r * (1.5 + np.cos(x)), lambda u: u * (1.0 - u), 1.0)
    ),
    st.builds(
        PiecewiseKPP,
        st.floats(0.1, 5.0),
        st.floats(0.1, 5.0),
        st.floats(0.1, 0.9),
        st.floats(0.2, 2.0),
    ),
)


@PROPERTY
@given(
    dim=st.sampled_from([1, 2]),
    cells=st.integers(1, 12),
    h=st.floats(0.05, 0.5),
    coeff=COEFFICIENTS,
    reaction=REACTIONS,
    seed=st.integers(0, 2**32 - 1),
    special=st.lists(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.0]), max_size=6),
)
def test_in_place_kernel_matches_allocating_reference(
    dim, cells, h, coeff, reaction, seed, special
):
    grid = Grid.centered(cells * h, h, dim)
    stepper = _Stepper(coeff, reaction, grid)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, grid.npoints)
    flat = u.reshape(-1)
    for value, index in zip(special, rng.integers(0, flat.size, len(special))):
        flat[index] = value
    boundary = np.ones(grid.npoints, dtype=bool)
    boundary[stepper.interior] = False
    held = u[boundary]
    dt = stepper.auto_dt()
    assert_same_bits(stepper.rhs(u), reference_rhs(stepper, u))
    for _ in range(3):
        want = reference_step(stepper, u, dt)
        got = stepper.step_explicit(u, dt)
        assert got is u
        assert_same_bits(got, want)
        assert_same_bits(got[boundary], held)
        assert_same_bits(stepper.rhs(u), reference_rhs(stepper, u))


def test_stepper_is_freed_without_the_cycle_collector():
    # its buffers are as large as the grid; a reference cycle would keep them
    # alive after the solve that made them returns
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for dim in (1, 2):
            grid = Grid.centered(2.0, 0.5, dim)
            stepper = _Stepper(Constant(1.0), Logistic(1.0), grid)
            stepper.step_explicit(np.zeros(stepper.grid.npoints), stepper.auto_dt())
            ref = weakref.ref(stepper)
            del stepper
            assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_auto_dt_of_pinned_configs_is_unchanged():
    # the monotone bound only bites when h^2 L / (2 dim sup a) > 1/9
    assert CONFIGS
    for path in CONFIGS:
        setup = load_config(path)
        p, h = setup.problem, setup.solver.h
        stepper = _Stepper(p.coefficient, p.reaction, Grid.centered(p.half_width, h, p.dimension))
        lip = p.reaction.lipschitz_bound()
        want = 0.9 * h**2 / (2.0 * p.dimension * stepper.a_max)
        if lip > 0:
            want = min(want, 0.5 / lip)
        assert stepper.auto_dt() == want, path.name


def test_imex_auto_dt_is_an_accuracy_cap_not_the_explicit_bound():
    # implicit diffusion lifts the CFL limit: only dt*L <= 1 and the cap remain
    grid = Grid.centered(10.0, 0.05, 1)
    explicit = SolverConfig(h=0.05, t_final=1.0)
    imex = SolverConfig(h=0.05, t_final=1.0, scheme="imex-diffusion-implicit")
    for rate, want in ((1.0, IMEX_DT_MAX), (50.0, 0.5 / 50.0)):
        stepper = _Stepper(Constant(1.0), Logistic(rate), grid)
        assert _resolve_dt(stepper, imex) == want
        assert want <= stepper.monotone_dt(explicit=False)
        assert _resolve_dt(stepper, explicit) == stepper.auto_dt()
        assert stepper.auto_dt() <= stepper.monotone_dt()


def test_monotone_bound_sees_the_reaction_on_the_whole_grid():
    # r is 10 only beyond |x| = 150, outside any fixed sampling window
    reaction = Separable(
        lambda x: np.where(np.abs(x) > 150.0, 10.0, 1.0), lambda u: u * (1.0 - u), 1.0
    )
    h = 0.5
    stepper = _Stepper(Constant(1.0), reaction, Grid.centered(200.0, h, 1))
    # sup |r g'| is 10 with sup |g'| = 1 declared; a [-100, 100] window for r
    # would give 1
    assert stepper.lipschitz >= 10.0
    for dt in (stepper.auto_dt(), stepper.monotone_dt()):
        assert dt * (2.0 / h**2 + 10.0) <= 1.0


def test_step_leaves_its_input_unchanged():
    p = homogeneous_kpp(half_width=5.0)
    grid = Grid.centered(5.0, 0.1, 1)
    state = GridFunction(np.exp(-grid.axis(0) ** 2), grid.h, grid.origin)
    before = state.values.copy()
    for scheme, dt in (("explicit-euler", "auto"), ("imex-diffusion-implicit", 0.05)):
        after = step(state, 0.0, p, SolverConfig(h=0.1, t_final=1.0, dt=dt, scheme=scheme))
        assert not np.array_equal(after.values, before)
        assert_same_bits(state.values, before)


def assert_no_shared_memory(arrays) -> None:
    arrays = list(arrays)
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_solve_keeps_initial_state_and_snapshots_apart():
    p = homogeneous_kpp(half_width=5.0)
    grid = Grid.centered(5.0, 0.1, 1)
    gf = GridFunction(np.exp(-grid.axis(0) ** 2), grid.h, grid.origin)
    before = gf.values.copy()
    for scheme, dt in (("explicit-euler", "auto"), ("imex-diffusion-implicit", 0.05)):
        cfg = SolverConfig(
            h=0.1,
            t_final=1.0,
            dt=dt,
            scheme=scheme,
            snapshot_every=0.25,
            boundary_leak_tolerance=2.0,
            hard_leak_threshold=2.0,
        )
        traj = solve(p, cfg, validate=False, start=Snapshot(0.0, gf))
        assert_same_bits(gf.values, before)
        assert len(traj.snapshots) == 5
        assert_no_shared_memory(
            [gf.values] + [s.u.values for s in traj] + [s.rhs.values for s in traj]
        )


def test_kernel_and_halfline_snapshots_share_no_memory():
    grid = Grid.centered(10.0, 0.1, 1)
    res = fundamental_solution(Constant(1.0), [0.1, 0.2, 0.3], (0.0,), grid)
    assert_no_shared_memory(k.values for k in res.kernels)
    grid = Grid.halfline(10.0, 0.1)
    v0 = GridFunction(np.where(grid.axis(0) <= 1.0, 1.0, 0.0), grid.h, grid.origin)
    before = v0.values.copy()
    out = solve_linear_halfline(1.0, 0.5, v0, lambda t: 1.0, [0.1, 0.2, 0.3])
    assert_same_bits(v0.values, before)
    assert_no_shared_memory(
        [v0.values] + [v.values for _, v, _ in out] + [rhs.values for _, _, rhs in out]
    )


def ordered_pair(grid: Grid, level: float, spread: float, seed: int):
    """Two states in [0,1] with lower <= upper everywhere, near ``level``."""
    rng = np.random.default_rng(seed)
    upper = np.clip(level + spread * rng.uniform(-1.0, 1.0, grid.npoints), 0.0, 1.0)
    lower = upper - spread * rng.uniform(0.0, 1.0, grid.npoints) * upper
    return lower, upper


@PROPERTY
@given(
    dim=st.sampled_from([1, 2]),
    rate=st.floats(0.1, 50.0),
    a=st.floats(0.2, 3.0),
    h=st.floats(0.05, 0.5),
    level=st.floats(0.0, 1.0),
    spread=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
    at_bound=st.booleans(),
)
@example(dim=1, rate=50.0, a=1.0, h=0.1, level=1.0, spread=0.05, seed=0, at_bound=False)
@example(dim=1, rate=50.0, a=1.0, h=0.1, level=1.0, spread=0.05, seed=0, at_bound=True)
def test_discrete_comparison_and_maximum_principles(dim, rate, a, h, level, spread, seed, at_bound):
    p = Problem(
        dimension=dim,
        half_width=6 * h,
        coefficient=Constant(a),
        reaction=Logistic(rate),
        initial=Gaussian(1.0, 1.0),
    )
    grid = Grid.centered(p.half_width, h, dim)
    # dt*(2*dim*a/h^2 + L) = 1 exactly, up to rounding
    dt = 1.0 / (2.0 * dim * a / h**2 + rate) if at_bound else "auto"
    cfg = SolverConfig(h=h, t_final=1.0, dt=dt)
    lower, upper = ordered_pair(grid, level, spread, seed)
    lo = GridFunction(lower, h, grid.origin)
    up = GridFunction(upper, h, grid.origin)
    for k in range(4):
        lo, up = step(lo, 0.0, p, cfg), step(up, 0.0, p, cfg)
        for s in (lo, up):
            assert np.min(s.values) >= -MAXPRINCIPLE_TOL
            assert np.max(s.values) <= 1.0 + MAXPRINCIPLE_TOL
        assert np.min(up.values - lo.values) >= -MAXPRINCIPLE_TOL, k
