"""The explicit step kernel, its time-step bound and the principles it keeps;
the comparison and maximum principles are also checked under 1D IMEX.

``_Stepper`` computes div_h(a grad_h u) + f(x,u) into buffers it owns and
updates the interior of the state in place. The reference below is the
allocating kernel it replaced: a fresh flux array, a full-row 2D flux sliced
to the interior afterwards, the reaction closures as they were before they
took ``out=``, and a step on ``u.copy()``. Both must give the same bits,
signed zeros and subnormals included.
"""
import gc
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kpplab.config import load_config
from kpplab.grids import Grid, GridFunction, empty_aligned
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
    _march,
    _Mirror,
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
    st.just(Logistic(1.0)),  # the bound closure skips the product by rate 1.0
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
    edge=st.lists(st.sampled_from([-0.0, 0.0, 5e-324, 1.0]), max_size=3),
)
# 2D with faces that are not all 1.0 on either axis, so both face products run
@example(dim=2, cells=5, h=0.3, coeff=Sine(1.0, 0.3, 0.7), reaction=Logistic(1.3), seed=1,
         special=[], edge=[])
@example(dim=2, cells=6, h=0.25, coeff=Piecewise(0.5, 2.0, 0.6), reaction=Zero(), seed=2,
         special=[-0.0, 5e-324], edge=[])
@example(dim=2, cells=7, h=0.2, coeff=Constant(1.0), reaction=PiecewiseKPP(0.5, 2.0, 0.3, 0.5),
         seed=3, special=[], edge=[])
# the 2D step adds -0.0 to the boundary nodes between interior rows: it must keep each bit
@example(dim=2, cells=4, h=0.25, coeff=Sine(1.0, 0.3, 0.7), reaction=Logistic(1.0), seed=4,
         special=[1.0, -0.0], edge=[-0.0, 5e-324, 1.0])
@example(dim=1, cells=3, h=0.5, coeff=Constant(1.0), reaction=Logistic(1.0), seed=5,
         special=[], edge=[-0.0, 5e-324, 1.0])
def test_in_place_kernel_matches_allocating_reference(
    dim, cells, h, coeff, reaction, seed, special, edge
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
    if edge:  # the boundary nodes hold the edge values in turn
        u[boundary] = np.resize(edge, np.count_nonzero(boundary))
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


KINDS = [
    Zero(),
    Logistic(1.0),
    Logistic(1.3),
    Separable(lambda x: 1.5 + np.cos(x), lambda u: u * (1.0 - u), 1.0),
    PiecewiseKPP(0.5, 1.0, 0.3, 1.0),
]


def random_state(grid: Grid, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 1.0, grid.npoints)


def test_stepper_slices_each_buffer_it_is_handed():
    # a march steps one buffer, so the views of it are formed once; a stepper
    # handed another buffer must form them again, and again for the first
    for dim in (1, 2):
        grid = Grid.centered(1.0, 0.25, dim)
        for reaction in KINDS:
            stepper = _Stepper(Sine(1.0, 0.3, 0.7), reaction, grid)
            dt = stepper.auto_dt()
            a, b = random_state(grid, 1), random_state(grid, 2)
            for u in (a, b, a, b):
                want = reference_step(stepper, u, dt)
                assert_same_bits(stepper.step_explicit(u, dt), want)
                assert_same_bits(stepper.rhs(u), reference_rhs(stepper, u))
        mirror = _Mirror(grid.npoints)
        a, b = random_state(mirror.grid(grid), 3), random_state(mirror.grid(grid), 4)
        for u in (a, b, a):
            mirror.after_step(0.0, u)
            for axis in range(dim):
                assert_same_bits(np.take(u, -1, axis), np.take(u, -3, axis))


def test_explicit_step_allocates_no_grid_sized_array():
    # measured peak: 152 bytes in 1D and 2D alike. Every ufunc of the step
    # runs over contiguous operands; a strided 2D operand would make numpy's
    # iterator take buffers of up to about 65 kB each (129 kB for the 2D
    # step before its kernel worked on whole rows), which the 401^2 grid
    # would show
    for dim, half_width in ((1, 50.0), (2, 20.0)):
        grid = Grid.centered(half_width, 0.1, dim)
        nbytes = np.empty(grid.npoints)[(slice(1, -1),) * dim].nbytes
        for reaction in (Zero(), Logistic(1.0), Logistic(1.3), PiecewiseKPP(0.5, 1.0, 0.3, 1.0)):
            stepper = _Stepper(Constant(1.0), reaction, grid)
            u = random_state(grid, 5)
            dt = stepper.auto_dt()
            stepper.step_explicit(u, dt)  # forms the views of u
            tracemalloc.start()
            try:
                for _ in range(50):
                    stepper.step_explicit(u, dt)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < min(nbytes // 2, 1024), (dim, reaction)


def test_2d_divergence_allocates_nothing():
    # the strided flux differences of the 2D kernel took about 129 kB of
    # numpy iterator buffers per call on this grid
    grid = Grid.centered(10.0, 0.1, 2)
    for coeff in (Constant(1.0), Sine(1.0, 0.3, 0.7)):
        for reaction in (Zero(), Logistic(1.0), PiecewiseKPP(0.5, 1.0, 0.3, 1.0)):
            stepper = _Stepper(coeff, reaction, grid)
            u = random_state(grid, 7)
            stepper._div(u)  # forms the views of u
            tracemalloc.start()
            try:
                for _ in range(50):
                    stepper._div(u)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4096, (coeff, reaction, peak)


def test_2d_step_needs_a_contiguous_state():
    # the 2D kernel reads and writes the state flattened, which only a
    # C-contiguous array allows without a copy; rhs takes any layout
    grid = Grid.centered(1.0, 0.25, 2)
    stepper = _Stepper(Sine(1.0, 0.3, 0.7), Logistic(1.3), grid)
    u = np.asfortranarray(random_state(grid, 8))
    assert not u.flags.c_contiguous
    with pytest.raises(ValueError, match="C-contiguous"):
        stepper.step_explicit(u, stepper.auto_dt())
    assert_same_bits(stepper.rhs(u), reference_rhs(stepper, u))
    strided = _Stepper(Constant(1.0), Logistic(1.3), Grid.centered(2.0, 0.25, 1))
    v = random_state(Grid.centered(4.0, 0.25, 1), 9)[::2]
    want = reference_step(strided, v, strided.auto_dt())
    assert_same_bits(strided.step_explicit(v, strided.auto_dt()), want)  # 1D takes any layout


def test_march_state_is_aligned_at_its_first_interior_node():
    # the first node a step writes, u[1] in 1D and u[1, 1] in 2D
    for shape in ((4001,), (122, 122), (9, 13)):
        starts = []

        def advance(u, dt):
            starts.append(u[(slice(1, None),) * u.ndim].ctypes.data % 64)
            return u

        u0 = random_state(Grid((0.0,) * len(shape), shape, 0.5), 10)
        for t, state in _march(u0, 0.0, [0.5, 1.0], 0.25, advance):
            assert_same_bits(state, u0)
        assert starts == [0] * 4, shape


def test_kernel_buffers_start_on_a_cache_line():
    for shape in ((), (1,), (4001,), (121, 120), (3, 7)):
        buffers = [empty_aligned(shape) for _ in range(4)]
        for a in buffers:
            assert a.shape == shape and a.dtype == np.float64
            assert a.ctypes.data % 64 == 0
        assert_no_shared_memory(buffers)
    for shape, offset in (((4001,), 1), ((122, 122), 123), ((3, 7), 20)):
        buffers = [empty_aligned(shape, offset) for _ in range(8)]
        for a in buffers:
            assert a.shape == shape and a.reshape(-1)[offset:].ctypes.data % 64 == 0
        assert_no_shared_memory(buffers)


def test_evaluate_is_the_bound_closure_into_a_new_array():
    x = np.linspace(-3.0, 3.0, 41)
    u = np.random.default_rng(6).uniform(0.0, 1.0, x.shape)
    u[:4] = (-0.0, 0.0, 5e-324, 1.0)
    for reaction in KINDS:
        got = reaction.evaluate(x, u)
        f = reaction.bind(x)
        if f is None:
            assert_same_bits(got, np.zeros_like(u))
            continue
        out = np.empty_like(u)
        assert f(u, out) is out
        assert_same_bits(got, out)
        assert_same_bits(got, reference_reaction(reaction, x)(u))


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
        lip = p.reaction.lipschitz_bound(stepper.grid.axis(0)[1:-1])
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


def assert_comparison_and_maximum_principles(p, cfg, level, spread, seed) -> None:
    """Four steps from an ordered pair of states keep the order and [0, 1]."""
    grid = Grid.centered(p.half_width, cfg.h, p.dimension)
    lower, upper = ordered_pair(grid, level, spread, seed)
    lo = GridFunction(lower, cfg.h, grid.origin)
    up = GridFunction(upper, cfg.h, grid.origin)
    for k in range(4):
        lo, up = step(lo, 0.0, p, cfg), step(up, 0.0, p, cfg)
        for s in (lo, up):
            assert np.min(s.values) >= -MAXPRINCIPLE_TOL
            assert np.max(s.values) <= 1.0 + MAXPRINCIPLE_TOL
        assert np.min(up.values - lo.values) >= -MAXPRINCIPLE_TOL, k


def logistic_problem(dim: int, a: float, rate: float, h: float) -> Problem:
    return Problem(
        dimension=dim,
        half_width=6 * h,
        coefficient=Constant(a),
        reaction=Logistic(rate),
        initial=Gaussian(1.0, 1.0),
    )


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
    # dt*(2*dim*a/h^2 + L) = 1 exactly, up to rounding
    dt = 1.0 / (2.0 * dim * a / h**2 + rate) if at_bound else "auto"
    cfg = SolverConfig(h=h, t_final=1.0, dt=dt)
    p = logistic_problem(dim, a, rate, h)
    assert_comparison_and_maximum_principles(p, cfg, level, spread, seed)


@PROPERTY
@given(
    rate=st.floats(0.1, 50.0),
    a=st.floats(0.2, 3.0),
    h=st.floats(0.05, 0.5),
    level=st.floats(0.0, 1.0),
    spread=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
    at_bound=st.booleans(),
)
@example(rate=50.0, a=1.0, h=0.1, level=1.0, spread=0.05, seed=0, at_bound=False)
@example(rate=50.0, a=1.0, h=0.1, level=1.0, spread=0.05, seed=0, at_bound=True)
@example(rate=0.1, a=3.0, h=0.05, level=0.5, spread=0.5, seed=0, at_bound=True)
def test_discrete_comparison_and_maximum_principles_under_imex(
    rate, a, h, level, spread, seed, at_bound
):
    # implicit diffusion: only dt*L <= 1 bounds dt, so dt = 1/L is far past
    # the explicit bound
    cfg = SolverConfig(
        h=h, t_final=1.0, dt=1.0 / rate if at_bound else "auto", scheme="imex-diffusion-implicit"
    )
    p = logistic_problem(1, a, rate, h)
    assert_comparison_and_maximum_principles(p, cfg, level, spread, seed)
