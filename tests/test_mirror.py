"""The mirror-folded explicit march.

An explicit march whose state and faces equal their mirror images about the
centre node, with a reaction that does not depend on x, steps nodes 0..m of
each axis plus one ghost node. The reference below marches the whole grid
with ``_Stepper`` and ``_march``, as ``solve`` and ``fundamental_solution``
did before the fold: every snapshot must carry the same bits. The path tests
check which grid the march actually steps, since a silent fall back to the
whole grid would pass the bit tests too.
"""
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpplab import solver
from kpplab.config import load_config
from kpplab.grids import Grid
from kpplab.model import Bump, Constant, Logistic, Problem, Sine, Zero, homogeneous_kpp
from kpplab.solver import Snapshot, SolverConfig, _march, _Stepper, fundamental_solution, solve

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
# spacings whose node coordinates -m*h + i*h are exact, so a radial datum
# sampled on the grid is its own mirror image bit for bit
DYADIC_H = st.sampled_from([0.125, 0.25, 0.5])
NO_LEAK_CHECK = dict(boundary_leak_tolerance=2.0, hard_leak_threshold=2.0)


@contextmanager
def marched_shapes():
    """Record the shape of every state that solver._march is asked to step."""
    shapes = []
    march = solver._march

    def spy(state, *args):
        shapes.append(state.shape)
        return march(state, *args)

    with mock.patch.object(solver, "_march", spy):
        yield shapes


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def whole_grid_solve(p: Problem, cfg: SolverConfig, start: Snapshot) -> list:
    grid = Grid.centered(p.half_width, cfg.h, p.dimension)
    stepper = _Stepper(p.coefficient, p.reaction, grid)
    times = cfg.resolved_snapshot_times()
    targets = np.concatenate(([start.t], times[times > start.t + 1e-12]))
    marched = _march(start.u.values, start.t, targets, stepper.auto_dt(), stepper.step_explicit)
    return [(t, u.copy(), stepper.rhs(u)) for t, u in marched]


def assert_same_bits(traj, reference) -> None:
    assert [s.t for s in traj.snapshots] == [t for t, _, _ in reference]
    for snap, (_, u, rhs) in zip(traj.snapshots, reference):
        assert np.array_equal(bits(snap.u.values), bits(u))
        assert np.array_equal(bits(snap.rhs.values), bits(rhs))


@PROPERTY
@given(
    dim=st.sampled_from([1, 2]),
    rate=st.floats(0.1, 5.0),
    a=st.floats(0.2, 3.0),
    h=DYADIC_H,
    cells=st.integers(3, 32),
    radius=st.floats(0.1, 3.0),
    height=st.floats(0.05, 1.0),
    beta=st.floats(0.05, 1.0),
)
def test_folded_solve_matches_the_whole_grid_march(dim, rate, a, h, cells, radius, height, beta):
    p = Problem(dim, cells * h, Constant(a), Logistic(rate), Bump(radius, height))
    # 0.3 is not a multiple of dt: the march shortens its last step to each snapshot
    cfg = SolverConfig(h=h, t_final=0.9, snapshot_every=0.3, **NO_LEAK_CHECK)
    with marched_shapes() as shapes:
        untreated = solve(p, cfg, validate=False)
        first = untreated.snapshots[0]
        assert_same_bits(untreated, whole_grid_solve(p, cfg, first))
        # a treated state: the density scaled at t=0.3, marched on to t_final
        mid = untreated.snapshot_at(0.3)
        start = Snapshot(mid.t, mid.u.with_values(beta * mid.u.values))
        treated = solve(p, cfg, validate=False, start=start)
        assert_same_bits(treated, whole_grid_solve(p, cfg, start))
    assert shapes == [(cells + 2,) * dim] * 2


@PROPERTY
@given(
    dim=st.sampled_from([1, 2]),
    a=st.floats(0.2, 3.0),
    h=DYADIC_H,
    cells=st.integers(4, 32),
    frac=st.floats(0.1, 1.0),
)
def test_folded_kernel_matches_the_whole_grid_march(dim, a, h, cells, frac):
    grid = Grid.centered(cells * h, h, dim)
    # standard deviation sqrt(2 a t) at most a fifth of the half width: the
    # mass stays inside KERNEL_MASS_TOL
    t_end = (cells * h) ** 2 / (50.0 * a)
    times = sorted({frac * t_end, t_end})
    with marched_shapes() as shapes:
        result = fundamental_solution(Constant(a), times, (0.0,) * dim, grid)
    assert shapes == [(cells + 2,) * dim]

    stepper = _Stepper(Constant(a), Zero(), grid)
    state = np.zeros(grid.npoints)
    state[(cells,) * dim] = h ** (-dim)
    dt = 0.9 * stepper.stability_bound()
    marched = [(t, u.copy()) for t, u in _march(state, 0.0, times, dt, stepper.step_explicit)]
    assert result.times == [t for t, _ in marched]
    for kernel, mass, (_, want) in zip(result.kernels, result.masses, marched):
        assert np.array_equal(bits(kernel.values), bits(want))
        assert mass == float(np.sum(want) * h**dim)


def half(n_axis: int, dim: int) -> tuple[int, ...]:
    return (n_axis // 2 + 2,) * dim


@pytest.mark.parametrize("dim", [1, 2])
def test_homogeneous_kpp_steps_the_folded_grid(dim):
    p = homogeneous_kpp(half_width=8.0, dimension=dim)
    with marched_shapes() as shapes:
        solve(p, SolverConfig(h=0.25, t_final=0.5))
    assert shapes == [half(65, dim)]


@pytest.mark.parametrize("dim", [1, 2])
def test_centred_point_mass_steps_the_folded_grid(dim):
    with marched_shapes() as shapes:
        fundamental_solution(Constant(1.0), [0.5], (0.0,) * dim, Grid.centered(8.0, 0.25, dim))
    assert shapes == [half(65, dim)]


def test_off_centre_point_mass_steps_the_whole_grid():
    with marched_shapes() as shapes:
        fundamental_solution(Constant(1.0), [0.5], (1.0,), Grid.centered(8.0, 0.25, 1))
    assert shapes == [(65,)]


def test_x_dependent_reaction_steps_the_whole_grid():
    setup = load_config(CONFIGS / "piecewise_theorem2.json")
    cfg = SolverConfig(h=setup.solver.h, t_final=0.2)
    with marched_shapes() as shapes:
        solve(setup.problem, cfg)
    n = 2 * int(round(setup.problem.half_width / setup.solver.h)) + 1
    assert shapes == [(n,)]


def test_sine_coefficient_steps_the_whole_grid():
    p = Problem(1, 8.0, Sine(1.0, 0.5, 2.0), Logistic(1.0), Bump(1.0, 1.0))
    with marched_shapes() as shapes:
        solve(p, SolverConfig(h=0.25, t_final=0.5), validate=False)
    assert shapes == [(65,)]


# one ulp less next to the centre; -0.0 near the edge, where the mirror node
# holds 0.0: equal values, but not equal bits
ASYMMETRIC = {
    "one-ulp": (33, lambda v: np.nextafter(v, 0.0)),
    "negative-zero": (1, np.negative),
}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("change", ASYMMETRIC)
def test_asymmetric_start_steps_the_whole_grid(dim, change):
    p = homogeneous_kpp(half_width=8.0, dimension=dim)
    u0 = solve(p, SolverConfig(h=0.25, t_final=0.1)).snapshots[-1].u
    node, nudge = ASYMMETRIC[change]
    values = u0.values.copy()
    values[(node,) * dim] = nudge(values[(node,) * dim])
    start = Snapshot(0.1, u0.with_values(values))
    with marched_shapes() as shapes:
        traj = solve(p, SolverConfig(h=0.25, t_final=0.5), start=start)
    assert shapes == [(65,) * dim]
    assert np.array_equal(bits(traj.snapshots[0].u.values), bits(values))


def test_imex_steps_the_whole_grid():
    p = homogeneous_kpp(half_width=8.0)
    with marched_shapes() as shapes:
        solve(p, SolverConfig(h=0.25, t_final=0.5, scheme="imex-diffusion-implicit", **NO_LEAK_CHECK))
    assert shapes == [(65,)]
