import math
from dataclasses import replace

import numpy as np
import pytest

from kpplab.grids import Grid
from kpplab.model import (
    Bump,
    CoefficientField,
    Constant,
    Exponential,
    Gaussian,
    Logistic,
    MalformedReactionError,
    Piecewise,
    PiecewiseKPP,
    Problem,
    Separable,
    Sine,
    builtin_problems,
    homogeneous_kpp,
    make_initial,
    validate_problem,
)
from kpplab.solver import SolverConfig


def test_logistic_constants_match_reference_window():
    # f(s)/s = 1-s >= 0.9 on (0, 0.1]
    report = validate_problem(homogeneous_kpp(half_width=20.0), n_samples=64)
    assert report.s0 == 0.1
    assert report.mu == pytest.approx(0.9, abs=1e-12)
    assert report.all_pass


def test_weak_allee_fails_linear_lower_bound():
    p = Problem(
        dimension=1,
        half_width=20.0,
        coefficient=Constant(1.0),
        reaction=Separable(lambda x: np.ones_like(x), lambda u: u**2 * (1.0 - u), 1.0),
        initial=Bump(1.0, 1.0),
    )
    report = validate_problem(p, n_samples=64)
    v = report.verdicts["h8_linear_lower"]
    assert v.passed is False
    assert v.witness is not None


def test_ellipticity_bound_for_sine_coefficient():
    # a(x) = 2 + sin(x) in [1,3] -> nu = max(sup a, 1/inf a) = 3
    p = Problem(
        dimension=1,
        half_width=10.0,
        coefficient=Sine(2.0, 1.0, 1.0),
        reaction=Logistic(1.0),
        initial=Bump(1.0, 1.0),
    )
    report = validate_problem(p, n_samples=4096)
    assert report.nu == pytest.approx(3.0, abs=1e-4)
    # not constant at infinity: asymptotic homogeneity is warned, not failed
    assert report.verdicts["h5_coeff_osc"].passed is None
    assert report.all_pass


def test_malformed_reaction_rejected():
    p = Problem(
        dimension=1,
        half_width=10.0,
        coefficient=Constant(1.0),
        reaction=Separable(lambda x: np.ones_like(x), lambda u: u + 0.1, 1.0),
        initial=Bump(1.0, 1.0),
    )
    with pytest.raises(MalformedReactionError):
        validate_problem(p)


def test_separable_needs_a_nonnegative_slope_bound():
    for bound in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            Separable(np.ones_like, lambda u: u * (1.0 - u), bound)


def test_validator_needs_enough_samples():
    with pytest.raises(ValueError):
        validate_problem(homogeneous_kpp(half_width=10.0), n_samples=8)


def test_lipschitz_bound_certified_on_samples():
    p = builtin_problems()["piecewise-kpp"]
    report = validate_problem(p, n_samples=64)
    xs = np.linspace(-p.half_width, p.half_width, 64)
    us = np.linspace(1.0 / 64, 1.0, 64)
    X, U = np.meshgrid(xs, us, indexing="ij")
    assert np.all(p.reaction.evaluate(X, U) <= report.L_lip * U + 1e-12)


def test_builtin_problems_pass_validation():
    for name, p in builtin_problems().items():
        report = validate_problem(p)
        assert report.all_pass, f"{name} failed:\n{report.summary()}"


def test_piecewise_kpp_ratio_nonincreasing_on_fine_grid():
    # f±(1-u)/u = rate± * min((1-u)/u, theta/(1-theta)) is non-increasing and
    # the smooth x-blend preserves it; checked on a 100x100 grid.
    r = PiecewiseKPP(0.5, 1.0, 0.3, 10.0)
    xs = np.linspace(-20.0, 20.0, 100)
    us = np.linspace(0.01, 1.0, 100)
    X, U = np.meshgrid(xs, us, indexing="ij")
    ratio = r.evaluate(X, 1.0 - U) / U
    assert np.all(np.diff(ratio, axis=1) <= 1e-12)


def test_piecewise_reaction_linear_near_zero_outside_blend():
    r = PiecewiseKPP(0.5, 1.0, 0.3, 10.0)
    u = np.linspace(0.0, 0.3, 50)
    assert np.allclose(r.evaluate(np.full_like(u, 15.0), u), 1.0 * u, rtol=0, atol=1e-15)
    assert np.allclose(r.evaluate(np.full_like(u, -15.0), u), 0.5 * u, rtol=0, atol=1e-15)
    # tent closes at 1: f(x,1) = 0
    assert r.evaluate(np.array([15.0]), np.array([1.0]))[0] == 0.0


def test_piecewise_coefficient_exactly_constant_outside_radius():
    c = Piecewise(0.7, 1.3, 5.0)
    assert np.all(c.evaluate(np.linspace(5.0, 30.0, 10)) == 1.3)
    assert np.all(c.evaluate(np.linspace(-30.0, -5.0, 10)) == 0.7)
    inside = c.evaluate(np.linspace(-5.0, 5.0, 10))
    assert np.all((inside >= 0.7) & (inside <= 1.3))


def test_make_initial_gaussian_values():
    grid = Grid.centered(10.0, 0.5, 1)
    u0 = make_initial(Gaussian(1.0, 1.0), grid)
    x = grid.axis(0)
    assert u0.values[np.argmin(np.abs(x))] == pytest.approx(1.0)
    assert u0.values[np.argmin(np.abs(x - 2.0))] == pytest.approx(np.exp(-4.0))


def test_make_initial_exponential_capped_at_one():
    grid = Grid.centered(10.0, 0.5, 1)
    u0 = make_initial(Exponential(2.0, 1.0), grid)
    x = grid.axis(0)
    assert u0.values[np.argmin(np.abs(x))] == 1.0
    assert np.max(u0.values) <= 1.0


def test_make_initial_bump_vanishes_outside_support():
    grid = Grid.centered(10.0, 0.5, 1)
    u0 = make_initial(Bump(1.0, 0.5), grid)
    x = grid.axis(0)
    assert u0.values[np.argmin(np.abs(x - 1.5))] == 0.0
    assert u0.values[np.argmin(np.abs(x))] == 0.5


def test_make_initial_rejects_all_zero():
    off_center = Grid(origin=(5.0,), npoints=(11,), h=1.0)
    with pytest.raises(ValueError):
        make_initial(Bump(1.0, 1.0), off_center)


def test_problem_invariants():
    with pytest.raises(ValueError):
        Problem(
            dimension=1,
            half_width=5.0,  # must exceed the piecewise radius
            coefficient=Piecewise(1.0, 1.0, 10.0),
            reaction=Logistic(1.0),
            initial=Bump(1.0, 1.0),
        )
    with pytest.raises(ValueError):
        Problem(
            dimension=2,  # piecewise kinds are 1D
            half_width=50.0,
            coefficient=Constant(1.0),
            reaction=PiecewiseKPP(0.5, 1.0, 0.3, 10.0),
            initial=Bump(1.0, 1.0),
        )


def test_nan_parameters_are_rejected():
    # NaN passes every `x <= 0` check, so each check is a negated `x > 0`
    valid = {
        Constant(1.0): ("value",),
        Sine(1.0, 0.5, 5.0): ("base", "amplitude", "wavelength"),
        Piecewise(1.0, 2.0, 10.0): ("a_minus", "a_plus", "radius"),
        Logistic(1.0): ("rate",),
        PiecewiseKPP(0.5, 1.0, 0.3, 10.0): ("rate_minus", "rate_plus", "radius"),
        Gaussian(1.0, 1.0): ("amplitude", "decay"),
        Exponential(1.0, 1.0): ("amplitude", "decay"),
        Bump(1.0, 1.0): ("radius",),
        SolverConfig(h=0.1, t_final=1.0, dt=0.001): ("h", "t_final", "dt"),
        homogeneous_kpp(half_width=20.0): ("half_width",),
    }
    accepted = []
    for obj, names in valid.items():
        for name in names:
            try:
                replace(obj, **{name: math.nan})
            except ValueError:
                continue
            accepted.append(f"{type(obj).__name__}.{name}")
    assert not accepted, accepted


def test_nan_coefficient_fails_ellipticity():
    class NanCoefficient(CoefficientField):
        def evaluate(self, points):
            return np.full_like(np.asarray(points, dtype=float), math.nan)

    p = Problem(1, 20.0, NanCoefficient(), Logistic(1.0), Bump(1.0, 1.0))
    report = validate_problem(p)
    assert report.verdicts["h4_ellipticity"].passed is False
    assert not report.all_pass
