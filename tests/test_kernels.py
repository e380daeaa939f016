import math

import numpy as np
import pytest

from kpplab.grids import Grid, GridFunction
from kpplab.kernels import (
    AronsonFitError,
    HalfLineParams,
    check_kernel_ratio,
    fit_aronson_K,
    gaussian_kernel,
    half_line_green,
    half_line_green_dt,
    halfline_quadrature,
    scan_green_dt_region,
    t0_threshold,
)
from kpplab.model import Constant
from kpplab.solver import fundamental_solution, solve_linear_halfline


def test_gaussian_kernel_reference_values():
    assert gaussian_kernel(1.0, 1.0, 0.0, dim=1) == pytest.approx(0.28209479177387814, abs=1e-15)
    assert gaussian_kernel(1.0, 2.0, 0.0, dim=2) == pytest.approx(1.0 / (4.0 * math.pi * 2.0))


def test_gaussian_kernel_depends_on_Dt_only():
    for D, t, x in [(0.5, 3.0, 1.2), (2.0, 0.7, -0.4), (4.0, 4.0, 5.0)]:
        assert gaussian_kernel(D, t, x) == pytest.approx(gaussian_kernel(1.0, D * t, x), rel=1e-14)


def test_gaussian_kernel_unit_mass():
    x = np.linspace(-40.0, 40.0, 8001)
    vals = gaussian_kernel(1.0, 1.0, x, dim=1)
    assert np.trapezoid(vals, x) == pytest.approx(1.0, abs=1e-12)


def test_green_vanishes_on_the_boundary_and_is_symmetric():
    pp = HalfLineParams(1.3, 0.7)
    ys = np.linspace(0.1, 8.0, 13)
    assert np.allclose(half_line_green(pp, 2.0, 0.0, ys), 0.0)
    rng = np.random.default_rng(7)
    for _ in range(50):
        t = rng.uniform(0.1, 5.0)
        x, y = rng.uniform(0.0, 10.0, 2)
        assert half_line_green(pp, t, x, y) == pytest.approx(half_line_green(pp, t, y, x), rel=1e-13)


def test_green_reference_value():
    # a=1, lam=0, t=1, x=y=1: (1 - e^-1)/sqrt(4 pi)
    val = half_line_green(HalfLineParams(1.0, 0.0), 1.0, 1.0, 1.0)
    assert val == pytest.approx(0.1783179174187295, abs=1e-12)


def test_green_positive_inside_quadrant():
    pp = HalfLineParams(0.8, 1.5)
    xs = np.linspace(0.05, 12.0, 40)
    vals = half_line_green(pp, 1.7, xs[:, None], xs[None, :])
    assert np.all(vals > 0)


def test_green_dt_matches_finite_difference():
    pp = HalfLineParams(1.0, 1.0)
    delta = 1e-6
    fd = (half_line_green(pp, 2.0 + delta, 3.0, 1.0) - half_line_green(pp, 2.0 - delta, 3.0, 1.0)) / (
        2.0 * delta
    )
    assert half_line_green_dt(pp, 2.0, 3.0, 1.0) == pytest.approx(fd, rel=1e-6)


def test_green_dt_matches_finite_difference_everywhere_sampled():
    rng = np.random.default_rng(11)
    for _ in range(60):
        pp = HalfLineParams(rng.uniform(0.4, 2.5), rng.uniform(0.3, 2.5))
        t = rng.uniform(0.2, 6.0)
        x, y = rng.uniform(0.0, 12.0, 2)
        delta = 1e-6 * t
        fd = (half_line_green(pp, t + delta, x, y) - half_line_green(pp, t - delta, x, y)) / (
            2.0 * delta
        )
        assert half_line_green_dt(pp, t, x, y) == pytest.approx(fd, rel=1e-5, abs=1e-12)


def test_green_dt_positive_at_region_sample():
    # t=3 >= t0(1) ~ 2.082 and x=5 >= sqrt(24) ~ 4.899
    assert half_line_green_dt(HalfLineParams(1.0, 1.0), 3.0, 5.0, 1.0) > 0


def test_phi_maximum_at_one():
    xs = np.linspace(0.0, 10.0, 2001)
    phi = xs * np.exp(-xs)
    assert np.max(phi) == pytest.approx(math.exp(-1.0), abs=1e-6)
    assert abs(xs[np.argmax(phi)] - 1.0) <= 0.01


def test_t0_threshold_values_and_scaling():
    assert t0_threshold(HalfLineParams(1.0, 1.0)) == pytest.approx(2.0819767068693267, abs=1e-12)
    assert t0_threshold(HalfLineParams(1.0, 2.0)) == pytest.approx(2.0819767068693267 / 2.0)
    lams = np.array([0.5, 1.0, 2.0, 4.0, 100.0])
    vals = [t0_threshold(HalfLineParams(1.0, l)) for l in lams]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.05


def test_region_scan_has_no_sign_violations():
    scan = scan_green_dt_region()
    assert scan.n_points == 9 * 20 * 50 * 100
    assert scan.n_violations == 0
    assert scan.min_value > 0


def _indicator(grid: Grid, lo: float, hi: float) -> GridFunction:
    x = grid.axis(0)
    return GridFunction(np.where((x >= lo) & (x <= hi), 1.0, 0.0), grid.h, (0.0,))


def test_quadrature_linearity_and_zero_input():
    pp = HalfLineParams(1.0, 1.0)
    grid = Grid.halfline(20.0, 0.05)
    zero = grid.zero_field()
    out = halfline_quadrature(pp, zero, 0.7)
    assert np.all(out.values == 0.0)


def test_quadrature_growth_factor_is_exact():
    grid = Grid.halfline(20.0, 0.05)
    v0 = _indicator(grid, 1.0, 2.0)
    t = 0.8
    grown = halfline_quadrature(HalfLineParams(1.0, 1.3), v0, t)
    flat = halfline_quadrature(HalfLineParams(1.0, 0.0), v0, t)
    assert np.allclose(grown.values, math.exp(1.3 * t) * flat.values, rtol=1e-12, atol=0)


def test_quadrature_warns_when_support_touches_edge():
    grid = Grid.halfline(10.0, 0.05)
    v0 = _indicator(grid, 8.0, 10.0)
    with pytest.warns(RuntimeWarning):
        halfline_quadrature(HalfLineParams(1.0, 1.0), v0, 0.3)


def test_quadrature_matches_pde_solve():
    pp = HalfLineParams(1.0, 1.0)
    grid = Grid.halfline(30.0, 0.02)
    v0 = _indicator(grid, 1.0, 2.0)
    w = halfline_quadrature(pp, v0, 0.5)
    (_, v, _), = solve_linear_halfline(1.0, 1.0, v0, lambda t: 0.0, [0.5])
    err = np.max(np.abs(w.values - v.values)) / np.max(np.abs(w.values))
    assert err <= 1e-2


@pytest.fixture(scope="module")
def gaussian_kernels():
    grid = Grid.centered(40.0, 0.05, 1)
    return fundamental_solution(Constant(1.0), [0.5, 1.0, 2.0, 4.0], (0.0,), grid)


def test_aronson_fit_certifies_both_bounds(gaussian_kernels):
    fit = fit_aronson_K(gaussian_kernels.pairs(), gaussian_kernels.source, x_max=10.0)
    assert fit.K >= 1.0
    assert fit.K_gaussian == pytest.approx(1.0, abs=0.05)
    # independently recheck the certified literal-form bounds on the raw values
    K = fit.K
    for t, gf in gaussian_kernels.pairs():
        x = gf.axis(0)
        keep = (np.abs(x) <= 10.0) & (gf.values >= fit.floor)
        d2t = x[keep] ** 2 / t
        lower = np.exp(-K * d2t) / (K * math.sqrt(t))
        upper = K * np.exp(-d2t / K) / math.sqrt(t)
        assert np.all(lower <= gf.values[keep] * (1 + 1e-9))
        assert np.all(gf.values[keep] <= upper * (1 + 1e-9))


def test_aronson_fit_shrinking_window_never_increases_K(gaussian_kernels):
    wide = fit_aronson_K(gaussian_kernels.pairs(), gaussian_kernels.source, x_max=10.0)
    narrow = fit_aronson_K(gaussian_kernels.pairs(), gaussian_kernels.source, x_max=5.0)
    assert narrow.K <= wide.K + 2e-3


def test_aronson_fit_error_when_window_empty(gaussian_kernels):
    with pytest.raises(AronsonFitError):
        fit_aronson_K(gaussian_kernels.pairs(), gaussian_kernels.source, x_max=10.0, floor=1e6)


def test_prop61_constant_coefficient_threshold():
    # sigma = 0.9, N=1: passing needs tau/(tau+1) > 0.81, i.e. tau > 4.2631
    coeff = Constant(1.0)
    assert check_kernel_ratio(coeff, tau=4.5, sigma=0.9).passed
    assert not check_kernel_ratio(coeff, tau=4.0, sigma=0.9).passed


def test_prop61_small_sigma_always_passes():
    rep = check_kernel_ratio(Constant(1.0), tau=0.5, sigma=0.01)
    assert rep.passed
    assert rep.min_ratio > 0


def test_prop61_min_ratio_matches_prediction_at_origin():
    rep = check_kernel_ratio(Constant(1.0), tau=4.0, sigma=0.8)
    assert rep.min_ratio == pytest.approx(rep.constant_coeff_prediction, abs=1e-3)
    assert abs(rep.argmin_x) <= 0.05 + 1e-12


def test_prop61_two_dimensional_prediction():
    rep = check_kernel_ratio(
        Constant(1.0),
        tau=2.0,
        sigma=0.6,
        x_max=6.0,
        half_width=15.0,
        h=0.25,
        dim=2,
    )
    assert rep.passed
    assert rep.min_ratio == pytest.approx(rep.constant_coeff_prediction, abs=2e-3)


def test_quadrature_richardson_refinement_improves_smooth_data():
    pp = HalfLineParams(1.0, 0.5)
    grid = Grid.halfline(20.0, 0.1)
    y = grid.axis(0)
    v0 = GridFunction(np.exp(-((y - 4.0) ** 2)), grid.h, (0.0,))
    ref_grid = Grid.halfline(20.0, 0.025)
    yr = ref_grid.axis(0)
    ref = halfline_quadrature(pp, GridFunction(np.exp(-((yr - 4.0) ** 2)), ref_grid.h, (0.0,)), 1.0)
    x_probe = np.arange(0, 201, 10)  # common nodes of both grids
    ref_vals = ref.values[x_probe * 4]
    plain = halfline_quadrature(pp, v0, 1.0).values[x_probe]
    refined = halfline_quadrature(pp, v0, 1.0, richardson=True).values[x_probe]
    keep = np.abs(ref_vals) > 1e-8
    assert np.max(np.abs(refined - ref_vals)[keep]) <= np.max(np.abs(plain - ref_vals)[keep])
