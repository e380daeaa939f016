"""Closed-form parabolic kernels and kernel inequalities.

Contains the constant-coefficient heat kernel, the half-line Dirichlet Green
function built by reflection with exponential growth factor, its time
derivative and the sign-region threshold t0, a two-sided Gaussian-sandwich
fitter for numerical kernels, and the one-step kernel ratio check
p(tau+1,x;0) >= sigma p(tau,x;0).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .grids import Grid, GridFunction
from .model import CoefficientField
from .solver import fundamental_solution

KERNEL_FLOOR = 1e-12
# Aronson sandwich constants are bisected to ARONSON_TOL, giving up above ARONSON_K_MAX.
ARONSON_TOL = 1e-3
ARONSON_K_MAX = 1e6
# The sampled part of the guaranteed region of G_t: every (a, lam) pair,
# SCAN_N_T times in SCAN_T_SPAN * t0, SCAN_N_X points in
# [sqrt(8at), sqrt(8at) + SCAN_X_OFFSET] and SCAN_N_Y points in (0, SCAN_Y_MAX].
SCAN_A = (0.5, 1.0, 2.0)
SCAN_LAM = (0.5, 1.0, 2.0)
SCAN_N_T, SCAN_N_X, SCAN_N_Y = 20, 50, 100
SCAN_T_SPAN = (1.0, 5.0)
SCAN_X_OFFSET = 10.0
SCAN_Y_MAX = 20.0


@dataclass(frozen=True)
class HalfLineParams:
    """Diffusivity and linear growth rate of v_t = a v_xx + lam_lin v on x>0.

    lam_lin = 0 is accepted for the pure-heat comparisons; the sign-region
    threshold t0 requires a positive rate.
    """

    a: float
    lam_lin: float

    def __post_init__(self) -> None:
        if self.a <= 0 or self.lam_lin < 0:
            raise ValueError("need a > 0 and lam_lin >= 0.")


def gaussian_kernel(D: float, t: float, x, dim: int = 1):
    """Mass-one heat kernel exp(-|x|^2/(4Dt)) / (4 pi D t)^(dim/2).

    ``x`` is the signed position in 1D or the radial distance in general.
    """
    if D <= 0 or t <= 0:
        raise ValueError("D and t must be positive.")
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2.")
    x = np.asarray(x, dtype=float)
    val = np.exp(-(x**2) / (4.0 * D * t)) / (4.0 * math.pi * D * t) ** (dim / 2.0)
    return float(val) if val.ndim == 0 else val


def half_line_green(pp: HalfLineParams, t: float, x, y):
    """Dirichlet Green function on the half-line: reflected Gaussians with
    growth factor exp(lam t); vanishes at x=0 and is symmetric in (x,y)."""
    if t <= 0:
        raise ValueError("t must be positive.")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x < 0) or np.any(y < 0):
        raise ValueError("x and y must be nonnegative on the half-line.")
    pref = math.exp(pp.lam_lin * t) / math.sqrt(4.0 * math.pi * pp.a * t)
    q = 1.0 / (4.0 * pp.a * t)
    val = pref * (np.exp(-((x - y) ** 2) * q) - np.exp(-((x + y) ** 2) * q))
    return float(val) if np.ndim(val) == 0 else val


def half_line_green_dt(pp: HalfLineParams, t: float, x, y):
    """Exact time derivative of the half-line Green function."""
    if t <= 0:
        raise ValueError("t must be positive.")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x < 0) or np.any(y < 0):
        raise ValueError("x and y must be nonnegative on the half-line.")
    a, lam = pp.a, pp.lam_lin
    pref = math.exp(lam * t) / math.sqrt(4.0 * math.pi * a * t**3)
    q = 1.0 / (4.0 * a * t)
    sm = (x - y) ** 2 * q
    sp = (x + y) ** 2 * q
    val = pref * (np.exp(-sm) * (lam * t - 0.5 + sm) - np.exp(-sp) * (lam * t - 0.5 + sp))
    return float(val) if np.ndim(val) == 0 else val


def t0_threshold(pp: HalfLineParams) -> float:
    """Time threshold (2 lam)^-1 + e (e-1)^-1 lam^-1 of the sign region."""
    lam = pp.lam_lin
    if lam <= 0:
        raise ValueError("t0 threshold requires a positive linear rate.")
    return 1.0 / (2.0 * lam) + math.e / ((math.e - 1.0) * lam)


def sign_region_x(pp: HalfLineParams, t: float) -> float:
    """Left edge sqrt(8 a t) of the guaranteed positivity region."""
    return math.sqrt(8.0 * pp.a * t)


def halfline_quadrature(pp: HalfLineParams, v0: GridFunction, t: float) -> GridFunction:
    """Trapezoid quadrature of the Green representation of the Dirichlet part:
    w(t,x) = integral of G(t,x,y) v0(y) dy over the truncated half-line."""
    if v0.dim != 1 or abs(v0.origin[0]) > 1e-12:
        raise ValueError("v0 must live on a half-line grid starting at 0.")
    vals = v0.values
    if np.min(vals) < 0:
        raise ValueError("v0 must be nonnegative.")
    if np.max(np.abs(vals[-2:])) > 1e-12 * max(1.0, float(np.max(np.abs(vals)))):
        warnings.warn("v0 support touches the truncation edge.", RuntimeWarning, stacklevel=2)
    y = v0.axis(0)
    weights = np.full(y.size, v0.h)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    # only the columns y_j with v0(y_j) != 0 contribute: G[i,k] = G(t, x_i, y_{j_k})
    support = np.flatnonzero(vals)
    G = half_line_green(pp, t, y[:, None], y[None, support])
    return v0.with_values(G @ (weights * vals)[support])


@dataclass(frozen=True)
class GreenScanResult:
    n_points: int
    n_violations: int
    min_value: float
    rows: Optional[list[tuple[float, ...]]] = None

    @property
    def passed(self) -> bool:
        return self.n_violations == 0


def scan_green_dt_region(keep_rows: bool = False) -> GreenScanResult:
    """Scan G_t over the guaranteed region t in [t0, 5 t0], x in
    [sqrt(8at), sqrt(8at)+10], y in (0, 20]; counts sign violations."""
    n_points = 0
    n_viol = 0
    min_val = math.inf
    rows: list[tuple[float, ...]] = []
    ys = np.linspace(SCAN_Y_MAX / SCAN_N_Y, SCAN_Y_MAX, SCAN_N_Y)
    for a in SCAN_A:
        for lam in SCAN_LAM:
            pp = HalfLineParams(a, lam)
            t0 = t0_threshold(pp)
            for t in np.linspace(SCAN_T_SPAN[0] * t0, SCAN_T_SPAN[1] * t0, SCAN_N_T):
                x_lo = sign_region_x(pp, t)
                xs = np.linspace(x_lo, x_lo + SCAN_X_OFFSET, SCAN_N_X)
                vals = half_line_green_dt(pp, float(t), xs[:, None], ys[None, :])
                n_points += vals.size
                n_viol += int(np.count_nonzero(vals <= 0))
                min_val = min(min_val, float(np.min(vals)))
                if keep_rows:
                    for ii in range(0, SCAN_N_X, max(1, SCAN_N_X // 5)):
                        for jj in range(0, SCAN_N_Y, max(1, SCAN_N_Y // 5)):
                            rows.append(
                                (
                                    a,
                                    lam,
                                    float(t),
                                    float(xs[ii]),
                                    float(ys[jj]),
                                    float(half_line_green(pp, float(t), xs[ii], ys[jj])),
                                    float(vals[ii, jj]),
                                )
                            )
    return GreenScanResult(
        n_points=n_points,
        n_violations=n_viol,
        min_value=min_val,
        rows=rows if keep_rows else None,
    )


@dataclass(frozen=True)
class AronsonFit:
    """Smallest sandwich constants making both two-sided Gaussian bounds hold
    on the window; K is the literal-form constant, K_gaussian the variant with
    the (4 pi t)^(N/2) normalization absorbed (exact Gaussian -> 1)."""

    K: float
    K_gaussian: float
    floor: float
    n_points: int

    def __post_init__(self) -> None:
        if self.K < 1.0:
            raise ValueError("sandwich constant must be >= 1.")


class AronsonFitError(RuntimeError):
    """No finite sandwich constant certifies the bounds on the window."""


def _radial(gf: GridFunction, center) -> tuple[np.ndarray, np.ndarray]:
    """First coordinate and distance from ``center`` of every grid point."""
    if gf.dim == 1:
        x = gf.axis(0)
        return x, np.abs(x - center[0])
    X, Y = gf.points()
    return X, np.sqrt((X - center[0]) ** 2 + (Y - center[1]) ** 2)


def _collect_kernel_samples(
    kernels: Sequence[tuple[float, GridFunction]],
    source,
    x_max: float,
    floor: float,
):
    ts, ds, ps = [], [], []
    src = np.atleast_1d(np.asarray(source, dtype=float))
    for t, gf in kernels:
        _, d = _radial(gf, src)
        keep = (d <= x_max) & (gf.values >= floor)
        ts.append(np.full(int(np.count_nonzero(keep)), t))
        ds.append(d[keep].ravel())
        ps.append(gf.values[keep].ravel())
    t = np.concatenate(ts)
    d = np.concatenate(ds)
    p = np.concatenate(ps)
    if t.size == 0:
        raise AronsonFitError("window is empty after floor filtering.")
    return t, d, p


def _smallest_sandwich(scale: float, norm: np.ndarray, d2t: np.ndarray, logp: np.ndarray) -> float:
    """Smallest K >= 1, to ARONSON_TOL, with
    exp(-K d^2/(scale t))/K <= p e^norm <= K exp(-d^2/(scale K t))
    at every sample, ``norm`` being the log of the normalization."""

    def feasible(K: float) -> bool:
        lower_ok = np.all(-K * d2t / scale - math.log(K) - norm <= logp + 1e-12)
        upper_ok = np.all(logp <= math.log(K) - d2t / (scale * K) - norm + 1e-12)
        return bool(lower_ok and upper_ok)

    hi = 2.0
    while not feasible(hi):
        hi *= 2.0
        if hi > ARONSON_K_MAX:
            raise AronsonFitError(f"no sandwich constant below {ARONSON_K_MAX:g} fits the window.")
    lo = 1.0
    if feasible(lo):
        return lo
    while hi - lo > ARONSON_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def fit_aronson_K(
    kernels: Sequence[tuple[float, GridFunction]],
    source,
    x_max: float,
    floor: float = KERNEL_FLOOR,
) -> AronsonFit:
    """Fit the smallest K with
    exp(-K d^2/t)/(K t^(N/2)) <= p(t,x;y) <= K exp(-d^2/(K t))/t^(N/2)
    at every included grid point (d = |x-y|, N the kernels' dimension), by
    bisection to ARONSON_TOL; K_gaussian is the same fit with d^2/(4t) and
    (4 pi t)^(N/2) in place of d^2/t and t^(N/2)."""
    t, d, p = _collect_kernel_samples(kernels, source, x_max, floor)
    half_dim = kernels[0][1].dim / 2.0
    d2t = d**2 / t
    logp = np.log(p)
    K = _smallest_sandwich(1.0, np.log(t**half_dim), d2t, logp)
    K_gauss = _smallest_sandwich(4.0, np.log((4.0 * math.pi * t) ** half_dim), d2t, logp)
    return AronsonFit(K=float(K), K_gaussian=float(K_gauss), floor=floor, n_points=int(t.size))


@dataclass(frozen=True)
class KernelRatioReport:
    """Outcome of the one-step kernel ratio check over a window."""

    min_ratio: float
    passed: bool
    argmin_x: float
    constant_coeff_prediction: float
    rows: Optional[list[tuple[float, float, float, float]]] = None


def check_kernel_ratio(
    coeff: CoefficientField,
    tau: float,
    sigma: float,
    x_max: float = 15.0,
    half_width: float = 40.0,
    h: float = 0.05,
    dim: int = 1,
    keep_rows: bool = False,
) -> KernelRatioReport:
    """Evolve the fundamental solution from a point mass at 0 and test
    min over the window of p(tau+1, x; 0) / p(tau, x; 0) against sigma."""
    if not 0 < sigma < 1:
        raise ValueError("sigma must lie in (0,1).")
    if tau <= 0:
        raise ValueError("tau must be positive.")
    grid = Grid.centered(half_width, h, dim)
    origin = (0.0,) * dim
    result = fundamental_solution(coeff, [tau, tau + 1.0], origin, grid)
    p_tau, p_tau1 = result.kernels[0], result.kernels[1]
    x, dist = _radial(p_tau, origin)
    keep = (dist <= x_max) & (p_tau.values >= KERNEL_FLOOR) & (p_tau1.values >= KERNEL_FLOOR)
    if not np.any(keep):
        raise AronsonFitError("window is empty after floor filtering.")
    xs = x[keep]
    ratio = p_tau1.values[keep] / p_tau.values[keep]
    i = int(np.argmin(ratio))
    min_ratio = float(ratio[i])
    rows = None
    if keep_rows:
        rows = [(tau, sigma, float(xi), float(r)) for xi, r in zip(xs, ratio)]
    return KernelRatioReport(
        min_ratio=min_ratio,
        passed=bool(min_ratio >= sigma),
        argmin_x=float(xs[i]),
        constant_coeff_prediction=(tau / (tau + 1.0)) ** (dim / 2.0),
        rows=rows,
    )
