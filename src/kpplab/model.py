"""Problem definitions: diffusion coefficients, KPP reactions, initial data.

Each kind is one frozen dataclass: it checks its arguments, owns its formula
and states the facts the theorems need (Lipschitz bound, constancy at
infinity, linearity near 0, exact homogeneity outside a bounded interval).
The validator measures the structural constants (ellipticity bound, Lipschitz
bound, linear lower bound near 0) by sampling and returns a
:class:`HypothesisReport` with one verdict per hypothesis.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional

import numpy as np

from .grids import Grid, GridFunction

ZERO_TOL = 1e-12
S0_WINDOW = 0.1  # the linear lower bound f(x,s) >= mu s is measured on s in (0, S0_WINDOW]


class MalformedReactionError(ValueError):
    """Reaction does not vanish at 0 or 1 beyond tolerance."""


def smoothstep(t):
    """C2 quintic smoothstep: 0 below 0, 1 above 1, 6t^5-15t^4+10t^3 between."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _first_coord(points):
    return points[0] if isinstance(points, (tuple, list)) else points


def _radius(points):
    if isinstance(points, (tuple, list)):
        return np.sqrt(sum(np.asarray(c) ** 2 for c in points))
    return np.abs(np.asarray(points))


class Blend:
    """The smoothstep blend shared by the piecewise kinds: weight 0 for
    x <= -radius, 1 for x >= radius. These kinds are one-dimensional."""

    def blend_weight(self, x) -> np.ndarray:
        return smoothstep((np.asarray(x, dtype=float) + self.radius) / (2.0 * self.radius))


class CoefficientField:
    """Scalar diffusivity field a(x) (matrix fields reduce to a(x)·I here)."""

    kind: ClassVar[str]
    constant_at_infinity: ClassVar[bool] = False  # a(x) exactly constant for large |x|

    def evaluate(self, points) -> np.ndarray:
        raise NotImplementedError

    def exactly_homogeneous(self, half_width: float) -> Optional[bool]:
        """Whether a(x) is exactly constant outside its transition interval
        on [-half_width, half_width]; None for kinds without one."""
        return None


@dataclass(frozen=True)
class Constant(CoefficientField):
    value: float

    kind = "constant"
    constant_at_infinity = True

    def __post_init__(self) -> None:
        if not self.value > 0:
            raise ValueError("diffusivity must be positive.")

    def evaluate(self, points) -> np.ndarray:
        return np.full_like(np.asarray(_first_coord(points), dtype=float), self.value)


@dataclass(frozen=True)
class Sine(CoefficientField):
    """a(x) = base + amplitude*sin(x/wavelength) along the first coordinate."""

    base: float
    amplitude: float
    wavelength: float

    kind = "sine"

    def __post_init__(self) -> None:
        if not self.base - abs(self.amplitude) > 0:
            raise ValueError("sine coefficient must stay positive.")
        if not abs(self.wavelength) > 0:
            raise ValueError("sine wavelength must be nonzero.")

    def evaluate(self, points) -> np.ndarray:
        x = np.asarray(_first_coord(points), dtype=float)
        return self.base + self.amplitude * np.sin(x / self.wavelength)


@dataclass(frozen=True)
class Piecewise(Blend, CoefficientField):
    """a- / a+ blended smoothly inside |x| <= radius, exactly constant outside."""

    a_minus: float
    a_plus: float
    radius: float

    kind = "piecewise"
    constant_at_infinity = True

    def __post_init__(self) -> None:
        if not (self.a_minus > 0 and self.a_plus > 0):
            raise ValueError("diffusivities must be positive.")
        if not self.radius > 0:
            raise ValueError("transition radius must be positive.")

    def evaluate(self, points) -> np.ndarray:
        w = self.blend_weight(_first_coord(points))
        return self.a_minus + (self.a_plus - self.a_minus) * w

    def exactly_homogeneous(self, half_width: float) -> bool:
        out = np.linspace(self.radius, half_width, 16)
        plus, minus = self.evaluate(out), self.evaluate(-out)
        return bool(np.all(plus == self.a_plus) and np.all(minus == self.a_minus))


class Reaction:
    """Reaction term f(x,u)."""

    kind: ClassVar[str]
    constant_at_infinity: ClassVar[bool] = False  # f(x,.) independent of x for large |x|
    linear_near_zero: ClassVar[bool] = False  # f(x,u) = r(x) u with r > 0 for u near 0

    def bind(self, points) -> Optional[Callable[..., np.ndarray]]:
        """f(x, .) at fixed points as a function ``f(u, out=None)`` of u alone;
        None for f = 0.

        The x-dependent factors are computed once, so a time march evaluates
        only the u-dependent part at each step. With ``out`` (an array of the
        points' shape) the result is written there and returned.
        """
        raise NotImplementedError

    def evaluate(self, points, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        f = self.bind(points)
        return np.zeros_like(u) if f is None else f(u)

    def lipschitz_bound(self, xs=None) -> float:
        """Upper bound on |df/du|, uniform in x (in the first coordinates
        ``xs`` for kinds that depend on x)."""
        raise NotImplementedError

    def exactly_homogeneous(self, half_width: float) -> Optional[bool]:
        """Whether f is exactly linear near 0 and independent of x outside its
        transition interval on [-half_width, half_width]; None for kinds
        without one."""
        return None


@dataclass(frozen=True)
class Logistic(Reaction):
    """f(u) = rate*u*(1-u)."""

    rate: float

    kind = "logistic"
    constant_at_infinity = True

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ValueError("logistic rate must be positive.")

    def bind(self, points) -> Callable[..., np.ndarray]:
        rate = self.rate
        return lambda u, out=None: np.multiply(np.multiply(rate, u, out=out), 1.0 - u, out=out)

    def lipschitz_bound(self, xs=None) -> float:
        return self.rate


@dataclass(frozen=True)
class Zero(Reaction):
    """f = 0, for diffusion-only runs."""

    kind = "zero"
    constant_at_infinity = True

    def bind(self, points) -> None:
        return None

    def lipschitz_bound(self, xs=None) -> float:
        return 0.0


@dataclass(frozen=True)
class Separable(Reaction):
    """f(x,u) = r(x)*g(u); ``g_lipschitz`` is the caller's bound on sup |g'|
    over [0,1]."""

    r_func: Callable[[np.ndarray], np.ndarray]
    g_func: Callable[[np.ndarray], np.ndarray]
    g_lipschitz: float

    kind = "separable"

    def __post_init__(self) -> None:
        if not self.g_lipschitz >= 0:
            raise ValueError("g_lipschitz must be a nonnegative bound on |g'|.")

    def bind(self, points) -> Callable[..., np.ndarray]:
        rx = np.asarray(self.r_func(np.asarray(_first_coord(points), dtype=float)), dtype=float)
        g = self.g_func
        return lambda u, out=None: np.multiply(rx, np.asarray(g(u), dtype=float), out=out)

    def lipschitz_bound(self, xs=None) -> float:
        """g_lipschitz times the largest |r| at ``xs`` (default 256 points of
        [-100, 100])."""
        if xs is None:
            xs = np.linspace(-100.0, 100.0, 256)
        rmax = float(np.max(np.abs(np.asarray(self.r_func(xs), dtype=float))))
        return float(self.g_lipschitz * rmax)


@dataclass(frozen=True)
class PiecewiseKPP(Blend, Reaction):
    """Tent profiles f±(u) = rate±*min(u, theta*(1-u)/(1-theta)) blended
    smoothly inside |x| <= radius, exactly f± outside."""

    rate_minus: float
    rate_plus: float
    theta: float
    radius: float

    kind = "piecewise-kpp"
    constant_at_infinity = True
    linear_near_zero = True

    def __post_init__(self) -> None:
        if not (self.rate_minus > 0 and self.rate_plus > 0):
            raise ValueError("piecewise rates must be positive.")
        if not 0 < self.theta < 1:
            raise ValueError("theta must lie in (0,1).")
        if not self.radius > 0:
            raise ValueError("blend radius must be positive.")

    def tent(self, u, rate: float) -> np.ndarray:
        """Tent profile rate*min(u, theta*(1-u)/(1-theta)); linear on [0,theta]."""
        u = np.asarray(u, dtype=float)
        return rate * np.minimum(u, self.theta * (1.0 - u) / (1.0 - self.theta))

    def bind(self, points) -> Callable[..., np.ndarray]:
        w = self.blend_weight(_first_coord(points))
        return lambda u, out=None: np.add(
            w * self.tent(u, self.rate_plus), (1.0 - w) * self.tent(u, self.rate_minus), out=out
        )

    def lipschitz_bound(self, xs=None) -> float:
        slope_up = max(self.rate_minus, self.rate_plus)
        slope_down = slope_up * self.theta / (1.0 - self.theta)
        return max(slope_up, slope_down)

    def exactly_homogeneous(self, half_width: float) -> bool:
        out = np.linspace(self.radius, half_width, 16)
        uu = np.linspace(0.0, self.theta, 16)
        X, U = np.meshgrid(out, uu, indexing="ij")
        linear_plus = np.allclose(self.evaluate(X, U), self.rate_plus * U, rtol=0, atol=1e-14)
        linear_minus = np.allclose(self.evaluate(-X, U), self.rate_minus * U, rtol=0, atol=1e-14)
        return bool(linear_plus and linear_minus)


class InitialCondition:
    """Initial datum u0, a function of |x|."""

    kind: ClassVar[str]

    def evaluate(self, points) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class _Decaying(InitialCondition):
    """The fields and checks shared by the decaying kinds."""

    amplitude: float
    decay: float

    def __post_init__(self) -> None:
        if not (self.amplitude > 0 and self.decay > 0):
            raise ValueError("amplitude and decay must be positive.")


class Gaussian(_Decaying):
    """amplitude*exp(-decay*|x|^2)."""

    kind = "gaussian"

    def evaluate(self, points) -> np.ndarray:
        return self.amplitude * np.exp(-self.decay * _radius(points) ** 2)


class Exponential(_Decaying):
    """amplitude*exp(-decay*|x|), capped at 1 when sampled on a grid."""

    kind = "exponential"

    def evaluate(self, points) -> np.ndarray:
        return self.amplitude * np.exp(-self.decay * _radius(points))


@dataclass(frozen=True)
class Bump(InitialCondition):
    """height inside |x| <= radius, exactly 0 outside."""

    radius: float
    height: float

    kind = "bump"

    def __post_init__(self) -> None:
        if not (self.radius > 0 and 0 < self.height <= 1):
            raise ValueError("bump needs radius > 0 and height in (0,1].")

    def evaluate(self, points) -> np.ndarray:
        return np.where(_radius(points) <= self.radius, self.height, 0.0)


@dataclass(frozen=True)
class Problem:
    """Truncated Cauchy problem: u_t = div(a(x) grad u) + f(x,u) on [-L,L]^dim."""

    dimension: int
    half_width: float
    coefficient: CoefficientField
    reaction: Reaction
    initial: InitialCondition

    def __post_init__(self) -> None:
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2.")
        if not self.half_width > 0:
            raise ValueError("half_width must be positive.")
        for piece in (self.coefficient, self.reaction):
            if isinstance(piece, Blend):
                if self.half_width <= piece.radius:
                    raise ValueError("half_width must exceed the piecewise radius.")
                if self.dimension != 1:
                    raise ValueError("piecewise kinds are one-dimensional.")


@dataclass(frozen=True)
class Verdict:
    """Outcome of one hypothesis check; passed=None means 'not checked, warned'."""

    passed: Optional[bool]
    witness: Optional[tuple] = None
    note: str = ""


@dataclass
class HypothesisReport:
    """Measured structural constants plus per-hypothesis verdicts."""

    nu: float
    L_lip: float
    mu: float
    s0: float
    verdicts: dict[str, Verdict] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(v.passed is not False for v in self.verdicts.values())

    def summary(self) -> str:
        lines = [f"nu={self.nu:.6g}  L_lip={self.L_lip:.6g}  mu={self.mu:.6g}  s0={self.s0:.6g}"]
        for key in sorted(self.verdicts):
            v = self.verdicts[key]
            state = "pass" if v.passed else ("WARN" if v.passed is None else "FAIL")
            extra = f" witness={v.witness}" if v.witness is not None else ""
            note = f" ({v.note})" if v.note else ""
            lines.append(f"  {key}: {state}{extra}{note}")
        return "\n".join(lines)


def validate_problem(p: Problem, n_samples: int = 64) -> HypothesisReport:
    """Sample the hypotheses on the truncated domain and report constants.

    Raises :class:`MalformedReactionError` when f(x,0) or f(x,1) exceeds 1e-12,
    and ValueError for fewer than 16 samples per axis.
    """
    if n_samples < 16:
        raise ValueError("need n_samples >= 16 in each of x and u.")

    L = p.half_width
    xs = np.linspace(-L, L, n_samples)
    verdicts: dict[str, Verdict] = {}

    # (4) uniform ellipticity: nu = smallest nu >= 1 with 1/nu <= a <= nu.
    a = p.coefficient.evaluate(xs)
    a_min, a_max = float(np.min(a)), float(np.max(a))
    if not a_min > 0:
        verdicts["h4_ellipticity"] = Verdict(
            False, witness=(float(xs[int(np.argmin(a))]),), note="coefficient not positive"
        )
        nu = float("inf")
    else:
        nu = max(a_max, 1.0 / a_min, 1.0)
        verdicts["h4_ellipticity"] = Verdict(True)

    # (6) f(x,0) = f(x,1) = 0: malformed reactions are rejected outright.
    f0 = p.reaction.evaluate(xs, np.zeros_like(xs))
    f1 = p.reaction.evaluate(xs, np.ones_like(xs))
    bad = np.abs(f0) > ZERO_TOL
    bad1 = np.abs(f1) > ZERO_TOL
    if bad.any() or bad1.any():
        i = int(np.argmax(np.abs(f0) + np.abs(f1)))
        raise MalformedReactionError(
            f"f(x,0) or f(x,1) nonzero beyond {ZERO_TOL:g} at x={xs[i]:.6g}."
        )
    verdicts["h6_zeros"] = Verdict(True)

    # (7) u -> f(x,1-u)/u non-increasing on (0,1].
    us = np.linspace(1.0 / n_samples, 1.0, n_samples)
    X, U = np.meshgrid(xs, us, indexing="ij")
    ratio7 = p.reaction.evaluate(X, 1.0 - U) / U
    increase = np.diff(ratio7, axis=1) > 1e-10
    if increase.any():
        i, j = np.unravel_index(int(np.argmax(increase)), increase.shape)
        verdicts["h7_kpp_ratio"] = Verdict(
            False,
            witness=(float(xs[i]), float(us[j + 1])),
            note="f(x,1-u)/u increases between consecutive u samples",
        )
    else:
        verdicts["h7_kpp_ratio"] = Verdict(True)

    # Lipschitz-type bound: smallest L with f(x,s) <= L s on the samples.
    ratio_all = p.reaction.evaluate(X, U) / U
    L_lip = float(np.max(ratio_all))

    # (8) f(x,s) >= mu s on [0, s0]: mu measured on the window, slope at 0
    # certified by Richardson extrapolation of f(x,s)/s.
    s0 = S0_WINDOW
    ss = np.linspace(s0 / n_samples, s0, n_samples)
    Xs, Ss = np.meshgrid(xs, ss, indexing="ij")
    ratio8 = p.reaction.evaluate(Xs, Ss) / Ss
    mu = float(np.min(ratio8))
    hu = s0 / n_samples
    r_h = p.reaction.evaluate(xs, np.full_like(xs, hu)) / hu
    r_h2 = p.reaction.evaluate(xs, np.full_like(xs, hu / 2)) / (hu / 2)
    slope0 = 2.0 * r_h2 - r_h  # Richardson-extrapolated limit of f(x,s)/s at s=0
    worst = int(np.argmin(slope0))
    if not (mu > 0 and slope0[worst] > max(1e-12, 0.5 * mu)):
        verdicts["h8_linear_lower"] = Verdict(
            False,
            witness=(float(xs[worst]), 0.0),
            note="f(x,s)/s has no positive limit as s -> 0+",
        )
    else:
        verdicts["h8_linear_lower"] = Verdict(True)

    # (5)/(9) asymptotic homogeneity: stated by each kind, warned where it is not.
    for key, piece, note in (
        ("h5_coeff_osc", p.coefficient, "coefficient gradient decay at infinity not checked"),
        ("h9_reaction_osc", p.reaction, "reaction oscillation decay at infinity not checked"),
    ):
        verdicts[key] = Verdict(True) if piece.constant_at_infinity else Verdict(None, note=note)

    # Piecewise kinds: exact homogeneity outside the transition interval.
    for key, piece in (
        ("piecewise_coeff_constant", p.coefficient),
        ("piecewise_reaction_linear", p.reaction),
    ):
        exact = piece.exactly_homogeneous(L)
        if exact is not None:
            verdicts[key] = Verdict(exact)

    return HypothesisReport(nu=nu, L_lip=L_lip, mu=mu, s0=s0, verdicts=verdicts)


def make_initial(spec: InitialCondition, grid: Grid) -> GridFunction:
    """Sample u0 on the grid, clipped to [0,1]; rejects an all-zero field."""
    values = np.clip(spec.evaluate(grid.points()), 0.0, 1.0)
    if not np.any(values > 0):
        raise ValueError("initial condition is identically zero on this grid.")
    return GridFunction(values, grid.h, grid.origin)


def homogeneous_kpp(
    half_width: float = 200.0, diffusivity: float = 1.0, dimension: int = 1
) -> Problem:
    """Classical homogeneous KPP invasion problem: logistic rate 1 and a unit
    bump of radius 1."""
    return Problem(
        dimension=dimension,
        half_width=half_width,
        coefficient=Constant(diffusivity),
        reaction=Logistic(1.0),
        initial=Bump(1.0, 1.0),
    )


def piecewise_kpp_problem(
    half_width: float = 120.0,
    rate_minus: float = 0.5,
    rate_plus: float = 1.0,
    theta: float = 0.3,
    a_minus: float = 1.0,
    a_plus: float = 1.0,
    radius: float = 10.0,
) -> Problem:
    """One-dimensional problem homogeneous outside [-radius, radius] with
    reactions linear near 0 (the class covered by the global sign result)."""
    return Problem(
        dimension=1,
        half_width=half_width,
        coefficient=Piecewise(a_minus, a_plus, radius),
        reaction=PiecewiseKPP(rate_minus, rate_plus, theta, radius),
        initial=Bump(1.0, 1.0),
    )


def builtin_problems() -> dict[str, Problem]:
    return {
        "homogeneous-kpp": homogeneous_kpp(half_width=50.0),
        "piecewise-kpp": piecewise_kpp_problem(half_width=60.0),
    }
