"""Problem definitions: diffusion coefficients, KPP reactions, initial data.

The validator measures the structural constants (ellipticity bound, Lipschitz
bound, linear lower bound near 0) by sampling and returns a
:class:`HypothesisReport` with one verdict per hypothesis.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grids import Grid, GridFunction

ZERO_TOL = 1e-12


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


@dataclass(frozen=True)
class CoefficientField:
    """Scalar diffusivity field a(x) (matrix fields reduce to a(x)·I here).

    Kinds: "constant" (value), "function" (callable of the first coordinate),
    "piecewise" (a- / a+ blended smoothly inside |x| <= radius, exactly
    constant outside).
    """

    kind: str
    value: float = 1.0
    func: Optional[Callable[[np.ndarray], np.ndarray]] = None
    a_minus: float = 1.0
    a_plus: float = 1.0
    radius: float = 0.0

    @staticmethod
    def constant(value: float) -> "CoefficientField":
        if value <= 0:
            raise ValueError("diffusivity must be positive.")
        return CoefficientField(kind="constant", value=value)

    @staticmethod
    def from_function(func: Callable[[np.ndarray], np.ndarray]) -> "CoefficientField":
        return CoefficientField(kind="function", func=func)

    @staticmethod
    def sine(base: float, amplitude: float, wavelength: float) -> "CoefficientField":
        """a(x) = base + amplitude*sin(x/wavelength) along the first coordinate."""
        if base - abs(amplitude) <= 0:
            raise ValueError("sine coefficient must stay positive.")
        return CoefficientField(
            kind="function", func=lambda x: base + amplitude * np.sin(x / wavelength)
        )

    @staticmethod
    def piecewise(a_minus: float, a_plus: float, radius: float) -> "CoefficientField":
        if a_minus <= 0 or a_plus <= 0:
            raise ValueError("diffusivities must be positive.")
        if radius <= 0:
            raise ValueError("transition radius must be positive.")
        return CoefficientField(kind="piecewise", a_minus=a_minus, a_plus=a_plus, radius=radius)

    def evaluate(self, points) -> np.ndarray:
        x = np.asarray(_first_coord(points), dtype=float)
        if self.kind == "constant":
            return np.full_like(x, self.value)
        if self.kind == "function":
            return np.asarray(self.func(x), dtype=float)
        if self.kind == "piecewise":
            w = smoothstep((x + self.radius) / (2.0 * self.radius))
            return self.a_minus + (self.a_plus - self.a_minus) * w
        raise ValueError(f"unknown coefficient kind {self.kind!r}.")

    def constant_at_infinity(self) -> bool:
        return self.kind in ("constant", "piecewise")


@dataclass(frozen=True)
class Reaction:
    """Reaction term f(x,u).

    Kinds: "logistic" (rate*u*(1-u)), "zero" (f=0, diffusion-only runs),
    "separable" (r(x)*g(u)), "piecewise-kpp" (tent profiles
    f±(u) = rate±*min(u, theta*(1-u)/(1-theta)) blended smoothly inside
    |x| <= radius, exactly f± outside).
    """

    kind: str
    rate: float = 1.0
    rate_minus: float = 1.0
    rate_plus: float = 1.0
    theta: float = 0.5
    radius: float = 0.0
    r_func: Optional[Callable[[np.ndarray], np.ndarray]] = None
    g_func: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @staticmethod
    def logistic(rate: float) -> "Reaction":
        if rate <= 0:
            raise ValueError("logistic rate must be positive.")
        return Reaction(kind="logistic", rate=rate)

    @staticmethod
    def zero() -> "Reaction":
        return Reaction(kind="zero", rate=0.0)

    @staticmethod
    def separable(r_func, g_func) -> "Reaction":
        return Reaction(kind="separable", r_func=r_func, g_func=g_func)

    @staticmethod
    def piecewise_kpp(
        rate_minus: float, rate_plus: float, theta: float, radius: float
    ) -> "Reaction":
        if rate_minus <= 0 or rate_plus <= 0:
            raise ValueError("piecewise rates must be positive.")
        if not 0 < theta < 1:
            raise ValueError("theta must lie in (0,1).")
        if radius <= 0:
            raise ValueError("blend radius must be positive.")
        return Reaction(
            kind="piecewise-kpp",
            rate_minus=rate_minus,
            rate_plus=rate_plus,
            theta=theta,
            radius=radius,
        )

    def tent(self, u, rate: float) -> np.ndarray:
        """Tent profile rate*min(u, theta*(1-u)/(1-theta)); linear on [0,theta]."""
        u = np.asarray(u, dtype=float)
        return rate * np.minimum(u, self.theta * (1.0 - u) / (1.0 - self.theta))

    def blend_weight(self, x) -> np.ndarray:
        return smoothstep((np.asarray(x, dtype=float) + self.radius) / (2.0 * self.radius))

    def bind(self, points) -> Optional[Callable[..., np.ndarray]]:
        """f(x, .) at fixed points as a function ``f(u, out=None)`` of u alone;
        None for the zero kind.

        The x-dependent factors are computed once, so a time march evaluates
        only the u-dependent part at each step. With ``out`` (an array of the
        points' shape) the result is written there and returned. This is the
        one place that knows the formula of each kind.
        """
        if self.kind == "zero":
            return None
        if self.kind == "logistic":
            rate = self.rate
            return lambda u, out=None: np.multiply(np.multiply(rate, u, out=out), 1.0 - u, out=out)
        x = np.asarray(_first_coord(points), dtype=float)
        if self.kind == "separable":
            rx = np.asarray(self.r_func(x), dtype=float)
            return lambda u, out=None: np.multiply(
                rx, np.asarray(self.g_func(u), dtype=float), out=out
            )
        if self.kind == "piecewise-kpp":
            w = self.blend_weight(x)
            return lambda u, out=None: np.add(
                w * self.tent(u, self.rate_plus), (1.0 - w) * self.tent(u, self.rate_minus), out=out
            )
        raise ValueError(f"unknown reaction kind {self.kind!r}.")

    def evaluate(self, points, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        f = self.bind(points)
        return np.zeros_like(u) if f is None else f(u)

    def lipschitz_bound(self, xs=None, n_samples: int = 256) -> float:
        """Upper bound on |df/du|, uniform in x. For separable kinds it is
        sampled: g' on n_samples points of [0,1], and r at the first
        coordinates ``xs`` (default n_samples points of [-100, 100])."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "logistic":
            return self.rate
        if self.kind == "piecewise-kpp":
            slope_up = max(self.rate_minus, self.rate_plus)
            slope_down = slope_up * self.theta / (1.0 - self.theta)
            return max(slope_up, slope_down)
        ss = np.linspace(0.0, 1.0, n_samples)
        g = np.asarray(self.g_func(ss), dtype=float)
        slope = np.max(np.abs(np.diff(g))) / (ss[1] - ss[0])
        if xs is None:
            xs = np.linspace(-100.0, 100.0, n_samples)
        rmax = float(np.max(np.abs(np.asarray(self.r_func(xs), dtype=float))))
        return float(slope * rmax)

    def constant_at_infinity(self) -> bool:
        return self.kind in ("logistic", "zero", "piecewise-kpp")


@dataclass(frozen=True)
class InitialCondition:
    """Initial datum u0, tagged by decay class.

    Kinds: "gaussian" (amplitude*exp(-decay*|x|^2)), "exponential"
    (min(amplitude*exp(-decay*|x|), 1)), "bump" (height inside |x| <= radius,
    exactly 0 outside).
    """

    kind: str
    amplitude: float = 1.0
    decay: float = 1.0
    radius: float = 1.0
    height: float = 1.0

    @staticmethod
    def gaussian(amplitude: float, decay: float) -> "InitialCondition":
        if amplitude <= 0 or decay <= 0:
            raise ValueError("gaussian amplitude and decay must be positive.")
        return InitialCondition(kind="gaussian", amplitude=amplitude, decay=decay)

    @staticmethod
    def exponential(amplitude: float, decay: float) -> "InitialCondition":
        if amplitude <= 0 or decay <= 0:
            raise ValueError("exponential amplitude and decay must be positive.")
        return InitialCondition(kind="exponential", amplitude=amplitude, decay=decay)

    @staticmethod
    def bump(radius: float, height: float) -> "InitialCondition":
        if radius <= 0 or not 0 < height <= 1:
            raise ValueError("bump needs radius > 0 and height in (0,1].")
        return InitialCondition(kind="bump", radius=radius, height=height)

    @property
    def decay_class(self) -> str:
        """Which decay hypothesis applies: gaussian-type or exponential-type."""
        return "exponential" if self.kind == "exponential" else "gaussian"

    def evaluate(self, points) -> np.ndarray:
        r = _radius(points)
        if self.kind == "gaussian":
            return self.amplitude * np.exp(-self.decay * r**2)
        if self.kind == "exponential":
            return self.amplitude * np.exp(-self.decay * r)
        if self.kind == "bump":
            return np.where(r <= self.radius, self.height, 0.0)
        raise ValueError(f"unknown initial-condition kind {self.kind!r}.")


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
        if self.half_width <= 0:
            raise ValueError("half_width must be positive.")
        for piece in (self.coefficient, self.reaction):
            r = getattr(piece, "radius", 0.0)
            if getattr(piece, "kind", "") in ("piecewise", "piecewise-kpp"):
                if self.half_width <= r:
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

    @property
    def warnings(self) -> list[str]:
        return [f"{k}: {v.note}" for k, v in self.verdicts.items() if v.passed is None]

    def summary(self) -> str:
        lines = [f"nu={self.nu:.6g}  L_lip={self.L_lip:.6g}  mu={self.mu:.6g}  s0={self.s0:.6g}"]
        for key in sorted(self.verdicts):
            v = self.verdicts[key]
            state = "pass" if v.passed else ("WARN" if v.passed is None else "FAIL")
            extra = f" witness={v.witness}" if v.witness is not None else ""
            note = f" ({v.note})" if v.note else ""
            lines.append(f"  {key}: {state}{extra}{note}")
        return "\n".join(lines)


def validate_problem(p: Problem, n_samples: int = 64, s0_window: float = 0.1) -> HypothesisReport:
    """Sample the hypotheses on the truncated domain and report constants.

    Raises :class:`MalformedReactionError` when f(x,0) or f(x,1) exceeds 1e-12,
    and ValueError for fewer than 16 samples per axis.
    """
    if n_samples < 16:
        raise ValueError("need n_samples >= 16 in each of x and u.")
    if not 0 < s0_window < 1:
        raise ValueError("s0_window must lie in (0,1).")

    L = p.half_width
    xs = np.linspace(-L, L, n_samples)
    verdicts: dict[str, Verdict] = {}

    # (4) uniform ellipticity: nu = smallest nu >= 1 with 1/nu <= a <= nu.
    a = p.coefficient.evaluate(xs)
    a_min, a_max = float(np.min(a)), float(np.max(a))
    if a_min <= 0:
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
    s0 = s0_window
    ss = np.linspace(s0 / n_samples, s0, n_samples)
    Xs, Ss = np.meshgrid(xs, ss, indexing="ij")
    ratio8 = p.reaction.evaluate(Xs, Ss) / Ss
    mu = float(np.min(ratio8))
    hu = s0 / n_samples
    r_h = p.reaction.evaluate(xs, np.full_like(xs, hu)) / hu
    r_h2 = p.reaction.evaluate(xs, np.full_like(xs, hu / 2)) / (hu / 2)
    slope0 = 2.0 * r_h2 - r_h  # Richardson-extrapolated limit of f(x,s)/s at s=0
    worst = int(np.argmin(slope0))
    if mu <= 0 or slope0[worst] <= max(1e-12, 0.5 * mu):
        verdicts["h8_linear_lower"] = Verdict(
            False,
            witness=(float(xs[worst]), 0.0),
            note="f(x,s)/s has no positive limit as s -> 0+",
        )
    else:
        verdicts["h8_linear_lower"] = Verdict(True)

    # (5)/(9) asymptotic homogeneity: structural for builtin kinds, warn otherwise.
    if p.coefficient.constant_at_infinity():
        verdicts["h5_coeff_osc"] = Verdict(True)
    else:
        verdicts["h5_coeff_osc"] = Verdict(
            None, note="user-supplied coefficient; gradient decay at infinity not checked"
        )
    if p.reaction.constant_at_infinity():
        verdicts["h9_reaction_osc"] = Verdict(True)
    else:
        verdicts["h9_reaction_osc"] = Verdict(
            None, note="user-supplied reaction; oscillation decay at infinity not checked"
        )

    # Piecewise kinds: exact homogeneity outside the transition interval.
    if p.coefficient.kind == "piecewise":
        R = p.coefficient.radius
        out = np.linspace(R, L, 16)
        okp = np.allclose(p.coefficient.evaluate(out), p.coefficient.a_plus, rtol=0, atol=0)
        okm = np.allclose(p.coefficient.evaluate(-out), p.coefficient.a_minus, rtol=0, atol=0)
        verdicts["piecewise_coeff_constant"] = Verdict(bool(okp and okm))
    if p.reaction.kind == "piecewise-kpp":
        R = p.reaction.radius
        out = np.linspace(R, L, 16)
        uu = np.linspace(0.0, p.reaction.theta, 16)
        Xo, Uo = np.meshgrid(out, uu, indexing="ij")
        linear_plus = np.allclose(
            p.reaction.evaluate(Xo, Uo), p.reaction.rate_plus * Uo, rtol=0, atol=1e-14
        )
        linear_minus = np.allclose(
            p.reaction.evaluate(-Xo, Uo), p.reaction.rate_minus * Uo, rtol=0, atol=1e-14
        )
        verdicts["piecewise_reaction_linear"] = Verdict(bool(linear_plus and linear_minus))

    return HypothesisReport(nu=nu, L_lip=L_lip, mu=mu, s0=s0, verdicts=verdicts)


def make_initial(spec: InitialCondition, grid: Grid) -> GridFunction:
    """Sample u0 on the grid, clipped to [0,1]; rejects an all-zero field."""
    values = np.clip(spec.evaluate(grid.points()), 0.0, 1.0)
    if not np.any(values > 0):
        raise ValueError("initial condition is identically zero on this grid.")
    return GridFunction(values, grid.h, grid.origin)


def homogeneous_kpp(
    half_width: float = 200.0,
    rate: float = 1.0,
    diffusivity: float = 1.0,
    bump_radius: float = 1.0,
    bump_height: float = 1.0,
    dimension: int = 1,
) -> Problem:
    """Classical homogeneous KPP invasion problem with a compact bump."""
    return Problem(
        dimension=dimension,
        half_width=half_width,
        coefficient=CoefficientField.constant(diffusivity),
        reaction=Reaction.logistic(rate),
        initial=InitialCondition.bump(bump_radius, bump_height),
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
        coefficient=CoefficientField.piecewise(a_minus, a_plus, radius),
        reaction=Reaction.piecewise_kpp(rate_minus, rate_plus, theta, radius),
        initial=InitialCondition.bump(1.0, 1.0),
    )


def builtin_problems() -> dict[str, Problem]:
    return {
        "homogeneous-kpp": homogeneous_kpp(half_width=50.0),
        "piecewise-kpp": piecewise_kpp_problem(half_width=60.0),
    }
