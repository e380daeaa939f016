"""Time integration of the reaction-diffusion problem on a truncated grid.

The reference scheme is explicit Euler with a divergence-form flux using
face-centered coefficients; under dt*(2*dim*sup a/h^2 + L) <= 1 (L the
reaction's Lipschitz bound) the update is monotone, so discrete comparison
and maximum principles hold. An IMEX variant (implicit diffusion solved with
LAPACK's tridiagonal dpttrf/dpttrs, 1D; monotone under dt*L <= 1) is available
for stiff sweeps; it is the only user of scipy, which it imports on first use.
Boundary nodes are held fixed (Dirichlet truncation; zero for decaying data).
The whole-space solve, the fundamental solutions and the half-line solve all
step one stencil through one march loop. An explicit march of a problem that
is its own mirror image steps only the half (1D) or quarter (2D) grid and
gives the same bits.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .grids import Grid, GridFunction, empty_aligned
from .model import CoefficientField, Constant, Problem, Reaction, Separable, Zero
from .model import make_initial, validate_problem

MAXPRINCIPLE_TOL = 1e-12
SNAPSHOT_TOL = 1e-9  # how close a snapshot's time must be to the time asked for
KERNEL_MASS_TOL = 1e-4  # largest drift of a fundamental solution's mass from 1
IMEX_DT_MAX = 0.05  # accuracy cap on the IMEX auto dt; its monotone bound is dt*L <= 1


class NumericalError(RuntimeError):
    """Solver produced values outside its guaranteed range (NaN, overflow, leak)."""


class StabilityError(NumericalError):
    """Requested time step violates the scheme's stability bound."""


@dataclass(frozen=True)
class SolverConfig:
    h: float
    t_final: float
    dt: float | str = "auto"
    scheme: str = "explicit-euler"
    snapshot_every: Optional[float] = None
    snapshot_times: Optional[tuple[float, ...]] = None
    boundary_leak_tolerance: float = 1e-8
    hard_leak_threshold: float = 1e-3

    def __post_init__(self) -> None:
        if not (self.h > 0 and self.t_final > 0):
            raise ValueError("h and t_final must be positive.")
        if self.scheme not in ("explicit-euler", "imex-diffusion-implicit"):
            raise ValueError(f"unknown scheme {self.scheme!r}.")
        if isinstance(self.dt, str) and self.dt != "auto":
            raise ValueError("dt must be a positive number or 'auto'.")
        if not isinstance(self.dt, str) and not self.dt > 0:
            raise ValueError("dt must be a positive number or 'auto'.")
        if self.snapshot_every is not None and not self.snapshot_every > 0:
            raise ValueError("snapshot_every must be positive.")
        if self.snapshot_times is not None and any(not t >= 0 for t in self.snapshot_times):
            raise ValueError("snapshot_times must be nonnegative.")
        if not (self.boundary_leak_tolerance >= 0 and self.hard_leak_threshold >= 0):
            raise ValueError("boundary_leak_tolerance and hard_leak_threshold must be nonnegative.")

    def resolved_snapshot_times(self) -> np.ndarray:
        """0, the times asked for in (0, t_final], and t_final when the last
        of them falls short of it: a run always reaches t_final."""
        if self.snapshot_times is not None:
            ts = np.asarray(sorted(set(float(t) for t in self.snapshot_times)))
        else:
            every = self.snapshot_every if self.snapshot_every is not None else self.t_final
            n = int(math.floor(self.t_final / every + 1e-9))
            ts = np.arange(1, n + 1) * every
        ts = np.concatenate(([0.0], ts[(ts > 1e-12) & (ts <= self.t_final + 1e-9)]))
        return ts if ts[-1] >= self.t_final - 1e-9 else np.append(ts, self.t_final)


@dataclass(frozen=True)
class Snapshot:
    t: float
    u: GridFunction
    rhs: Optional[GridFunction] = None


@dataclass
class Trajectory:
    problem: Problem
    config: SolverConfig
    snapshots: list[Snapshot] = field(default_factory=list)
    # runs continued from this one, solved once each: tumor.run_protocol keeps
    # its treated segments here, keyed by their events and end time
    continued: dict = field(default_factory=dict, repr=False, compare=False)

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])

    def snapshot_at(self, t: float) -> Snapshot:
        for s in self.snapshots:
            if abs(s.t - t) <= SNAPSHOT_TOL:
                return s
        raise KeyError(f"no snapshot at t={t}.")

    def __iter__(self):
        return iter(self.snapshots)


def _faces(coeff: CoefficientField, grid: Grid) -> tuple[np.ndarray, ...]:
    """The coefficient at the midpoints between neighbouring nodes, one array
    per axis: shape n-1 along that axis, n along the other."""
    if grid.dim == 1:
        x = grid.axis(0)
        return (coeff.evaluate(0.5 * (x[:-1] + x[1:])),)
    x, y = grid.axis(0), grid.axis(1)
    xf = 0.5 * (x[:-1] + x[1:])
    yf = 0.5 * (y[:-1] + y[1:])
    XFx, YFx = np.meshgrid(xf, y, indexing="ij")
    XFy, YFy = np.meshgrid(x, yf, indexing="ij")
    return coeff.evaluate((XFx, YFx)), coeff.evaluate((XFy, YFy))


class _Stepper:
    """Precomputed faces, reaction closure and divergence routine for one
    equation on one grid."""

    def __init__(
        self,
        coeff: CoefficientField,
        reaction: Reaction,
        grid: Grid,
        faces: Optional[tuple[np.ndarray, ...]] = None,
    ):
        """``faces`` are ``_faces(coeff, grid)`` when given: a folded march
        passes its corner of the whole grid's faces."""
        self.reaction = reaction
        self.grid = grid
        self.h = grid.h
        self.inv_h2 = 1.0 / grid.h**2
        self.interior = (slice(1, -1),) * grid.dim
        if faces is None:
            faces = _faces(coeff, grid)
        self.a_max = float(max(np.max(f) for f in faces))
        if grid.dim == 1:
            (self.faces,) = faces
            self.f_interior = reaction.bind(grid.axis(0)[1:-1])
            self._div = _div_1d(self.faces, self.inv_h2, self.f_interior)
        else:
            # the reaction covers whole interior rows, boundary columns included
            self.faces_x, self.faces_y = faces
            x, y = grid.axis(0), grid.axis(1)
            self.f_interior = reaction.bind(np.meshgrid(x[1:-1], y, indexing="ij"))
            self._div = _div_2d(self.faces_x, self.faces_y, self.inv_h2, self.f_interior)
        # The interior nodes of what _div returns: all of it in 1D, the interior
        # columns of its whole rows in 2D. The step adds the scaled divergence to
        # one contiguous run of the flattened state, from the first interior node
        # to the last; in 2D the run also holds the boundary nodes between
        # interior rows, where _div_2d's output is -0.0, and x + -0.0 is x bit
        # for bit, signed zeros included.
        n, lead = grid.npoints[-1], grid.dim - 1
        self._div_inner = (slice(None),) + (slice(1, -1),) * lead
        self._run = _views(slice(lead * n + 1, -(lead * n + 1)), flat=lead > 0)
        self._scaled = _views(slice(lead, -lead or None), flat=True)
        # dt -> dpttrs bound to the factor of I - dt*A, for the largest dt seen
        # (the march's full step) and the last shorter one
        self._solves: dict[float, Callable] = {}

    @cached_property
    def lipschitz(self) -> float:
        # r(x) of a separable reaction is taken at the nodes the scheme uses
        return self.reaction.lipschitz_bound(self.grid.axis(0)[1:-1])

    def stability_bound(self) -> float:
        return self.h**2 / (2.0 * self.grid.dim * self.a_max)

    def monotone_dt(self, explicit: bool = True) -> float:
        """Largest dt for which one step is a monotone map of [0,1]-valued
        states: dt*(2*dim*sup a/h^2 + L) <= 1 for the explicit scheme and
        dt*L <= 1 with implicit diffusion, L the reaction's Lipschitz bound."""
        if explicit:
            s = self.stability_bound()
            return s / (1.0 + self.lipschitz * s)
        return 1.0 / self.lipschitz if self.lipschitz > 0 else math.inf

    def auto_dt(self, explicit: bool = True) -> float:
        if not explicit:
            return min(IMEX_DT_MAX, 0.5 / self.lipschitz) if self.lipschitz > 0 else IMEX_DT_MAX
        dt = 0.9 * self.stability_bound()
        if self.lipschitz > 0:
            dt = min(dt, 0.5 / self.lipschitz)
        return min(dt, self.monotone_dt())

    def rhs(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        out[self.interior] = self._div(np.ascontiguousarray(u))[self._div_inner]
        return out

    def step_explicit(self, u: np.ndarray, dt: float) -> np.ndarray:
        """Advance ``u`` by one explicit Euler step in place and return it.

        The whole divergence is computed before the interior is written, and
        the boundary nodes keep their bits. The step allocates no array; a 2D
        ``u`` must be C-contiguous, as a march's state is."""
        div = self._div(u)
        np.multiply(div, dt, out=div)
        (run,), (scaled,) = self._run(u), self._scaled(div)
        np.add(run, scaled, out=run)
        return u

    @cached_property
    def _reaction_out(self) -> np.ndarray:
        # what the IMEX step evaluates the reaction into
        return np.empty(self.grid.npoints[0] - 2)

    def step_imex(self, u: np.ndarray, dt: float) -> np.ndarray:
        """Advance ``u`` by one IMEX step in place and return it: explicit
        reaction, implicit diffusion, 1D only.

        The interior solves (I - dt*A) u_new = u + dt*f(u), A the diffusion
        matrix with the held boundary nodes moved to the right-hand side.
        I - dt*A is a symmetric positive definite tridiagonal M-matrix: LAPACK
        dpttrf factors it and dpttrs solves with the factor on every step. The
        factor of the full step is kept while a shortened step that lands on
        a snapshot is factored on its own, so the march factors the full dt
        once. The boundary nodes are not touched."""
        if self.grid.dim != 1:
            raise NotImplementedError("IMEX scheme is implemented in 1D only.")
        factored = self._solves.get(dt)
        if factored is None:
            # the only import of scipy: runs that never step IMEX never load it
            from scipy.linalg.lapack import dpttrf, dpttrs

            diag = 1.0 + dt * (self.faces[:-1] + self.faces[1:]) * self.inv_h2
            d, e, info = dpttrf(diag, -dt * self.faces[1:-1] * self.inv_h2)
            _check_lapack("dpttrf", info, dt)
            factored = partial(dpttrs, d, e, overwrite_b=True)
            full = max(self._solves, default=dt)
            self._solves = {full: self._solves.get(full, factored), dt: factored}
        star = u[1:-1]
        if self.f_interior is not None:
            star += dt * self.f_interior(star, self._reaction_out)
        star[0] += dt * self.faces[0] * u[0] * self.inv_h2
        star[-1] += dt * self.faces[-1] * u[-1] * self.inv_h2
        new, info = factored(star)
        _check_lapack("dpttrs", info, dt)
        u[1:-1] = new
        return u


def _check_lapack(routine: str, info: int, dt: float) -> None:
    if info != 0:
        raise NumericalError(
            f"LAPACK {routine} returned info={info} for the implicit diffusion matrix at "
            f"dt={dt:.6g} (positive info: not positive definite)."
        )


def _views(*indices, flat: bool = False) -> Callable[[np.ndarray], tuple[np.ndarray, ...]]:
    """``of(u)``: the views ``u[index]`` of each index, formed again only
    when ``of`` is handed a different array than the last time. A march steps
    one array from start to end, so it slices its state once. With ``flat``
    the indices are taken on ``u`` flattened, which must then be a view."""
    held, views = None, ()

    def of(u: np.ndarray) -> tuple[np.ndarray, ...]:
        nonlocal held, views
        if u is not held:
            if flat and not u.flags.c_contiguous:  # reshape would copy: a stale view
                raise ValueError("the 2D step needs a C-contiguous state.")
            base = u.reshape(-1) if flat else u
            held, views = u, tuple(base[i] for i in indices)
        return views

    return of


# The divergence routines below write div_h(a grad_h u) + f(x,u) at the
# interior nodes into a buffer they own and return it, so each call
# overwrites what the previous one returned; they allocate no array. They use
# the same ufuncs in the same order as the allocating expressions
# flux = a*(u[1:] - u[:-1]), (flux[1:] - flux[:-1])*inv_h2 + f(u[1:-1]), so
# every bit matches. They are closures over their buffers, not methods: a
# bound method stored on the stepper would make a reference cycle and keep
# the buffers alive until the cyclic garbage collector runs.


def _div_1d(faces: np.ndarray, inv_h2: float, f) -> Callable[[np.ndarray], np.ndarray]:
    a = _face_factor(faces)
    flux = empty_aligned(faces.size)
    out = empty_aligned(faces.size - 1)
    scratch, flux_hi = flux[:-1], flux[1:]
    state = _views(slice(1, None), slice(None, -1), slice(1, -1))

    def div(u: np.ndarray) -> np.ndarray:
        hi, lo, inner = state(u)
        np.subtract(hi, lo, out=flux)
        if a is not None:
            np.multiply(flux, a, out=flux)
        np.subtract(flux_hi, scratch, out=out)
        np.multiply(out, inv_h2, out=out)
        if f is not None:
            np.add(out, f(inner, scratch), out=out)
        return out

    return div


def _div_2d(
    faces_x: np.ndarray, faces_y: np.ndarray, inv_h2: float, f
) -> Callable[[np.ndarray], np.ndarray]:
    # Every operand is a whole run of rows, which numpy iterates as one
    # contiguous block. The x-flux is u[1:] - u[:-1]. The y-flux is one
    # difference of u flattened: index i*ny+j is the flux between (i,j) and
    # (i,j+1), and i*ny+ny-1 pairs the end of row i with the start of row i+1.
    # The divergence and the reaction cover whole interior rows, shape
    # (nx-2, ny). Their first and last columns pair values across the held
    # boundary or a row end; nothing reads those, and the output's are set
    # to -0.0 for the step's contiguous add.
    nx, ny = faces_y.shape[0], faces_x.shape[1]
    ax = _face_factor(faces_x)
    ay = empty_aligned((nx, ny))  # faces_y laid on the flattened flux
    ay[:, :-1], ay[:, -1] = faces_y, 1.0
    ay = _face_factor(ay.reshape(-1)[:-1])
    fx = empty_aligned((nx - 1, ny))
    fy = empty_aligned(nx * ny - 1)
    out = empty_aligned((nx - 2, ny))
    edges = out[:, :: ny - 1]  # its first and last columns
    fx_hi, scratch = fx[1:], fx[:-1]  # scratch is free once fx has been differenced
    rows = (nx - 2) * ny  # the y-divergence of row i at j is fy[i*ny+j] - fy[i*ny+j-1]
    fy_hi, fy_lo, scratch_flat = fy[ny : ny + rows], fy[ny - 1 : ny - 1 + rows], scratch.reshape(-1)
    state = _views(slice(1, None), slice(None, -1), slice(1, -1))
    flat = _views(slice(1, None), slice(None, -1), flat=True)

    def div(u: np.ndarray) -> np.ndarray:
        x_hi, x_lo, inner = state(u)
        y_hi, y_lo = flat(u)
        np.subtract(x_hi, x_lo, out=fx)
        if ax is not None:
            np.multiply(fx, ax, out=fx)
        np.subtract(y_hi, y_lo, out=fy)
        if ay is not None:
            np.multiply(fy, ay, out=fy)
        np.subtract(fx_hi, scratch, out=out)
        np.subtract(fy_hi, fy_lo, out=scratch_flat)
        np.add(out, scratch, out=out)
        np.multiply(out, inv_h2, out=out)
        if f is not None:
            np.add(out, f(inner, scratch), out=out)
        edges.fill(-0.0)
        return out

    return div


def _face_factor(faces: np.ndarray) -> Optional[np.ndarray]:
    """What to multiply gradients by: None when every face is 1.0 (the
    product would change no bit), else the faces themselves."""
    return None if np.all(faces == 1.0) else faces


class _Whole:
    """How a march lays its state on the grid: as it is. ``fold`` gives what
    the march steps, ``after_step`` runs after each step and ``unfold`` makes
    a new whole-grid array of a stepped one."""

    after_step: Optional[Callable[[float, np.ndarray], None]] = None

    def fold(self, u: np.ndarray) -> np.ndarray:
        return u

    def unfold(self, state: np.ndarray) -> np.ndarray:
        return state.copy()


class _Mirror(_Whole):
    """An explicit march folded onto nodes 0..m of each axis of a grid of
    2m+1 nodes, plus a ghost node m+1 that holds a copy of node m-1.

    When the state, the faces and the reaction are all equal bit for bit to
    their mirror images about the centre node, so is every explicit step: the
    stencil at a mirrored node subtracts and multiplies the mirrored, hence
    equal or exactly negated, operands. The ghost gives node m the neighbour
    that its mirror would, so nodes 0..m get the same bits as on the whole
    grid."""

    def __init__(self, shape: tuple[int, ...]):
        self.shape = tuple(shape)
        centres = [n // 2 for n in shape]  # m of each axis
        self.half = tuple(slice(0, m + 2) for m in centres)  # nodes 0..m and the ghost
        self.kept = tuple(slice(0, m + 1) for m in centres)  # nodes 0..m
        ghosts = []  # ghost, node m-1 index pairs, one pair per axis
        self.mirrors = []  # (nodes m+1..2m, nodes m-1..0) index pairs, one per axis
        for k, m in enumerate(centres):
            lead = (slice(None),) * k
            ghosts += [lead + (slice(-1, None),), lead + (slice(-3, -2),)]
            self.mirrors.append((lead + (slice(m + 1, None),), lead + (slice(m - 1, None, -1),)))
        self.ghosts = _views(*ghosts)

    def grid(self, whole: Grid) -> Grid:
        return Grid(whole.origin, tuple(s.stop for s in self.half), whole.h)

    def fold_faces(self, faces: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
        # along its own axis a face array has one entry fewer than the nodes;
        # copies, so that the whole grid's faces are freed while the march runs
        return tuple(
            f[tuple(slice(0, s.stop - (k == axis)) for k, s in enumerate(self.half))].copy()
            for axis, f in enumerate(faces)
        )

    def fold(self, u: np.ndarray) -> np.ndarray:
        return u[self.half]

    def after_step(self, t: float, state: np.ndarray) -> None:
        views = iter(self.ghosts(state))  # each ghost, then the node it copies
        for ghost in views:
            ghost[...] = next(views)

    def unfold(self, state: np.ndarray) -> np.ndarray:
        whole = np.empty(self.shape)
        whole[self.kept] = state[self.kept]
        for far, near in self.mirrors:
            whole[far] = whole[near]
        return whole


def _mirrored(a: np.ndarray) -> bool:
    """Whether ``a`` equals its mirror image along every axis, bit for bit."""
    bits = a.view(np.uint64)
    return all(np.array_equal(bits, np.flip(bits, k)) for k in range(a.ndim))


def _layout(
    coeff: CoefficientField, reaction: Reaction, grid: Grid, u: np.ndarray, explicit: bool = True
) -> tuple[_Stepper, _Whole]:
    """The stepper that marches ``u`` and how ``u`` is laid on its grid.

    An explicit march whose state and faces equal their mirror images about
    the centre node along every axis, with a reaction that does not depend on
    x, steps the half (1D) or quarter (2D) grid of :class:`_Mirror`. The IMEX
    scheme and every other input step the whole grid: folded, the implicit
    diffusion matrix would not be symmetric."""
    faces = _faces(coeff, grid)
    layout = _Whole()
    if (
        explicit
        and reaction.x_independent
        and all(n % 2 == 1 for n in grid.npoints)
        and all(_mirrored(a) for a in (u, *faces))
    ):
        layout = _Mirror(grid.npoints)
        grid, faces = layout.grid(grid), layout.fold_faces(faces)
    return _Stepper(coeff, reaction, grid, faces), layout


def _check_solution_range(values: np.ndarray, t: float) -> None:
    mn = float(np.min(values))
    mx = float(np.max(values))
    if math.isnan(mn) or math.isnan(mx):
        raise NumericalError(f"NaN detected at t={t:.6g}.")
    if mn < -MAXPRINCIPLE_TOL or mx > 1.0 + MAXPRINCIPLE_TOL:
        raise NumericalError(
            f"maximum principle violated at t={t:.6g}: range [{mn:.3e}, {mx:.3e}]."
        )


def _resolve_dt(stepper: _Stepper, cfg: SolverConfig) -> float:
    explicit = cfg.scheme == "explicit-euler"
    if cfg.dt == "auto":
        return stepper.auto_dt(explicit)
    dt = float(cfg.dt)
    bound = stepper.monotone_dt(explicit)
    if dt > bound * (1 + 1e-9):
        rule = "dt*(2*dim*sup a/h^2 + L) <= 1" if explicit else "dt*L <= 1"
        raise StabilityError(
            f"dt={dt:.3e} exceeds the monotone bound {bound:.3e} "
            f"({rule}, L the reaction's Lipschitz bound)."
        )
    return dt


def _march(
    u0: np.ndarray,
    t: float,
    targets: Sequence[float],
    dt: float,
    advance: Callable[[np.ndarray, float], np.ndarray],
    after_step: Optional[Callable[[float, np.ndarray], None]] = None,
) -> Iterator[tuple[float, np.ndarray]]:
    """Step a copy of ``u0`` from ``t`` through the sorted targets, yielding
    (t, state) on reaching each one. The last step before a target is
    shortened to land on it exactly; ``after_step(t, state)`` runs after every
    step (boundary traces, blow-up guards). ``advance`` may update the state
    in place, so the yielded array changes with the next step: callers copy
    what they keep. The copy's first interior node, the first one a step
    writes, starts on a 64-byte boundary (``empty_aligned``)."""
    state = empty_aligned(u0.shape, np.ravel_multi_index((1,) * u0.ndim, u0.shape))
    state[...] = u0
    for target in targets:
        while t < target - 1e-12:
            dtk = min(dt, target - t)
            state = advance(state, dtk)
            t += dtk
            if after_step is not None:
                after_step(t, state)
        t = float(target)
        yield t, state


def discrete_rhs(state: GridFunction, p: Problem) -> GridFunction:
    """Exact discrete right-hand side div_h(a grad_h u) + f(x,u) of a state."""
    stepper = _Stepper(p.coefficient, p.reaction, state.grid)
    return state.with_values(stepper.rhs(state.values))


def step(state: GridFunction, t: float, p: Problem, cfg: SolverConfig) -> GridFunction:
    """Advance one time step; boundary nodes are held fixed."""
    _check_solution_range(state.values, t)
    stepper = _Stepper(p.coefficient, p.reaction, state.grid)
    dt = _resolve_dt(stepper, cfg)
    advance = stepper.step_explicit if cfg.scheme == "explicit-euler" else stepper.step_imex
    new = advance(state.values.copy(), dt)
    _check_solution_range(new, t + dt)
    return state.with_values(new)


def _boundary_cells_max(values: np.ndarray) -> float:
    """Largest magnitude among the outermost evolving cells (leak monitor)."""
    if values.ndim == 1:
        return float(max(abs(values[1]), abs(values[-2])))
    ring = np.concatenate(
        [values[1, 1:-1], values[-2, 1:-1], values[1:-1, 1], values[1:-1, -2]]
    )
    return float(np.max(np.abs(ring)))


def march(
    p: Problem,
    cfg: SolverConfig,
    validate: bool = True,
    start: Optional[Snapshot] = None,
) -> Iterator[Snapshot]:
    """Yield the run's (t, u, rhs) snapshots one at a time, none of them kept.

    Snapshot times are absolute. Without ``start`` the run begins at t=0 from
    the problem's initial datum; with it, at ``start.t`` from ``start.u``, and
    it yields start.t and every resolved snapshot time in (start.t, t_final].
    Each snapshot owns its arrays. Emits a boundary-leak warning past
    cfg.boundary_leak_tolerance and aborts past cfg.hard_leak_threshold
    (domain too small for the requested horizon). As a generator it checks
    its inputs when the first snapshot is asked for.
    """
    if validate:
        report = validate_problem(p)
        if not report.all_pass:
            raise ValueError(
                "problem fails hypothesis validation (pass validate=False to override):\n"
                + report.summary()
            )
    grid = Grid.centered(p.half_width, cfg.h, p.dimension)
    if start is None:
        start = Snapshot(0.0, make_initial(p.initial, grid))
    elif start.u.grid.npoints != grid.npoints:
        raise ValueError("start state does not match the solver grid.")
    explicit = cfg.scheme == "explicit-euler"
    stepper, layout = _layout(p.coefficient, p.reaction, grid, start.u.values, explicit)
    dt = _resolve_dt(stepper, cfg)

    times = cfg.resolved_snapshot_times()
    targets = np.concatenate(([start.t], times[times > start.t + 1e-12]))

    warned = False
    _check_solution_range(start.u.values, start.t)
    advance = stepper.step_explicit if explicit else stepper.step_imex
    u0 = layout.fold(start.u.values)
    for t, state in _march(u0, start.t, targets, dt, advance, layout.after_step):
        values = layout.unfold(state)
        _check_solution_range(values, t)
        leak = _boundary_cells_max(values)
        if leak > cfg.hard_leak_threshold:
            raise NumericalError(
                f"boundary leak {leak:.3e} exceeds hard threshold at t={t:.6g}; "
                "domain too small for the requested t_final."
            )
        if leak > cfg.boundary_leak_tolerance and not warned:
            # level 3 names the caller of solve, or of whatever reads the stream
            warnings.warn(
                f"boundary leak {leak:.3e} above tolerance {cfg.boundary_leak_tolerance:.1e} "
                f"at t={t:.6g}",
                RuntimeWarning,
                stacklevel=3,
            )
            warned = True
        gf = GridFunction(values, grid.h, grid.origin)
        yield Snapshot(t=t, u=gf, rhs=gf.with_values(layout.unfold(stepper.rhs(state))))


def solve(
    p: Problem,
    cfg: SolverConfig,
    validate: bool = True,
    start: Optional[Snapshot] = None,
    on_snapshot: Optional[Callable[[Snapshot], None]] = None,
) -> Trajectory:
    """Run the problem to t_final and keep every snapshot of :func:`march`.

    ``on_snapshot(snap)`` runs on each snapshot right after it is recorded.
    """
    traj = Trajectory(problem=p, config=cfg)
    for snap in march(p, cfg, validate, start):
        traj.snapshots.append(snap)
        if on_snapshot is not None:
            on_snapshot(snap)
    return traj


@dataclass
class KernelResult:
    """Numerical fundamental solutions of the pure diffusion equation."""

    times: list[float]
    kernels: list[GridFunction]
    masses: list[float]
    source: tuple[float, ...]

    def pairs(self) -> list[tuple[float, GridFunction]]:
        return list(zip(self.times, self.kernels))


def fundamental_solution(
    coeff: CoefficientField,
    t_targets: Sequence[float],
    y,
    grid: Grid,
) -> KernelResult:
    """Evolve a unit point mass at grid point y under pure diffusion.

    The Dirac datum is one cell of value 1/h^dim, so the discrete mass is
    exactly 1 at t=0; mass loss beyond KERNEL_MASS_TOL raises (truncation too
    tight for the requested times).
    """
    t_targets = sorted(float(t) for t in t_targets)
    if not t_targets or t_targets[0] <= 0:
        raise ValueError("t_targets must be positive.")
    idx = grid.nearest_index(y)
    state = np.zeros(grid.npoints)
    state[idx] = grid.h ** (-grid.dim)
    source = tuple(grid.axis(k)[idx[k]] for k in range(grid.dim))

    stepper, layout = _layout(coeff, Zero(), grid, state)
    dt = 0.9 * stepper.stability_bound()
    cell = grid.h**grid.dim

    result = KernelResult(times=[], kernels=[], masses=[], source=source)
    advance = stepper.step_explicit
    for t, state in _march(layout.fold(state), 0.0, t_targets, dt, advance, layout.after_step):
        # the checks and the mass sum run over the whole grid, in its order
        values = layout.unfold(state)
        mn = float(np.min(values))
        if math.isnan(mn):
            raise NumericalError(f"NaN in fundamental solution at t={t:.6g}.")
        if mn < -1e-9 * max(1.0, float(np.max(values))):
            raise NumericalError(f"kernel positivity lost at t={t:.6g} (min {mn:.3e}).")
        mass = float(np.sum(values) * cell)
        if abs(mass - 1.0) > KERNEL_MASS_TOL:
            raise NumericalError(
                f"kernel mass {mass:.8f} drifted beyond {KERNEL_MASS_TOL:g} at t={t:.6g}; "
                "boundary truncation too tight."
            )
        result.times.append(t)
        result.kernels.append(GridFunction(values, grid.h, grid.origin))
        result.masses.append(mass)
    return result


def solve_linear_halfline(
    a: float,
    lam: float,
    v0: GridFunction,
    g: Callable[[float], float],
    t_targets: Sequence[float],
) -> list[tuple[float, GridFunction, GridFunction]]:
    """Explicit solve of v_t = a v_xx + lam v on (0, X] with v(t,0)=g(t).

    Runs the whole-space stepper with a constant coefficient and the reaction
    lam*v; the trace g(t) is written into the left node after every step. The
    right end is a Dirichlet-zero truncation; callers restrict their
    conclusions to a reliable window away from it. Returns (t, v, rhs) with
    rhs the discrete a v_xx + lam v.
    """
    if v0.dim != 1 or abs(v0.origin[0]) > 1e-12:
        raise ValueError("v0 must live on a half-line grid starting at 0.")
    if a <= 0 or lam < 0:
        raise ValueError("need a > 0 and lam >= 0.")
    t_targets = sorted(float(t) for t in t_targets)
    dt = 0.9 * v0.h**2 / (2.0 * a)
    reaction = Zero()
    if lam > 0:
        reaction = Separable(lambda x: np.full_like(x, lam), lambda u: u, 1.0)
        dt = min(dt, 0.5 / lam)
    stepper = _Stepper(Constant(a), reaction, v0.grid)

    def hold_trace(t: float, v: np.ndarray) -> None:
        v[0] = float(g(t))
        if not np.isfinite(v[1]):
            raise NumericalError(f"half-line solve blew up at t={t:.6g}.")

    v = v0.values.copy()
    v[0] = float(g(0.0))
    out: list[tuple[float, GridFunction, GridFunction]] = []
    for t, v in _march(v, 0.0, t_targets, dt, stepper.step_explicit, hold_trace):
        gf = GridFunction(v.copy(), v0.h, v0.origin)
        out.append((t, gf, gf.with_values(stepper.rhs(v))))
    return out
