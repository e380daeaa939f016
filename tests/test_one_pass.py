"""The certificates as one pass over a stream of snapshots.

``monotonicity_report``, ``find_T_monotone`` and ``estimate_tau_star`` read
any iterable of snapshots once and keep only what they need. The references
below are the code they replaced, which took a ``Trajectory``, listed its
snapshots, looked the t = 1 base up by time and stacked the comb after
``t_floor`` into one array. On drawn runs both must give the same
certificates and raise the same errors, and the one-pass code must read its
input exactly once. A memory guard checks that certifying a march as it goes
holds much less than the march's trajectory.
"""
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpplab import analysis as an
from kpplab import cli
from kpplab.analysis import ONE_FLOOR, ORDER_TOL, TAIL_TOL, ZERO_FLOOR
from kpplab.grids import Grid, GridFunction
from kpplab.config import load_config
from kpplab.model import homogeneous_kpp, piecewise_kpp_problem
from kpplab.solver import Snapshot, SolverConfig, Trajectory, march, solve

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)

GRID = Grid.centered(3.0, 0.5, 1)
U_VALUES = (0.0, 1e-301, 2e-300, 0.05, 0.1, 0.3, 0.5, 0.9, 1.0 - 0.5 * ONE_FLOOR, 1.0)
# per-snapshot changes of u: orders below and above ORDER_TOL, both signs
INCREMENTS = (0.0, 1e-11, -1e-11, 1e-9, -1e-9, 1e-3, -1e-3)
SETTLED = (0.0, 1e-11, -1e-11, 1e-9, 1e-3)
RHS_VALUES = (5e-324, 1e-3, 1.0, 0.0, -5e-324, -1e-3)
EPS_VALUES = (ZERO_FLOOR, 0.05, 0.1, 0.3, 0.5, 1.0)


def _holds_from(ok):
    hit = np.flatnonzero(np.logical_and.accumulate(ok[::-1])[::-1])
    return int(hit[0]) if hit.size else None


def _settles_at(times, ok):
    i = _holds_from(ok)
    return math.inf if i is None else float(times[i])


def reference_find_T_monotone(traj):
    try:
        base = traj.snapshot_at(1.0)
    except KeyError:
        raise ValueError("find_T_monotone needs a snapshot at t=1 (request it in the config).")
    later = [s for s in traj if s.t > 1.0 + 1e-12]
    if not later:
        return math.inf
    ok = np.array([float(np.min(s.u.values - base.u.values)) >= -ORDER_TOL for s in later])
    return _settles_at(np.array([s.t for s in later]), ok) - 1.0


def reference_estimate_tau_star(traj, t_floor):
    comb = [s for s in traj if s.t >= t_floor - 1e-9]
    if len(comb) < 20:
        raise ValueError(f"time comb too coarse after t_floor: {len(comb)} < 20 snapshots.")
    times = np.array([s.t for s in comb])
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-6, atol=1e-9):
        raise ValueError("snapshots after t_floor must form a uniform comb.")
    delta = float(steps[0])
    fields = np.stack([s.u.values for s in comb])
    m = len(comb)
    ordered = np.empty(m, dtype=bool)
    ordered[0] = True
    for j in range(1, m):
        diff = fields[j:] - fields[: m - j]
        ordered[j] = bool(np.min(diff) >= -ORDER_TOL)
    j = _holds_from(ordered)
    return math.inf if j is None else float(max(j, 1) * delta)


def _reliable(snap, margin):
    u = snap.u.values
    return snap.u.interior_mask(margin) & (u >= ZERO_FLOOR) & (u <= 1.0 - ONE_FLOOR)


def _positive_above(snap, reliable, eps):
    return bool(np.all(snap.rhs.values[reliable & (snap.u.values >= eps)] > 0.0))


def reference_monotonicity_report(traj, eps_list, t_floor=None, margin=1.0):
    snaps = list(traj)
    if any(s.rhs is None for s in snaps):
        raise ValueError("trajectory snapshots carry no rhs fields.")
    times = np.array([s.t for s in snaps])
    inf_curve = []
    ok = np.empty((len(eps_list), len(snaps)), dtype=bool)
    for i, s in enumerate(snaps):
        m = _reliable(s, margin)
        inf_curve.append((s.t, min(0.0, float(np.min(s.rhs.values[m]))) if m.any() else 0.0))
        for k, eps in enumerate(eps_list):
            ok[k, i] = _positive_above(s, m, eps)
    verdicts = {}
    T_eps = {}
    for eps, ok_eps in zip(eps_list, ok):
        T = _settles_at(times, ok_eps)
        T_eps[float(eps)] = T
        verdicts[f"sign_above_{eps:g}"] = an.ClauseVerdict(
            passed=math.isfinite(T),
            detail=f"T_eps={T:g}" if math.isfinite(T) else "no qualifying time in the run",
        )
    tail = abs(inf_curve[-1][1])
    verdicts["inf_rhs_tail"] = an.ClauseVerdict(
        passed=tail <= TAIL_TOL,
        detail=f"|inf rhs|({times[-1]:g}) = {tail:.3e} vs {TAIL_TOL:g}",
    )
    T_mono = None
    try:
        T_mono = reference_find_T_monotone(traj)
    except ValueError:
        pass
    tau_star = None
    floor = t_floor if t_floor is not None else float(times[-1]) / 2.0
    try:
        tau_star = reference_estimate_tau_star(traj, floor)
    except ValueError:
        pass
    return an.MonotonicityCertificate(
        T_mono=T_mono,
        tau_star_estimate=tau_star,
        T_eps=T_eps,
        inf_ut_curve=inf_curve,
        verdicts=verdicts,
        margin=margin,
    )


class OneShot:
    """Snapshots that may be iterated once; counts what it hands out."""

    def __init__(self, snaps):
        self.snaps = snaps
        self.iterations = 0
        self.handed = 0

    def __iter__(self):
        self.iterations += 1
        if self.iterations > 1:
            raise AssertionError("snapshots iterated twice")
        for snap in self.snaps:
            self.handed += 1
            yield snap

    def consumed_once(self) -> bool:
        return self.iterations == 1 and self.handed == len(self.snaps)


def _field(values) -> GridFunction:
    return GridFunction(np.array(values, dtype=float), GRID.h, GRID.origin)


@st.composite
def runs(draw):
    """Snapshots on a 13-cell grid from t = 0: a uniform comb of 0.25 or 0.5,
    or one with a longer step somewhere; t = 1 present unless that step comes
    first or it is dropped. u drifts from anywhere across the floors by any
    increment until a drawn snapshot, then by increments that are mostly
    nonnegative; or it takes values 0 and -ORDER_TOL (and -2 ORDER_TOL
    before that snapshot), so that differences fall exactly on the bound.
    The cell values come from a drawn seed."""
    n = GRID.npoints[0]
    count = draw(st.integers(16, 44))
    step = draw(st.sampled_from((0.25, 0.5)))
    times = [k * step for k in range(count)]
    if draw(st.booleans()):
        k = draw(st.integers(1, count - 1))
        times[k:] = [t + step / 2 for t in times[k:]]
    if draw(st.sampled_from((False, False, False, True))):
        times = [t for t in times if t != 1.0]
    settle = draw(st.integers(0, len(times)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    on_the_bound = draw(st.booleans())
    u = rng.choice(U_VALUES, n)
    snaps = []
    for k, t in enumerate(times):
        if on_the_bound:
            u = rng.choice((0.0, -ORDER_TOL, -2.0 * ORDER_TOL) if k < settle else (0.0, -ORDER_TOL), n)
        else:
            u = u + rng.choice(INCREMENTS if k < settle else SETTLED, n)
        snaps.append(Snapshot(t=float(t), u=_field(u), rhs=_field(rng.choice(RHS_VALUES, n))))
    return snaps


def _trajectory(snaps) -> Trajectory:
    cfg = SolverConfig(h=GRID.h, t_final=max(snaps[-1].t, 1.0))
    return Trajectory(problem=homogeneous_kpp(half_width=3.0), config=cfg, snapshots=list(snaps))


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the message of its ValueError."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


T_FLOORS = st.sampled_from((None, 0.0, 0.5, 1.0, 1.1, 2.0, 3.0))


@PROPERTY
@given(
    snaps=runs(),
    eps_list=st.lists(st.sampled_from(EPS_VALUES), min_size=1, max_size=3, unique=True),
    t_floor=T_FLOORS,
    margin=st.sampled_from((0.0, 0.5, 1.0, 2.5)),
)
def test_report_matches_the_trajectory_code(snaps, eps_list, t_floor, margin):
    expected = reference_monotonicity_report(_trajectory(snaps), eps_list, t_floor, margin)
    stream = OneShot(snaps)
    assert an.monotonicity_report(stream, eps_list, t_floor, margin) == expected
    assert stream.consumed_once()
    # the same pass, fed with a level curve from one stream
    stream = OneShot(snaps)
    cert, curve = an.read_once(stream, an.MonotonicityPass(eps_list, t_floor, margin), an.LevelCurve(0.5))
    assert cert == expected
    assert curve == an.level_curve(_trajectory(snaps), 0.5)
    assert stream.consumed_once()


@PROPERTY
@given(snaps=runs(), t_floor=T_FLOORS.filter(lambda t: t is not None))
def test_T_mono_and_tau_star_match_with_equal_errors(snaps, t_floor):
    traj = _trajectory(snaps)
    for one_pass, reference, args in (
        (an.find_T_monotone, reference_find_T_monotone, ()),
        (an.estimate_tau_star, reference_estimate_tau_star, (t_floor,)),
    ):
        stream = OneShot(snaps)
        assert _outcome(one_pass, stream, *args) == _outcome(reference, traj, *args)
        assert stream.consumed_once()


def test_snapshots_without_rhs_raise_as_before():
    snaps = [Snapshot(t=float(t), u=_field(np.full(13, 0.5))) for t in range(3)]
    for fn in (an.monotonicity_report, reference_monotonicity_report):
        with pytest.raises(ValueError, match=re.escape("trajectory snapshots carry no rhs fields.")):
            fn(iter(snaps), (0.1,))


def test_streamed_certificate_holds_less_than_half_the_trajectory():
    # 2001 nodes, 61 snapshots: the trajectory holds 1.95 MB of u and rhs.
    # Certifying the march as it goes keeps u after the floor, half the run
    # here, and the march's own arrays: a peak of 0.35 of the trajectory
    # (numpy 2.4), against 1.06 when the certificate reads a solved
    # trajectory.
    p = homogeneous_kpp(half_width=100.0)
    cfg = SolverConfig(h=0.1, t_final=30.0, snapshot_every=0.5)
    size = sum(s.u.values.nbytes + s.rhs.values.nbytes for s in solve(p, cfg))
    tracemalloc.start()
    try:
        cert = an.monotonicity_report(march(p, cfg), (0.1,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(cert.T_eps[0.1]) and cert.tau_star_estimate is not None
    assert peak < size / 2


def test_global_sign_pass_on_a_march_equals_the_report():
    p = piecewise_kpp_problem(half_width=40.0)
    cfg = SolverConfig(h=0.2, t_final=12.0, snapshot_every=0.5)
    margins = (0.0, 1.0, 2.5)
    streamed = an.read_once(march(p, cfg), *(an.GlobalSignPass(m) for m in margins))
    traj = solve(p, cfg)
    assert streamed == tuple(an.global_sign_report(traj, m) for m in margins)
    assert all(cert.passed for cert in streamed)


@pytest.mark.parametrize("name, snapshots", [("homogeneous_kpp", 31), ("piecewise_theorem2", 41)])
def test_run_reads_its_trajectory_once(tmp_path, monkeypatch, name, snapshots):
    iterations, positions = [], []
    iterate, position = Trajectory.__iter__, an.level_position

    def counted_iter(self):
        iterations.append(1)
        return iterate(self)

    def counted_position(*args, **kwargs):
        positions.append(1)
        return position(*args, **kwargs)

    monkeypatch.setattr(Trajectory, "__iter__", counted_iter)
    monkeypatch.setattr(an, "level_position", counted_position)
    setup = load_config(CONFIGS / f"{name}.json")
    traj, _, _ = cli._run_untreated(setup, tmp_path)
    assert len(traj.snapshots) == snapshots
    assert (len(iterations), len(positions)) == (1, snapshots * len(setup.analysis.levels))
