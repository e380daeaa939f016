"""The 1D IMEX step: LAPACK's tridiagonal solve and where scipy is loaded.

The reference below is the banded Cholesky step that the dpttrf/dpttrs solve
replaced, kept here verbatim: it factors I - dt*A with ``cholesky_banded`` and
solves with ``cho_solve_banded`` on a copy of the state. The two solve the
same linear system, so they agree to rounding, not to the bit.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpplab import analysis as an
from kpplab.grids import Grid
from kpplab.model import Bump, Logistic, Piecewise, Problem, homogeneous_kpp, make_initial
from kpplab.solver import NumericalError, SolverConfig, _march, _Stepper, solve

SRC = Path(__file__).resolve().parents[1] / "src"
IMEX = "imex-diffusion-implicit"


def reference_step_imex(stepper: _Stepper, u: np.ndarray, dt: float) -> np.ndarray:
    from scipy.linalg import cho_solve_banded, cholesky_banded

    n_in = stepper.grid.npoints[0] - 2
    diag = 1.0 + dt * (stepper.faces[:-1] + stepper.faces[1:]) * stepper.inv_h2
    upper = -dt * stepper.faces[1:-1] * stepper.inv_h2
    ab = np.zeros((2, n_in))
    ab[0, 1:] = upper
    ab[1, :] = diag
    chol = cholesky_banded(ab, lower=False)
    star = u[1:-1].copy()
    if stepper.f_interior is not None:
        star += dt * stepper.f_interior(u[1:-1], np.empty(n_in))
    star[0] += dt * stepper.faces[0] * u[0] * stepper.inv_h2
    star[-1] += dt * stepper.faces[-1] * u[-1] * stepper.inv_h2
    new = u.copy()
    new[1:-1] = cho_solve_banded((chol, False), star)
    return new


def piecewise_problem(half_width: float) -> Problem:
    return Problem(
        dimension=1,
        half_width=half_width,
        coefficient=Piecewise(0.5, 2.0, 5.0),
        reaction=Logistic(1.0),
        initial=Bump(1.0, 1.0),
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    a_minus=st.floats(0.2, 3.0),
    a_plus=st.floats(0.2, 3.0),
    radius=st.floats(0.5, 4.0),
    rate=st.floats(0.1, 20.0),
    h=st.floats(0.05, 0.5),
    dt_fraction=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_imex_step_matches_the_banded_cholesky_step(
    a_minus, a_plus, radius, rate, h, dt_fraction, seed
):
    grid = Grid.centered(40 * h, h, 1)
    stepper = _Stepper(Piecewise(a_minus, a_plus, radius), Logistic(rate), grid)
    dt = dt_fraction / rate  # up to the monotone bound dt*L <= 1
    u = np.random.default_rng(seed).uniform(0.0, 1.0, grid.npoints)
    for _ in range(3):
        want = reference_step_imex(stepper, u, dt)
        got = stepper.step_imex(u, dt)
        assert got is u
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert got[0] == want[0] and got[-1] == want[-1]


def test_short_imex_run_keeps_the_reference_certificates(monkeypatch):
    cfg = SolverConfig(h=0.1, t_final=15.0, dt=0.05, scheme=IMEX, snapshot_every=0.5)
    p = piecewise_problem(80.0)
    certificates = []
    for _ in range(2):
        cert = an.monotonicity_report(solve(p, cfg, validate=False), (0.1, 0.3), t_floor=3.0)
        certificates.append((cert.T_eps, cert.tau_star_estimate))
        monkeypatch.setattr(_Stepper, "step_imex", reference_step_imex)
    (T_eps, tau_star), reference = certificates
    assert (T_eps, tau_star) == reference
    assert all(np.isfinite(list(T_eps.values()))) and np.isfinite(tau_star)


def test_a_run_factors_its_full_step_once(monkeypatch):
    # A fresh stepper per step factors every step: the same dt gives the same
    # factor, so the run must match it to the bit while factoring dt once.
    from scipy.linalg import lapack

    p = homogeneous_kpp(half_width=200.0)
    cfg = SolverConfig(h=0.05, t_final=80.0, dt=0.05, scheme=IMEX, snapshot_every=1.0)
    grid = Grid.centered(p.half_width, cfg.h, 1)
    steps = []

    def fresh(u, dt):
        steps.append(dt)
        return _Stepper(p.coefficient, p.reaction, grid).step_imex(u, dt)

    u0 = make_initial(p.initial, grid).values
    for _, want in _march(u0, 0.0, cfg.resolved_snapshot_times(), cfg.dt, fresh):
        pass
    shortened = sum(dt != cfg.dt for dt in steps)
    factorizations = []
    dpttrf = lapack.dpttrf
    monkeypatch.setattr(lapack, "dpttrf", lambda *a: factorizations.append(1) or dpttrf(*a))
    traj = solve(p, cfg, validate=False)
    assert len(traj.snapshots) == 81 and shortened > 0
    assert len(factorizations) <= 1 + shortened
    assert np.array_equal(traj.snapshots[-1].u.values, want)


def test_matrix_that_is_not_positive_definite_is_a_numerical_error():
    grid = Grid.centered(2.0, 0.1, 1)
    stepper = _Stepper(Piecewise(0.5, 2.0, 1.0), Logistic(1.0), grid)
    u = np.full(grid.npoints, 0.5)
    # 1 + dt*(a_i + a_{i+1})/h^2 < 0 on the diagonal for a negative dt
    with pytest.raises(NumericalError, match="dpttrf"):
        stepper.step_imex(u, -1.0)
    assert np.all(u == 0.5)
    stepper.step_imex(u, 0.05)  # a failed factorization leaves nothing behind


def test_scipy_is_imported_by_the_first_imex_solve_only(tmp_path):
    config = {
        "problem": {
            "half_width": 20.0,
            "coefficient": {"kind": "constant", "value": 1.0},
            "reaction": {"kind": "logistic", "rate": 1.0},
            "initial": {"kind": "bump", "radius": 1.0, "height": 1.0},
        },
        "solver": {"h": 0.2, "t_final": 2.0, "snapshot_every": 1.0},
        "analysis": {"eps_list": [0.1]},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    script = f"""
import json, sys
import kpplab.cli
from kpplab.model import homogeneous_kpp
from kpplab.solver import SolverConfig, solve

loaded = ["scipy" in sys.modules]
assert kpplab.cli.main(["run", "--config", "cfg.json", "--out", "out"]) == 0
loaded.append("scipy" in sys.modules)
solve(homogeneous_kpp(half_width=10.0), SolverConfig(h=0.1, t_final=0.1, scheme="{IMEX}"))
loaded.append("scipy" in sys.modules)
print(json.dumps(loaded))
"""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    # after the import, after an explicit run, after one IMEX solve
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, False, True]
