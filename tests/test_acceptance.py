"""Acceptance gate: desk-scale instantiation of the certified statements.

Each test prints one PASS/FAIL line per criterion (run with `pytest -v -s`
to see them live). Heavy runs are shared through the cached bundles in
kpplab.verify, so the whole module stays within a few minutes.
"""
import math

import numpy as np
import pytest

from kpplab import verify
from kpplab.analysis import spreading_speed
from kpplab.grids import Grid, GridFunction
from kpplab.kernels import HalfLineParams, half_line_green
from kpplab.model import homogeneous_kpp
from kpplab.solver import Snapshot, SolverConfig, solve
from kpplab.tumor import apply_treatment, total_mass


def _report(number: str, results) -> None:
    ok = True
    for res in results:
        print(f"ACCEPTANCE {number} {res.line()}")
        ok = ok and res.passed
    assert ok, "; ".join(r.line() for r in results if not r.passed)


@pytest.fixture(scope="module")
def invasion_results():
    return verify.suite_invasion()


@pytest.fixture(scope="module")
def global_sign_results():
    return verify.suite_global_sign()


@pytest.fixture(scope="module")
def green_results():
    return verify.suite_green()


@pytest.fixture(scope="module")
def aronson_results():
    return verify.suite_aronson()


@pytest.fixture(scope="module")
def kernel_ratio_results():
    return verify.suite_kernel_mono()


@pytest.fixture(scope="module")
def halfline_results():
    return verify.suite_halfline_scan()


@pytest.fixture(scope="module")
def tumor_results():
    return verify.suite_tumor_jump()


def test_criterion_01_spreading_speed(invasion_results):
    _report("1", [r for r in invasion_results if r.criterion == "spreading-speed"])


def test_criterion_02_sign_above_eps(invasion_results):
    _report("2", [r for r in invasion_results if r.criterion == "sign-above-eps"])


def test_criterion_03_inf_rhs_tail(invasion_results):
    _report("3", [r for r in invasion_results if r.criterion == "inf-rhs-tail"])


def test_criterion_03b_T_monotone_stability(invasion_results):
    _report("3b", [r for r in invasion_results if r.criterion == "T-monotone"])


def test_criterion_04_green_equivalence(green_results):
    _report("4", green_results)


def test_criterion_05_green_dt_scan(halfline_results):
    _report(
        "5",
        [r for r in halfline_results if r.criterion in ("green-dt-region-scan", "t0-threshold")],
    )


def test_criterion_06_full_solution_sign(halfline_results):
    _report("6", [r for r in halfline_results if r.criterion == "full-solution-sign"])


def test_criterion_07_global_sign_time(global_sign_results):
    _report("7", global_sign_results)


def test_criterion_08_aronson_sandwich(aronson_results):
    _report("8", aronson_results)


def test_criterion_09_kernel_ratio_constant(kernel_ratio_results):
    _report(
        "9",
        [
            r
            for r in kernel_ratio_results
            if r.criterion in ("kernel-ratio-constant", "kernel-ratio-negative-control")
        ],
    )


def test_criterion_10_kernel_ratio_variable(kernel_ratio_results):
    _report("10", [r for r in kernel_ratio_results if r.criterion == "kernel-ratio-variable"])


def test_criterion_11_jump_identity(tumor_results):
    _report("11", [r for r in tumor_results if r.criterion == "jump-identity"])


def test_criterion_12_observed_size_implication(tumor_results):
    _report("12", [r for r in tumor_results if r.criterion == "observed-size-implication"])


# What `kpplab verify <suite>` prints, line for line. The printed numbers are
# the contract that a rewrite of the certificate routines must keep.
VERIFY_LINES = {
    "theorem1": [
        "PASS  spreading-speed: fitted level-0.5 speed 1.9673 vs 2.0 +/- 0.1",
        "PASS  sign-above-eps: T_eps(0.1) = 2 (<= 40), h/2 gives 2 (moves <= one comb step)",
        "PASS  inf-rhs-tail: |inf rhs|(80) = 0.000e+00 <= 1e-3 and <= |inf rhs|(40) = 0.000e+00",
        "PASS  T-monotone: T_mono = 1, h/2 gives 1 (stable within one snapshot)",
    ],
    "theorem2": [
        "PASS  global-sign-time: tau_global = 2; rhs > 0 at every reliable cell afterwards",
        "PASS  harnack-shift: fitted shift constant C = 0.4120 over 72 snapshot pairs (T0 = 4.1640)",
    ],
    "green": [
        "PASS  green-equivalence: quadrature vs zero-boundary PDE solve: rel Linf error 2.743e-05 <= 1e-2",
    ],
    "kernel-mono": [
        "PASS  kernel-ratio-constant: min ratio 0.894439 vs (tau/(tau+1))^(1/2) = 0.894427 at x = 0",
        "PASS  kernel-ratio-negative-control: tau=1, sigma=0.99: min ratio 0.707201 < 0.99 fails as predicted",
        "PASS  kernel-ratio-variable: sine amplitudes passing at sigma=0.8, tau=4: [0.05, 0.1, 0.2, 0.4] (largest 0.4)",
    ],
    "aronson": [
        "PASS  aronson-sandwich: sine coefficient: K = 4.686 (<= 50) on t in [0.5, 1.0, 2.0, 4.0], |x| <= 10, 1458 points; gaussian-normalized K = 1.562",
        "PASS  aronson-exact-gaussian: constant D=1: gaussian-normalized K = 1.0166 (exact kernel -> 1); literal-form K = 3.604",
    ],
    "tumor-jump": [
        "PASS  jump-identity: max |residual| over beta in (0.3,0.5,0.8) at t0=5: 1.779e-14 <= 1e-12",
        "PASS  observed-size-implication: event at t0=20 > T_eps = 1.5, boundary rhs min 0.2016 > 0, S nondecreasing on next 10 comb points: True",
    ],
    "prop91-scan": [
        "PASS  green-dt-region-scan: 900000 sampled points in the guaranteed region, 0 sign violations (min G_t = 2.468e-65)",
        "PASS  t0-threshold: t0(1) = 2.0819767 vs 2.0819767 +/- 1e-6",
        "PASS  full-solution-sign: numerical v with g(t)=1-exp(-t): rhs > 0 at all 7038 sampled points in the region (min rhs 1.132e-57)",
    ],
}
SUITE_FIXTURES = {
    "theorem1": "invasion_results",
    "theorem2": "global_sign_results",
    "green": "green_results",
    "kernel-mono": "kernel_ratio_results",
    "aronson": "aronson_results",
    "tumor-jump": "tumor_results",
    "prop91-scan": "halfline_results",
}


@pytest.mark.parametrize("suite", list(VERIFY_LINES))
def test_verify_prints_the_pinned_lines(suite, request):
    results = request.getfixturevalue(SUITE_FIXTURES[suite])
    assert [r.line() for r in results] == VERIFY_LINES[suite]


# Criterion 13: property suites run directly.


def _random_ordered_pair(grid: Grid, rng: np.random.Generator):
    x = grid.axis(0)
    upper = np.zeros_like(x)
    for _ in range(3):
        c = rng.uniform(-5.0, 5.0)
        w = rng.uniform(0.5, 2.0)
        upper += rng.uniform(0.2, 1.0) * np.exp(-((x - c) ** 2) / w)
    upper = np.clip(upper, 0.0, 1.0)
    lower = upper * rng.uniform(0.1, 1.0)
    return (
        GridFunction(lower, grid.h, grid.origin),
        GridFunction(upper, grid.h, grid.origin),
    )


def test_criterion_13_property_suites():
    violations = []

    # comparison principle on 20 random ordered pairs
    rng = np.random.default_rng(20240817)
    p = homogeneous_kpp(half_width=10.0)
    grid = Grid.centered(10.0, 0.1, 1)
    cfg = SolverConfig(
        h=0.1, t_final=2.0, snapshot_every=0.5, boundary_leak_tolerance=2.0, hard_leak_threshold=2.0
    )
    for k in range(20):
        lo, hi = _random_ordered_pair(grid, rng)
        traj_lo = solve(p, cfg, validate=False, start=Snapshot(0.0, lo))
        traj_hi = solve(p, cfg, validate=False, start=Snapshot(0.0, hi))
        for sa, sb in zip(traj_lo, traj_hi):
            if not np.all(sa.u.values <= sb.u.values + 1e-12):
                violations.append(f"comparison pair {k} at t={sa.t}")
        # maximum principle on every snapshot of both runs
        for traj in (traj_lo, traj_hi):
            for s in traj:
                if np.min(s.u.values) < -1e-12 or np.max(s.u.values) > 1 + 1e-12:
                    violations.append(f"maximum principle pair {k} at t={s.t}")

    # Green function boundary and symmetry identities
    pp = HalfLineParams(1.2, 0.8)
    rng2 = np.random.default_rng(7)
    for _ in range(200):
        t = rng2.uniform(0.1, 5.0)
        x, y = rng2.uniform(0.0, 10.0, 2)
        if abs(half_line_green(pp, t, 0.0, y)) > 0.0:
            violations.append("green boundary identity")
        gxy = half_line_green(pp, t, x, y)
        gyx = half_line_green(pp, t, y, x)
        if abs(gxy - gyx) > 1e-12 * max(1.0, abs(gxy)):
            violations.append("green symmetry")

    # mass jumps by the exact treatment factor
    rng3 = np.random.default_rng(99)
    state = GridFunction(rng3.uniform(0.0, 1.0, 2001), 0.1, (-100.0,))
    for beta in (0.3, 0.5, 0.8):
        ratio = total_mass(apply_treatment(state, beta)) / total_mass(state)
        if abs(ratio - beta) > 1e-13 * beta:
            violations.append(f"mass jump beta={beta}")

    print(f"ACCEPTANCE 13 {'PASS' if not violations else 'FAIL'}  property-suites: "
          f"comparison 20 pairs, maximum principle, green identities, mass-jump factor; "
          f"{len(violations)} violations")
    assert not violations, violations


def test_speed_scaling_oracle_for_sweeps():
    # sweep semantics anchor: doubling the diffusivity scales the fitted
    # speed by sqrt(2) (same window, same level)
    cfg = SolverConfig(h=0.1, t_final=30.0, snapshot_every=1.0)
    s1 = spreading_speed(solve(homogeneous_kpp(half_width=120.0), cfg), 0.5, (15.0, 30.0))
    s2 = spreading_speed(
        solve(homogeneous_kpp(half_width=120.0, diffusivity=2.0), cfg), 0.5, (15.0, 30.0)
    )
    ratio = s2 / s1
    ok = abs(ratio - math.sqrt(2.0)) <= 0.05 * math.sqrt(2.0)
    print(f"ACCEPTANCE sweep-scaling {'PASS' if ok else 'FAIL'}: speed ratio {ratio:.4f} vs sqrt(2)")
    assert ok
