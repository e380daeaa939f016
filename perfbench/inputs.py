"""Seeded inputs for the benchmark workloads.

Seed 0 gives the pinned configs under ``configs/`` unchanged (plus the fixed
2D config and sweep axes below). Any other seed draws, once per config, the
parameters in ``RANGES`` and writes the jittered configs; the program only
ever sees the files written here and the command lines in ``units``.

The ranges keep every seed-0 certificate valid:
- the reaction rate only goes up, because the Bramson lag already puts the
  fitted level-0.5 speed of ``homogeneous_kpp`` 4.7% below 2*sqrt(a*rate)
  at rate 1, and the lag shrinks as the rate grows (4.0% at 1.2);
- the bump stays at height <= 1, so u0 lies in [0, 1];
- event times stay well after T_eps(sigma) (<= 2 on the pinned configs) and
  well inside (0, t_final);
- beta and sigma stay inside (0, 1).
"""
from __future__ import annotations

import copy
import json
import os
import random
from pathlib import Path

RANGES = {
    "rate_factor": (1.0, 1.2),  # multiplies every reaction rate
    "bump_radius": (0.8, 1.2),
    "bump_height": (0.8, 1.0),
    "event_shift": (-1.0, 1.0),  # added to every event time
    "beta_shift": (-0.1, 0.1),  # added to every treatment factor
    "sigma_shift": (-0.05, 0.05),  # added to the imaging threshold
}

RUN_1D = ("homogeneous_kpp", "piecewise_theorem2", "speed_scaling", "tumor_protocol")
VERIFY_SUITES = (
    "theorem1",
    "theorem2",
    "green",
    "kernel-mono",
    "aronson",
    "tumor-jump",
    "prop91-scan",
)
SWEEP_JOBS = min(2, len(os.sched_getaffinity(0)))  # never more workers than cores
# Seed-0 values of the three two-valued sweep axes: 2 x 2 x 2 = 8 points.
SWEEP_AXES = (
    ("tumor.sigma_img", (0.3, 0.5)),
    ("problem.reaction.rate", (0.5, 1.0)),
    ("tumor.events.0.1", (0.5, 0.7)),
)
# 2D logistic invasion with one treatment: 241 x 241 cells, 5 snapshots.
RUN_2D = {
    "problem": {
        "dimension": 2,
        "half_width": 30.0,
        "coefficient": {"kind": "constant", "value": 1.0},
        "reaction": {"kind": "logistic", "rate": 1.0},
        "initial": {"kind": "bump", "radius": 1.0, "height": 1.0},
    },
    "solver": {"h": 0.25, "t_final": 8.0, "snapshot_every": 2.0},
    "tumor": {"events": [[5.0, 0.5]], "sigma_img": 0.3},
}

WORKLOADS = ("run-1d", "verify-all", "sweep-tumor", "run-2d")


def _draw(rng: random.Random) -> dict:
    return {key: rng.uniform(lo, hi) for key, (lo, hi) in RANGES.items()}


def jitter(config: dict, draw: dict | None) -> dict:
    """Apply one draw to a config; ``None`` returns an exact copy."""
    data = copy.deepcopy(config)
    if draw is None:
        return data
    reaction = data["problem"]["reaction"]
    for key in ("rate", "rate_minus", "rate_plus"):
        if key in reaction:
            reaction[key] *= draw["rate_factor"]
    data["problem"]["initial"].update(radius=draw["bump_radius"], height=draw["bump_height"])
    if "tumor" in data:
        tumor = data["tumor"]
        tumor["events"] = [
            [t + draw["event_shift"], b + draw["beta_shift"]] for t, b in tumor["events"]
        ]
        tumor["sigma_img"] += draw["sigma_shift"]
    return data


def _jitter_axes(draw: dict | None) -> list[tuple[str, tuple[float, ...]]]:
    if draw is None:
        return [(k, v) for k, v in SWEEP_AXES]
    shift = {
        "tumor.sigma_img": lambda v: v + draw["sigma_shift"],
        "problem.reaction.rate": lambda v: v * draw["rate_factor"],
        "tumor.events.0.1": lambda v: v + draw["beta_shift"],
    }
    return [(k, tuple(shift[k](v) for v in vals)) for k, vals in SWEEP_AXES]


def _write(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return str(path)


def generate(workload: str, seed: int, root: Path, dest: Path) -> dict:
    """Write the inputs of one workload into ``dest`` and return the plan:
    ``configs`` (files the set-up loads) and ``units`` (one argv per unit,
    ``{out}`` standing for the unit's output directory)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}.")
    rng = random.Random(seed)
    draw = (lambda: None) if seed == 0 else (lambda: _draw(rng))
    dest.mkdir(parents=True, exist_ok=True)

    def pinned(name: str, d: dict | None) -> str:
        src = root / "configs" / f"{name}.json"
        if d is None:  # seed 0: the pinned file byte for byte
            (dest / src.name).write_bytes(src.read_bytes())
            return str(dest / src.name)
        return _write(dest / src.name, jitter(json.loads(src.read_text()), d))

    configs: list[str] = []
    units: list[dict] = []
    if workload == "run-1d":
        for name in RUN_1D:
            path = pinned(name, draw())
            configs.append(path)
            units.append({"name": name, "kind": "run", "config": path,
                          "argv": ["run", "--config", path, "--out", "{out}"]})
    elif workload == "run-2d":
        path = _write(dest / "invasion_2d.json", jitter(RUN_2D, draw()))
        configs.append(path)
        units.append({"name": "invasion_2d", "kind": "run", "config": path,
                      "argv": ["run", "--config", path, "--out", "{out}"]})
    elif workload == "sweep-tumor":
        d = draw()
        path = pinned("tumor_sweep", d)
        configs.append(path)
        argv = ["sweep", "--config", path]
        axes = _jitter_axes(d)
        for key, vals in axes:
            argv += ["--axis", f"{key}=" + ",".join(repr(float(v)) for v in vals)]
        argv += ["--out", "{out}", "--jobs", str(SWEEP_JOBS)]
        units.append({"name": "tumor_sweep", "kind": "sweep", "config": path,
                      "axes": axes, "argv": argv})
    else:
        for suite in VERIFY_SUITES:
            units.append({"name": suite, "kind": "verify", "argv": ["verify", suite]})
    return {"workload": workload, "seed": seed, "configs": configs, "units": units}
