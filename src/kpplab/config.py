"""Declarative run configuration: JSON with nested blocks, schema-validated.

Unknown keys are rejected with the offending key named; see README for the
full schema and pinned examples under configs/.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .model import CoefficientField, InitialCondition, Problem, Reaction
from .solver import SolverConfig
from .tumor import TreatmentSchedule


class SchemaError(ValueError):
    """Configuration violates the schema."""


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise SchemaError(f"missing required key '{key}' in block '{where}'.")
    return block[key]


def _check_keys(block: dict, allowed: set[str], where: str) -> None:
    for key in block:
        if key not in allowed:
            raise SchemaError(f"unknown key '{key}' in block '{where}'.")


def _number(value, key: str, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"key '{key}' in block '{where}' must be a number.")
    return float(value)


def _numbers(value, key: str, where: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise SchemaError(f"key '{key}' in block '{where}' must be a list of numbers.")
    return tuple(_number(v, key, where) for v in value)


def _parse_coefficient(block: dict) -> CoefficientField:
    kind = _require(block, "kind", "problem.coefficient")
    if kind == "constant":
        _check_keys(block, {"kind", "value"}, "problem.coefficient")
        return CoefficientField.constant(_number(_require(block, "value", "problem.coefficient"), "value", "problem.coefficient"))
    if kind == "sine":
        _check_keys(block, {"kind", "base", "amplitude", "wavelength"}, "problem.coefficient")
        return CoefficientField.sine(
            _number(_require(block, "base", "problem.coefficient"), "base", "problem.coefficient"),
            _number(_require(block, "amplitude", "problem.coefficient"), "amplitude", "problem.coefficient"),
            _number(_require(block, "wavelength", "problem.coefficient"), "wavelength", "problem.coefficient"),
        )
    if kind == "piecewise":
        _check_keys(block, {"kind", "a_minus", "a_plus", "radius"}, "problem.coefficient")
        return CoefficientField.piecewise(
            _number(_require(block, "a_minus", "problem.coefficient"), "a_minus", "problem.coefficient"),
            _number(_require(block, "a_plus", "problem.coefficient"), "a_plus", "problem.coefficient"),
            _number(_require(block, "radius", "problem.coefficient"), "radius", "problem.coefficient"),
        )
    raise SchemaError(f"unknown coefficient kind '{kind}'.")


def _parse_reaction(block: dict) -> Reaction:
    kind = _require(block, "kind", "problem.reaction")
    if kind == "logistic":
        _check_keys(block, {"kind", "rate"}, "problem.reaction")
        return Reaction.logistic(_number(_require(block, "rate", "problem.reaction"), "rate", "problem.reaction"))
    if kind == "zero":
        _check_keys(block, {"kind"}, "problem.reaction")
        return Reaction.zero()
    if kind == "piecewise-kpp":
        _check_keys(
            block, {"kind", "rate_minus", "rate_plus", "theta", "radius"}, "problem.reaction"
        )
        return Reaction.piecewise_kpp(
            _number(_require(block, "rate_minus", "problem.reaction"), "rate_minus", "problem.reaction"),
            _number(_require(block, "rate_plus", "problem.reaction"), "rate_plus", "problem.reaction"),
            _number(_require(block, "theta", "problem.reaction"), "theta", "problem.reaction"),
            _number(_require(block, "radius", "problem.reaction"), "radius", "problem.reaction"),
        )
    raise SchemaError(f"unknown reaction kind '{kind}'.")


def _parse_initial(block: dict) -> InitialCondition:
    kind = _require(block, "kind", "problem.initial")
    if kind == "gaussian":
        _check_keys(block, {"kind", "amplitude", "decay"}, "problem.initial")
        return InitialCondition.gaussian(
            _number(_require(block, "amplitude", "problem.initial"), "amplitude", "problem.initial"),
            _number(_require(block, "decay", "problem.initial"), "decay", "problem.initial"),
        )
    if kind == "exponential":
        _check_keys(block, {"kind", "amplitude", "decay"}, "problem.initial")
        return InitialCondition.exponential(
            _number(_require(block, "amplitude", "problem.initial"), "amplitude", "problem.initial"),
            _number(_require(block, "decay", "problem.initial"), "decay", "problem.initial"),
        )
    if kind == "bump":
        _check_keys(block, {"kind", "radius", "height"}, "problem.initial")
        return InitialCondition.bump(
            _number(_require(block, "radius", "problem.initial"), "radius", "problem.initial"),
            _number(_require(block, "height", "problem.initial"), "height", "problem.initial"),
        )
    raise SchemaError(f"unknown initial-condition kind '{kind}'.")


def _parse_problem(block: dict) -> Problem:
    _check_keys(
        block,
        {"dimension", "half_width", "coefficient", "reaction", "initial"},
        "problem",
    )
    dim = block.get("dimension", 1)
    if dim not in (1, 2):
        raise SchemaError("problem.dimension must be 1 or 2.")
    return Problem(
        dimension=dim,
        half_width=_number(_require(block, "half_width", "problem"), "half_width", "problem"),
        coefficient=_parse_coefficient(_require(block, "coefficient", "problem")),
        reaction=_parse_reaction(_require(block, "reaction", "problem")),
        initial=_parse_initial(_require(block, "initial", "problem")),
    )


def _parse_solver(block: dict) -> tuple[SolverConfig, bool]:
    allowed = {
        "h",
        "dt",
        "scheme",
        "t_final",
        "snapshot_every",
        "snapshot_times",
        "boundary_leak_tolerance",
        "hard_leak_threshold",
        "validate",
    }
    _check_keys(block, allowed, "solver")
    dt = block.get("dt", "auto")
    if not (dt == "auto" or isinstance(dt, (int, float))):
        raise SchemaError("solver.dt must be a number or 'auto'.")
    validate = block.get("validate", True)
    if not isinstance(validate, bool):
        raise SchemaError("solver.validate must be a boolean.")
    kwargs = dict(
        h=_number(_require(block, "h", "solver"), "h", "solver"),
        t_final=_number(_require(block, "t_final", "solver"), "t_final", "solver"),
        dt=dt if dt == "auto" else float(dt),
        scheme=block.get("scheme", "explicit-euler"),
    )
    if "snapshot_every" in block:
        kwargs["snapshot_every"] = _number(block["snapshot_every"], "snapshot_every", "solver")
    if "snapshot_times" in block:
        kwargs["snapshot_times"] = _numbers(block["snapshot_times"], "snapshot_times", "solver")
    if "boundary_leak_tolerance" in block:
        kwargs["boundary_leak_tolerance"] = _number(
            block["boundary_leak_tolerance"], "boundary_leak_tolerance", "solver"
        )
    if "hard_leak_threshold" in block:
        kwargs["hard_leak_threshold"] = _number(
            block["hard_leak_threshold"], "hard_leak_threshold", "solver"
        )
    try:
        return SolverConfig(**kwargs), validate
    except ValueError as exc:
        raise SchemaError(f"solver block invalid: {exc}") from exc


@dataclass(frozen=True)
class AnalysisOptions:
    eps_list: tuple[float, ...] = ()
    levels: tuple[float, ...] = ()
    speed_window: Optional[tuple[float, float]] = None
    tau_floor: Optional[float] = None
    margin: float = 1.0
    side: str = "right"


def _parse_analysis(block: dict) -> AnalysisOptions:
    allowed = {"eps_list", "levels", "speed_window", "tau_floor", "margin", "side"}
    _check_keys(block, allowed, "analysis")
    window = block.get("speed_window")
    if window is not None:
        window = _numbers(window, "speed_window", "analysis")
        if len(window) != 2:
            raise SchemaError("analysis.speed_window must be [t_start, t_end].")
    side = block.get("side", "right")
    if side not in ("left", "right"):
        raise SchemaError("analysis.side must be 'left' or 'right'.")
    return AnalysisOptions(
        eps_list=_numbers(block.get("eps_list", []), "eps_list", "analysis"),
        levels=_numbers(block.get("levels", []), "levels", "analysis"),
        speed_window=window,
        tau_floor=_number(block["tau_floor"], "tau_floor", "analysis") if "tau_floor" in block else None,
        margin=_number(block.get("margin", 1.0), "margin", "analysis"),
        side=side,
    )


def _parse_tumor(block: dict) -> TreatmentSchedule:
    _check_keys(block, {"events", "sigma_img"}, "tumor")
    events = _require(block, "events", "tumor")
    if not isinstance(events, list) or not all(
        isinstance(ev, list) and len(ev) == 2 for ev in events
    ):
        raise SchemaError("tumor.events must be a list of [time, beta] pairs.")
    try:
        return TreatmentSchedule(
            events=tuple((float(t), float(b)) for t, b in events),
            sigma_img=_number(_require(block, "sigma_img", "tumor"), "sigma_img", "tumor"),
        )
    except ValueError as exc:
        raise SchemaError(f"tumor block invalid: {exc}") from exc


@dataclass
class RunSetup:
    problem: Problem
    solver: SolverConfig
    validate: bool = True
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)
    schedule: Optional[TreatmentSchedule] = None


def parse_config(data: dict) -> RunSetup:
    if not isinstance(data, dict):
        raise SchemaError("top-level config must be an object.")
    _check_keys(data, {"problem", "solver", "analysis", "tumor"}, "top level")
    try:
        problem = _parse_problem(_require(data, "problem", "top level"))
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(f"problem block invalid: {exc}") from exc
    solver, validate = _parse_solver(_require(data, "solver", "top level"))
    analysis = _parse_analysis(data.get("analysis", {}))
    schedule = _parse_tumor(data["tumor"]) if "tumor" in data else None
    return RunSetup(
        problem=problem,
        solver=solver,
        validate=validate,
        analysis=analysis,
        schedule=schedule,
    )


def load_config(path) -> RunSetup:
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data)
