"""Declarative run configuration: JSON with nested blocks, schema-validated.

A kind block's keys are the fields of the class that its ``kind`` names in
:data:`KINDS`; every other block's keys and defaults are the fields of the
dataclass it builds. One walker checks and builds every block; see
README for the schema and configs/ for pinned examples.
"""
from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Optional

from . import model
from .solver import SolverConfig
from .tumor import TreatmentSchedule


class SchemaError(ValueError):
    """Configuration violates the schema."""


@dataclass(frozen=True)
class AnalysisOptions:
    eps_list: tuple[float, ...] = ()
    levels: tuple[float, ...] = ()
    speed_window: Optional[tuple[float, float]] = None
    tau_floor: Optional[float] = None
    margin: float = 1.0
    side: str = "right"

    def __post_init__(self) -> None:
        if self.speed_window is not None and len(self.speed_window) != 2:
            raise ValueError("speed_window must be [t_start, t_end].")
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'.")


@dataclass
class RunSetup:
    problem: model.Problem
    solver: SolverConfig
    validate: bool = True
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)
    schedule: Optional[TreatmentSchedule] = None


# block path -> {kind: class}; a kind's keys are its class's fields
KINDS = {
    path: {cls.kind: cls for cls in classes}
    for path, classes in (
        ("problem.coefficient", (model.Constant, model.Sine, model.Piecewise)),
        ("problem.reaction", (model.Logistic, model.Zero, model.PiecewiseKPP)),
        ("problem.initial", (model.Gaussian, model.Exponential, model.Bump)),
    )
}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _at(path: str) -> str:
    where, _, key = path.rpartition(".")
    return f"key '{key}' in block '{where or 'top level'}'"


def _number(value, path: str) -> float:
    # NaN, the infinities and integers beyond float range fail the abs test
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise SchemaError(f"{_at(path)} must be a finite number.")
    return float(value)


def _numbers(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise SchemaError(f"{_at(path)} must be a list of numbers.")
    return tuple(_number(v, path) for v in value)


def _integer(value, path: str) -> int:
    number = _number(value, path)
    if not number.is_integer():
        raise SchemaError(f"{_at(path)} must be an integer.")
    return int(number)


def _flag(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{_at(path)} must be true or false.")
    return value


def _events(value, path: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, list) or not all(isinstance(e, list) and len(e) == 2 for e in value):
        raise SchemaError(f"{_at(path)} must be a list of [time, beta] pairs.")
    return tuple((_number(t, path), _number(beta, path)) for t, beta in value)


def _object(block, path: str) -> dict:
    if not isinstance(block, dict):
        raise SchemaError(f"{_at(path) if path else 'the top level'} must be an object.")
    return block


def _walk(block, path: str, params: dict[str, bool]) -> dict:
    """The converted values of the object ``block`` at ``path``; ``params``
    maps each allowed key to whether it is required."""
    for key in _object(block, path):
        if key not in params:
            raise SchemaError(f"unknown {_at(_join(path, key))}.")
    for key, required in params.items():
        if required and key not in block:
            raise SchemaError(f"missing required {_at(_join(path, key))}.")
    return {k: _CONVERT.get(_join(path, k), _number)(v, _join(path, k)) for k, v in block.items()}


def _build(target, args: dict, path: str):
    """``target(**args)``, with the ValueError of a failed check as a SchemaError."""
    try:
        return target(**args)
    except ValueError as exc:
        raise SchemaError(f"block '{path}' invalid: {exc}") from exc


def _kind_block(block, path: str):
    kinds = KINDS[path]
    kind = _object(block, path).get("kind")  # None when missing
    cls = kinds.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SchemaError(f"{_at(path + '.kind')} must be one of {list(kinds)}, not {kind!r}.")
    rest = {key: value for key, value in block.items() if key != "kind"}
    return _build(cls, _walk(rest, path, _fields(cls)), path)


def _fields(cls) -> dict[str, bool]:
    """Field name -> required, for the dataclass ``cls``."""
    return {f.name: f.default is MISSING and f.default_factory is MISSING for f in fields(cls)}


def _fixed(cls, **defaults):
    """Converter of a block whose keys are the fields of the dataclass ``cls``;
    ``defaults`` fills fields that the dataclass leaves without one."""
    params = {**_fields(cls), **dict.fromkeys(defaults, False)}
    return lambda block, path: _build(cls, {**defaults, **_walk(block, path, params)}, path)


# dotted key path -> converter(value, path), for every key whose value is not
# a plain number; a block's converter walks and builds that block
_CONVERT = {
    "problem": _fixed(model.Problem, dimension=1),
    "problem.dimension": _integer,
    **dict.fromkeys(KINDS, _kind_block),
    # built in parse_config, which takes validate out for RunSetup
    "solver": lambda block, path: _walk(block, path, {**_fields(SolverConfig), "validate": False}),
    "solver.dt": lambda value, path: value if value == "auto" else _number(value, path),
    "solver.validate": _flag,
    "analysis": _fixed(AnalysisOptions),
    **dict.fromkeys(("solver.scheme", "analysis.side"), lambda value, path: value),
    **dict.fromkeys(
        ("solver.snapshot_times", "analysis.eps_list", "analysis.levels", "analysis.speed_window"),
        _numbers,
    ),
    "tumor": _fixed(TreatmentSchedule),
    "tumor.events": _events,
}


def parse_config(data: dict) -> RunSetup:
    blocks = _walk(data, "", {"problem": True, "solver": True, "analysis": False, "tumor": False})
    solver = blocks.pop("solver")
    if "validate" in solver:
        blocks["validate"] = solver.pop("validate")
    if "tumor" in blocks:
        blocks["schedule"] = blocks.pop("tumor")
    return RunSetup(solver=_build(SolverConfig, solver, "solver"), **blocks)


def read_config(path):
    """The JSON data of the config file at ``path``; a file that cannot be
    read, decoded as UTF-8 or parsed as JSON is a SchemaError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read config '{path}': {exc}") from exc


def load_config(path) -> RunSetup:
    return parse_config(read_config(path))
