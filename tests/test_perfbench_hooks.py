"""The benchmark's tracer wraps kpplab functions by module attribute.

Renaming one of them would break only traced benchmark runs; this test makes
it fail here instead. ``perfbench/spans.py`` is read as text and executed in
a throwaway namespace, so nothing is imported from or written to ``perfbench/``.
"""
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans() -> dict:
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace


def test_every_wrapped_attribute_exists():
    spans = load_spans()
    hooks = [(module, attr) for module, attr, _name, _hook in spans["WRAPS"]]
    hooks.append(tuple(spans["POOL_TASK"].split(".")))
    missing = [
        f"kpplab.{module}.{attr}"
        for module, attr in hooks
        if not callable(getattr(importlib.import_module(f"kpplab.{module}"), attr, None))
    ]
    assert hooks and not missing, missing
