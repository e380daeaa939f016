"""The benchmark reads kpplab by module attribute, by object attribute and by
the bytes of its artifacts.

Renaming or changing one of these would break only benchmark runs; these
tests make it fail here instead. Files under ``perfbench/`` are read as text
(the Python ones executed in a throwaway namespace), so nothing is imported
from or written to ``perfbench/``.
"""
import hashlib
import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

from kpplab import tumor
from kpplab.cli import main
from kpplab.config import KINDS, load_config
from kpplab.model import homogeneous_kpp
from kpplab.solver import SolverConfig, solve

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
CONFIGS = ROOT / "configs"


def load(name: str) -> dict:
    path = PERFBENCH / name
    namespace = {"__name__": f"perfbench_{path.stem}"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


def test_every_wrapped_attribute_exists():
    spans = load("spans.py")
    hooks = [(module, attr) for module, attr, _name, _hook in spans["WRAPS"]]
    hooks.append(tuple(spans["POOL_TASK"].split(".")))
    missing = [
        f"kpplab.{module}.{attr}"
        for module, attr in hooks
        if not callable(getattr(importlib.import_module(f"kpplab.{module}"), attr, None))
    ]
    assert hooks and not missing, missing


def test_far_field_reads_each_pinned_problem():
    far_field = load("checks.py")["_far_field"]
    for path in sorted(CONFIGS.glob("*.json")):
        data = json.loads(path.read_text())["problem"]
        coeff, reaction = data["coefficient"], data["reaction"]
        problem = load_config(path).problem
        assert problem.coefficient.kind == coeff["kind"], path.name
        assert problem.reaction.kind == reaction["kind"], path.name
        a = coeff.get("a_plus", coeff.get("value"))
        assert far_field(problem) == (a, reaction.get("rate_plus", reaction.get("rate"))), path.name


def test_every_kind_label_the_checks_compare_is_a_kind():
    labels = set(re.findall(r'\.kind [!=]= "([^"]+)"', (PERFBENCH / "checks.py").read_text()))
    kinds = {kind for table in KINDS.values() for kind in table}
    assert labels and labels <= kinds, labels


def test_pinned_1d_runs_match_the_benchmark_digests(tmp_path):
    want = json.loads((PERFBENCH / "digests.json").read_text())["run-1d"]
    for name in sorted({key.split("/")[0] for key in want}):
        argv = ["run", "--config", str(CONFIGS / f"{name}.json"), "--out", str(tmp_path / name)]
        assert main(argv) == 0, name
    assert digests(tmp_path) == want


def digests(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in root.rglob("*")
        if path.is_file()
    }


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_seed0_tumor_sweep_matches_the_benchmark_digests(tmp_path, jobs):
    want = json.loads((PERFBENCH / "digests.json").read_text())["sweep-tumor"]
    argv = ["sweep", "--config", str(CONFIGS / "tumor_sweep.json")]
    for dotted, values in load("inputs.py")["SWEEP_AXES"]:
        argv += ["--axis", f"{dotted}=" + ",".join(repr(float(v)) for v in values)]
    assert main(argv + ["--out", str(tmp_path / "tumor_sweep"), "--jobs", jobs]) == 0
    assert digests(tmp_path) == want and len(want) == 33


def test_protocol_solves_through_tumor_solve_from_the_event(monkeypatch):
    # the benchmark times `tumor.solve` as solver work under the protocol's span
    original = tumor.solve
    starts = []

    def recording(*args, **kwargs):
        starts.append(inspect.signature(original).bind(*args, **kwargs).arguments.get("start"))
        return original(*args, **kwargs)

    p = homogeneous_kpp(half_width=30.0)
    traj = solve(p, SolverConfig(h=0.2, t_final=4.0, snapshot_every=1.0))
    monkeypatch.setattr(tumor, "solve", recording)
    tumor.run_protocol(traj, tumor.TreatmentSchedule(((2.0, 0.5),), 0.3))
    assert starts
    assert all(start is not None and start.t > 0 for start in starts), starts
