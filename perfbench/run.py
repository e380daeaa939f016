"""kpplab benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload run-1d --seed 3 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the program is taken
from its ``src/`` and the pinned configs from its ``configs/``. The workload's
inputs are generated from the seed (``inputs.py``), set-up is timed in
several fresh processes, and the workload runs in one more fresh process
(``worker.py``) with BLAS/OpenMP pinned to one thread. Every unit's outputs
are checked (``checks.py``); a unit with a problem counts as failed.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of traced passes
(``spans.py``), which alternate with untraced ones so that the tracing
overhead is measured in the same run. Lines before it are a readable summary.
Exit code 2 means the benchmark could not run (for example, no ``src/kpplab``).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # fresh processes timing set-up; the workload's own is one of them
DEADLINE_S = 170.0  # the whole run, set-up included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _child(args: list[str], env: dict, deadline: float) -> None:
    """Run worker.py in its own process group, so that on a timeout its sweep
    pool goes down with it; always wait for the group leader to end."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + " ".join(args[:2]))
    with subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker {args[0]} did not finish within {DEADLINE_S:g} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{err[-4000:]}")


def _per_layer(result: dict, setups: list[dict]) -> dict[str, float]:
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p["wall_s"] for p in result["passes"] if not p["traced"]]
    metrics = {k: statistics.median(s[k] for s in setups)
               for k in ("kpplab.import_s", "config.load_s", "model.validate_s")}
    for key in traced[0]["metrics"]:
        metrics[key] = statistics.median(p["metrics"][key] for p in traced)
    metrics["csvio.digest_match"] = result["digest_match"]
    metrics["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(plain)
    return metrics


def _additive(result: dict) -> list[str]:
    """Layer self times must add up to the traced wall time, plus the time
    counted twice because pool workers ran side by side."""
    problems = []
    for p in (p for p in result["passes"] if p["traced"]):
        m = p["metrics"]
        if abs(m["trace.self_sum_s"] - (m["trace.wall_s"] + m["trace.parallel_s"])) > 1e-6 * m["trace.wall_s"]:
            problems.append(f"self times {m['trace.self_sum_s']:.6f} s != traced wall "
                            f"{m['trace.wall_s']:.6f} s + parallel {m['trace.parallel_s']:.6f} s")
        if abs(m["trace.wall_s"] - p["wall_s"]) > 0.01 * p["wall_s"]:
            problems.append(f"root spans {m['trace.wall_s']:.6f} s != pass wall {p['wall_s']:.6f} s")
    return problems


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "kpplab" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        raise BenchError(f"no kpplab sources under {ROOT} (need src/kpplab and configs/)")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan_path = work / "plan.json"
        plan_path.parent.mkdir(parents=True)
        plan_path.write_text(json.dumps(generate(workload, seed, ROOT, work / "inputs")))
        # PYTHONHASHSEED: with random string hashing the allocation order, and
        # with it peak memory, changes from process to process by up to 5 MB.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                   **{var: "1" for var in THREAD_VARS})
        env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up imports cached bytecode, as installs do
        setups = []
        for k in range(SETUP_SAMPLES - 1):
            _child(["setup", str(plan_path), str(work / f"setup{k}.json")], env, deadline)
            setups.append(json.loads((work / f"setup{k}.json").read_text()))
        run_args = ["run", str(plan_path), str(work / "result.json"),
                    "--seconds", str(seconds), "--trace", str(int(trace))]
        if trace:
            plan0 = work / "plan0.json"
            plan0.write_text(json.dumps(generate(workload, 0, ROOT, work / "inputs0")))
            run_args += ["--plan0", str(plan0)]
        _child(run_args, env, deadline)
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()
    setups.append(result["setup"])

    problems = list(result["failures"])
    plain = [p["wall_s"] for p in result["passes"] if not p["traced"]]
    if trace:
        problems += _additive(result)
        values = _per_layer(result, setups)
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": statistics.median(plain),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": 1.0 - result["failed"] / result["attempted"],
        }
    if set(values) != {m["name"] for m in declared}:
        raise BenchError(f"metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}
    return {
        "workload": workload,
        "passes": len(plain),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": problems,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    fail_frac = out["failed"] / out["attempted"]
    print(f"workload {out['workload']}  seed {args.seed}  untraced passes {out['passes']}  "
          f"units {out['attempted']}  failed {out['failed']}  fail_frac {fail_frac:.4g} (fraction)")
    for problem in out["problems"]:
        print(f"  FAILED {problem}")
    for name, (value, unit) in out["metrics"].items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not out["problems"] and out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
