"""One workload in a fresh process, so that its set-up time and peak memory
are its own.

    python3 perfbench/worker.py setup PLAN RESULT
    python3 perfbench/worker.py run PLAN RESULT --seconds S --trace 0|1 [--plan0 PLAN0]
    python3 perfbench/worker.py record-digests

``setup`` times ``import kpplab.cli`` plus loading and validating the plan's
configs. ``run`` does the same, then runs the plan's units in passes (one
client, each unit after the previous one) until ``S`` seconds have passed,
and only then checks every unit's outputs. Peak memory is read after the
first pass, which is what one invocation of each unit costs; later passes
only add allocator fragmentation, which varies from process to process. With
``--trace 1`` untraced and traced passes alternate; after them the seed-0
plan runs once more so its artifacts can be compared with ``digests.json``.
``record-digests`` rewrites ``digests.json`` from the current program.
The plan files come from ``inputs.generate``; ``kpplab`` must be importable
(``PYTHONPATH=src`` from the repository root).
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
MAX_FAILURES_SHOWN = 5


def setup(plan: dict) -> dict:
    """Cold set-up of one workload, timed from before the first import."""
    start = time.perf_counter()
    import kpplab.cli  # noqa: F401  (the command-line program imports every module)

    imported = time.perf_counter()
    from kpplab.config import load_config
    from kpplab.model import validate_problem

    load = validate = 0.0
    for path in plan["configs"]:
        t0 = time.perf_counter()
        run_setup = load_config(path)
        t1 = time.perf_counter()
        report = validate_problem(run_setup.problem)
        t2 = time.perf_counter()
        if not report.all_pass:
            raise RuntimeError(f"{path} fails hypothesis validation:\n{report.summary()}")
        load += t1 - t0
        validate += t2 - t1
    return {
        "setup_s": time.perf_counter() - start,
        "kpplab.import_s": imported - start,
        "config.load_s": load,
        "model.validate_s": validate,
    }


def run_unit(unit: dict, out: Path) -> dict:
    from kpplab import cli, verify

    argv = [a.replace("{out}", str(out)) for a in unit["argv"]]
    if unit["kind"] == "verify":
        verify.invasion_bundle.cache_clear()
    buf = io.StringIO()
    record = {"unit": unit, "out": str(out), "rc": None, "error": None}
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            record["rc"] = cli.main(argv)
    except SystemExit as exc:
        record["rc"] = exc.code
    except Exception:
        record["error"] = traceback.format_exc()
    record["seconds"] = time.perf_counter() - start
    record["stdout"] = buf.getvalue()
    return record


def modules() -> dict:
    from kpplab import analysis, cli, kernels, tumor, verify

    return {"cli": cli, "tumor": tumor, "verify": verify, "kernels": kernels, "analysis": analysis}


def timed_passes(plan: dict, work: Path, seconds: float, trace: bool) -> tuple[list, list, float]:
    """Passes over the plan's units until ``seconds`` have passed, the
    records of every unit, and peak memory (MB) after the first pass. With
    tracing, untraced and traced passes alternate and come in pairs."""
    from inputs import SWEEP_JOBS

    spool = work / "spool"
    spool.mkdir(parents=True, exist_ok=True)
    mods = modules()
    passes, records = [], []
    start = time.perf_counter()
    while True:
        k = len(passes)
        traced = trace and k % 2 == 1
        tracer = spans.Tracer(spool) if traced else None
        if tracer:
            tracer.install(mods)
            root = tracer.begin("bench.pass")
        t0 = time.perf_counter()
        for unit in plan["units"]:
            records.append(run_unit(unit, work / f"pass{k}" / unit["name"]))
            if tracer:
                tracer.collect_pool()
        wall = time.perf_counter() - t0
        entry = {"traced": traced, "wall_s": wall, "units": len(plan["units"])}
        if tracer:
            tracer.end(root)
            tracer.uninstall()
            entry["metrics"] = spans.pass_metrics(tracer.spans, tracer.counters, SWEEP_JOBS)
        passes.append(entry)
        if k == 0:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() - start >= seconds and (not trace or len(passes) % 2 == 0):
            return passes, records, peak_mb


def check(record: dict) -> list[str]:
    import checks
    from kpplab.config import load_config

    unit = record["unit"]
    if record["error"]:
        return [record["error"].strip().splitlines()[-1]]
    if record["rc"] != 0:
        return [f"exit code {record['rc']}"]
    out = Path(record["out"])
    try:
        if unit["kind"] == "verify":
            return checks.check_verify(record["stdout"])
        if unit["kind"] == "sweep":
            return checks.check_sweep(out, load_config(unit["config"]), unit["axes"])
        return checks.check_run(out, load_config(unit["config"]))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def artifact_digests(plan: dict, dest: Path) -> dict[str, str]:
    """sha256 of every file the plan's units write, keyed by relative path."""
    digests = {}
    for unit in plan["units"]:
        if unit["kind"] == "verify":  # suites run without --out write nothing
            continue
        record = run_unit(unit, dest / unit["name"])
        if record["rc"] != 0 or record["error"]:
            raise RuntimeError(f"seed-0 unit {unit['name']} failed: {record['error'] or record['rc']}")
        for path in sorted(p for p in (dest / unit["name"]).rglob("*") if p.is_file()):
            digests[path.relative_to(dest).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def cmd_run(args) -> dict:
    plan = json.loads(Path(args.plan).read_text())
    work = Path(args.result).parent
    result = {"setup": setup(plan)}
    result["passes"], records, result["peak_rss_mb"] = timed_passes(plan, work, args.seconds, args.trace)
    failures = []
    for record in records:
        problems = check(record)
        if problems:
            failures.append(f"{record['unit']['name']} ({record['out']}): " + "; ".join(problems))
    result["attempted"] = len(records)
    result["failed"] = len(failures)
    result["failures"] = failures[:MAX_FAILURES_SHOWN]
    if args.plan0:
        plan0 = json.loads(Path(args.plan0).read_text())
        pinned = json.loads(DIGESTS.read_text()).get(plan0["workload"], {})
        got = artifact_digests(plan0, work / "seed0")
        result["digest_match"] = sum(1 for k, v in got.items() if pinned.get(k) == v)
    return result


def cmd_record_digests() -> None:
    import tempfile

    from inputs import WORKLOADS, generate

    root = HERE.parent
    table = {}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for workload in WORKLOADS:
            dest = Path(tmp) / workload
            plan = generate(workload, 0, root, dest / "inputs")
            table[workload] = artifact_digests(plan, dest / "out")
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, table.values()))} digests to {DIGESTS}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("plan")
    p_setup.add_argument("result")
    p_run = sub.add_parser("run")
    p_run.add_argument("plan")
    p_run.add_argument("result")
    p_run.add_argument("--seconds", type=float, required=True)
    p_run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p_run.add_argument("--plan0")
    sub.add_parser("record-digests")
    args = parser.parse_args()
    if args.mode == "record-digests":
        cmd_record_digests()
        return 0
    if args.mode == "setup":
        result = setup(json.loads(Path(args.plan).read_text()))
    else:
        result = cmd_run(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
