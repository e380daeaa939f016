"""In-memory spans around the calls between kpplab modules.

The benchmark wraps, from outside the package, the module attributes that
one kpplab module calls on another (``cli.solve``, ``kernels.fundamental_solution``
and so on). A wrapped call records a span (name, start, end, parent); nested
wrapped calls become children, and a span's self time is its duration minus
the part of it that its children cover. Span names are ``<layer>.<what>``,
where the layer is the kpplab module the called code belongs to.

Sweep pool workers are forked with a copy of the tracer. Each worker task
starts a fresh span list and appends it, with its counters, to a spool file;
the parent grafts those spans under the span that was open when the pool
forked, so worker time shows up in the layers it was spent in.
"""
from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name, counter hook); the span's layer is the text
# before the first dot. Only calls that cross a module boundary are listed.
WRAPS = (
    ("cli", "main", "cli.main", None),
    ("cli", "_run_pipeline", "cli._run_pipeline", None),
    ("cli", "load_config", "config.load_config", None),
    ("cli", "parse_config", "config.parse_config", None),
    ("cli", "validate_problem", "model.validate_problem", None),
    ("cli", "solve", "solver.solve", "trajectory"),
    ("cli", "_write_trajectory", "csvio.write_trajectory", None),
    ("cli", "write_csv", "csvio.write_csv", "bytes"),
    ("tumor", "solve", "solver.solve", "trajectory"),
    ("tumor", "run_protocol", "tumor.run_protocol", "events"),
    ("tumor", "jump_identity_residual", "tumor.jump_identity_residual", None),
    ("verify", "solve", "solver.solve", "trajectory"),
    ("verify", "fundamental_solution", "solver.fundamental_solution", "kernels"),
    ("verify", "solve_linear_halfline", "solver.solve_linear_halfline", "halfline"),
    ("verify", "write_csv", "csvio.write_csv", "bytes"),
    ("verify", "run_suite", "verify.run_suite", None),
    ("verify", "suite_invasion", "verify.theorem1", None),
    ("verify", "suite_global_sign", "verify.theorem2", None),
    ("verify", "suite_green", "verify.green", None),
    ("verify", "suite_kernel_mono", "verify.kernel-mono", None),
    ("verify", "suite_aronson", "verify.aronson", None),
    ("verify", "suite_tumor_jump", "verify.tumor-jump", None),
    ("verify", "suite_halfline_scan", "verify.prop91-scan", None),
    ("kernels", "fundamental_solution", "solver.fundamental_solution", "kernels"),
    ("kernels", "scan_green_dt_region", "kernels.scan", None),
    ("kernels", "fit_aronson_K", "kernels.fit", None),
    ("kernels", "check_kernel_ratio", "kernels.ratio", None),
    ("kernels", "halfline_quadrature", "kernels.quadrature", None),
    ("analysis", "solve_linear_halfline", "solver.solve_linear_halfline", "halfline"),
    ("analysis", "monotonicity_report", "analysis.monotonicity_report", None),
    ("analysis", "global_sign_report", "analysis.global_sign_report", None),
    ("analysis", "level_curve", "analysis.level_curve", None),
    ("analysis", "spreading_speed", "analysis.spreading_speed", None),
    ("analysis", "harnack_shift_check", "analysis.harnack_shift_check", None),
    ("analysis", "halfline_sign_verify", "analysis.halfline_sign_verify", None),
)
POOL_TASK = "cli._sweep_worker"


def _count(tracer: "Tracer", hook: str, result) -> None:
    """Work counters: cells x snapshots and cells x simulated time for the
    solver, treatment events, and CSV bytes written."""
    c = tracer.counters
    if hook == "trajectory":
        cells = result.snapshots[0].u.values.size
        c["solver.cell_snapshots"] += cells * len(result.snapshots)
        c["solver.cell_time"] += cells * result.config.t_final
    elif hook == "kernels":
        cells = result.kernels[0].values.size
        c["solver.cell_snapshots"] += cells * len(result.kernels)
        c["solver.cell_time"] += cells * max(result.times)
    elif hook == "halfline":
        cells = result[0][1].values.size
        c["solver.cell_snapshots"] += cells * len(result)
        c["solver.cell_time"] += cells * max(t for t, _, _ in result)
    elif hook == "events":
        c["tumor.events"] += len(result.events)
    elif hook == "bytes":
        c["csvio.bytes"] += Path(result).stat().st_size


class Tracer:
    """Spans as [name, start, end, parent index]; parent -1 is a root."""

    def __init__(self, spool: Path):
        self.spool = spool
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.task_pid: int | None = None
        self.task_parent = -1
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans, self.stack, self.counters = [], [], defaultdict(float)

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, hook: str | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if hook is not None:
                _count(self, hook, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        global _ACTIVE
        for mod_name, attr, name, hook in WRAPS:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, hook))
        cli = modules["cli"]
        self._saved.append((cli, "_sweep_worker", cli._sweep_worker))
        _ACTIVE = (self, cli._sweep_worker)
        cli._sweep_worker = traced_sweep_worker

    def uninstall(self) -> None:
        global _ACTIVE
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)
        _ACTIVE = None

    def collect_pool(self) -> None:
        """Graft spans spooled by pool workers into this span list."""
        for path in sorted(self.spool.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                task = json.loads(line)
                base = len(self.spans)
                for name, start, end, parent in task["spans"]:
                    self.spans.append([name, start, end, task["parent"] if parent < 0 else parent + base])
                for key, value in task["counters"].items():
                    self.counters[key] += value
            path.unlink()


_ACTIVE: tuple[Tracer, object] | None = None


def traced_sweep_worker(payload):
    """Stands in for ``cli._sweep_worker`` while tracing; module level so
    that the pool can pickle it by name."""
    tracer, original = _ACTIVE
    pid = os.getpid()
    if pid == tracer.pid:  # serial sweep: an ordinary span
        return tracer.wrap(POOL_TASK, original, None)(payload)
    if tracer.task_pid != pid:  # first task in this worker: the span open at fork
        tracer.task_pid, tracer.task_parent = pid, tracer.stack[-1]
    tracer.reset()
    idx = tracer.begin(POOL_TASK)
    try:
        return original(payload)
    finally:
        tracer.end(idx)
        record = {"parent": tracer.task_parent, "spans": tracer.spans,
                  "counters": dict(tracer.counters)}
        with open(tracer.spool / f"{pid}.jsonl", "a") as fh:
            fh.write(json.dumps(record) + "\n")


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> tuple[list[float], float]:
    """Self time of every span, and the parallel time: how much the sum of
    child durations exceeds the union they cover, summed over all spans.
    Sum of self times = sum of root durations + parallel time."""
    children: list[list[int]] = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    selfs = []
    parallel = 0.0
    for i, (_, start, end, _) in enumerate(spans):
        kids = [(spans[c][1], spans[c][2]) for c in children[i]]
        union = covered(start, end, kids)
        selfs.append((end - start) - union)
        parallel += sum(min(e, end) - max(s, start) for s, e in kids if e > s) - union
    return selfs, parallel


KERNEL_SPANS = ("kernels.scan", "kernels.fit", "kernels.ratio", "kernels.quadrature")
VERIFY_SPANS = tuple(name for _, _, name, _ in WRAPS if name.startswith("verify.") and name != "verify.run_suite")
LAYER_METRICS = {  # layer -> its self-time metric; kernels is split by span
    "bench": "trace.harness_s",
    "cli": "cli.self_s",
    "config": "config.self_s",
    "model": "model.self_s",
    "solver": "solver.solve_s",
    "analysis": "analysis.certify_s",
    "tumor": "tumor.protocol_s",
    "csvio": "csvio.write_s",
    "verify": "verify.self_s",
}


def pass_metrics(spans, counters, jobs: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass (spans rooted at one bench span)."""
    selfs, parallel = self_times(spans)
    out = dict.fromkeys(LAYER_METRICS.values(), 0.0)
    out.update({f"{name}_s": 0.0 for name in KERNEL_SPANS + VERIFY_SPANS})
    for (name, start, end, _), own in zip(spans, selfs):
        if name in KERNEL_SPANS:
            out[f"{name}_s"] += own
        else:
            out[LAYER_METRICS[name.split(".", 1)[0]]] += own
        if name in VERIFY_SPANS:
            out[f"{name}_s"] += end - start
    roots = [end - start for _, start, end, parent in spans if parent < 0]
    out["trace.wall_s"] = sum(roots)
    out["trace.parallel_s"] = parallel
    out["trace.self_sum_s"] = sum(selfs)
    tasks = [(s, e) for name, s, e, _ in spans if name == POOL_TASK]
    busy = sum(e - s for s, e in tasks)
    pool_wall = (max(e for _, e in tasks) - min(s for s, _ in tasks)) if tasks else 0.0
    out["cli.sweep_efficiency"] = busy / (jobs * pool_wall) if pool_wall > 0 else 0.0
    out["solver.cell_snapshots"] = counters.get("solver.cell_snapshots", 0.0)
    cell_time = counters.get("solver.cell_time", 0.0)
    out["solver.ns_per_cell_time"] = out["solver.solve_s"] / cell_time * 1e9 if cell_time else 0.0
    out["tumor.events"] = counters.get("tumor.events", 0.0)
    out["csvio.bytes"] = counters.get("csvio.bytes", 0.0)
    out["csvio.mb_per_s"] = out["csvio.bytes"] / out["csvio.write_s"] / 1e6 if out["csvio.write_s"] > 0 else 0.0
    return out
