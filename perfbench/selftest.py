"""Self-test of the benchmark: the output checks must catch corrupted
artifacts and broken invariants, and the self-time arithmetic must be right.

    PYTHONPATH=src python3 perfbench/selftest.py      # from the repository root
"""
from __future__ import annotations

import shutil
import tempfile
import unittest
from pathlib import Path

import checks
import spans
import worker

ROOT = Path(__file__).resolve().parent.parent


class SelfTimes(unittest.TestCase):
    # root [0,10] has A [1,4], B [3,6] (overlapping A, as pool tasks do) and
    # C [8,9]; A has D [2,3]. Children of root cover [1,6] u [8,9] = 6.
    SPANS = [
        ["bench.pass", 0.0, 10.0, -1],
        ["cli.a", 1.0, 4.0, 0],
        ["solver.b", 3.0, 6.0, 0],
        ["csvio.c", 8.0, 9.0, 0],
        ["solver.d", 2.0, 3.0, 1],
    ]

    def test_self_time_is_duration_minus_covered_children(self):
        selfs, parallel = spans.self_times(self.SPANS)
        self.assertEqual(selfs, [4.0, 2.0, 3.0, 1.0, 1.0])
        self.assertEqual(parallel, 1.0)  # A and B overlap on [3,4]
        self.assertEqual(sum(selfs), 10.0 + parallel)

    def test_union_clips_to_parent_and_merges(self):
        self.assertEqual(spans.covered(0.0, 5.0, [(-1.0, 1.0), (0.5, 2.0), (4.0, 9.0)]), 3.0)
        self.assertEqual(spans.covered(0.0, 5.0, []), 0.0)

    def test_layers_add_up(self):
        m = spans.pass_metrics(self.SPANS, {}, jobs=1)
        self.assertEqual(m["trace.harness_s"], 4.0)
        self.assertEqual(m["cli.self_s"], 2.0)
        self.assertEqual(m["solver.solve_s"], 4.0)
        self.assertEqual(m["csvio.write_s"], 1.0)
        self.assertEqual(m["trace.wall_s"], 10.0)
        self.assertEqual(m["trace.self_sum_s"], m["trace.wall_s"] + m["trace.parallel_s"])


class OutputChecks(unittest.TestCase):
    """Run two pinned configs once, then corrupt copies of their outputs."""

    @classmethod
    def setUpClass(cls):
        from kpplab.config import load_config

        cls.tmp = Path(tempfile.mkdtemp())
        cls.setup = {}
        for name in ("homogeneous_kpp", "tumor_protocol"):
            config = ROOT / "configs" / f"{name}.json"
            unit = {"name": name, "kind": "run", "config": str(config),
                    "argv": ["run", "--config", str(config), "--out", "{out}"]}
            record = worker.run_unit(unit, cls.tmp / name)
            assert worker.check(record) == [], worker.check(record)
            cls.setup[name] = load_config(config)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def corrupted(self, name: str, filename: str, edit) -> list[str]:
        dest = Path(tempfile.mkdtemp(dir=self.tmp))
        shutil.copytree(self.tmp / name, dest, dirs_exist_ok=True)
        path = dest / filename
        path.write_text(edit(path.read_text()))
        return checks.check_run(dest, self.setup[name])

    def test_pristine_outputs_pass(self):
        for name in self.setup:
            self.assertEqual(checks.check_run(self.tmp / name, self.setup[name]), [])

    def test_u_out_of_range(self):
        def edit(text):
            lines = text.splitlines(keepends=True)
            t, x, _, rhs = lines[5].split(",")
            lines[5] = ",".join((t, x, "1.5", rhs))
            return "".join(lines)

        self.assertTrue(self.corrupted("homogeneous_kpp", "trajectory.csv", edit))

    def test_missing_row(self):
        self.assertTrue(self.corrupted("homogeneous_kpp", "trajectory.csv",
                                       lambda text: text[: text.rstrip("\n").rfind("\n") + 1]))

    def test_wrong_header(self):
        self.assertTrue(self.corrupted("homogeneous_kpp", "trajectory.csv",
                                       lambda text: text.replace("t,x,u,rhs", "t,x,rhs,u", 1)))

    def test_speed_off_by_ten_percent(self):
        def edit(text):
            head, _, tail = text.partition("speed(level=0.5) = ")
            return head + "speed(level=0.5) = 1.8" + tail[tail.index("\n"):]

        self.assertTrue(self.corrupted("homogeneous_kpp", "certificate.txt", edit))

    def test_infinite_T_eps(self):
        self.assertTrue(self.corrupted("homogeneous_kpp", "t_eps.csv",
                                       lambda text: text.rstrip("\n").rsplit(",", 1)[0] + ",inf\n"))

    def test_S_decreasing_after_event(self):
        def edit(text):
            lines = text.splitlines(keepends=True)
            t, _, mass, flag = lines[-1].split(",")
            lines[-1] = ",".join((t, "0.5", mass, flag))
            return "".join(lines)

        self.assertTrue(self.corrupted("tumor_protocol", "protocol.csv", edit))

    def test_jump_identity_broken(self):
        # perturb one rhs value of the snapshot at the event time t0 = 20
        def edit(text):
            lines = text.splitlines(keepends=True)
            i = next(k for k, ln in enumerate(lines) if ln.startswith("20,") and "e-" not in ln.split(",")[2])
            t, x, u, rhs = lines[i].rstrip("\n").split(",")
            lines[i] = ",".join((t, x, u, repr(float(rhs) + 1e-9))) + "\n"
            return "".join(lines)

        problems = self.corrupted("tumor_protocol", "trajectory.csv", edit)
        self.assertTrue(any("jump identity" in p for p in problems), problems)

    def test_failing_unit_counts(self):
        unit = {"name": "bad", "kind": "run", "config": "missing.json",
                "argv": ["run", "--config", "missing.json", "--out", "{out}"]}
        self.assertTrue(worker.check(worker.run_unit(unit, self.tmp / "bad")))

    def test_verify_fail_line(self):
        self.assertEqual(checks.check_verify("PASS  a: ok\nPASS  b: ok\n"), [])
        self.assertTrue(checks.check_verify("PASS  a: ok\nFAIL  b: off\n"))
        self.assertTrue(checks.check_verify(""))


if __name__ == "__main__":
    unittest.main()
