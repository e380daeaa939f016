import json
import os
import re
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

from kpplab import cli
from kpplab.cli import main
from kpplab.config import KINDS, SchemaError, parse_config
from kpplab.model import (
    Bump,
    Constant,
    Exponential,
    Gaussian,
    Logistic,
    Piecewise,
    PiecewiseKPP,
    Sine,
    Zero,
)
from kpplab.solver import NumericalError

MINIMAL = {
    "problem": {
        "dimension": 1,
        "half_width": 30.0,
        "coefficient": {"kind": "constant", "value": 1.0},
        "reaction": {"kind": "logistic", "rate": 1.0},
        "initial": {"kind": "bump", "radius": 1.0, "height": 1.0},
    },
    "solver": {"h": 0.1, "t_final": 8.0, "snapshot_every": 1.0},
    "analysis": {"eps_list": [0.1], "levels": [0.5], "speed_window": [3.0, 8.0]},
}


def write_config(tmp_path: Path, data: dict, name: str = "cfg.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_parse_minimal_config():
    setup = parse_config(MINIMAL)
    assert setup.problem.half_width == 30.0
    assert setup.solver.t_final == 8.0
    assert setup.analysis.eps_list == (0.1,)
    assert setup.schedule is None
    data = json.loads(json.dumps(MINIMAL))
    del data["problem"]["dimension"]
    assert parse_config(data).problem.dimension == 1


PIECEWISE_REACTION = {
    "kind": "piecewise-kpp", "rate_minus": 0.5, "rate_plus": 1.0, "theta": 0.3, "radius": 10.0,
}

# (block path, key, value): a misspelt key, and two keys the schema no longer has
UNKNOWN_KEYS = [
    (("problem",), "reation", {"kind": "logistic", "rate": 1.0}),
    (("solver",), "boundary", "dirichlet-zero"),
    (("problem", "reaction"), "s1", 0.9),
]

# (block path, key, value): a block that is not a JSON object, and a kind that
# is not a string
NOT_OBJECTS = [
    ((), "problem", []),
    ((), "solver", 5),
    ((), "analysis", None),
    ((), "tumor", 3),
    (("problem",), "coefficient", 5),
    (("problem",), "reaction", 5),
    (("problem",), "initial", True),
    (("problem", "initial"), "kind", ["bump"]),
]

# (block, key, value) where a finite number or a list of numbers is expected
# (JSON true is not the number 1), or where the number is out of range
BAD_VALUES = [
    ("solver", "dt", "fast"),
    ("solver", "dt", True),
    ("solver", "h", float("nan")),
    ("solver", "t_final", float("inf")),
    ("solver", "snapshot_every", 0),
    ("solver", "snapshot_every", -1),
    ("solver", "snapshot_times", [-1]),
    ("problem", "dimension", True),
    ("tumor", "events", [[True, 0.5]]),
    ("tumor", "events", [[4.0, True]]),
    ("analysis", "eps_list", ["a"]),
    ("analysis", "eps_list", [True]),
    ("analysis", "margin", "x"),
    ("analysis", "speed_window", ["a", 1]),
    ("analysis", "speed_window", [30.0, 10.0]),
    ("analysis", "speed_window", [10.0, 10.0]),
    ("problem", "coefficient", {"kind": "sine", "base": 1.0, "amplitude": 0.5, "wavelength": 0}),
    ("analysis", "levels", [1.5]),
    ("analysis", "eps_list", [2.0]),
    ("analysis", "eps_list", [-1.0]),
    ("solver", "h", 1000),
    ("solver", "hard_leak_threshold", -1),
    ("solver", "boundary_leak_tolerance", -1),
]


def with_key(path: tuple[str, ...], key: str, value) -> dict:
    """MINIMAL with the piecewise reaction and a tumor block, plus ``key: value``
    in the block at ``path``."""
    data = json.loads(json.dumps(MINIMAL))
    data["problem"]["reaction"] = dict(PIECEWISE_REACTION)
    data["tumor"] = {"events": [[4.0, 0.5]], "sigma_img": 0.3}
    block = data
    for name in path:
        block = block[name]
    block[key] = value
    return data


def test_unknown_key_is_named():
    parse_config(with_key(("solver",), "h", 0.1))  # the base config is valid
    for path, key, value in UNKNOWN_KEYS:
        with pytest.raises(SchemaError, match=f"'{key}'"):
            parse_config(with_key(path, key, value))


def test_non_object_block_is_named():
    with pytest.raises(SchemaError, match="top level"):
        parse_config([])
    for path, key, value in NOT_OBJECTS:
        with pytest.raises(SchemaError, match=f"'{key}'"):
            parse_config(with_key(path, key, value))


# (block path, block without the key, the key): a solver key, and a parameter
# of the kind's factory
MISSING_KEYS = [
    (("solver",), {"t_final": 8.0}, "h"),
    (("problem", "coefficient"), {"kind": "sine", "base": 1.0, "amplitude": 0.5}, "wavelength"),
]


def test_missing_required_key_is_named():
    for path, block, key in MISSING_KEYS:
        with pytest.raises(SchemaError, match=f"'{key}'"):
            parse_config(with_key(path[:-1], path[-1], block))


def test_bad_value_types_rejected():
    for block, key, value in BAD_VALUES:
        with pytest.raises(SchemaError, match=key):
            parse_config(with_key((block,), key, value))


def test_cli_run_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("trajectory.csv", "certificate.txt", "inf_rhs.csv", "t_eps.csv", "level_pos.csv"):
        assert (out / name).exists(), name
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x,u,rhs"


def test_cli_run_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, MINIMAL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("trajectory.csv", "certificate.txt", "inf_rhs.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_schema_violation_exits_2(tmp_path, capsys):
    cases = UNKNOWN_KEYS + NOT_OBJECTS + [((block,), k, v) for block, k, v in BAD_VALUES]
    for i, (path, key, value) in enumerate(cases):
        cfg = write_config(tmp_path, with_key(path, key, value), f"bad{i}.json")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2, key
        assert key in capsys.readouterr().err
    cfg = write_config(tmp_path, [], "top.json")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "top level" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_cli_unreadable_config_exits_2(tmp_path, capsys, command, case):
    path = {"missing": tmp_path / "no.json", "directory": tmp_path, "not-utf8": tmp_path / "l1.json"}
    path["not-utf8"].write_bytes('{"problem": "\xe9"}'.encode("latin-1"))
    assert main([command, "--config", str(path[case]), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and str(path[case]) in err
    assert "Traceback" not in err


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_numerical_abort_exits_3(tmp_path, capsys):
    small = json.loads(json.dumps(MINIMAL))
    small["problem"]["half_width"] = 10.0
    small["solver"]["t_final"] = 12.0
    small["analysis"] = {}
    cfg = write_config(tmp_path, small)
    with pytest.warns(RuntimeWarning):
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    # the leak crosses hard_leak_threshold after snapshots have gone to the
    # writer process: its partial file is removed and the process reaped
    leak_t = float(re.search(r"exceeds hard threshold at t=(\S+);", capsys.readouterr().err)[1])
    assert leak_t >= 2.0
    assert not (tmp_path / "o" / "trajectory.csv").exists()
    assert_no_child_left()
    # a user dt past the monotone bound dt*(2/h^2 + L) <= 1 is a numerical abort too
    small["solver"] = {"h": 0.1, "t_final": 1.0, "dt": 0.005}
    cfg = write_config(tmp_path, small)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


def test_cli_tumor_block_adds_protocol(tmp_path):
    data = json.loads(json.dumps(MINIMAL))
    data["tumor"] = {"events": [[4.0, 0.5]], "sigma_img": 0.3}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "protocol.csv").exists()
    assert (out / "protocol_events.csv").exists()
    lines = (out / "protocol.csv").read_text().splitlines()
    assert lines[0] == "t,S,mass,event_flag"
    flagged = [l for l in lines[1:] if l.endswith(",1")]
    assert len(flagged) == 1


def test_cli_verify_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2


def test_cli_verify_green_passes(capsys):
    assert main(["verify", "green"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("PASS")
    assert re.fullmatch(r"verify green: \d+\.\d{3} s\n", captured.err)


def test_cli_verify_numerical_abort_exits_3(monkeypatch, capsys):
    def aborting(suite, outdir):
        raise NumericalError("boundary leak exceeds hard threshold")

    monkeypatch.setattr(cli, "run_suite", aborting)
    assert main(["verify", "green"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["numerical abort: boundary leak exceeds hard threshold"]


def test_trajectory_writer_failure_is_an_os_error(tmp_path, capfd):
    out = tmp_path / "out"
    (out / "trajectory.csv").mkdir(parents=True)
    with pytest.raises(OSError, match="trajectory.csv"):
        cli._run_untreated(parse_config(MINIMAL), out)
    assert "could not write" in capfd.readouterr().err  # the writer process says why
    assert (out / "trajectory.csv").is_dir()
    assert_no_child_left()


def test_cli_sweep_cross_product(tmp_path):
    data = json.loads(json.dumps(MINIMAL))
    data["analysis"] = {}
    data["tumor"] = {"events": [[4.0, 0.5]], "sigma_img": 0.3}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "sweep"
    rc = main(
        [
            "sweep",
            "--config",
            str(cfg),
            "--out",
            str(out),
            "--axis",
            "tumor.sigma_img=0.3,0.5,0.7",
        ]
    )
    assert rc == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1 + 3  # header + one row per axis value


def test_cli_sweep_empty_axes_single_run(tmp_path):
    data = json.loads(json.dumps(MINIMAL))
    cfg = write_config(tmp_path, data)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 2
    # degenerate sweep: its single run is byte-identical to a plain cmd_run
    run_out = tmp_path / "plain"
    assert main(["run", "--config", str(cfg), "--out", str(run_out)]) == 0
    assert (out / "single" / "trajectory.csv").read_bytes() == (
        run_out / "trajectory.csv"
    ).read_bytes()


def test_cli_sweep_rejects_non_numeric_axis(tmp_path):
    cfg = write_config(tmp_path, MINIMAL)
    rc = main(
        ["sweep", "--config", str(cfg), "--out", str(cfg.parent / "o"), "--axis", "solver.scheme=a,b"]
    )
    assert rc == 2


def test_cli_sweep_checks_every_point_before_running(tmp_path, capsys):
    data = json.loads(json.dumps(MINIMAL))
    data["tumor"] = {"events": [[4.0, 0.5]], "sigma_img": 0.3}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(cfg), "--out", str(out)]
    assert main(argv + ["--axis", "tumor.sigma_img=0.3,1.5"]) == 2
    assert "sigma_img" in capsys.readouterr().err
    assert not out.exists()  # not even the valid first point ran
    cfg.write_text("{")
    assert main(argv) == 2
    assert not out.exists()


def test_cli_sweep_parallel_matches_serial(tmp_path):
    data = json.loads(json.dumps(MINIMAL))
    data["analysis"] = {}
    # two groups of one point, and one group of three points split over the workers
    for name, base, axis, files in (
        ("rate", data, "problem.reaction.rate=0.5,1.0", 1 + 2 * 2),
        ("sigma", dict(data, tumor=TREATED["tumor"]), "tumor.sigma_img=0.3,0.5,0.7", 1 + 3 * 4),
    ):
        cfg = write_config(tmp_path, base, f"{name}.json")
        out1, out2 = tmp_path / f"{name}1", tmp_path / f"{name}2"
        argv = ["sweep", "--config", str(cfg), "--axis", axis]
        assert main(argv + ["--out", str(out1), "--jobs", "1"]) == 0
        assert main(argv + ["--out", str(out2), "--jobs", "2"]) == 0
        assert tree(out1) == tree(out2) and len(tree(out1)) == files
        assert_no_child_left()  # neither pool workers nor trajectory writers


def tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class SerialPool:
    """A pool that runs its tasks in this process, so that calls can be counted."""

    def __init__(self, processes):
        self.processes = processes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


TREATED = dict(MINIMAL, tumor={"events": [[4.0, 0.5]], "sigma_img": 0.3})

# (axes, --jobs, untreated solves): a problem axis crossed with two tumor axes
# is two groups of four points; a tumor-only sweep is one group, split in two
# chunks along its two schedules when two workers would otherwise get one; a
# sigma-only sweep shares one march, so it stays one chunk
SHARED_SWEEPS = [
    (["problem.reaction.rate=0.5,1", "tumor.sigma_img=0.3,0.5", "tumor.events.0.1=0.4,0.6"], "1", 2),
    (["tumor.sigma_img=0.3,0.5", "tumor.events.0.1=0.4,0.6"], "2", 2),
    (["tumor.sigma_img=0.3,0.4,0.5,0.6,0.7"], "2", 1),
]


@pytest.mark.parametrize("axes,jobs,untreated", SHARED_SWEEPS)
def test_sweep_points_equal_plain_runs(tmp_path, monkeypatch, axes, jobs, untreated):
    starts = []
    for module in (cli, cli.tu):
        def recording(*args, original=module.solve, **kwargs):
            starts.append(kwargs.get("start"))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "solve", recording)
    monkeypatch.setattr(cli, "get_context", lambda method: SimpleNamespace(Pool=SerialPool))
    cfg = write_config(tmp_path, TREATED)
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(cfg), "--out", str(out), "--jobs", jobs]
    assert main(argv + [a for axis in axes for a in ("--axis", axis)]) == 0
    assert sum(start is None for start in starts) == untreated  # once per chunk
    got = tree(out)
    paths = [axis.split("=")[0] for axis in axes]
    values = [[float(v) for v in axis.split("=")[1].split(",")] for axis in axes]
    assignments = [tuple(zip(paths, point)) for point in product(*values)]
    assert len(got["sweep.csv"].decode().splitlines()) == 1 + len(assignments)
    for assignment in assignments:
        point = cli._point_dir(assignment)
        plain = tmp_path / "plain" / point
        cli._run_pipeline(parse_config(cli._point_data(TREATED, assignment)), plain)
        want = tree(plain)
        assert {k: v for k, v in got.items() if k.startswith(point + "/")} == {
            f"{point}/{k}": v for k, v in want.items()
        }
        assert "protocol.csv" in want and "trajectory.csv" in want
    assert len(got) == 1 + len(assignments) * len(want)


def test_sweep_worker_marches_each_schedule_once(tmp_path, monkeypatch):
    solves = {"untreated": 0, "treated": 0}
    for module, kind in ((cli, "untreated"), (cli.tu, "treated")):
        def counting(*args, original=module.solve, kind=kind, **kwargs):
            solves[kind] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "solve", counting)
    # the event at t=4 is on the comb, so each schedule is one treated march
    axes = (("tumor.events.0.1", (0.4, 0.6)), ("tumor.sigma_img", (0.3, 0.5, 0.7)))
    chunk = list(enumerate(product(*[[(k, v) for v in vals] for k, vals in axes])))
    rows = cli._sweep_worker((TREATED, chunk, str(tmp_path)))
    assert [index for index, _ in rows] == list(range(6))
    assert solves == {"untreated": 1, "treated": 2}


def test_chunks_keep_the_points_of_one_schedule_together(tmp_path, monkeypatch):
    chunks = []

    class RecordingPool(SerialPool):
        def map(self, fn, items):
            chunks.extend([index for index, _ in chunk] for _, chunk, _ in items)
            return super().map(fn, items)

    monkeypatch.setattr(cli, "get_context", lambda method: SimpleNamespace(Pool=RecordingPool))
    cfg = write_config(tmp_path, TREATED)
    # sigma varies fastest, so a strided split of the four points in two would
    # put points 0 and 2 (beta 0.4 and 0.6) together and split each schedule
    argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep"), "--jobs", "2"]
    argv += ["--axis", "tumor.events.0.1=0.4,0.6", "--axis", "tumor.sigma_img=0.3,0.5"]
    assert main(argv) == 0
    assert chunks == [[0, 1], [2, 3]]
    # one chunk per schedule sub-group in turn; a chunk left empty is dropped
    assert cli._chunks([[["a", "b"], ["c"], ["d"]], [["e"]]], 4) == [["a", "b", "d"], ["c"], ["e"]]
    assert cli._chunks([[["a", "b"]]], 2) == [["a", "b"]]


def test_cli_run_unwritable_artifact_exits_2(tmp_path, capfd):
    out = tmp_path / "out"
    (out / "trajectory.csv").mkdir(parents=True)
    cfg = write_config(tmp_path, MINIMAL)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capfd.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == (
        f"output error: could not write {out / 'trajectory.csv'}: "
        "the writer process exited with status 1"
    )
    assert_no_child_left()


def test_protocol_abort_leaves_a_complete_trajectory(tmp_path, monkeypatch, capfd):
    # the protocol runs while the writer child finishes trajectory.csv: an
    # abort in it still waits for the child, whose file is whole
    def aborting(traj, schedule):
        raise NumericalError("treated run left [0, 1]")

    monkeypatch.setattr(cli.tu, "run_protocol", aborting)
    treated, plain = tmp_path / "treated", tmp_path / "plain"
    cfg = write_config(tmp_path, TREATED)
    assert main(["run", "--config", str(cfg), "--out", str(treated)]) == 3
    assert capfd.readouterr().err.splitlines() == ["numerical abort: treated run left [0, 1]"]
    assert_no_child_left()
    cfg = write_config(tmp_path, MINIMAL, "plain.json")  # the same run without a tumor block
    assert main(["run", "--config", str(cfg), "--out", str(plain)]) == 0
    assert (treated / "trajectory.csv").read_bytes() == (plain / "trajectory.csv").read_bytes()
    assert not (treated / "protocol.csv").exists()


def test_cli_run_with_protocol_unwritable_trajectory_exits_2(tmp_path, capfd):
    # the writer child is waited for after the protocol, which may have
    # written its files by then; the failure is still one output error
    out = tmp_path / "out"
    (out / "trajectory.csv").mkdir(parents=True)
    cfg = write_config(tmp_path, TREATED)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capfd.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("output error:")] == [
        f"output error: could not write {out / 'trajectory.csv'}: "
        "the writer process exited with status 1"
    ]
    assert (out / "trajectory.csv").is_dir()
    assert_no_child_left()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_sweep_unwritable_point_directory_exits_2(tmp_path, capfd, jobs):
    out = tmp_path / "sweep"
    out.mkdir()
    blocked = out / "rate=1"
    blocked.write_text("")
    data = json.loads(json.dumps(MINIMAL))
    data["solver"]["t_final"] = 2.0
    cfg = write_config(tmp_path, data)
    argv = ["sweep", "--config", str(cfg), "--axis", "problem.reaction.rate=0.5,1"]
    assert main(argv + ["--out", str(out), "--jobs", jobs]) == 2
    err = capfd.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [f"output error: [Errno 17] File exists: '{blocked}'"]
    assert not (out / "sweep.csv").exists()
    assert_no_child_left()


def test_cli_verify_unwritable_output_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["verify", "green", "--out", str(taken)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"output error: [Errno 17] File exists: '{taken}'"]
    out = tmp_path / "ratio"
    blocked = out / "kernel_ratio.csv"
    blocked.mkdir(parents=True)
    assert main(["verify", "kernel-mono", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"output error: [Errno 21] Is a directory: '{blocked}'"]


def test_sweep_points_that_share_a_directory_are_a_schema_error(tmp_path, capsys):
    cfg = write_config(tmp_path, TREATED)
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(cfg), "--out", str(out), "--axis"]
    for values in ("0.30000001,0.30000002", "0.3,0.3"):
        assert main(argv + [f"tumor.sigma_img={values}"]) == 2
        err = capsys.readouterr().err
        first, second = values.split(",")
        assert err.startswith("config error") and "'sigma_img=0.3'" in err
        assert f"tumor.sigma_img={first} and tumor.sigma_img={second}" in err
        assert not out.exists()


def test_sweep_axes_that_share_a_column_are_a_schema_error(tmp_path, capsys):
    coefficient = {"kind": "piecewise", "a_minus": 1.0, "a_plus": 2.0, "radius": 5.0}
    data = with_key(("problem",), "coefficient", coefficient)
    cfg = write_config(tmp_path, data)
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(cfg), "--out", str(out)]
    for second in ("problem.reaction.radius=8,9", "problem.coefficient.radius=6"):
        axes = ["--axis", "problem.coefficient.radius=4,5", "--axis", second]
        assert main(argv + axes) == 2
        err = capsys.readouterr().err
        assert "'problem.coefficient.radius' and" in err and "column 'radius'" in err
        assert not out.exists()


def test_cli_run_two_dimensional_trajectory_layout(tmp_path):
    data = json.loads(json.dumps(MINIMAL))
    data["problem"]["dimension"] = 2
    data["problem"]["half_width"] = 6.0
    data["solver"] = {"h": 0.25, "t_final": 1.0, "snapshot_every": 0.5,
                      "boundary_leak_tolerance": 1e-3}
    data["analysis"] = {"eps_list": [0.5]}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out2d"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x,y,u,rhs"


def test_cli_verify_writes_scan_artifacts(tmp_path):
    out = tmp_path / "scan"
    assert main(["verify", "prop91-scan", "--out", str(out)]) == 0
    scan = (out / "green_scan.csv").read_text().splitlines()
    assert scan[0] == "a,lambda,t,x,y,G,G_t"
    assert len(scan) > 100
    out2 = tmp_path / "ratio"
    assert main(["verify", "kernel-mono", "--out", str(out2)]) == 0
    ratio = (out2 / "kernel_ratio.csv").read_text().splitlines()
    assert ratio[0] == "tau,sigma,x,ratio"


def test_cli_sweep_treatment_factor_axis(tmp_path):
    data = json.loads(json.dumps(MINIMAL))
    data["analysis"] = {}
    data["tumor"] = {"events": [[4.0, 0.5]], "sigma_img": 0.3}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "sweep"
    rc = main(
        ["sweep", "--config", str(cfg), "--out", str(out), "--axis", "tumor.events.0.1=0.3,0.5,0.7"]
    )
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4  # header + 3 protocol rows
    header = lines[0].split(",")
    betas = sorted(float(l.split(",")[header.index("beta")]) for l in lines[1:])
    assert betas == [0.3, 0.5, 0.7]


def test_level_curve_csv_schema(tmp_path):
    cfg = write_config(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "level_pos.csv").read_text().splitlines()
    assert lines[0] == "t,level_pos"
    assert len(lines) > 3


README = Path(__file__).resolve().parents[1] / "README.md"

# kind -> a direct call of the kind's class on a block's values
DIRECT = {
    "constant": lambda b: Constant(b["value"]),
    "sine": lambda b: Sine(b["base"], b["amplitude"], b["wavelength"]),
    "piecewise": lambda b: Piecewise(b["a_minus"], b["a_plus"], b["radius"]),
    "logistic": lambda b: Logistic(b["rate"]),
    "zero": lambda b: Zero(),
    "piecewise-kpp": lambda b: PiecewiseKPP(
        b["rate_minus"], b["rate_plus"], b["theta"], b["radius"]
    ),
    "gaussian": lambda b: Gaussian(b["amplitude"], b["decay"]),
    "exponential": lambda b: Exponential(b["amplitude"], b["decay"]),
    "bump": lambda b: Bump(b["radius"], b["height"]),
}


def readme_schema() -> tuple[dict, dict[str, list[dict]]]:
    """The README's jsonc schema example with its comments stripped, and every
    kind block it documents (the example's own and each commented
    alternative) by block path."""
    example = README.read_text().split("```jsonc\n", 1)[1].split("```", 1)[0]
    data = json.loads(re.sub(r"//.*", "", example))
    documented = {path: [data["problem"][path.split(".")[1]]] for path in KINDS}
    path = None
    for line in example.splitlines():
        block = re.match(r'\s*"(coefficient|reaction|initial)":', line)
        if block:
            path = f"problem.{block.group(1)}"
        alternative = re.match(r"\s*//\s*(\{.*?\})", line)
        if alternative:
            documented[path].append(json.loads(alternative.group(1)))
    return data, documented


def test_readme_schema_matches_the_kind_table():
    data, documented = readme_schema()
    parse_config(data)
    kinds = {path: {block["kind"] for block in blocks} for path, blocks in documented.items()}
    assert kinds == {path: set(table) for path, table in KINDS.items()}
    for path, blocks in documented.items():
        name = path.split(".")[1]
        for block in blocks:
            built = getattr(parse_config(with_key(("problem",), name, block)).problem, name)
            assert built == DIRECT[block["kind"]](block), block


def test_cli_sweep_starts_no_more_workers_than_points(tmp_path, monkeypatch, capsys):
    started = []

    class SerialPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(cli, "get_context", lambda method: SimpleNamespace(Pool=SerialPool))
    data = json.loads(json.dumps(MINIMAL))
    data["analysis"] = {}
    data["solver"]["t_final"] = 2.0
    cfg = write_config(tmp_path, data)
    argv = ["sweep", "--config", str(cfg), "--axis", "problem.reaction.rate=0.5,1.0"]
    assert main(argv + ["--out", str(tmp_path / "a"), "--jobs", "64"]) == 0
    assert started == [2]
    assert main(argv + ["--out", str(tmp_path / "b"), "--jobs", "1"]) == 0
    assert started == [2]  # one worker runs in this process
    capsys.readouterr()
    for jobs in ("0", "-3"):
        out = tmp_path / f"jobs{jobs}"
        assert main(argv + ["--out", str(out), "--jobs", jobs]) == 2
        assert capsys.readouterr().err.startswith("config error: --jobs")
        assert not out.exists()
    assert started == [2]


def test_two_dimensional_imex_is_a_schema_error(tmp_path, capsys):
    data = json.loads(json.dumps(MINIMAL))
    data["solver"]["scheme"] = "imex-diffusion-implicit"
    parse_config(data)  # 1D IMEX is valid
    data["problem"]["dimension"] = 2
    with pytest.raises(SchemaError, match="key 'scheme' in block 'solver'"):
        parse_config(data)
    cfg = write_config(tmp_path, data)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "'scheme'" in err and "Traceback" not in err
    # a sweep whose second point is 2D runs none of its points
    data["problem"]["dimension"] = 1
    cfg = write_config(tmp_path, data)
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(cfg), "--out", str(out), "--axis", "problem.dimension=1,2"]
    assert main(argv) == 2
    assert "'scheme'" in capsys.readouterr().err
    assert not out.exists()


def test_domain_narrower_than_a_spacing_is_a_schema_error(tmp_path, capsys):
    # BAD_VALUES has the wide spacing; the piecewise reaction of with_key needs
    # half_width above its radius, so the narrow domain is tried on MINIMAL
    data = json.loads(json.dumps(MINIMAL))
    data["problem"]["half_width"] = 0.01
    with pytest.raises(SchemaError, match="key 'h' in block 'solver'.*half_width"):
        parse_config(data)
    cfg = write_config(tmp_path, data)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "half_width = 0.01" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("time", [0.0, -1.0, 8.0, 20.0])
def test_event_outside_the_run_is_a_schema_error(tmp_path, capsys, time):
    data = json.loads(json.dumps(TREATED))
    # a late time follows an event at 2, so the times still increase
    data["tumor"]["events"] = [[2.0, 0.5], [time, 0.5]] if time > 0 else [[time, 0.5]]
    with pytest.raises(SchemaError, match="key 'events' in block 'tumor'"):
        parse_config(data)
    cfg = write_config(tmp_path, data)
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "'events'" in err and "Traceback" not in err
    assert not out.exists()
    # a sweep whose second point moves the event out of (0, t_final) runs none of its points
    cfg = write_config(tmp_path, TREATED)
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(cfg), "--out", str(out), "--axis", f"tumor.events.0.0=4,{time}"]
    assert main(argv) == 2
    assert "'events'" in capsys.readouterr().err
    assert not out.exists()
