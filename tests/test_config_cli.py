import json
from pathlib import Path

import pytest

from kpplab.cli import main
from kpplab.config import SchemaError, parse_config

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


PIECEWISE_REACTION = {
    "kind": "piecewise-kpp", "rate_minus": 0.5, "rate_plus": 1.0, "theta": 0.3, "radius": 10.0,
}

# (block path, key, value): a misspelt key, and two keys the schema no longer has
UNKNOWN_KEYS = [
    (("problem",), "reation", {"kind": "logistic", "rate": 1.0}),
    (("solver",), "boundary", "dirichlet-zero"),
    (("problem", "reaction"), "s1", 0.9),
]

# (block, key, value) where a number or a list of numbers is expected; JSON
# true is not the number 1
BAD_VALUES = [
    ("solver", "dt", "fast"),
    ("solver", "dt", True),
    ("problem", "dimension", True),
    ("tumor", "events", [[True, 0.5]]),
    ("tumor", "events", [[4.0, True]]),
    ("analysis", "eps_list", ["a"]),
    ("analysis", "eps_list", [True]),
    ("analysis", "margin", "x"),
    ("analysis", "speed_window", ["a", 1]),
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


def test_missing_required_key_is_named():
    bad = json.loads(json.dumps(MINIMAL))
    del bad["solver"]["h"]
    with pytest.raises(SchemaError, match="'h'"):
        parse_config(bad)


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
    cases = UNKNOWN_KEYS + [((block,), key, value) for block, key, value in BAD_VALUES]
    for i, (path, key, value) in enumerate(cases):
        cfg = write_config(tmp_path, with_key(path, key, value), f"bad{i}.json")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2, key
        assert key in capsys.readouterr().err


def test_cli_numerical_abort_exits_3(tmp_path):
    small = json.loads(json.dumps(MINIMAL))
    small["problem"]["half_width"] = 10.0
    small["solver"]["t_final"] = 12.0
    small["analysis"] = {}
    cfg = write_config(tmp_path, small)
    with pytest.warns(RuntimeWarning):
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
    out = capsys.readouterr().out
    assert out.startswith("PASS")


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


def test_cli_sweep_parallel_matches_serial(tmp_path):
    data = json.loads(json.dumps(MINIMAL))
    data["analysis"] = {}
    cfg = write_config(tmp_path, data)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    argv = ["sweep", "--config", str(cfg), "--axis", "problem.reaction.rate=0.5,1.0"]
    assert main(argv + ["--out", str(out1), "--jobs", "1"]) == 0
    assert main(argv + ["--out", str(out2), "--jobs", "2"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


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
