import json
import subprocess
import sys

import numpy as np
import pytest

import cfmoll as cm
from cfmoll import cli
from cfmoll.cli import EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main
from tests.conftest import subprocess_env


@pytest.fixture
def spec_files(tmp_path):
    paths = {}
    for name, spec in {
        "laplace": cm.Laplace1D(scale=1.0),
        "gauss": cm.Gaussian(mean=[0.0], cov=[[1.0]]),
        "pm": cm.PointMass(location=[0.0]),
        "uniform": cm.UniformBox(lo=[-1.0], hi=[1.0]),
    }.items():
        p = tmp_path / f"{name}.json"
        cm.save_spec(spec, p)
        paths[name] = str(p)
    return paths


def test_invert_laplace_density(tmp_path, spec_files):
    out = tmp_path / "lap.csv"
    rc = main(["invert", "--spec", spec_files["laplace"], "--grid", "-6:6:1201",
               "--out", str(out)])
    assert rc == EXIT_OK
    field = cm.read_density_csv(out)
    field.check_invariants()
    z = field.grid.axis_points(0)
    mid = int(np.argmin(np.abs(z)))
    assert field.values[mid] == pytest.approx(0.5, abs=1e-4)
    # partial window: must not claim normalization
    meta = json.loads(out.with_suffix(".meta.json").read_text())
    assert meta["normalized"] is False
    assert meta["sigma"] == 0.0 and field.sigma == 0.0


def test_byte_identical_outputs(tmp_path, spec_files):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        rc = main(["mollify", "--spec", spec_files["uniform"], "--sigma", "0.5",
                   "--grid", "-6:6:481", "--out", str(out)])
        assert rc == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert a.with_suffix(".meta.json").read_bytes() == b.with_suffix(".meta.json").read_bytes()


def test_mollify_sigma_zero_is_validation_error(spec_files, capsys):
    rc = main(["mollify", "--spec", spec_files["pm"], "--sigma", "0",
               "--grid", "-8:8:512"])
    assert rc == EXIT_VALIDATION
    assert "sigma" in capsys.readouterr().err


def test_mollify_emits_normalized_field(tmp_path, spec_files):
    out = tmp_path / "m.csv"
    rc = main(["mollify", "--spec", spec_files["gauss"], "--sigma", "1.0",
               "--grid", "-8:8:512", "--out", str(out)])
    assert rc == EXIT_OK
    field = cm.read_density_csv(out)
    field.check_invariants()
    assert field.normalized
    assert abs(field.riemann_sum - 1.0) <= 1e-3


def test_mollify_small_window_exits_3(spec_files, capsys):
    rc = main(["mollify", "--spec", spec_files["gauss"], "--sigma", "0.5",
               "--grid", "-1:1:64"])
    assert rc == EXIT_NUMERIC
    assert "Riemann" in capsys.readouterr().err


@pytest.mark.parametrize("d", [4, 5])
def test_high_dimension_exits_3_on_the_node_budget(tmp_path, d, capsys):
    # no dimension cap: d >= 4 at the default nodes fails the node budget,
    # except 4-d smoothing, whose searched period fits it (36^4 nodes) on
    # this window; that grid then exits 3 on its mass window
    spec = tmp_path / "g.json"
    cm.save_spec(cm.Gaussian(mean=[0.0] * d, cov=np.eye(d).tolist()), spec)
    grid = ",".join(["-2:2:3"] * d)
    for argv, failure in ((["mollify", "--sigma", "1.0"], "Riemann" if d == 4 else "budget"),
                          (["invert"], "budget")):
        rc = main(argv + ["--spec", str(spec), "--grid", grid, "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_NUMERIC
        assert failure in capsys.readouterr().err


def test_wide_law_far_from_the_origin_exits_3_naming_aliasing(tmp_path, capsys):
    # N(0, 100 I) on windows holding (30, 0, 0): the fixed period of 64 read
    # it 26% low there.  On 26:34 the alias estimate stays large while the
    # period grows; on -32:32 the first period is the fixed one.  Both end
    # on a lattice over the node budget
    spec = tmp_path / "wide.json"
    cm.save_spec(cm.Gaussian(mean=[0.0] * 3, cov=(100.0 * np.eye(3)).tolist()), spec)
    for window in ("26:34:5", "-32:32:9"):
        rc = main(["mollify", "--spec", str(spec), "--sigma", "0.5", "--grid",
                   window + ",-4:4:3,-4:4:3", "--out", str(tmp_path / "wide.csv")])
        assert rc == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "alias period search: the alias estimate" in err and "budget" in err


def test_sidecar_records_sigma_and_default_nodes(tmp_path):
    # the node count in the sidecar is the floor the plan used: 64 for a
    # 3-d inversion, and none for 3-d smoothing, whose period search
    # chooses the nodes per call.  The inverted law is N(0, 16 I), whose
    # decay-scan lattice fits the node budget.
    out = tmp_path / "g.csv"
    for argv, var, sigma, nodes in ((["mollify", "--sigma", "1.0"], 1.0, 1.0, None),
                                    (["invert"], 16.0, 0.0, 64)):
        spec = tmp_path / "g.json"
        cm.save_spec(cm.Gaussian(mean=[0.0] * 3, cov=(var * np.eye(3)).tolist()), spec)
        rc = main(argv + ["--spec", str(spec), "--grid", "-7:7:8,-7:7:8,-7:7:8", "--out", str(out)])
        assert rc == EXIT_OK
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        assert (meta["sigma"], meta["params"]["nodes_per_axis"]) == (sigma, nodes)
        assert sorted(meta["params"]) == ["nodes_per_axis", "tail_tol", "truncation_radius"]


def test_invert_point_mass_exits_2(spec_files, capsys):
    rc = main(["invert", "--spec", spec_files["pm"], "--grid", "-4:4:101"])
    assert rc == EXIT_VALIDATION
    assert "atoms" in capsys.readouterr().err


def test_invert_unknown_flag_needs_override(spec_files):
    rc = main(["invert", "--spec", spec_files["uniform"], "--grid", "-2:2:41"])
    assert rc == EXIT_VALIDATION


def test_converge_self_sequence(tmp_path, spec_files):
    out = tmp_path / "rep.json"
    rc = main(["converge", "--spec", spec_files["gauss"], "--target", spec_files["gauss"],
               "--grid", "-8:8:256", "--k-schedule", "1,2", "--out", str(out)])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["cf_sup_error"] == [0.0]
    assert all(v <= 1e-12 for row in rep["l1_mollified"] for v in row)
    assert out.with_suffix(".csv").exists()


def test_converge_multiple_specs(tmp_path, spec_files):
    out = tmp_path / "rep.json"
    rc = main(["converge", "--spec", spec_files["uniform"], "--spec", spec_files["gauss"],
               "--target", spec_files["gauss"], "--grid", "-8:8:256",
               "--k-schedule", "2", "--out", str(out)])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    l1 = [row[0] for row in rep["l1_mollified"]]
    assert l1[0] > l1[1]  # uniform is farther from the normal than itself


def test_clt_demo(tmp_path):
    out = tmp_path / "clt.json"
    rc = main(["clt-demo", "--out", str(out)])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["seq_labels"] == [4, 16, 64]
    col = [row[0] for row in rep["l1_mollified"]]
    assert col[0] > col[1] > col[2]
    assert rep["monotone_flags"] == [True]


def test_selfcheck_passes(capsys):
    rc = main(["selfcheck"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("invariants hold")


def test_bad_grid_string(spec_files):
    rc = main(["mollify", "--spec", spec_files["gauss"], "--sigma", "0.5",
               "--grid", "oops"])
    assert rc == EXIT_VALIDATION


def test_missing_spec_file(tmp_path):
    rc = main(["invert", "--spec", str(tmp_path / "nope.json"), "--grid", "-1:1:10"])
    assert rc == EXIT_VALIDATION


def test_config_file_with_flag_precedence(tmp_path, spec_files):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "spec": spec_files["gauss"],
        "grid": "-8:8:128",
        "sigma": 0.25,
        "out": str(tmp_path / "from_config.csv"),
    }))
    # flag overrides the sigma from the file
    rc = main(["mollify", "--config", str(cfg), "--sigma", "1.0"])
    assert rc == EXIT_OK
    meta = json.loads((tmp_path / "from_config.meta.json").read_text())
    assert meta["sigma"] == 1.0


def test_config_rejects_unknown_keys(tmp_path, spec_files, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": spec_files["gauss"], "gird": "-1:1:10"}))
    rc = main(["mollify", "--config", str(cfg), "--sigma", "1.0"])
    assert rc == EXIT_VALIDATION
    assert "gird" in capsys.readouterr().err


def test_nodes_and_tolerance_flags(tmp_path, spec_files):
    out = tmp_path / "m.csv"
    rc = main(["mollify", "--spec", spec_files["gauss"], "--sigma", "1.0",
               "--grid", "-8:8:128", "--nodes", "256", "--tail-tol", "1e-10",
               "--out", str(out)])
    assert rc == EXIT_OK
    meta = json.loads(out.with_suffix(".meta.json").read_text())
    assert meta["params"]["nodes_per_axis"] == 256
    assert meta["params"]["tail_tol"] == 1e-10


def test_threads_flag_gives_same_bytes(tmp_path, spec_files):
    # determinism contract: identical configs (including --threads) give
    # identical bytes
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        main(["mollify", "--spec", spec_files["gauss"], "--sigma", "0.5",
              "--grid", "-8:8:512", "--threads", "4", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_module_entry_point(tmp_path, spec_files):
    rc = subprocess.run(
        [sys.executable, "-m", "cfmoll", "mollify", "--spec", spec_files["pm"],
         "--sigma", "1.0", "--grid", "-6:6:97", "--out", str(tmp_path / "pm.csv")],
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert rc.returncode == 0, rc.stderr
    assert (tmp_path / "pm.csv").exists()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exits_2(tmp_path, spec_files, threads, capsys):
    out = tmp_path / "out.csv"
    rc = main(["mollify", "--spec", spec_files["gauss"], "--sigma", "0.5",
               "--grid", "-8:8:64", "--threads", threads, "--out", str(out)])
    assert rc == EXIT_VALIDATION and not out.exists()
    assert "workers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"type": "gaussian", "mean": [0.0], "cov": [[float("nan")]]}, "must be finite"),
        ({"type": "gaussian", "mean": [0.0], "cov": [[float("inf")]]}, "must be finite"),
        (
            {"type": "standardized_iid_sum", "base": {"type": "laplace", "scale": 1.0}, "n": 2.7},
            "must be an integer",
        ),
    ],
)
def test_bad_spec_values_exit_2(tmp_path, spec, message, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    rc = main(["mollify", "--spec", str(path), "--sigma", "0.5", "--grid", "-4:4:64"])
    assert rc == EXIT_VALIDATION
    assert message in capsys.readouterr().err


def test_selfcheck_seed_zero_is_a_seed(monkeypatch, capsys):
    # 0 is a seed, not "unset": it must not fall back to the default 20240
    seeds = []
    monkeypatch.setattr(cli, "run_selfcheck", lambda seed: seeds.append(seed) or [])
    assert main(["selfcheck", "--seed", "0"]) == EXIT_OK
    assert main(["selfcheck"]) == EXIT_OK
    assert seeds == [0, 20240]


@pytest.mark.parametrize("command", ["converge"])
def test_epsilon_zero_is_rejected(tmp_path, spec_files, command, capsys):
    # 0 must reach the certificate's check, not be replaced by the default 0.1
    out = tmp_path / "rep.json"
    args = [command, "--grid", "-8:8:128", "--out", str(out),
            "--spec", spec_files["gauss"], "--target", spec_files["gauss"],
            "--k-schedule", "1,2", "--epsilon", "0"]
    assert main(args) == EXIT_VALIDATION
    assert "epsilon must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("threads", "x"),
        ("threads", 1.5),
        ("threads", True),
        ("grid", 5),
        ("spec", 5),
        ("spec", ["a.json", 5]),
        ("nodes", 64.9),
        ("seed", 0.5),
        ("sigma", "0.5"),
        ("k_schedule", [1, 2.5]),
        ("allow_unknown_integrability", "yes"),
    ],
)
def test_mistyped_config_values_exit_2(tmp_path, spec_files, key, value, capsys):
    # the other keys are valid, so a command would run up to the bad value
    cfg = tmp_path / "cfg.json"
    if key == "seed":
        command, data = "selfcheck", {}
    else:
        command = "mollify"
        data = {"spec": spec_files["gauss"], "grid": "-8:8:64", "sigma": 1.0,
                "out": str(tmp_path / "m.csv")}
    cfg.write_text(json.dumps({**data, key: value}))
    assert main([command, "--config", str(cfg)]) == EXIT_VALIDATION
    assert f"config key '{key}'" in capsys.readouterr().err


def test_integral_config_numbers_are_accepted(tmp_path, spec_files):
    # an integer written as 256.0 is still an integer
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "m.csv"
    cfg.write_text(json.dumps({
        "spec": spec_files["gauss"], "grid": "-8:8:128", "sigma": 1, "nodes": 256.0,
        "threads": 2.0, "out": str(out),
    }))
    assert main(["mollify", "--config", str(cfg)]) == EXIT_OK
    assert json.loads(out.with_suffix(".meta.json").read_text())["params"]["nodes_per_axis"] == 256


def test_clt_demo_empty_grid_exits_2(tmp_path, capsys):
    # an empty --grid is a bad grid, not a request for the default one
    out = tmp_path / "clt.json"
    assert main(["clt-demo", "--grid", "", "--out", str(out)]) == EXIT_VALIDATION
    assert "grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["invert", "--seed", "1"], ["mollify", "--seed", "1"], ["converge", "--seed", "1"],
     ["clt-demo", "--seed", "1"], ["clt-demo", "--spec", "x.json"],
     ["clt-demo", "--threads", "2"]],
)
def test_flags_no_command_reads_are_rejected(argv, capsys):
    # argparse rejects an unknown flag with exit status 2
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_VALIDATION
    assert "unrecognized arguments" in capsys.readouterr().err


def _value_flags():
    """(command, flag, action) for every option of every subcommand that
    takes a value."""
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    return [
        (name, action.option_strings[0], action)
        for name, parser in sub.choices.items()
        for action in parser._actions
        if action.option_strings and action.nargs != 0
    ]


@pytest.mark.parametrize(
    "command, flag, action", _value_flags(), ids=[f"{c} {f}" for c, f, _ in _value_flags()]
)
def test_value_flags_accept_a_leading_dash(command, flag, action):
    # "-1" parses as every flag's type; without the rewrite argparse would
    # take it for an option name
    assert flag in cli._VALUE_FLAGS
    args = cli._build_parser().parse_args(cli._join_dashed_values([command, flag, "-1"]))
    expected = (action.type or str)("-1")
    assert getattr(args, action.dest) in (expected, [expected])  # --spec appends


def test_value_flags_are_exactly_the_options_that_take_values():
    assert {flag for _, flag, _ in _value_flags()} == cli._VALUE_FLAGS


def test_single_spec_commands_reject_a_second_spec(spec_files, capsys):
    rc = main(["invert", "--spec", spec_files["laplace"], "--spec", spec_files["gauss"],
               "--grid", "-4:4:101"])
    assert rc == EXIT_VALIDATION
    assert "exactly one --spec" in capsys.readouterr().err


def test_subnormal_tail_tol_exits_2(tmp_path, spec_files, capsys):
    # the per-axis Gaussian tail underflows: a validation error, not a traceback
    out = tmp_path / "m.csv"
    rc = main(["mollify", "--spec", spec_files["gauss"], "--sigma", "0.5",
               "--grid", "-8:8:64", "--tail-tol", "5e-324", "--out", str(out)])
    assert rc == EXIT_VALIDATION and not out.exists()
    assert "tail_tol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, tol",
    [("mollify", "inf"), ("mollify", "0.8"), ("invert", "2.0"), ("invert", "1.0")],
)
def test_vacuous_tail_tol_exits_2(tmp_path, spec_files, capsys, command, tol):
    # inf, or a tolerance at or above the whole damping integral (0.798 at
    # sigma 0.5 in 1-d) or the bound |chi| <= 1, would shrink the box silently
    out = tmp_path / "m.csv"
    sigma = ["--sigma", "0.5"] if command == "mollify" else []
    rc = main([command, "--spec", spec_files["gauss"], *sigma,
               "--grid", "-8:8:64", "--tail-tol", tol, "--out", str(out)])
    assert rc == EXIT_VALIDATION and not out.exists()
    assert "tail_tol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, value",
    [("invert", "seed", 3), ("invert", "sigma", 0.5), ("mollify", "epsilon", 0.1),
     ("selfcheck", "grid", "-8:8:64"), ("clt-demo", "spec", "a.json"),
     ("clt-demo", "epsilon", 0.2), ("clt-demo", "threads", 2)],
)
def test_config_keys_outside_the_command_exit_2(tmp_path, spec_files, command, key, value, capsys):
    # a config file may set only what the command's flags may set, so a key
    # is never silently ignored
    cfg = tmp_path / "cfg.json"
    data = {"selfcheck": {}, "clt-demo": {"grid": "-8:8:64"}}.get(
        command, {"spec": spec_files["gauss"], "grid": "-8:8:64"})
    cfg.write_text(json.dumps({**data, key: value}))
    assert main([command, "--config", str(cfg)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"not read by '{command}'" in err and key in err


@pytest.mark.parametrize("command", ["invert", "mollify", "converge", "clt-demo"])
def test_negativity_tol_is_no_option(tmp_path, spec_files, command, capsys):
    # the negativity tolerance is a constant of the numerical contract, so
    # neither a flag nor a config key may set it
    with pytest.raises(SystemExit) as exc:
        main([command, "--negativity-tol", "1e-6"])
    assert exc.value.code == EXIT_VALIDATION
    assert "unrecognized arguments" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": "-8:8:64", "negativity_tol": 1e-6}))
    assert main([command, "--config", str(cfg)]) == EXIT_VALIDATION
    assert "negativity_tol" in capsys.readouterr().err
