import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import ivrls
from ivrls import cli, experiment, simulate
from ivrls.cli import main
from ivrls.simulate import SimConfig, generate_lti

from helpers import diverging_log


SIM_ARGS = ["--runs", "2", "--horizon", "30", "--modes", "exact,10"]


def read(path):
    return path.read_bytes()


def test_simulate_lti_writes_expected_files(tmp_path, capsys):
    out = tmp_path / "study"
    rc = main(["simulate-lti", "--seed", "3", "--out", str(out), *SIM_ARGS])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "containment audit over 2 runs: PASS" in printed
    for name in ("avg_exact.csv", "avg_m10.csv", "audit.csv"):
        assert (out / name).exists()


def test_simulate_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate-lti", "--seed", "9", "--out", str(a), *SIM_ARGS]) == 0
    assert main(["simulate-lti", "--seed", "9", "--out", str(b), *SIM_ARGS]) == 0
    for name in ("avg_exact.csv", "avg_m10.csv", "audit.csv"):
        assert read(a / name) == read(b / name)


def test_parallel_workers_do_not_change_output(tmp_path):
    # pooled runs write their datasets from the worker processes
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["simulate-lti", "--seed", "9", *SIM_ARGS, "--write-datasets"]
    assert main([*argv, "--out", str(a)]) == 0
    assert main([*argv, "--out", str(b), "--workers", "2"]) == 0
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b)) == [
        "audit.csv", "avg_exact.csv", "avg_m10.csv", "dataset_run000.csv", "dataset_run001.csv"
    ]
    for name in names:
        assert read(a / name) == read(b / name)


def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# study settings\n"
        "runs = 3\n"
        "horizon = 25\n"
        "modes = exact\n"
        "lam = 0.95\n"
    )
    out = tmp_path / "out"
    rc = main(
        ["simulate-lti", "--seed", "1", "--out", str(out), "--config", str(cfg),
         "--runs", "2"]
    )
    assert rc == 0
    audit = (out / "audit.csv").read_text().splitlines()
    # flag wins over the file for runs; the file sets the single mode
    assert len(audit) == 1 + 2
    assert all(",exact," in line for line in audit[1:])


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("horizont = 25\n")
    rc = main(["simulate-lti", "--seed", "1", "--out", str(tmp_path / "o"),
               "--config", str(cfg)])
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err
    # a value the flag would refuse is refused with the key named
    cfg.write_text("modes = 5,soon\n")
    rc = main(["simulate-lti", "--seed", "1", "--out", str(tmp_path / "o"),
               "--config", str(cfg)])
    assert rc == 1
    assert "modes: modes must be 'exact' or integers" in capsys.readouterr().err
    # so is a value the flag's int() or float() conversion refuses
    cfg.write_text("runs = many\n")
    rc = main(["simulate-lti", "--seed", "1", "--out", str(tmp_path / "o"),
               "--config", str(cfg)])
    assert rc == 1
    assert f"{cfg}: runs: invalid literal for int()" in capsys.readouterr().err


class _Captured(Exception):
    pass


def _study_config(monkeypatch, argv):
    def capture(config, **kwargs):
        raise _Captured(config)

    monkeypatch.setattr(cli, "run_experiment", capture)
    with pytest.raises(_Captured) as caught:
        main(argv)
    return caught.value.args[0]


@pytest.mark.parametrize("command", ["simulate-lti", "simulate-ltv"])
def test_config_file_setting_every_key_matches_flags(command, tmp_path, monkeypatch):
    values = {
        "theta_true": ("--theta-true", "0.5,-0.2,0.1"),
        "n_a": ("--na", "1"),
        "n_b": ("--nb", "2"),
        "noise_half_width": ("--noise-half-width", "0.3"),
        "horizon": ("--horizon", "12"),
        "runs": ("--runs", "3"),
        "lam": ("--lambda", "0.9"),
        "p0_scale": ("--p0-scale", "50"),
        "prior_radius": ("--prior-radius", "2.5"),
        "modes": ("--modes", "3,exact"),
        "monotonic": ("--monotonic", "false"),
        "workers": ("--workers", "2"),
    }
    if command == "simulate-ltv":
        values["drift_radius"] = ("--drift-radius", "0.1,0.2,0.3")
        values["drift_period"] = ("--drift-period", "12.5")
        assert set(values) == {f.name for f in fields(SimConfig)} - {"seed"}
    cfg = tmp_path / "study.cfg"
    cfg.write_text("".join(f"{key} = {text}\n" for key, (_, text) in values.items()))
    base = [command, "--seed", "4", "--out", str(tmp_path / "o")]
    from_file = _study_config(monkeypatch, [*base, "--config", str(cfg)])
    flags = [token for flag, text in values.values() for token in (flag, text)]
    from_flags = _study_config(monkeypatch, [*base, *flags])
    assert from_file == from_flags
    assert from_file != SimConfig(seed=4)


def test_required_flags_enforced():
    with pytest.raises(SystemExit) as exc:
        main(["simulate-lti", "--out", "/tmp/x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["estimate", "--out", "/tmp/x"])


def test_estimate_subcommand(tmp_path, capsys):
    ds = generate_lti(SimConfig(horizon=30), seed=5)
    ds_path = tmp_path / "ds.csv"
    ds.to_csv(ds_path)
    out = tmp_path / "est"
    rc = main(["estimate", "--in", str(ds_path), "--out", str(out),
               "--lambda", "0.99", "--m", "10"])
    assert rc == 0
    assert (out / "estimates.csv").exists()
    assert "raw=True" in capsys.readouterr().out


def test_estimate_without_true_trajectory_skips_the_audit(tmp_path, capsys):
    ds = generate_lti(SimConfig(horizon=30), seed=5)
    ds.theta_true = None
    ds_path = tmp_path / "ds.csv"
    ds.to_csv(ds_path)
    assert "theta" not in ds_path.read_text().splitlines()[0]
    out = tmp_path / "est"
    assert main(["estimate", "--in", str(ds_path), "--out", str(out), "--m", "10"]) == 0
    assert "no true trajectory in input; containment not audited" in capsys.readouterr().out
    assert "audit" not in (out / "estimates.csv").read_text()


def test_exact_horizon_cap_is_a_clean_error(tmp_path, capsys, monkeypatch):
    from ivrls import lti

    monkeypatch.setattr(lti, "MAX_EXACT_HORIZON", 30)
    out = tmp_path / "o"
    rc = main(["simulate-lti", "--seed", "0", "--out", str(out), "--runs", "1",
               "--horizon", "40", "--modes", "exact", "--write-datasets"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: horizon 40 exceeds the exact-mode cap 30; "
        "use a truncation window for long runs\n"
    )
    # refused before the study: no run, no dataset, no --out
    assert not out.exists()
    # only an exact mode is capped
    argv = ["simulate-lti", "--seed", "0", "--out", str(out), "--runs", "1", "--horizon", "40"]
    assert main(argv + ["--modes", "20"]) == 0


def test_estimate_refuses_an_exact_run_beyond_the_cap_before_any_step(tmp_path, capsys,
                                                                       monkeypatch):
    from ivrls import lti

    ds_path, out = tmp_path / "ds.csv", tmp_path / "o"
    generate_lti(SimConfig(horizon=40), seed=5).to_csv(ds_path)
    monkeypatch.setattr(lti, "MAX_EXACT_HORIZON", 30)
    steps = []
    monkeypatch.setattr(lti.LtiIntervalEstimator, "step",
                        lambda self, *args: steps.append(args))
    assert main(["estimate", "--in", str(ds_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: horizon 40 exceeds the exact-mode cap 30; "
        "use a truncation window for long runs\n"
    )
    assert steps == [] and not out.exists()


@pytest.mark.parametrize("modes, shown", [("20,20,exact", "20"), ("exact,5,exact", "exact")])
def test_repeated_modes_are_refused(modes, shown, tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["simulate-lti", "--seed", "0", "--out", str(out), "--runs", "2",
               "--horizon", "20", "--modes", modes])
    assert rc == 1
    assert capsys.readouterr().err == f"error: mode {shown} is given more than once\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")  # a leaked numpy warning fails the test
@pytest.mark.parametrize("command, flag, value, field", [
    ("simulate-lti", "--p0-scale", "nan", "p0_scale"),
    ("simulate-lti", "--p0-scale", "inf", "p0_scale"),
    ("simulate-lti", "--noise-half-width", "nan", "noise_half_width"),
    ("simulate-lti", "--noise-half-width", "inf", "noise_half_width"),
    ("simulate-lti", "--theta-true", "nan,0.75,0.6,-0.1", "theta_true"),
    ("simulate-ltv", "--drift-period", "nan", "drift_period"),
    ("simulate-ltv", "--drift-radius", "0.1,inf,0,0", "drift_radius"),
])
def test_a_non_finite_setting_is_refused_naming_it(command, flag, value, field, tmp_path,
                                                   capsys):
    out = tmp_path / "o"
    rc = main([command, "--seed", "0", "--out", str(out), "--runs", "1", "--horizon", "10",
               flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} ") and err.count("\n") == 1
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate-lti", "simulate-ltv", "sweep-lambda"])
def test_a_negative_seed_is_refused_before_anything_is_written(command, tmp_path, capsys):
    out = tmp_path / "o"
    argv = [command, "--seed", "-1", "--out", str(out), "--runs", "1", "--horizon", "10"]
    rc = main(argv + (["--lambdas", "0.9"] if command == "sweep-lambda" else []))
    assert rc == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("window, error", [
    ("0", "window must be >= 1, got 0"),
    ("-3", "window must be >= 1, got -3"),
    ("31", "window must be at most the 30 samples of the dataset, got 31"),
    ("100000", "window must be at most the 30 samples of the dataset, got 100000"),
])
def test_analyze_pe_refuses_a_bad_window_naming_it(window, error, tmp_path, capsys):
    ds_path, out = tmp_path / "ds.csv", tmp_path / "o"
    generate_lti(SimConfig(horizon=30), seed=5).to_csv(ds_path)
    rc = main(["analyze-pe", "--in", str(ds_path), "--out", str(out), "--window", window])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()
    if int(window) < 1:
        # refused before the file is read
        missing = str(tmp_path / "missing.csv")
        assert main(["analyze-pe", "--in", missing, "--out", str(out), "--window", window]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
    # the whole dataset is a window
    assert main(["analyze-pe", "--in", str(ds_path), "--out", str(out), "--window", "30"]) == 0


def test_analyze_pe_refuses_a_default_window_longer_than_the_dataset(tmp_path, capsys):
    ds_path, out = tmp_path / "ds.csv", tmp_path / "o"
    generate_lti(SimConfig(horizon=5), seed=5).to_csv(ds_path)
    assert main(["analyze-pe", "--in", str(ds_path), "--out", str(out)]) == 1
    # the default window is 2n = 8
    assert capsys.readouterr().err == (
        "error: window must be at most the 5 samples of the dataset, got 8\n"
    )
    assert not out.exists()


@pytest.mark.filterwarnings("error")  # a leaked numpy warning fails the test
@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
def test_analyze_pe_refuses_a_bad_p0_scale_naming_it(value, tmp_path, capsys):
    ds_path, out = tmp_path / "ds.csv", tmp_path / "o"
    generate_lti(SimConfig(horizon=30), seed=5).to_csv(ds_path)
    rc = main(["analyze-pe", "--in", str(ds_path), "--out", str(out), "--p0-scale", value])
    assert rc == 1
    value = str(float(value))
    assert capsys.readouterr().err == (
        f"error: p0_scale must be finite and positive, got {value}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("flags, config, status, error", [
    (["--theta-true", "1,x"], None, 2,
     "argument --theta-true: expected comma-separated floats, got '1,x'"),
    (["--monotonic", "maybe"], None, 2, "argument --monotonic: expected a boolean, got 'maybe'"),
    ([], "runs 3\n", 1, "{cfg}: line 1: expected key=value"),
    ([], "monotonic = maybe\n", 1, "{cfg}: monotonic: expected a boolean, got 'maybe'"),
    ([], "modes = 20,exact\nhorizon = 5\nruns = 1\nmodes = 50\n", 1,
     "{cfg}: key 'modes' is given more than once, on lines 1 and 4"),
])
def test_a_setting_text_its_parser_refuses_is_named(flags, config, status, error, tmp_path,
                                                     capsys):
    out, cfg = tmp_path / "o", tmp_path / "study.cfg"
    argv = ["simulate-lti", "--seed", "0", "--out", str(out), *flags]
    if config is not None:
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse's usage error
        rc = exc.code
    assert rc == status
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: {error.format(cfg=cfg)}")
    assert not out.exists()


@pytest.mark.parametrize("text, value", [("true", True), (" On ", True), ("0", False)])
def test_monotonic_flag_reads_a_boolean(text, value):
    args = cli.build_parser().parse_args(["simulate-lti", "--seed", "0", "--out", "o",
                                          "--monotonic", text])
    assert args.monotonic is value


def test_estimate_rejects_bad_dataset(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,y,x_1,v_lo,v_hi\n1,0,0,0.3,-0.3\n")
    rc = main(["estimate", "--in", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "v_lo" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # so is a header with no samples under it
    bad.write_text("t,y,x_1,v_lo,v_hi\n")
    rc = main(["estimate", "--in", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {bad}: no data rows\n"
    assert not (tmp_path / "o").exists()
    # a missing file and a bad setting are refused before --out is made too
    rc = main(["estimate", "--in", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "missing.csv" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    good = tmp_path / "good.csv"
    generate_lti(SimConfig(horizon=20), seed=5).to_csv(good)
    rc = main(["estimate", "--in", str(good), "--out", str(tmp_path / "o"), "--p0-scale", "nan"])
    assert rc == 1
    assert capsys.readouterr().err == "error: p0_scale must be finite and positive, got nan\n"
    assert not (tmp_path / "o").exists()


def _estimate_in_a_subprocess(tmp_path, lines, *options):
    """`estimate` on a log of `lines` in a fresh interpreter: (exit status, stderr)."""
    log = tmp_path / "log.csv"
    log.write_text("\n".join(lines) + "\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(ivrls.__file__)))
    proc = subprocess.run([sys.executable, "-m", "ivrls.cli", "estimate", "--in", str(log),
                           "--out", str(tmp_path / "o"), *options],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert not (tmp_path / "o").exists()
    return proc.returncode, proc.stderr


def test_covariance_windup_prints_the_error_line_alone(tmp_path):
    # forgetting at lambda 0.1 with only x_1 excited: P overflows at t=305,
    # which numpy used to announce with a RuntimeWarning first
    lines = ["t,y,x_1,x_2,x_3,x_4,v_lo,v_hi"]
    lines += [f"{t},{t % 7 / 10 - 0.3},{t % 7 / 10 - 0.3},0,0,0,-0.1,0.1" for t in range(1, 401)]
    assert _estimate_in_a_subprocess(tmp_path, lines, "--lambda", "0.1", "--m", "20") == (
        1, "error: covariance overflow at t=305: P is no longer finite\n")


def test_an_overflowing_regressor_prints_the_error_line_alone(tmp_path):
    # x'Px overflows at t=5; numpy used to warn in its dot, and the step
    # was then blamed on P as a lost positive definiteness
    lines = ["t,y,x_1,v_lo,v_hi"]
    lines += [f"{t},0.5,{1e200 if t == 5 else 1.0},-0.1,0.1" for t in range(1, 11)]
    assert _estimate_in_a_subprocess(tmp_path, lines, "--m", "5") == (
        1, "error: regressor out of range at t=5: the gain denominator lam + x'Px is inf\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, error", [
    (["estimate", "--in", "diverge.csv", "--m", "1", "--lambda", "0.1"],
     "radius overflow at t=1078, m=1: the error bound is no longer finite"),
    (["simulate-lti", "--seed", "1", "--runs", "1", "--horizon", "400",
      "--theta-true=-12,0,1,0"],
     "simulated output diverged (non-finite y) at t=288; the chosen parameters make the "
     "closed recursion unstable"),
    (["analyze-pe", "--in", "huge.csv", "--window", "3"],
     "regressor out of range at t=5: the Gram of the window ending there is not finite"),
])
def test_an_overflow_is_refused_with_the_error_line_alone(argv, error, tmp_path, monkeypatch,
                                                          capsys):
    # numpy overflows before each of these is refused; a warning is an
    # error here, and a failed study leaves no empty --out behind
    monkeypatch.chdir(tmp_path)
    diverging_log().to_csv("diverge.csv")
    lines = ["t,y,x_1,v_lo,v_hi"]
    lines += [f"{t},0.5,{1e200 if t == 5 else 1.0},-0.1,0.1" for t in range(1, 11)]
    (tmp_path / "huge.csv").write_text("\n".join(lines) + "\n")
    assert main(argv + ["--out", "o"]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "o").exists()


def test_estimate_builds_no_study_config(tmp_path, monkeypatch, capsys):
    ds_path = tmp_path / "ds.csv"
    generate_lti(SimConfig(horizon=20), seed=5).to_csv(ds_path)

    def refuse(self):
        raise AssertionError("estimate built a SimConfig")

    monkeypatch.setattr(SimConfig, "__post_init__", refuse)
    out = tmp_path / "est"
    assert main(["estimate", "--in", str(ds_path), "--out", str(out), "--m", "10"]) == 0
    assert (out / "estimates.csv").exists()
    assert "raw=True" in capsys.readouterr().out


def test_analyze_pe_subcommand(tmp_path, capsys):
    ds = generate_lti(SimConfig(horizon=60), seed=5)
    ds_path = tmp_path / "ds.csv"
    ds.to_csv(ds_path)
    out = tmp_path / "pe"
    rc = main(["analyze-pe", "--in", str(ds_path), "--out", str(out)])
    assert rc == 0
    text = (out / "pe_report.txt").read_text()
    for key in ("alpha=", "gamma1=", "m_star=", "b_inf_star="):
        assert key in text
    csv_text = (out / "pe_report.csv").read_text()
    assert csv_text.startswith("quantity,value")
    assert "alpha=" in capsys.readouterr().out


def test_analyze_pe_takes_eta_v_as_the_noise_radius(tmp_path):
    ds = generate_lti(SimConfig(horizon=60), seed=5)
    ds.to_csv(tmp_path / "symmetric.csv")
    # the same regressors under the offset bounds [0, 0.4]: the same radius 0.2
    ds.v, ds.v_low, ds.v_high = None, ds.v_low + 0.2, ds.v_high + 0.2
    ds.to_csv(tmp_path / "offset.csv")
    reports = []
    for name in ("symmetric", "offset"):
        out = tmp_path / name
        assert main(["analyze-pe", "--in", str(tmp_path / f"{name}.csv"), "--out", str(out)]) == 0
        reports.append((out / "pe_report.txt").read_text())
    assert "eta_v=0.20000000000000001\n" in reports[1]
    assert reports[1] == reports[0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("window, c", [("150", "5.6677092400958962e+150"), ("165", "inf")])
def test_analyze_pe_bounds_noise_free_data_by_zero(window, c, tmp_path, capsys):
    # without noise b_inf_star and its bound are 0 for any c: at window 150
    # c eta_q_bound overflows, and at 165 c itself is inf (gamma1 = 0)
    argv = ["simulate-lti", "--seed", "0", "--runs", "1", "--horizon", "300",
            "--noise-half-width", "0", "--write-datasets", "--out", str(tmp_path / "sim")]
    assert main(argv) == 0
    out = tmp_path / "pe"
    assert main(["analyze-pe", "--in", str(tmp_path / "sim" / "dataset_run000.csv"),
                 "--out", str(out), "--lambda", "0.1", "--window", window]) == 0
    lines = (out / "pe_report.txt").read_text().splitlines()
    assert {f"c={c}", "eta_v=0", "b_inf_star=0", "b_inf_star_bound=0"} <= set(lines)
    assert capsys.readouterr().err == ""


def test_sweep_lambda_subcommand(tmp_path):
    out = tmp_path / "sw"
    rc = main(
        ["sweep-lambda", "--seed", "2", "--out", str(out), "--runs", "2",
         "--horizon", "25", "--modes", "exact", "--lambdas", "0.6,0.9"]
    )
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("lambda,mode,width_1")
    assert len(lines) == 3


def test_simulate_ltv_subcommand(tmp_path, capsys):
    out = tmp_path / "ltv"
    rc = main(
        ["simulate-ltv", "--seed", "4", "--out", str(out), "--runs", "2",
         "--horizon", "40"]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed
    # bundled time-varying defaults: modes m5 and exact
    assert (out / "avg_m5.csv").exists()
    assert (out / "avg_exact.csv").exists()


def test_write_datasets_round_trips(tmp_path, capsys):
    out = tmp_path / "study"
    assert main(
        ["simulate-lti", "--seed", "6", "--out", str(out), "--runs", "2",
         "--horizon", "20", "--modes", "exact", "--write-datasets"]
    ) == 0
    from ivrls.data import Dataset

    ds = Dataset.from_csv(out / "dataset_run001.csv")
    ref = generate_lti(SimConfig(horizon=20), seed=7)
    np.testing.assert_array_equal(ds.y, ref.y)
    # the datasets count among the files written
    assert f"wrote {len(os.listdir(out))} files to" in capsys.readouterr().out


def test_write_datasets_generates_each_dataset_once(tmp_path, monkeypatch):
    calls = []
    original = simulate._simulate

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(simulate, "_simulate", counted)
    out = tmp_path / "study"
    assert main(["simulate-lti", "--seed", "3", "--out", str(out), "--runs", "3",
                 "--horizon", "20", "--modes", "exact", "--write-datasets"]) == 0
    assert calls == [3, 4, 5]
    assert sorted(os.listdir(out))[-3:] == [f"dataset_run00{k}.csv" for k in range(3)]


def test_sweep_lambda_refuses_write_datasets(tmp_path, capsys):
    # nor the flags and config keys of what it sets itself: lambda and refinement
    base = ["sweep-lambda", "--seed", "1", "--out", str(tmp_path / "sw"), "--runs", "2",
            "--horizon", "20", "--lambdas", "0.9,0.99"]
    for flags in (["--write-datasets"], ["--lambda", "0.5"], ["--monotonic", "false"]):
        with pytest.raises(SystemExit) as exc:
            main([*base, *flags])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()
    cfg = tmp_path / "sweep.cfg"
    for key in ("lam", "monotonic"):
        cfg.write_text(f"{key} = 0.5\n")
        assert main([*base, "--config", str(cfg)]) == 1
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()


def test_sweep_lambda_checks_every_lambda_before_any_study(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(experiment, "run_experiment", lambda *a, **k: calls.append(a))
    out = tmp_path / "sw"
    rc = main(["sweep-lambda", "--seed", "1", "--out", str(out), "--runs", "2",
               "--horizon", "20", "--lambdas", "0.9,0"])
    assert rc == 1
    assert capsys.readouterr().err == "error: lam must lie in (0, 1], got 0.0\n"
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("lambdas, shown", [("0.5,0.5", "0.5"), ("0.9,0.5,0.90", "0.9")])
def test_sweep_lambda_refuses_a_repeated_lambda_before_any_study(lambdas, shown, tmp_path,
                                                                 monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(experiment, "run_experiment", lambda *a, **k: calls.append(a))
    out = tmp_path / "sw"
    rc = main(["sweep-lambda", "--seed", "1", "--out", str(out), "--runs", "2",
               "--horizon", "20", "--lambdas", lambdas])
    assert rc == 1
    assert capsys.readouterr().err == f"error: lambda {shown} is given more than once\n"
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("command, keys", [
    ("estimate", ("lam", "p0_scale", "prior_radius", "monotonic")),
    ("analyze-pe", ("lam", "p0_scale")),
])
def test_single_file_commands_default_to_the_study_settings(command, keys):
    args = cli.build_parser().parse_args([command, "--in", "d.csv", "--out", "o"])
    assert {key: getattr(args, key) for key in keys} == {
        key: getattr(SimConfig(), key) for key in keys
    }


def test_importing_the_package_and_the_cli_loads_no_process_pool():
    # a serial study never needs multiprocessing, so importing ivrls must
    # not pay for it; pooled studies import the pool when they start it
    src = os.path.dirname(os.path.dirname(os.path.abspath(ivrls.__file__)))
    code = ("import sys, ivrls, ivrls.cli; print(sorted(name for name in sys.modules "
            "if name.startswith(('multiprocessing', 'concurrent.futures.process'))))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    assert out.strip() == "[]"
