import re
import tracemalloc
from dataclasses import fields, replace
from operator import attrgetter

import numpy as np
import pytest

import ivrls.experiment
from ivrls import lti
from ivrls.data import Dataset
from ivrls.experiment import (
    ExperimentResult,
    ModeTrace,
    RunAudit,
    estimate_from_csv,
    estimator_config,
    lambda_sweep,
    mode_label,
    run_dataset,
    run_experiment,
    write_experiment,
    write_sweep,
)
from ivrls.intervals import IntervalVector
from ivrls.lti import EstimatorSpec, LtiIntervalEstimator
from ivrls.simulate import (
    REFERENCE_DRIFT_RADIUS,
    REFERENCE_LTV,
    SimConfig,
    generate_lti,
    generate_ltv,
)

from helpers import diverging_log, mode_major_run_dataset, study_with_traces, vertex_oracle


def small_config(**kwargs):
    base = dict(runs=3, horizon=40, seed=100, modes=(10, None), monotonic=True)
    base.update(kwargs)
    return SimConfig(**base)


def test_mode_label():
    assert mode_label(None) == "exact"
    assert mode_label(25) == "m25"


def test_run_experiment_audits_every_run_and_mode():
    config = small_config()
    result = run_experiment(config)
    assert len(result.audits) == config.runs * len(config.modes)
    assert result.all_contained
    for audit in result.audits:
        assert audit.raw_contained and audit.refined_contained
        assert audit.inconsistent_steps == 0
        assert audit.seed == config.seed + audit.run


def test_averages_are_componentwise_means():
    config = small_config(runs=2, modes=(None,))
    result, traces = study_with_traces(config)
    stacked = np.stack([traces[r][0].radius for r in range(2)])
    assert list(result.averages) == ["exact"]
    np.testing.assert_array_equal(result.averages["exact"].radius, stacked.mean(axis=0))
    counts = result.averages["exact"].inconsistent
    assert counts.shape == (config.horizon,)
    assert np.all(counts == 0)


def test_averaged_inconsistent_column_counts_flagged_runs(tmp_path):
    # a prior box that excludes the truth makes every run's refinement
    # come up empty within a few steps
    config = small_config(runs=3, modes=(None,), prior_radius=0.01)
    result, traces = study_with_traces(config)
    counts = result.averages["exact"].inconsistent
    flags = np.stack([traces[r][0].inconsistent for r in range(3)])
    np.testing.assert_array_equal(counts, flags.sum(axis=0))
    assert counts.max() == config.runs
    write_experiment(result, tmp_path)
    lines = (tmp_path / "avg_exact.csv").read_text().splitlines()[1:]
    assert [int(line.rsplit(",", 1)[1]) for line in lines] == counts.tolist()


def test_study_memory_does_not_grow_with_runs():
    # a study holds one run's traces at a time; a stored trace per run
    # would add about 45 kB a run here
    config = small_config(runs=10, horizon=100)
    run_experiment(config)  # warm-up: first-call allocations are not the study's
    peaks = []
    for runs in (10, 40):
        tracemalloc.start()
        try:
            run_experiment(replace(config, runs=runs))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0], f"peak {peaks[0]} B at 10 runs, {peaks[1]} B at 40"


def test_parallel_matches_serial_bitwise():
    serial = run_experiment(small_config(workers=1))
    parallel = run_experiment(small_config(workers=2))
    assert list(serial.averages) == list(parallel.averages) == ["m10", "exact"]
    for label, a in serial.averages.items():
        b = parallel.averages[label]
        assert a.label == b.label == label
        np.testing.assert_array_equal(a.lower, b.lower)
        np.testing.assert_array_equal(a.upper, b.upper)
        np.testing.assert_array_equal(a.mono_lower, b.mono_lower)
        np.testing.assert_array_equal(a.point, b.point)


@pytest.mark.parametrize("raw, refined, contained", [
    (True, None, True), (True, True, True), (True, False, False),
    (False, None, False), (False, True, False),
])
def test_a_run_holds_when_its_raw_box_held_and_its_refined_box_did_not_fail(raw, refined,
                                                                           contained):
    audit = RunAudit(run=0, seed=0, label="exact", raw_contained=raw,
                     refined_contained=refined, inconsistent_steps=0)
    assert audit.contained == contained
    assert ExperimentResult(averages={}, audits=[audit]).all_contained == contained


def test_run_dataset_matches_direct_estimator_loop():
    config = small_config(modes=(None,), monotonic=False)
    ds = generate_lti(config, seed=config.seed)
    trace = run_dataset(ds, config)[0]
    est = LtiIntervalEstimator(
        estimator_config(4, config.lam, config.p0_scale, config.prior_radius)
    )
    for i in range(ds.N):
        out = est.step(ds.X[i], ds.y[i], ds.v_low[i], ds.v_high[i])
        np.testing.assert_array_equal(trace.lower[i], out.raw.lower)
        np.testing.assert_array_equal(trace.upper[i], out.raw.upper)
        np.testing.assert_array_equal(trace.point[i], out.point)


def test_ltv_experiment_runs_and_audits():
    config = replace(REFERENCE_LTV, runs=2, horizon=40, seed=100)
    result = run_experiment(config)
    assert result.all_contained
    assert list(result.averages) == ["m5", "exact"]


def test_write_experiment_files(tmp_path):
    result = run_experiment(small_config(runs=2))
    paths = write_experiment(result, tmp_path)
    names = sorted(p.split("/")[-1] for p in paths)
    assert names == ["audit.csv", "avg_exact.csv", "avg_m10.csv"]
    audit_lines = (tmp_path / "audit.csv").read_text().splitlines()
    assert audit_lines[0] == (
        "run,seed,mode,raw_contained,refined_contained,inconsistent_steps"
    )
    assert len(audit_lines) == 1 + 2 * 2
    assert audit_lines[1:3] == ["0,100,m10,1,1,0", "0,100,exact,1,1,0"]
    avg_lines = (tmp_path / "avg_exact.csv").read_text().splitlines()
    assert avg_lines[0].startswith("t,theta_hat_1")
    assert "mono_lo_1" in avg_lines[0]


def test_lambda_sweep_matches_single_experiment():
    config = small_config(modes=(None,), runs=2)
    rows = lambda_sweep(config, [0.7])
    direct = run_experiment(replace(config, lam=0.7))
    avg = direct.averages["exact"]
    assert [(row.lam, row.label) for row in rows] == [(0.7, "exact")]
    np.testing.assert_array_equal(rows[0].final_width, avg.mono_upper[-1] - avg.mono_lower[-1])


@pytest.mark.parametrize("monotonic", [False, True])
def test_final_width_reads_the_refined_box_where_refinement_ran(monotonic):
    config = small_config(runs=1, modes=(10,), monotonic=monotonic)
    trace = run_dataset(generate_lti(config, seed=config.seed), config)[0]
    lower, upper = (trace.mono_lower, trace.mono_upper) if monotonic else (trace.lower,
                                                                            trace.upper)
    np.testing.assert_array_equal(trace.final_width, upper[-1] - lower[-1])
    if monotonic:  # the running intersection cuts the last raw box here
        assert np.any(trace.final_width < trace.upper[-1] - trace.lower[-1])



def test_tables_without_refinement_leave_refined_blank(tmp_path):
    result = run_experiment(small_config(runs=1, modes=(None,), monotonic=False))
    write_experiment(result, tmp_path)
    assert (tmp_path / "audit.csv").read_text().splitlines()[1] == "0,100,exact,1,,0"
    assert "mono" not in (tmp_path / "avg_exact.csv").read_text().splitlines()[0]


def test_sweep_csv_row_holds_lambda_mode_and_widths(tmp_path):
    config = small_config(modes=(None,), runs=2)
    rows = lambda_sweep(config, [0.7])
    write_sweep(rows, tmp_path / "sweep.csv")
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "lambda,mode,width_1,width_2,width_3,width_4"
    widths = rows[0].final_width
    assert lines[1] == ",".join(
        ["0.69999999999999996", "exact"] + [format(w, ".17g") for w in widths]
    )


def test_estimate_from_csv_matches_library_run(tmp_path):
    config = small_config(modes=(10,))
    ds = generate_lti(config, seed=config.seed)
    in_path = tmp_path / "ds.csv"
    out_path = tmp_path / "est.csv"
    ds.to_csv(in_path)
    spec = EstimatorSpec(lam=config.lam, p0_scale=config.p0_scale,
                         prior_radius=config.prior_radius, modes=(10,), monotonic=True)
    audit = estimate_from_csv(in_path, out_path, spec)
    assert audit.raw_contained and audit.refined_contained
    # written estimates agree with an in-memory run on the same rows
    trace = run_dataset(ds, config)[0]
    lines = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 1 + ds.N
    last = np.array([float(c) for c in lines[-1].split(",")])
    np.testing.assert_array_equal(last[1:5], trace.point[-1])
    np.testing.assert_array_equal(last[13:17], trace.lower[-1])
    comment = out_path.read_text().splitlines()[-1]
    assert comment.startswith("# audit raw_contained=1")


def test_estimate_from_csv_scalar_hand_trace(tmp_path):
    # one-parameter stream checked against the hand-computed recursion:
    # lam=1/2, P0=1, theta0=0, rows x=(1,2,1), y=(1,1,2), no noise,
    # prior radius 5 gives theta(3)=26/27 and radius 5/27
    path = tmp_path / "scalar.csv"
    path.write_text(
        "t,y,x_1,v_lo,v_hi\n"
        "1,1,1,0,0\n"
        "2,1,2,0,0\n"
        "3,2,1,0,0\n"
    )
    out_path = tmp_path / "est.csv"
    spec = EstimatorSpec(lam=0.5, p0_scale=1.0, prior_radius=5.0, modes=(None,),
                         monotonic=False)
    estimate_from_csv(path, out_path, spec)
    rows = [l.split(",") for l in out_path.read_text().splitlines()[1:]]
    theta = [float(r[1]) for r in rows]
    radius = [float(r[3]) for r in rows]
    np.testing.assert_allclose(theta, [2 / 3, 10 / 19, 26 / 27], rtol=1e-14)
    np.testing.assert_allclose(radius, [5 / 3, 5 / 19, 5 / 27], rtol=1e-13)


def test_estimate_from_csv_without_truth_returns_none(tmp_path):
    config = small_config()
    ds = generate_lti(config, seed=1)
    ds.theta_true = None
    ds.v = None
    in_path = tmp_path / "ds.csv"
    ds.to_csv(in_path)
    spec = EstimatorSpec(lam=0.99, p0_scale=1000.0, prior_radius=4.0, modes=(None,))
    audit = estimate_from_csv(in_path, tmp_path / "est.csv", spec)
    assert audit is None


def test_estimate_from_csv_uses_ltv_when_drift_columns_present(tmp_path):
    config = replace(REFERENCE_LTV, runs=1, horizon=40, seed=100, modes=(5,))
    from ivrls.simulate import generate_ltv

    ds = generate_ltv(config, seed=5)
    in_path = tmp_path / "ds.csv"
    ds.to_csv(in_path)
    spec = EstimatorSpec(lam=0.1, p0_scale=1000.0, prior_radius=4.0, modes=(5,))
    audit = estimate_from_csv(in_path, tmp_path / "est.csv", spec)
    assert audit.raw_contained and audit.refined_contained


def test_estimate_from_csv_refuses_more_than_one_mode(tmp_path):
    out_path = tmp_path / "o" / "est.csv"
    with pytest.raises(ValueError,
                       match=r"^estimate_from_csv runs one mode, got modes \(5, None\)$"):
        estimate_from_csv(tmp_path / "missing.csv", out_path, EstimatorSpec(modes=(5, None)))
    assert not out_path.parent.exists()


def test_sweep_csv_layout(tmp_path):
    config = small_config(modes=(None,), runs=2)
    rows = lambda_sweep(config, [0.6, 0.9])
    path = tmp_path / "sweep.csv"
    write_sweep(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda,mode,width_1,width_2,width_3,width_4"
    assert len(lines) == 1 + 2
    assert lines[1].startswith("0.59999999999999998,exact,")


@pytest.mark.parametrize("drifting", [False, True])
@pytest.mark.parametrize("monotonic", [False, True])
def test_run_dataset_equals_the_mode_major_loop(drifting, monotonic):
    config = small_config(modes=(1, 7, None), monotonic=monotonic)
    if drifting:
        config = replace(config, drift_radius=REFERENCE_DRIFT_RADIUS, lam=0.1)
        ds = generate_ltv(config, seed=config.seed)
    else:
        ds = generate_lti(config, seed=config.seed)
    shared = run_dataset(ds, config)
    separate = mode_major_run_dataset(ds, config)
    assert [tr.label for tr in shared] == [tr.label for tr in separate]
    exact = shared[-1].radius
    for m, a, b in zip(config.modes, shared, separate):
        # bit for bit, signed zeros included, but for a window past its
        # first m steps: it reads its terms from a history propagated with
        # more blocks per matrix product, so there its bounds agree to rounding
        cut = len(ds.t) if m is None else m
        scale = np.abs(b.upper).max() + np.abs(b.lower).max()
        for f in fields(ModeTrace):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if f.name == "label" or y is None:
                assert x == y
                continue
            assert x.dtype == y.dtype and x.shape == y.shape
            if f.name in ("t", "point", "inconsistent"):
                assert x.tobytes() == y.tobytes(), f.name
                continue
            assert x[:cut].tobytes() == y[:cut].tobytes(), f.name
            np.testing.assert_allclose(x[cut:], y[cut:], rtol=1e-12, atol=1e-15 * scale)
        assert np.all(a.radius >= exact * (1 - 1e-12))


def test_run_dataset_steps_the_identifier_once_per_sample(monkeypatch):
    calls = []
    original = lti.rls_step

    def counted(state, x, y):
        calls.append(state.t)
        return original(state, x, y)

    monkeypatch.setattr(lti, "rls_step", counted)
    config = small_config(modes=(10, 20, None))
    ds = generate_lti(config, seed=config.seed)
    run_dataset(ds, config)
    assert calls == list(range(ds.N))


def test_run_dataset_propagates_the_history_once_per_sample(monkeypatch):
    takes = []
    original = lti._Identifier._take

    def counted(stage, *sample):
        takes.append(stage.state.t)
        return original(stage, *sample)

    monkeypatch.setattr(lti._Identifier, "_take", counted)
    config = small_config(modes=(10, 20, None))
    ds = generate_lti(config, seed=config.seed)
    run_dataset(ds, config)
    assert takes == list(range(ds.N))


def stepped_with_a_box_per_row(ds, config):
    """Per mode, the estimates of the modes run on one stage with a new
    drift box built from every row."""
    base = estimator_config(ds.n, config.lam, config.p0_scale, config.prior_radius,
                            None, config.monotonic)
    samples = [(ds.X[i], ds.y[i], ds.v_low[i], ds.v_high[i],
                IntervalVector(ds.delta_low[i], ds.delta_high[i])) for i in range(ds.N)]
    return list(zip(*lti._run_modes(base, config.modes, samples)))


@pytest.mark.parametrize("edited", [False, True])
def test_run_dataset_honours_every_drift_row(edited, monkeypatch):
    config = replace(REFERENCE_LTV, runs=3, horizon=60, seed=100)
    ds = generate_ltv(config, seed=config.seed)
    r = np.asarray(REFERENCE_DRIFT_RADIUS)
    boxes = 1  # a generated drift box is the same at every row
    if edited:
        ds.delta_low[10:15], ds.delta_high[10:15] = -2 * r, 2 * r
        ds.delta_high[20] = 1.5 * r  # one row, then back to the first box
        # equal values but for the sign of a zero are another box
        ds.delta_low[50:, 3] = 0.0
        ds.delta_low[55, 3] = -0.0
        boxes = 8
    built = []

    def counted(*bounds):
        built.append(bounds)
        return IntervalVector(*bounds)

    monkeypatch.setattr(ivrls.experiment, "IntervalVector", counted)
    traces = run_dataset(ds, config)
    assert len(built) == boxes
    for trace, outs in zip(traces, stepped_with_a_box_per_row(ds, config)):
        for field, attr in (("lower", "lower"), ("upper", "upper"), ("point", "point"),
                            ("mono_lower", "refined.lower"), ("mono_upper", "refined.upper")):
            expected = np.stack([attrgetter(attr)(out) for out in outs])
            assert getattr(trace, field).tobytes() == expected.tobytes(), field
        assert trace.inconsistent.tolist() == [int(out.inconsistent) for out in outs]
    # and both honour each row's box: the exact hull of the affine error
    # map, formed without the stage, and the running intersection
    exact = traces[-1]
    base = estimator_config(ds.n, config.lam, config.p0_scale, config.prior_radius)
    drifts = [IntervalVector(*b) for b in zip(ds.delta_low, ds.delta_high)]
    for t in (15, 21, ds.N):
        box = vertex_oracle(ds.X[:t], ds.y[:t], np.c_[ds.v_low, ds.v_high][:t],
                            base.theta_prior, base.rls, drifts[:t], method="rowsign")
        scale = np.abs(box.upper).max() + np.abs(box.lower).max()
        np.testing.assert_allclose(exact.lower[t - 1], box.lower, rtol=0, atol=1e-10 * scale)
        np.testing.assert_allclose(exact.upper[t - 1], box.upper, rtol=0, atol=1e-10 * scale)
    lo, hi = base.theta_prior.lower, base.theta_prior.upper
    for i in range(ds.N):
        lo = np.maximum(lo + ds.delta_low[i], exact.lower[i])
        hi = np.minimum(hi + ds.delta_high[i], exact.upper[i])
        assert np.all(lo <= hi) and not exact.inconsistent[i]
        np.testing.assert_array_equal(exact.mono_lower[i], lo)
        np.testing.assert_array_equal(exact.mono_upper[i], hi)


@pytest.mark.parametrize("side, row, component, value",
                         [("delta_low", 57, 2, 1.0), ("delta_high", 90, 1, np.nan)])
def test_a_bad_drift_row_fails_naming_its_step(side, row, component, value):
    config = replace(REFERENCE_LTV, runs=3, horizon=100, seed=100)
    ds = generate_ltv(config, seed=config.seed)
    getattr(ds, side)[row, component] = value
    with pytest.raises(ValueError, match=rf"^step {row + 1}: drift bound inversion .* "
                                         rf"at components \[{component}\]$"):
        run_dataset(ds, config)
    # `validate` words it as `from_csv` does, at the 0-based row
    j, high = component + 1, REFERENCE_DRIFT_RADIUS[component]
    validated = {"delta_low": f"row {row}: delta_lo_{j}=1 exceeds delta_hi_{j}={high:g}",
                 "delta_high": f"row {row}, column 'delta_hi_{j}': non-finite value nan"}
    with pytest.raises(ValueError, match=f"^{re.escape(validated[side])}$"):
        ds.validate()


@pytest.mark.parametrize("column, index, value, cause", [
    ("v_low", 57, 1.0, r"noise bound inversion: \[1\.0, 0\.2\]"),
    ("X", (57, 1), np.nan, "x must be finite"),
    ("y", 57, np.inf, "y must be finite, got inf"),
])
def test_a_bad_sample_fails_naming_its_step(column, index, value, cause):
    config = replace(REFERENCE_LTV, runs=3, horizon=100, seed=100)
    ds = generate_ltv(config, seed=config.seed)
    getattr(ds, column)[index] = value
    with pytest.raises(ValueError, match=rf"^step 58: {cause}$"):
        run_dataset(ds, config)


def test_an_exact_run_beyond_the_cap_is_refused_before_step_1(monkeypatch):
    ds = generate_lti(SimConfig(horizon=40), seed=5)  # made in memory, not read from a file
    monkeypatch.setattr(lti, "MAX_EXACT_HORIZON", 30)
    calls, real = [], lti.rls_step
    monkeypatch.setattr(lti, "rls_step", lambda *args: calls.append(args) or real(*args))
    with pytest.raises(ValueError, match=r"^horizon 40 exceeds the exact-mode cap 30; "
                                         r"use a truncation window for long runs$"):
        run_dataset(ds, EstimatorSpec(modes=(20, None)))
    assert calls == []
    # only an exact mode is capped
    assert len(run_dataset(ds, EstimatorSpec(modes=(20,)))[0].t) == 40 and len(calls) == 40


@pytest.mark.filterwarnings("error")
def test_a_run_refuses_an_overflowing_radius_without_a_numpy_warning():
    # numpy overflows in the window's anchor product first; the run keeps
    # that quiet, and the step's one finiteness check names the overflow
    with pytest.raises(ArithmeticError, match=r"^radius overflow at t=1078, m=1: "
                                              r"the error bound is no longer finite$"):
        run_dataset(diverging_log(), EstimatorSpec(lam=0.1, modes=(1,)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("monotonic", [False, True])
def test_a_run_refuses_an_overflowing_center_without_a_numpy_warning(monotonic):
    # a zero-width drift box of 1e308 moves the center past DBL_MAX at step 2
    ds = Dataset(t=[1, 2], X=[[0.0], [0.0]], y=[0.0, 0.0], v_low=[-0.1, -0.1],
                 v_high=[0.1, 0.1], delta_low=[[1e308]] * 2, delta_high=[[1e308]] * 2)
    with pytest.raises(ValueError, match=r"^step 2: .*non-finite bound\) at components \[0\]"):
        run_dataset(ds, EstimatorSpec(modes=(3, None), monotonic=monotonic))
