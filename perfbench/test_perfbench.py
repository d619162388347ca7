"""Tests of the benchmark itself, at toy size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

TOY = workloads.SIZES["toy"]

LISTED_LAYERS = {m["name"] for m in SPEC["per_layer"]}

# Per-layer metrics beyond the listed ones that only some workloads have;
# they are printed in the per-layer table, not in the result line.
STUDY_EXTRAS = {"experiment.run_dataset_self_ms", "experiment.run_experiment_self_ms",
                "cli.main_self_ms"}
EXTRA_LAYERS = {
    "mc_lti": STUDY_EXTRAS | {"lti.step_self_us.m20", "lti.step_self_us.m50",
                              "lti.step_self_us.exact"},
    "mc_ltv": STUDY_EXTRAS | {"ltv.step_self_us.m5", "ltv.step_self_us.exact",
                              "ltv.drift_box_us"},
    "stream_long": {"lti.step_self_us.m2000", "lti.step_self_us.exact", "sample_us_p50",
                    "sample_us_p99", "data.read_s", "pe.analyze_s", "pe.levels_s"},
}

# Identifier runs per sample: one per radius mode, plus the PE replay on the
# stream.  Boxes per estimator step: raw and refined, plus the prior box of
# each estimator.
CALLS_PER_SAMPLE = {"mc_lti": 3.0, "mc_ltv": 2.0, "stream_long": 3.0}
BOXES_PER_STEP = {
    "mc_lti": (2 * TOY.horizon + 1) / TOY.horizon,
    "mc_ltv": (2 * TOY.horizon + 1) / TOY.horizon,
    "stream_long": (2 * TOY.stream_samples + 1) / TOY.stream_samples,
}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--size", "toy",
         "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "3", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(m["name"] for m in SPEC["end_to_end"])
    for name, metric in result["metrics"].items():
        assert metric["unit"] == UNITS[name]
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric_and_exact_counts(workload):
    done = _bench("--workload", workload, "--seed", "3", "--trace", "1")
    result = _result(done)
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == LISTED_LAYERS
    for name, metric in metrics.items():
        assert metric["unit"] == UNITS[name]
        assert metric["value"] > 0
    table = done.stdout.split("per layer", 1)[1].splitlines()
    printed = {line.split()[0] for line in table if line.startswith("  ")}
    assert EXTRA_LAYERS[workload] <= printed
    assert not EXTRA_LAYERS[workload] & LISTED_LAYERS
    assert metrics["rls.calls_per_sample"]["value"] == CALLS_PER_SAMPLE[workload]
    assert metrics["intervals.boxes_per_step"]["value"] == pytest.approx(
        BOXES_PER_STEP[workload], rel=1e-15)
    assert os.path.exists(os.path.join(ROOT, ".perfbench_out", f"spans_{workload}_seed3.csv"))


def test_speed_clock_divides_each_stretch_by_the_slowdown_around_it():
    clock = speed.SpeedClock()
    clock.start.extend([0.0, 1.0, 2.0, 3.0])
    clock.end.extend([0.1, 1.2, 2.2, 3.1])  # kernels of 0.1, 0.2, 0.2 and 0.1 s
    expected = 0.9 * 2 / 3 + 0.8 * 1 / 2 + 0.8 * 2 / 3
    assert clock.full_speed(0.1, 3.0) == pytest.approx(expected)
    assert clock.full_speed(1.2, 1.6) == pytest.approx(0.4 / 2)


def test_speed_clock_samples_while_running_and_then_stops():
    handler = signal.getsignal(signal.SIGALRM)
    clock = speed.SpeedClock()
    with clock:
        t0 = time.perf_counter()
        while time.perf_counter() < t0 + 0.05:
            pass
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.start) >= 5
    assert 0 < clock.full_speed(t0, t1) <= t1 - t0


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "mc_lti", "--seed", "0", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_tracer_restores_every_wrapped_name():
    originals = []
    for owner, attr, *_ in tracing.HOOKS:
        originals.append(vars(tracing._resolve(owner))[attr])
    with tracing.Tracer():
        changed = [vars(tracing._resolve(owner))[attr] for owner, attr, *_ in tracing.HOOKS]
    assert all(a is not b for a, b in zip(originals, changed))
    restored = [vars(tracing._resolve(owner))[attr] for owner, attr, *_ in tracing.HOOKS]
    assert all(a is b for a, b in zip(originals, restored))


def test_self_time_subtracts_direct_children_only():
    tracer = tracing.Tracer()
    for name, start, end, parent in (("a", 0, 100, -1), ("b", 10, 50, 0), ("c", 20, 30, 1),
                                     ("d", 60, 70, 0)):
        tracer.names.append(name)
        tracer.tags.append(None)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.trace_id.append(0)
    assert tracer.self_times() == [50, 30, 10, 10]


def test_spans_share_the_trace_id_of_their_run():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        for _ in range(2):
            with tracer.span("run", new_trace=True):
                with tracer.span("inner"):
                    pass
    assert list(tracer.trace_id) == [0, 1, 1, 2, 2]
    assert list(tracer.parent) == [-1, 0, 1, 0, 3]


def _trajectory(N=20, n=2):
    truth = np.zeros((N, n))
    lower, upper = -np.ones((N, n)), np.ones((N, n))
    mono_lo = -np.linspace(1.0, 0.5, N)[:, None] * np.ones(n)
    return truth, lower, upper, mono_lo, -mono_lo, np.zeros(N, dtype=int)


def test_box_checks_accept_a_sound_trajectory_and_flag_each_defect():
    truth, lower, upper, mono_lo, mono_hi, inc = _trajectory()
    assert not checks.box_failures(truth, lower, upper, mono_lo, mono_hi, inc, 0.0, True).any()

    escaped = truth.copy()
    escaped[5, 1] = 0.9
    assert np.flatnonzero(checks.box_failures(
        escaped, lower, upper, mono_lo, mono_hi, inc, 0.0, True)).tolist() == [5]

    loosened = mono_hi.copy()
    loosened[7] += 0.1
    bad = checks.box_failures(truth, lower, upper, mono_lo, loosened, inc, 0.0, True)
    assert bad[7] and not bad[6]
    assert not checks.box_failures(truth, lower, upper, mono_lo, loosened, inc, 0.0, False)[7]

    outside = mono_lo.copy()
    outside[3] = -1.5
    assert checks.box_failures(truth, lower, upper, outside, mono_hi, inc, 0.0, False)[3]

    flagged = inc.copy()
    flagged[9] = 1
    assert checks.box_failures(truth, lower, upper, mono_lo, mono_hi, flagged, 0.0, True)[9]


def test_radius_order_tolerates_rounding_only():
    exact = np.full((3, 2), 0.25)
    assert not checks.order_failures(exact - 5.6e-17, exact).any()
    assert checks.order_failures(exact - 1e-9, exact).all()


def test_reference_comparison_passes_rounding_drift_and_fails_real_changes():
    arrays = {key: np.linspace(0.1, 2.0, 40).reshape(10, 4) for key in checks.BOX_FIELDS}
    stored = {"modes": {"exact": checks.checkpoints(arrays)}, "scalars": {"w": 0.5}}
    drift = {key: val * (1 + 1e-13) for key, val in arrays.items()}
    observed = {"modes": {"exact": checks.checkpoints(drift)}, "scalars": {"w": 0.5}}
    assert checks.mismatches(stored, observed) == []
    changed = dict(drift, radius=arrays["radius"] * (1 + 1e-6))
    observed["modes"]["exact"] = checks.checkpoints(changed)
    assert checks.mismatches(stored, observed) == ["exact.radius"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_boxes_that_lose_the_truth_are_counted_as_failures(workload, tmp_path, monkeypatch):
    import ivrls.lti

    real_step = ivrls.lti._RadiusRecursion.step
    monkeypatch.setattr(ivrls.lti._RadiusRecursion, "step",
                        lambda self, *a: 0.0 * real_step(self, *a))
    workloads.setup_inputs(workload, 3, TOY, str(tmp_path))
    result = workloads.run_workload(workload, 3, TOY, 0, 0, str(tmp_path), {})
    assert result.outcome.failed > 0
