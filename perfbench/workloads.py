"""The three benchmark workloads and the metrics each one reports.

mc_lti, mc_ltv  The paper's two Monte Carlo reference studies, run in
                process through ``ivrls.cli.main`` until the run time is
                used up.  Every run of the first study is checked against
                its true trajectory; later studies must write
                byte-identical files.
stream_long     One recorded log of the reference ARX plant, generated
                and written to CSV during set-up.  One timed pass reads
                it back, certifies it with ``pe.analyze``, feeds every
                sample online to an exact and an m = 2000 estimator, and
                writes both estimate CSVs.  Every pass is checked.

Studies and passes are timed on a speed clock (see speed.py), and
steps_per_s uses the median of their times.  Nothing here edits the
package: all calls go through module attributes (``ivrls.cli.main``,
``ivrls.pe.analyze``, ...) so the traced run can reroute them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import resource
import time
from dataclasses import asdict, dataclass

import numpy as np

import ivrls.cli
import ivrls.data
import ivrls.experiment
import ivrls.lti
import ivrls.pe
import ivrls.simulate

import checks
from speed import SpeedClock
from tracing import Tracer

LAM = 0.99
P0_SCALE = 1000.0
PRIOR_RADIUS = 4.0
NOISE_RADIUS = 0.2
STREAM_WINDOW = 2000
LATENCY_WINDOW = 5


@dataclass(frozen=True)
class Size:
    runs: int
    horizon: int
    stream_samples: int


SIZES = {
    "full": Size(runs=100, horizon=200, stream_samples=10_000),
    "toy": Size(runs=3, horizon=30, stream_samples=300),
}

# Study subcommand and its radius modes (the CLI defaults) per workload.
STUDIES = {
    "mc_lti": ("simulate-lti", ("m20", "m50", "exact")),
    "mc_ltv": ("simulate-ltv", ("m5", "exact")),
}
STREAM_MODES = ("exact", f"m{STREAM_WINDOW}")
WORKLOADS = (*STUDIES, "stream_long")


class Outcome:
    """Checked units (run x mode, or stream sample) and those that failed.

    A unit fails when any check touching it fails, however many passes
    check it; a failure of a whole output file fails every unit it holds.
    """

    def __init__(self, shape):
        self.failed_units = np.zeros(shape, dtype=bool)
        self.notes: list[str] = []

    def fail(self, where, note: str) -> None:
        self.failed_units[where] = True
        self.notes.append(note)

    @property
    def attempted(self) -> int:
        return int(self.failed_units.size)

    @property
    def failed(self) -> int:
        return int(self.failed_units.sum())


@dataclass
class Result:
    """What one workload run measured and checked.

    metrics and layers map a metric name to (value, unit); counts gives
    the number of samples behind a metric; observed is the compact form
    of the outputs that reference.json stores for chosen seeds; clock is
    the speed clock of the timed phase.
    """

    metrics: dict
    counts: dict
    outcome: Outcome
    observed: dict
    clock: SpeedClock | None = None
    layers: dict | None = None
    tracer: Tracer | None = None


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _untimed(fn) -> float:
    """Call fn and return how long it took, so the caller can leave it out
    of the run time: set-ups between passes must not cost passes."""
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


@contextlib.contextmanager
def _replaced(module, name, make):
    """Temporarily replace module.name by make(original)."""
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


# --------------------------------------------------------------- set-up


def setup_inputs(workload: str, seed: int, size: Size, workdir: str) -> None:
    """Input generation done before the timed phase (the log for stream_long)."""
    if workload == "stream_long":
        config = ivrls.simulate.SimConfig(horizon=size.stream_samples, runs=1)
        ivrls.simulate.generate_lti(config, seed).to_csv(os.path.join(workdir, "log.csv"))


# --------------------------------------------------------- Monte Carlo


def _study_argv(workload: str, seed: int, size: Size, out: str) -> list[str]:
    command, _ = STUDIES[workload]
    return [command, "--seed", str(seed), "--out", out,
            "--runs", str(size.runs), "--horizon", str(size.horizon), "--workers", "1"]


def _run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return ivrls.cli.main(argv)


class _RunChecker:
    """Checks every run of one study as it finishes.

    Checks each run's traces against its true trajectory, outside the
    run's timed span, and keeps only per-mode sums for the averages.
    """

    def __init__(self, labels, monotone: bool, outcome: Outcome):
        self.labels = tuple(labels)
        self.monotone = monotone
        self.outcome = outcome
        self.runs = 0
        self.sums: dict = {}
        self.final_widths: list[float] = []

    def check(self, dataset, traces) -> None:
        truth = dataset.theta_true
        by_label = {tr.label: tr for tr in traces}
        exact = by_label.get("exact")
        for j, label in enumerate(self.labels):
            tr = by_label.get(label)
            if tr is None or self.runs >= len(self.outcome.failed_units):
                self.outcome.fail(slice(None), f"run {self.runs}: mode {label} unexpected")
                continue
            bad = checks.box_failures(truth, tr.lower, tr.upper, tr.mono_lower, tr.mono_upper,
                                      tr.inconsistent, ivrls.experiment.CONTAINMENT_SLACK,
                                      self.monotone)
            if label != "exact" and exact is not None:
                bad |= checks.order_failures(tr.radius, exact.radius)
            if bad.any():
                self.outcome.fail((self.runs, j), f"run {self.runs} mode {label}: "
                                  f"{int(bad.sum())} steps fail a box check")
            self.final_widths.extend((tr.mono_upper[-1] - tr.mono_lower[-1]).tolist())
            sums = self.sums.setdefault(label, {})
            for key, arr in (("center", tr.center), ("radius", tr.radius),
                             ("mono_lo", tr.mono_lower), ("mono_hi", tr.mono_upper)):
                sums[key] = sums.get(key, 0.0) + arr
        self.runs += 1


def _timed_runs(durations, checked, check=None):
    """Replacement maker for run_dataset: time each run, then check it.

    checked receives the (start, end) of every check, so the caller can
    leave the checks out of the study's time.
    """
    def make(original):
        def timed(dataset, config):
            t0 = time.perf_counter()
            traces = original(dataset, config)
            durations.append(time.perf_counter() - t0)
            if check is not None:
                t0 = time.perf_counter()
                check(dataset, traces)
                checked.append((t0, time.perf_counter()))
            return traces

        return timed

    return make


def _check_study_outputs(workload, out, checker, size, seed, outcome, reference) -> dict:
    """Checks on the files one study wrote; a failure fails every run of its mode."""
    labels = STUDIES[workload][1]
    runs = size.runs
    tables = {}
    for j, label in enumerate(labels):
        path = os.path.join(out, f"avg_{label}.csv")
        if os.path.exists(path):
            tables[label] = checks.read_table(path)
        else:
            outcome.fail((slice(None), j), f"avg_{label}.csv missing")

    modes = {}
    for j, label in enumerate(labels):
        if label not in tables:
            continue
        table = tables[label]
        avg = {"center": checks.block(table, "c"), "radius": checks.block(table, "r"),
               "mono_lo": checks.block(table, "mono_lo"), "mono_hi": checks.block(table, "mono_hi")}
        modes[label] = avg
        expected = {key: val / runs for key, val in checker.sums.get(label, {}).items()}
        if len(table["t"]) != size.horizon or set(expected) != set(checks.BOX_FIELDS):
            outcome.fail((slice(None), j), f"avg_{label}.csv has the wrong shape")
            continue
        # Averages reduced in another order than the library's: a few ulps of
        # the largest summand, far below any real change.
        if not all(np.allclose(avg[k], v, rtol=1e-12, atol=1e-12 * np.max(np.abs(v)))
                   for k, v in expected.items()):
            outcome.fail((slice(None), j), f"avg_{label}.csv is not the mean of the runs")
        lower, upper = checks.block(table, "lo"), checks.block(table, "hi")
        bad = np.any((avg["mono_lo"] < lower) | (avg["mono_hi"] > upper))
        if workload == "mc_lti":
            bad |= np.any(np.diff(avg["mono_lo"], axis=0) < 0)
            bad |= np.any(np.diff(avg["mono_hi"], axis=0) > 0)
        if label != "exact" and "exact" in tables:
            bad |= np.any(checks.order_failures(avg["radius"], checks.block(tables["exact"], "r")))
        if bad:
            outcome.fail((slice(None), j), f"avg_{label}.csv fails a box check")

    audit_path = os.path.join(out, "audit.csv")
    rows = []
    if os.path.exists(audit_path):
        with open(audit_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    audit_ok = len(rows) == runs * len(labels) and all(
        row["mode"] in labels and row["raw_contained"] == "1"
        and row["refined_contained"] == "1" and row["inconsistent_steps"] == "0"
        for row in rows)
    if not audit_ok:
        outcome.fail(slice(None), "audit.csv missing or reports a failed run")

    observed = {
        "modes": {label: checks.checkpoints(avg) for label, avg in modes.items()},
        "scalars": {"width_final_mean": float(np.mean(checker.final_widths))},
    }
    entry = checks.reference_entry(reference, workload, seed, asdict(size))
    if entry is not None:
        bad = checks.mismatches(entry, observed)
        if bad:
            outcome.fail(slice(None), f"stored outputs differ: {', '.join(bad)}")
    return observed


def run_study(workload, seed, size, seconds, trace, workdir, reference, between_passes):
    """Timed studies, the first one checked, then optionally one traced study."""
    labels = STUDIES[workload][1]
    outcome = Outcome((size.runs, len(labels)))
    out = os.path.join(workdir, "study")
    argv = _study_argv(workload, seed, size, out)

    def same_as_first(rc) -> None:
        if rc != 0 or _digest(files) != digest:
            outcome.fail(slice(None), "a repeated study wrote different files")

    # Whole studies are timed on the speed clock, so the timing does not
    # depend on how the engine splits a study.  The first study is also the
    # checked one; its checks are left out of its time.
    steps = size.runs * size.horizon * len(labels)
    checker = _RunChecker(labels, workload == "mc_lti", outcome)
    clock = SpeedClock()
    studies_s, runs_s = [], []
    wall_s = 0.0
    start = time.perf_counter()
    while not studies_s or time.perf_counter() - start + wall_s <= seconds:
        checked = []
        with clock:
            t0 = time.perf_counter()
            with _replaced(ivrls.experiment, "run_dataset",
                           _timed_runs(runs_s, checked, None if studies_s else checker.check)):
                rc = _run_cli(argv)
            t1 = time.perf_counter()
        wall_s = t1 - t0
        studies_s.append(clock.full_speed(t0, t1)
                         - sum(clock.full_speed(a, b) for a, b in checked))
        if len(studies_s) > 1:
            same_as_first(rc)
        else:
            if rc != 0 or checker.runs != size.runs:
                outcome.fail(slice(None), f"cli exit status {rc} after {checker.runs} runs")
            observed = _check_study_outputs(workload, out, checker, size, seed, outcome,
                                            reference)
            files = [os.path.join(out, name) for name in os.listdir(out)]
            digest = _digest(files)
        start += _untimed(between_passes)
    peak = _peak_rss_mb()

    metrics = {
        "steps_per_s": (steps / float(np.median(studies_s)), "1/s"),
        "peak_rss_mb": (peak, "MB"),
        "width_final_mean": (float(np.mean(checker.final_widths)), "1"),
    }
    counts = {"steps_per_s": len(studies_s)}

    layers, tracer = None, None
    if trace:
        tracer = Tracer()
        with tracer:
            same_as_first(_run_cli(argv))
        layers = layer_metrics(tracer, samples=size.runs * size.horizon, steps=steps,
                               horizon=size.horizon)
        # Fastest traced run over fastest untraced run, so slow spells cancel.
        traced_runs = tracer.durations("experiment.run_dataset")
        if traced_runs.size and runs_s:
            layers["trace.overhead"] = (traced_runs.min() / 1e9 / min(runs_s), "ratio")
    return Result(metrics, counts, outcome, observed, clock, layers, tracer)


# -------------------------------------------------------------- stream


class _StreamOutputs:
    """Per-mode estimate arrays of one pass over the stream."""

    def __init__(self, N: int, n: int):
        self.arrays = {
            label: {key: np.zeros((N, n)) for key in
                    ("point", "center", "radius", "lower", "upper", "mono_lo", "mono_hi")}
            for label in STREAM_MODES
        }
        for arrays in self.arrays.values():
            arrays["inconsistent"] = np.zeros(N, dtype=int)

    def store(self, label, i, est) -> None:
        a = self.arrays[label]
        a["point"][i] = est.point
        a["center"][i] = est.raw.center
        a["radius"][i] = est.raw.radius
        a["lower"][i] = est.raw.lower
        a["upper"][i] = est.raw.upper
        a["mono_lo"][i] = est.refined.lower
        a["mono_hi"][i] = est.refined.upper
        a["inconsistent"][i] = int(est.inconsistent)


def _stream_pass(log_path, out_dir, tracer=None):
    """One timed operation of stream_long.

    Returns (dataset, report, outputs, latency): latency holds each
    sample's time through both estimators, in seconds, untraced only.
    """
    clock = time.perf_counter
    dataset = ivrls.data.Dataset.from_csv(log_path)
    n = dataset.n
    report = ivrls.pe.analyze(dataset.X, lam=LAM, P0=P0_SCALE * np.eye(n),
                              noise_radius=NOISE_RADIUS)
    exact, windowed = (
        ivrls.lti.LtiIntervalEstimator(ivrls.experiment.estimator_config(
            n, LAM, P0_SCALE, PRIOR_RADIUS, m, True))
        for m in (None, STREAM_WINDOW)
    )
    outputs = _StreamOutputs(dataset.N, n)
    latency = np.zeros(dataset.N)
    X, y, v_lo, v_hi = dataset.X, dataset.y, dataset.v_low, dataset.v_high
    for i in range(dataset.N):
        if tracer is None:
            a = clock()
            e0 = exact.step(X[i], y[i], v_lo[i], v_hi[i])
            e1 = windowed.step(X[i], y[i], v_lo[i], v_hi[i])
            latency[i] = clock() - a
        else:
            with tracer.span("bench.sample", tag=i, new_trace=True):
                e0 = exact.step(X[i], y[i], v_lo[i], v_hi[i])
                e1 = windowed.step(X[i], y[i], v_lo[i], v_hi[i])
        outputs.store(STREAM_MODES[0], i, e0)
        outputs.store(STREAM_MODES[1], i, e1)
    for label, a in outputs.arrays.items():
        ivrls.data.write_estimates_csv(
            os.path.join(out_dir, f"estimates_{label}.csv"), dataset.t, a["point"],
            a["center"], a["radius"], a["lower"], a["upper"], mono_lower=a["mono_lo"],
            mono_upper=a["mono_hi"], inconsistent=a["inconsistent"])
    return dataset, report, outputs, latency


PE_FIELDS = ("alpha", "beta", "gamma1", "gamma2", "m_star", "eta_q", "b_inf_star")


def _check_stream_pass(dataset, truth_dataset, report, outputs, out_dir, first, outcome):
    """Per-sample checks of one pass; a wrong file or report fails every sample."""
    same_input = dataset.N == truth_dataset.N and all(
        np.array_equal(getattr(dataset, key), getattr(truth_dataset, key))
        for key in ("t", "X", "y", "v_low", "v_high", "v", "theta_true"))
    if not same_input:
        outcome.fail(slice(None), "log read back differs from the generated log")
        return
    if not report.is_pe:
        outcome.fail(slice(None), "pe.analyze finds the log not persistently exciting")
    truth = truth_dataset.theta_true
    bad = np.zeros(truth_dataset.N, dtype=bool)
    for a in outputs.arrays.values():
        bad |= checks.box_failures(truth, a["lower"], a["upper"], a["mono_lo"], a["mono_hi"],
                                   a["inconsistent"], ivrls.experiment.CONTAINMENT_SLACK, True)
    exact, windowed = (outputs.arrays[label]["radius"] for label in STREAM_MODES)
    bad |= checks.order_failures(windowed, exact)
    if bad.any():
        outcome.fail(bad, f"{int(bad.sum())} samples fail a box check")
    if first is None:
        for label, a in outputs.arrays.items():
            table = checks.read_table(os.path.join(out_dir, f"estimates_{label}.csv"))
            for key, prefix in (("point", "theta_hat"), ("center", "c"), ("radius", "r"),
                                ("lower", "lo"), ("upper", "hi"), ("mono_lo", "mono_lo"),
                                ("mono_hi", "mono_hi")):
                if not np.array_equal(checks.block(table, prefix), a[key]):
                    outcome.fail(slice(None), f"estimates_{label}.csv column {prefix} differs")
    elif any(not np.array_equal(a[key], first.arrays[label][key])
             for label, a in outputs.arrays.items() for key in a):
        outcome.fail(slice(None), "a repeated pass gave different estimates")


def run_stream(workload, seed, size, seconds, trace, workdir, reference, between_passes):
    """Timed passes over the recorded log, then optionally one traced pass."""
    log_path = os.path.join(workdir, "log.csv")
    out_dir = os.path.join(workdir, "stream")
    os.makedirs(out_dir, exist_ok=True)
    outcome = Outcome(size.stream_samples)
    config = ivrls.simulate.SimConfig(horizon=size.stream_samples, runs=1)
    truth_dataset = ivrls.simulate.generate_lti(config, seed)

    clock = SpeedClock()
    passes_s, latencies = [], []
    wall_s = 0.0
    first = None
    start = time.perf_counter()
    while not passes_s or time.perf_counter() - start + wall_s <= seconds:
        with clock:
            t0 = time.perf_counter()
            dataset, report, outputs, latency = _stream_pass(log_path, out_dir)
            t1 = time.perf_counter()
        wall_s = t1 - t0
        passes_s.append(clock.full_speed(t0, t1))
        latencies.append(latency)
        _check_stream_pass(dataset, truth_dataset, report, outputs, out_dir, first, outcome)
        if first is None:
            first = outputs
        start += _untimed(between_passes)
    peak = _peak_rss_mb()

    width = float(np.mean([a["mono_hi"][-1] - a["mono_lo"][-1] for a in first.arrays.values()]))
    scalars = {name: getattr(report, name) for name in PE_FIELDS}
    scalars["width_final_mean"] = width
    observed = {
        "modes": {label: checks.checkpoints(a) for label, a in first.arrays.items()},
        "scalars": scalars,
    }
    entry = checks.reference_entry(reference, workload, seed, asdict(size))
    if entry is not None:
        bad = checks.mismatches(entry, observed)
        if bad:
            outcome.fail(slice(None), f"stored outputs differ: {', '.join(bad)}")

    steps = size.stream_samples * len(STREAM_MODES)
    metrics = {
        "steps_per_s": (steps / float(np.median(passes_s)), "1/s"),
        "peak_rss_mb": (peak, "MB"),
        "width_final_mean": (width, "1"),
    }
    counts = {"steps_per_s": len(passes_s)}

    layers, tracer = None, None
    if trace:
        tracer = Tracer()
        with tracer:
            ivrls.simulate.generate_lti(config, seed)
            dataset, report, outputs, _ = _stream_pass(log_path, out_dir, tracer)
        _check_stream_pass(dataset, truth_dataset, report, outputs, out_dir, first, outcome)
        layers = layer_metrics(tracer, samples=size.stream_samples, steps=steps,
                               horizon=size.stream_samples)
        untraced = _window_min(np.min(latencies, axis=0))
        traced = _window_min(tracer.durations("bench.sample") / 1e9)
        layers.update(_sample_latency(untraced))
        layers["trace.overhead"] = (traced.sum() / untraced.sum(), "ratio")
        counts.update(sample_us_p50=size.stream_samples, sample_us_p99=size.stream_samples)
    return Result(metrics, counts, outcome, observed, clock, layers, tracer)


def _window_min(fastest_s):
    """Each sample's fastest time among itself and its neighbours.

    A step's cost changes by well under 1% across LATENCY_WINDOW
    consecutive samples, while a slow spell of the host lasts far longer
    than one sample, so the window keeps spells out of p99 without hiding
    how the cost grows along the stream.
    """
    window = np.lib.stride_tricks.sliding_window_view(
        np.pad(fastest_s, LATENCY_WINDOW // 2, mode="edge"), LATENCY_WINDOW)
    return window.min(axis=1)


def _sample_latency(latency_s):
    """Percentiles of one sample's latency through both estimators (untraced)."""
    return {
        "sample_us_p50": (float(np.percentile(latency_s, 50)) * 1e6, "us"),
        "sample_us_p99": (float(np.percentile(latency_s, 99)) * 1e6, "us"),
    }


# ------------------------------------------------------------ per layer

# span name -> (metric, statistic, scale, unit); statistic is "mean" (total
# time per call), "self" (self time per call) or "sum" (total time per pass).
_LAYER_STATS = {
    "rls.step": ("rls.step_us", "mean", 1e3, "us"),
    "intervals.box": ("intervals.box_us", "mean", 1e3, "us"),
    "ltv.drift_box": ("ltv.drift_box_us", "mean", 1e3, "us"),
    "experiment.run_dataset": ("experiment.run_dataset_self_ms", "self", 1e6, "ms"),
    "experiment.run_experiment": ("experiment.run_experiment_self_ms", "self", 1e6, "ms"),
    "simulate.generate": ("simulate.generate_ms", "mean", 1e6, "ms"),
    "data.read": ("data.read_s", "sum", 1e9, "s"),
    "data.write": ("data.write_s", "sum", 1e9, "s"),
    "pe.analyze": ("pe.analyze_s", "mean", 1e9, "s"),
    "pe.levels": ("pe.levels_s", "mean", 1e9, "s"),
    "cli.main": ("cli.main_self_ms", "self", 1e6, "ms"),
}


ESTIMATOR_STEPS = ("lti.step", "ltv.step")


def _step_indices(tracer) -> dict:
    """Time index of every estimator step span, keyed by span index.

    On the stream each sample is a ``bench.sample`` span tagged with its
    index.  A Monte Carlo run is one trace that steps each mode through
    the whole horizon, so the k-th step of a mode in a trace is step k.
    """
    seen: dict = {}
    index = {}
    for idx, name in enumerate(tracer.names):
        if name not in ESTIMATOR_STEPS:
            continue
        parent = tracer.parent[idx]
        if parent >= 0 and tracer.names[parent] == "bench.sample":
            index[idx] = tracer.tags[parent]
        else:
            key = (tracer.trace_id[idx], name, tracer.tags[idx])
            index[idx] = seen.get(key, 0)
            seen[key] = index[idx] + 1
    return index


def _estimator_metrics(tracer, own, horizon: int) -> dict:
    """Estimator step metrics that every workload has, whichever class steps.

    Self time (without identifier and box construction) of exact and of
    windowed steps, of exact steps over the first and the last tenth of
    the horizon (how the O(t) history scales), and percentiles of the
    whole step's duration over every mode.
    """
    index = _step_indices(tracer)
    tenth = max(1, horizon // 10)
    exact, windowed, head, tail, whole = [], [], [], [], []
    for idx, t in index.items():
        whole.append(tracer.end[idx] - tracer.start[idx])
        if tracer.tags[idx] != "exact":
            windowed.append(own[idx])
            continue
        exact.append(own[idx])
        if t < tenth:
            head.append(own[idx])
        elif t >= horizon - tenth:
            tail.append(own[idx])
    if not (exact and windowed and head and tail):
        return {}
    return {
        "estimator.step_self_us.exact": (float(np.mean(exact)) / 1e3, "us"),
        "estimator.step_self_us.windowed": (float(np.mean(windowed)) / 1e3, "us"),
        "estimator.step_self_us.exact.head": (float(np.mean(head)) / 1e3, "us"),
        "estimator.step_self_us.exact.tail": (float(np.mean(tail)) / 1e3, "us"),
        "estimator.step_us_p50": (float(np.percentile(whole, 50)) / 1e3, "us"),
        "estimator.step_us_p99": (float(np.percentile(whole, 99)) / 1e3, "us"),
    }


def layer_metrics(tracer, samples: int, steps: int, horizon: int) -> dict:
    """Per-layer metrics of one traced pass over `samples` samples.

    steps counts estimator steps (samples x modes); horizon is the length
    of one run.  Estimator steps are also split by radius mode; their self
    time excludes the identifier and box construction they call.
    """
    own = tracer.self_times()
    agg: dict = {}
    data_bytes = 0
    for idx, name in enumerate(tracer.names):
        key = name
        if name in ESTIMATOR_STEPS:
            key = f"{name}.{tracer.tags[idx]}"
        elif name in ("data.read", "data.write"):
            data_bytes += os.path.getsize(tracer.tags[idx])
        stat = agg.setdefault(key, [0, 0, 0])
        stat[0] += 1
        stat[1] += tracer.end[idx] - tracer.start[idx]
        stat[2] += own[idx]

    metrics = _estimator_metrics(tracer, own, horizon)
    for key, (count, total, self_ns) in agg.items():
        if key.startswith(("lti.step.", "ltv.step.")):
            layer, _, mode = key.rpartition(".")
            metrics[f"{layer}_self_us.{mode}"] = (self_ns / count / 1e3, "us")
        elif key in _LAYER_STATS:
            metric, stat, scale, unit = _LAYER_STATS[key]
            value = {"mean": total / count, "self": self_ns / count, "sum": total}[stat]
            metrics[metric] = (value / scale, unit)
    if "rls.step" in agg:
        metrics["rls.calls_per_sample"] = (agg["rls.step"][0] / samples, "count")
    if "intervals.box" in agg:
        metrics["intervals.boxes_per_step"] = (agg["intervals.box"][0] / steps, "count")
    if data_bytes:
        metrics["data.bytes"] = (float(data_bytes), "B")
    return metrics


def run_workload(workload, seed, size, seconds, trace, workdir, reference,
                 between_passes=lambda: None):
    """Run one workload; between_passes is called after every timed pass."""
    runner = run_stream if workload == "stream_long" else run_study
    return runner(workload, seed, size, seconds, trace, workdir, reference, between_passes)
