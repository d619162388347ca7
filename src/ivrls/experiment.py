"""Monte Carlo driver: repeated runs, containment audits, averaged outputs.

Averaging convention: bounds are averaged componentwise across runs at
each time step.  An averaged bound carries no containment guarantee of
its own, so containment is audited per run, against that run's true
trajectory, before anything is averaged; the audit travels with the
results.  Per-run seeds are seed + run_index, so a study is fully
reproducible from (config, seed) regardless of worker count.

A study takes each run's traces in run order as the run finishes and adds
them into per-mode sums, so it holds one run's traces at a time and its
memory does not grow with the number of runs.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from dataclasses import dataclass, fields, replace
from functools import partial
from operator import add, sub

import numpy as np

from .data import Dataset, _write_table, write_estimates_csv
from .intervals import IntervalVector, _halves, _within, from_center_radius
from .lti import EstimatorConfig, EstimatorSpec, _run_modes
from .rls import RlsConfig
from .simulate import SimConfig, generate_lti, generate_ltv

__all__ = [
    "CONTAINMENT_SLACK",
    "ModeTrace",
    "RunAudit",
    "ExperimentResult",
    "SweepRow",
    "estimator_config",
    "mode_label",
    "run_dataset",
    "run_experiment",
    "lambda_sweep",
    "estimate_from_csv",
    "write_experiment",
    "write_sweep",
]

CONTAINMENT_SLACK = 1e-9


def mode_label(m) -> str:
    return "exact" if m is None else f"m{int(m)}"


def estimator_config(
    n: int,
    lam: float,
    p0_scale: float,
    prior_radius: float,
    m=None,
    monotonic: bool = False,
) -> EstimatorConfig:
    """Standard study setup: theta(0) = 0, P(0) = p0_scale I, prior box
    [-prior_radius, prior_radius]^n centered on theta(0)."""
    return EstimatorConfig(
        rls=RlsConfig(theta0=np.zeros(n), P0=p0_scale * np.eye(n), lam=lam),
        theta_prior=from_center_radius(np.zeros(n), np.full(n, float(prior_radius))),
        m=m,
        monotonic=monotonic,
    )


@dataclass(eq=False)
class ModeTrace:
    """Output of one estimator mode, either of a single run, where
    `inconsistent` flags each step 0/1, or averaged across runs, where it
    counts the runs flagged at each step."""

    label: str
    t: np.ndarray
    point: np.ndarray
    center: np.ndarray
    radius: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    mono_lower: np.ndarray | None
    mono_upper: np.ndarray | None
    inconsistent: np.ndarray

    @property
    def final_width(self) -> np.ndarray:
        """Width of the last box: the refined one where refinement ran."""
        if self.mono_lower is None:
            return self.upper[-1] - self.lower[-1]
        return self.mono_upper[-1] - self.mono_lower[-1]


@dataclass(eq=False)
class RunAudit:
    run: int
    seed: int
    label: str
    raw_contained: bool
    refined_contained: bool | None
    inconsistent_steps: int

    @property
    def contained(self) -> bool:
        """The run's verdict: the raw box held and the refined box did not fail."""
        return self.raw_contained and self.refined_contained is not False


@dataclass(eq=False)
class ExperimentResult:
    """Every run's audits, and each mode's averaged trace by label, in mode order."""

    averages: dict
    audits: list

    @property
    def all_contained(self) -> bool:
        return all(a.contained for a in self.audits)


def run_dataset(dataset: Dataset, spec: EstimatorSpec) -> list[ModeTrace]:
    """Apply every mode of the spec to one dataset, in row order.

    `lti._run_modes` steps the modes on one per-sample stage, so each
    sample goes through RLS and the center recursion once.  A run of drift
    rows with the same bits shares one drift box, which the stage takes
    apart once.  The estimates' bound arrays are copied into the traces
    without building box objects.
    """
    n, N = dataset.n, dataset.N
    drifts = [None] * N
    if dataset.is_ltv:
        lo, hi = dataset.delta_low, dataset.delta_high
        bits = np.hstack((lo, hi)).view(np.int64)
        new = np.ones(N, dtype=bool)
        new[1:] = np.any(bits[1:] != bits[:-1], axis=1)
        boxes = []
        for s in np.flatnonzero(new).tolist():
            try:
                boxes.append(IntervalVector(lo[s], hi[s]))
            except ValueError as exc:
                raise ValueError(f"step {s + 1}: drift {exc}") from None
        drifts = [boxes[j] for j in (np.cumsum(new) - 1).tolist()]
    base = estimator_config(n, spec.lam, spec.p0_scale, spec.prior_radius, None, spec.monotonic)
    shape = (N, n)
    mono = spec.monotonic
    point = np.zeros(shape)  # the same for every mode: read off the shared stage
    traces = [
        ModeTrace(
            label=mode_label(m),
            t=dataset.t.copy(),
            point=point,
            center=np.zeros(shape),
            radius=np.zeros(shape),
            lower=np.zeros(shape),
            upper=np.zeros(shape),
            mono_lower=np.zeros(shape) if mono else None,
            mono_upper=np.zeros(shape) if mono else None,
            inconsistent=np.zeros(N, dtype=int),
        )
        for m in spec.modes
    ]
    samples = zip(dataset.X, dataset.y.tolist(), dataset.v_low.tolist(),
                  dataset.v_high.tolist(), drifts)
    for i, outs in enumerate(_run_modes(base, spec.modes, samples)):
        for out, trace in zip(outs, traces):
            trace.lower[i] = out.lower
            trace.upper[i] = out.upper
            if mono:
                trace.mono_lower[i] = out.refined.lower
                trace.mono_upper[i] = out.refined.upper
            trace.inconsistent[i] = out.inconsistent
        point[i] = out.point
    for trace in traces:
        trace.center[:] = _halves(add, trace.upper, trace.lower)
        trace.radius[:] = _halves(sub, trace.upper, trace.lower)
    return traces


def _audit_trace(trace: ModeTrace, truth: np.ndarray, run: int, seed: int) -> RunAudit:
    s = CONTAINMENT_SLACK
    return RunAudit(
        run=run,
        seed=seed,
        label=trace.label,
        raw_contained=_within(trace.lower, trace.upper, truth, s),
        refined_contained=None
        if trace.mono_lower is None
        else _within(trace.mono_lower, trace.mono_upper, truth, s),
        inconsistent_steps=int(trace.inconsistent.sum()),
    )


def _replicate(config: SimConfig, dataset_dir, run: int):
    seed = config.seed + run
    dataset = generate_ltv(config, seed) if config.is_ltv else generate_lti(config, seed)
    if dataset_dir is not None:
        dataset.to_csv(os.path.join(dataset_dir, f"dataset_run{run:03d}.csv"))
    traces = run_dataset(dataset, config)
    audits = [_audit_trace(tr, dataset.theta_true, run, seed) for tr in traces]
    return traces, audits


def run_experiment(config: SimConfig, *, dataset_dir=None) -> ExperimentResult:
    """Run the configured study across all seeds and average the outputs.

    With `dataset_dir` (an existing directory), each run writes its dataset
    there as dataset_run<run>.csv as soon as it is generated, in the worker
    process of a pooled study.  If a run raises, the datasets already
    written stay.

    Each run's traces are added into per-mode sums as the run finishes, in
    run order, and the sums are divided once at the end: the componentwise
    mean, bit for bit.  The `inconsistent` flags are summed into per-step
    counts.
    """
    worker = partial(_replicate, config, dataset_dir)
    runs = range(config.runs)
    sums, audits = None, []
    with ExitStack() as stack:
        results = map(worker, runs)
        if config.workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # pooled studies only
            max_workers = min(config.workers, os.cpu_count() or 1, config.runs)
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=max_workers))
            results = pool.map(worker, runs, chunksize=4)
        for traces, run_audits in results:
            audits.extend(run_audits)
            if sums is None:
                # the first run's arrays start the sums, as they start
                # np.mean's reduction, so a -0.0 in every run stays -0.0;
                # copied, so no trace run_dataset returned is written to
                sums = [replace(tr, t=tr.t.copy(), **{k: a.copy() for k, a in _summed(tr).items()})
                        for tr in traces]
            else:
                for total, tr in zip(sums, traces):
                    for k, a in _summed(total).items():
                        a += getattr(tr, k)
    for total in sums:
        for k, a in _summed(total).items():
            if k != "inconsistent":
                a /= config.runs
    return ExperimentResult(averages={avg.label: avg for avg in sums}, audits=audits)


def _summed(trace: ModeTrace) -> dict:
    """The arrays a study sums across runs, by field name."""
    return {f.name: getattr(trace, f.name) for f in fields(ModeTrace)
            if f.name not in ("label", "t") and getattr(trace, f.name) is not None}


@dataclass(eq=False)
class SweepRow:
    lam: float
    label: str
    final_width: np.ndarray


def lambda_sweep(config: SimConfig, lambdas) -> list[SweepRow]:
    """Forgetting-factor study: a row per lambda and mode, lambda-major.

    Monotonic refinement is forced on; the reported width is the
    across-run average of the final refined box width, componentwise.
    Every per-lambda study is configured, and so checked, before any runs;
    a lambda given twice is refused.
    """
    lambdas = tuple(float(l) for l in lambdas)
    for i, lam in enumerate(lambdas):
        if lam in lambdas[:i]:  # its rows would be written twice
            raise ValueError(f"lambda {lam:g} is given more than once")
    studies = [replace(config, lam=lam, monotonic=True) for lam in lambdas]
    return [SweepRow(lam=study.lam, label=label, final_width=avg.final_width)
            for study in studies for label, avg in run_experiment(study).averages.items()]


def write_sweep(rows, path) -> None:
    """Write sweep.csv: lambda, mode and final widths, one line per row."""
    n = rows[0].final_width.shape[0]
    header = ["lambda", "mode"] + [f"width_{i}" for i in range(1, n + 1)]
    _write_table(path, header, list(zip(*((r.lam, r.label, r.final_width) for r in rows))))


def _write_trace(path, trace: ModeTrace, comments=None) -> None:
    """Write a trace: `write_estimates_csv` takes its array fields by name."""
    arrays = {f.name: getattr(trace, f.name) for f in fields(trace) if f.name != "label"}
    write_estimates_csv(path, **arrays, comments=comments)


def write_experiment(result: ExperimentResult, outdir) -> list[str]:
    """Write avg_<mode>.csv per mode plus audit.csv; returns the paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for label, avg in result.averages.items():
        path = os.path.join(outdir, f"avg_{label}.csv")
        _write_trace(path, avg)
        paths.append(path)
    audit_path = os.path.join(outdir, "audit.csv")
    rows = [
        (a.run, a.seed, a.label, a.raw_contained,
         "" if a.refined_contained is None else str(int(a.refined_contained)),
         a.inconsistent_steps)
        for a in result.audits
    ]
    header = ["run", "seed", "mode", "raw_contained", "refined_contained",
              "inconsistent_steps"]
    _write_table(audit_path, header, list(zip(*rows)))
    paths.append(audit_path)
    return paths


def estimate_from_csv(input_path, output_path, spec: EstimatorSpec):
    """Run the spec's one mode over a dataset file and write the estimate CSV.

    The estimator variant follows the file: drift columns present means
    the drift-aware recursion.  When the file carries the true
    trajectory, a containment audit summary is appended as comment lines
    and returned; otherwise returns None.  An exact mode on more samples
    than its cap is refused before any step.  The output's directory is
    made only once the run has passed, so a refused input leaves nothing.
    """
    if len(spec.modes) != 1:
        raise ValueError(f"estimate_from_csv runs one mode, got modes {spec.modes}")
    dataset = Dataset.from_csv(input_path)
    spec._check_horizon(dataset.N)
    trace = run_dataset(dataset, spec)[0]
    audit = comments = None
    if dataset.theta_true is not None:
        audit = _audit_trace(trace, dataset.theta_true, run=0, seed=0)
        refined = "na" if audit.refined_contained is None else int(audit.refined_contained)
        comments = [f"audit raw_contained={int(audit.raw_contained)} refined_contained={refined} "
                    f"inconsistent_steps={audit.inconsistent_steps}"]
    os.makedirs(os.path.dirname(output_path) or os.curdir, exist_ok=True)
    _write_trace(output_path, trace, comments)
    return audit
