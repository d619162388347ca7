"""Monte Carlo driver: repeated runs, containment audits, averaged outputs.

Averaging convention: bounds are averaged componentwise across runs at
each time step.  An averaged bound carries no containment guarantee of
its own, so containment is audited per run, against that run's true
trajectory, before anything is averaged; the audit travels with the
results.  Per-run seeds are seed + run_index, so a study is fully
reproducible from (config, seed) regardless of worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .data import Dataset, write_estimates_csv, _fmt
from .intervals import IntervalVector, from_center_radius
from .lti import EstimatorConfig, LtiIntervalEstimator
from .rls import RlsConfig
from .simulate import SimConfig, generate_lti, generate_ltv

__all__ = [
    "CONTAINMENT_SLACK",
    "ModeTrace",
    "RunAudit",
    "ModeAverage",
    "ExperimentResult",
    "SweepResult",
    "estimator_config",
    "mode_label",
    "run_dataset",
    "run_experiment",
    "lambda_sweep",
    "estimate_from_csv",
    "write_experiment",
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
    """Full single-run output of one estimator mode."""

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


@dataclass(eq=False)
class RunAudit:
    run: int
    seed: int
    label: str
    raw_contained: bool
    refined_contained: bool | None
    inconsistent_steps: int


@dataclass(eq=False)
class ModeAverage:
    label: str
    t: np.ndarray
    point: np.ndarray
    center: np.ndarray
    radius: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    mono_lower: np.ndarray | None
    mono_upper: np.ndarray | None
    inconsistent_counts: np.ndarray


@dataclass(eq=False)
class ExperimentResult:
    config: SimConfig
    averages: list
    audits: list
    traces: list | None = None

    @property
    def all_contained(self) -> bool:
        return all(
            a.raw_contained and (a.refined_contained is not False) for a in self.audits
        )

    def average(self, label: str) -> ModeAverage:
        for avg in self.averages:
            if avg.label == label:
                return avg
        raise KeyError(f"no mode labeled {label!r}")


def run_dataset(dataset: Dataset, config: SimConfig) -> list[ModeTrace]:
    """Apply every configured estimator mode to one dataset, in row order."""
    n = dataset.n
    drifts = [None] * dataset.N
    if dataset.is_ltv:
        drifts = [IntervalVector(*b) for b in zip(dataset.delta_low, dataset.delta_high)]
    traces = []
    for m in config.modes:
        est_cfg = estimator_config(
            n, config.lam, config.p0_scale, config.prior_radius, m, config.monotonic
        )
        est = LtiIntervalEstimator(est_cfg)
        N = dataset.N
        point = np.zeros((N, n))
        center = np.zeros((N, n))
        radius = np.zeros((N, n))
        lower = np.zeros((N, n))
        upper = np.zeros((N, n))
        mono_lower = np.zeros((N, n)) if config.monotonic else None
        mono_upper = np.zeros((N, n)) if config.monotonic else None
        inconsistent = np.zeros(N, dtype=int)
        for i in range(N):
            est_out = est.step(
                dataset.X[i], dataset.y[i], dataset.v_low[i], dataset.v_high[i], drifts[i]
            )
            point[i] = est_out.point
            center[i] = est_out.raw.center
            radius[i] = est_out.raw.radius
            lower[i] = est_out.raw.lower
            upper[i] = est_out.raw.upper
            if config.monotonic:
                mono_lower[i] = est_out.refined.lower
                mono_upper[i] = est_out.refined.upper
            inconsistent[i] = int(est_out.inconsistent)
        traces.append(
            ModeTrace(
                label=mode_label(m),
                t=dataset.t.copy(),
                point=point,
                center=center,
                radius=radius,
                lower=lower,
                upper=upper,
                mono_lower=mono_lower,
                mono_upper=mono_upper,
                inconsistent=inconsistent,
            )
        )
    return traces


def _audit_trace(trace: ModeTrace, truth: np.ndarray, run: int, seed: int) -> RunAudit:
    s = CONTAINMENT_SLACK
    raw_ok = bool(
        np.all(trace.lower - s <= truth) and np.all(truth <= trace.upper + s)
    )
    refined_ok = None
    if trace.mono_lower is not None:
        refined_ok = bool(
            np.all(trace.mono_lower - s <= truth)
            and np.all(truth <= trace.mono_upper + s)
        )
    return RunAudit(
        run=run,
        seed=seed,
        label=trace.label,
        raw_contained=raw_ok,
        refined_contained=refined_ok,
        inconsistent_steps=int(trace.inconsistent.sum()),
    )


def _replicate(config: SimConfig, run: int):
    seed = config.seed + run
    dataset = generate_ltv(config, seed) if config.is_ltv else generate_lti(config, seed)
    traces = run_dataset(dataset, config)
    audits = [_audit_trace(tr, dataset.theta_true, run, seed) for tr in traces]
    return traces, audits


def run_experiment(config: SimConfig, keep_traces: bool = False) -> ExperimentResult:
    """Run the configured study across all seeds and average the outputs."""
    worker = partial(_replicate, config)
    runs = range(config.runs)
    if config.workers > 1:
        max_workers = min(config.workers, os.cpu_count() or 1, config.runs)
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(worker, runs, chunksize=4))
    else:
        results = [worker(run) for run in runs]

    audits = [a for _, run_audits in results for a in run_audits]
    averages = []
    for mode_idx, m in enumerate(config.modes):
        mode_traces = [traces[mode_idx] for traces, _ in results]
        mono = config.monotonic
        averages.append(
            ModeAverage(
                label=mode_label(m),
                t=mode_traces[0].t.copy(),
                point=np.mean([tr.point for tr in mode_traces], axis=0),
                center=np.mean([tr.center for tr in mode_traces], axis=0),
                radius=np.mean([tr.radius for tr in mode_traces], axis=0),
                lower=np.mean([tr.lower for tr in mode_traces], axis=0),
                upper=np.mean([tr.upper for tr in mode_traces], axis=0),
                mono_lower=np.mean([tr.mono_lower for tr in mode_traces], axis=0)
                if mono
                else None,
                mono_upper=np.mean([tr.mono_upper for tr in mode_traces], axis=0)
                if mono
                else None,
                inconsistent_counts=np.sum(
                    [tr.inconsistent for tr in mode_traces], axis=0
                ),
            )
        )
    return ExperimentResult(
        config=config,
        averages=averages,
        audits=audits,
        traces=[traces for traces, _ in results] if keep_traces else None,
    )


@dataclass(eq=False)
class SweepRow:
    lam: float
    label: str
    final_width: np.ndarray


@dataclass(eq=False)
class SweepResult:
    config: SimConfig
    lambdas: tuple
    rows: list

    def final_width(self, lam: float, label: str) -> np.ndarray:
        for row in self.rows:
            if row.lam == lam and row.label == label:
                return row.final_width
        raise KeyError(f"no sweep row for lam={lam}, mode {label!r}")

    def to_csv(self, path) -> None:
        n = self.rows[0].final_width.shape[0]
        header = ["lambda", "mode"] + [f"width_{i}" for i in range(1, n + 1)]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in self.rows:
                cells = [_fmt(row.lam), row.label]
                cells += [_fmt(w) for w in row.final_width]
                fh.write(",".join(cells) + "\n")


def lambda_sweep(config: SimConfig, lambdas) -> SweepResult:
    """Forgetting-factor study: averaged final refined widths per mode.

    Monotonic refinement is forced on; the reported width is the
    across-run average of the final refined box width, componentwise.
    """
    lambdas = tuple(float(l) for l in lambdas)
    rows = []
    for lam in lambdas:
        res = run_experiment(replace(config, lam=lam, monotonic=True))
        for avg in res.averages:
            rows.append(
                SweepRow(
                    lam=lam,
                    label=avg.label,
                    final_width=avg.mono_upper[-1] - avg.mono_lower[-1],
                )
            )
    return SweepResult(config=config, lambdas=lambdas, rows=rows)


def write_experiment(result: ExperimentResult, outdir) -> list[str]:
    """Write avg_<mode>.csv per mode plus audit.csv; returns the paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for avg in result.averages:
        path = os.path.join(outdir, f"avg_{avg.label}.csv")
        write_estimates_csv(
            path,
            avg.t,
            avg.point,
            avg.center,
            avg.radius,
            avg.lower,
            avg.upper,
            mono_lower=avg.mono_lower,
            mono_upper=avg.mono_upper,
            inconsistent=avg.inconsistent_counts,
        )
        paths.append(path)
    audit_path = os.path.join(outdir, "audit.csv")
    with open(audit_path, "w", newline="") as fh:
        fh.write("run,seed,mode,raw_contained,refined_contained,inconsistent_steps\n")
        for a in result.audits:
            refined = "" if a.refined_contained is None else str(int(a.refined_contained))
            fh.write(
                f"{a.run},{a.seed},{a.label},{int(a.raw_contained)},"
                f"{refined},{a.inconsistent_steps}\n"
            )
    paths.append(audit_path)
    return paths


def estimate_from_csv(
    input_path,
    output_path,
    lam: float,
    p0_scale: float,
    prior_radius: float,
    m=None,
    monotonic: bool = True,
):
    """Run one estimator over a dataset file and write the estimate CSV.

    The estimator variant follows the file: drift columns present means
    the drift-aware recursion.  When the file carries the true
    trajectory, a containment audit summary is appended as comment lines
    and returned; otherwise returns None.
    """
    dataset = Dataset.from_csv(input_path)
    config = SimConfig(
        theta_true=tuple(0.0 for _ in range(dataset.n)),
        n_a=dataset.n,
        n_b=0,
        horizon=dataset.N,
        runs=1,
        seed=0,
        lam=lam,
        p0_scale=p0_scale,
        prior_radius=prior_radius,
        modes=(m,),
        monotonic=monotonic,
        drift_radius=None,
    )
    trace = run_dataset(dataset, config)[0]
    audit = None
    comments = None
    if dataset.theta_true is not None:
        audit = _audit_trace(trace, dataset.theta_true, run=0, seed=0)
        refined = "na" if audit.refined_contained is None else str(
            int(audit.refined_contained)
        )
        comments = [
            f"audit raw_contained={int(audit.raw_contained)} "
            f"refined_contained={refined} "
            f"inconsistent_steps={audit.inconsistent_steps}"
        ]
    write_estimates_csv(
        output_path,
        trace.t,
        trace.point,
        trace.center,
        trace.radius,
        trace.lower,
        trace.upper,
        mono_lower=trace.mono_lower,
        mono_upper=trace.mono_upper,
        inconsistent=trace.inconsistent,
        comments=comments,
    )
    return audit
