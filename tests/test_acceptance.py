"""Acceptance gate: thirteen end-to-end guarantees, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.  Every numeric tolerance is stated inline next to the
assertion it guards.
"""

import functools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from ivrls.experiment import (
    CONTAINMENT_SLACK,
    estimator_config,
    lambda_sweep,
    run_dataset,
    run_experiment,
)
from ivrls.intervals import IntervalVector, from_center_radius
from ivrls.lti import EstimatorConfig, LtiIntervalEstimator
from ivrls.pe import (
    analyze,
    asymptotic_radius_bound,
    contraction_constants,
    gamma_bounds,
    iss_envelope,
    pe_levels,
)
from ivrls.rls import RlsConfig
from ivrls.simulate import REFERENCE_LTV, REFERENCE_THETA, SimConfig, generate_lti

from helpers import batch_rls, collect_run, phi_product, study_with_traces, vertex_oracle

SEED = 20260823
THETA = np.array(REFERENCE_THETA)
STUDY = SimConfig(
    runs=100,
    horizon=200,
    seed=SEED,
    lam=0.99,
    p0_scale=1000.0,
    prior_radius=4.0,
    modes=(20, 50, None),
    monotonic=True,
)


def criterion(num, label):
    """Print exactly one [criterion NN] PASS/FAIL line per test."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] FAIL  {label}")
                raise
            print(f"[criterion {num:02d}] PASS  {label}")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def reference_study():
    start = time.perf_counter()
    result, traces = study_with_traces(STUDY)
    elapsed = time.perf_counter() - start
    return result, traces, elapsed


def study_rls():
    return RlsConfig(theta0=np.zeros(4), P0=1000.0 * np.eye(4), lam=0.99)


def certified_gammas(X, lam=0.99, P0=None, T=8):
    if P0 is None:
        P0 = 1000.0 * np.eye(4)
    alpha, beta = pe_levels(X, T)
    assert alpha > 0.0, "input not persistently exciting at this window"
    g1, g2, _, _ = gamma_bounds(X, T, lam, P0, alpha, beta)
    return g1, g2


def boxes_contain(lower, upper, theta, slack=CONTAINMENT_SLACK):
    return bool(
        np.all(lower - slack <= theta) and np.all(theta <= upper + slack)
    )


@criterion(1, "true parameter inside every box, constant plant, 100 runs")
def test_criterion_01_containment_lti(reference_study):
    result, traces, elapsed = reference_study
    assert len(result.audits) == 100 * 3
    for audit in result.audits:
        assert audit.raw_contained, f"raw escape: run {audit.run} {audit.label}"
        assert audit.refined_contained, (
            f"refined escape: run {audit.run} {audit.label}"
        )
        assert audit.inconsistent_steps == 0
    # same raw boxes with refinement switched off, checked on two runs
    off = replace(STUDY, monotonic=False)
    for run in (0, 1):
        ds = generate_lti(STUDY, seed=SEED + run)
        for trace, ref in zip(run_dataset(ds, off), traces[run]):
            np.testing.assert_array_equal(trace.lower, ref.lower)
            np.testing.assert_array_equal(trace.upper, ref.upper)
            assert trace.mono_lower is None
            assert all(
                boxes_contain(lo, hi, THETA)
                for lo, hi in zip(trace.lower, trace.upper)
            )
    assert elapsed < 30.0, f"100-run study took {elapsed:.1f}s (budget 30s)"


@criterion(2, "exact radius never above any windowed radius, 20 runs")
def test_criterion_02_truncation_is_outer():
    config = replace(
        STUDY, runs=20, modes=(None, 10, 20, 50), monotonic=False
    )
    _, traces = study_with_traces(config)
    for run_traces in traces:
        by_label = {tr.label: tr for tr in run_traces}
        exact = by_label["exact"]
        for label in ("m10", "m20", "m50"):
            gap = exact.radius - by_label[label].radius
            assert np.all(gap <= 1e-9), (
                f"{label}: exact radius above windowed by {gap.max():.3e}"
            )


@criterion(3, "window equal to the horizon reproduces exact radii")
def test_criterion_03_degenerate_window():
    config = replace(STUDY, modes=(200, None), monotonic=False)
    for run in range(3):
        ds = generate_lti(config, seed=SEED + run)
        full, exact = run_dataset(ds, config)
        rel = np.abs(full.radius - exact.radius) / np.maximum(
            exact.radius, 1e-300
        )
        assert rel.max() <= 1e-9, f"run {run}: rel gap {rel.max():.3e}"


@criterion(4, "estimator boxes equal brute-force vertex enumeration")
def test_criterion_04_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    n = 2
    prior = from_center_radius(np.zeros(n), np.full(n, 3.0))
    for _ in range(50):
        t = int(rng.integers(1, 9))
        theta = rng.uniform(-1.0, 1.0, size=n)
        X = rng.normal(size=(t, n))
        v = rng.uniform(-0.15, 0.25, size=t)
        y = X @ theta + v
        v_bounds = np.column_stack([np.full(t, -0.15), np.full(t, 0.25)])
        rls = RlsConfig(theta0=np.zeros(n), P0=10.0 * np.eye(n), lam=0.95)
        est = LtiIntervalEstimator(EstimatorConfig(rls=rls, theta_prior=prior))
        for k in range(t):
            out = est.step(X[k], y[k], -0.15, 0.25)
        ref = vertex_oracle(X, y, v_bounds, prior, rls)
        np.testing.assert_allclose(out.raw.lower, ref.lower, atol=1e-10)
        np.testing.assert_allclose(out.raw.upper, ref.upper, atol=1e-10)
    for _ in range(50):
        t = int(rng.integers(1, 7))
        theta = rng.uniform(-1.0, 1.0, size=n)
        X = rng.normal(size=(t, n))
        v = rng.uniform(-0.2, 0.2, size=t)
        v_bounds = np.column_stack([np.full(t, -0.2), np.full(t, 0.2)])
        drifts = [
            from_center_radius(
                rng.uniform(-0.01, 0.01, size=n), rng.uniform(0.0, 0.02, size=n)
            )
            for _ in range(t)
        ]
        y = np.empty(t)
        cur = theta.copy()
        rls = RlsConfig(theta0=np.zeros(n), P0=10.0 * np.eye(n), lam=0.9)
        est = LtiIntervalEstimator(EstimatorConfig(rls=rls, theta_prior=prior))
        for k in range(t):
            cur = cur + drifts[k].center
            y[k] = X[k] @ cur + v[k]
            out = est.step(X[k], y[k], -0.2, 0.2, drifts[k])
        ref = vertex_oracle(X, y, v_bounds, prior, rls, drifts)
        np.testing.assert_allclose(out.raw.lower, ref.lower, atol=1e-10)
        np.testing.assert_allclose(out.raw.upper, ref.upper, atol=1e-10)


@criterion(5, "identifier certificates: batch equality and error envelopes")
def test_criterion_05_identifier_certificates():
    # recursion vs weighted normal equations, 1e-7 relative, t <= 30
    ds = generate_lti(STUDY, seed=SEED)
    cfg = study_rls()
    thetas, _, _, _ = collect_run(cfg, ds.X, ds.y)
    for t in range(1, 31):
        ref, _ = batch_rls(ds.X, ds.y, cfg.lam, cfg.theta0, cfg.P0, t)
        # the first regressor is all zeros, so both estimates are exactly
        # the prior there; floor the scale to keep the ratio defined
        scale = max(np.linalg.norm(ref), 1.0)
        rel = np.linalg.norm(thetas[t - 1] - ref) / scale
        assert rel <= 1e-7, f"t={t}: relative gap {rel:.3e}"

    # decaying-plus-driven envelope on 20 noisy runs (squared norms)
    e0 = np.linalg.norm(THETA)
    for run in range(20):
        ds = generate_lti(STUDY, seed=SEED + run)
        thetas, _, _, _ = collect_run(cfg, ds.X, ds.y)
        g1, _ = certified_gammas(ds.X)
        for t in range(1, 201):
            bound = iss_envelope(t, 0.99, 1.0 / 1000.0, g1, e0, ds.v)
            err2 = float(np.sum((thetas[t - 1] - THETA) ** 2))
            assert err2 <= bound * (1.0 + 1e-9), (
                f"run {run} t={t}: {err2:.6e} > {bound:.6e}"
            )

    # noise-free: purely decaying envelope, then near-exact recovery
    quiet = replace(STUDY, horizon=100, noise_half_width=0.0)
    ds0 = generate_lti(quiet, seed=SEED)
    for p0_scale in (1000.0, 1e6):
        cfg0 = RlsConfig(theta0=np.zeros(4), P0=p0_scale * np.eye(4), lam=0.99)
        thetas, _, _, _ = collect_run(cfg0, ds0.X, ds0.y)
        g1, _ = certified_gammas(ds0.X, P0=cfg0.P0)
        zeros = np.zeros(100)
        for t in range(1, 101):
            bound = iss_envelope(t, 0.99, 1.0 / p0_scale, g1, e0, zeros)
            err2 = float(np.sum((thetas[t - 1] - THETA) ** 2))
            assert err2 <= bound * (1.0 + 1e-9)
    # the final-accuracy check needs the nearly uninformative prior;
    # the prior-induced bias alone exceeds 1e-6 at P0 = 1e3 I
    final_err = float(np.linalg.norm(thetas[99] - THETA))
    assert final_err < 1e-6, f"|theta(100) - truth| = {final_err:.3e}"


@criterion(6, "information matrix stays inside the certified eigenvalue band")
def test_criterion_06_information_band():
    for run in range(5):
        ds = generate_lti(STUDY, seed=SEED + run)
        g1, g2 = certified_gammas(ds.X)
        Pinv = np.linalg.inv(1000.0 * np.eye(4))
        for x in ds.X:
            Pinv = 0.99 * Pinv + np.outer(x, x)
            Pinv = 0.5 * (Pinv + Pinv.T)
            eigs = np.linalg.eigvalsh(Pinv)
            assert eigs[0] >= g1 * (1.0 - 1e-8), (
                f"run {run}: eig {eigs[0]:.3e} below {g1:.3e}"
            )
            assert eigs[-1] <= g2 * (1.0 + 1e-8), (
                f"run {run}: eig {eigs[-1]:.3e} above {g2:.3e}"
            )


@criterion(7, "transition products decay under the certified envelope")
def test_criterion_07_transition_decay():
    rng = np.random.default_rng(SEED + 7)
    cfg = study_rls()
    for run in range(5):
        ds = generate_lti(STUDY, seed=SEED + run)
        _, _, As, _ = collect_run(cfg, ds.X, ds.y)
        g1, g2 = certified_gammas(ds.X)
        c, rho = contraction_constants(4, g1, g2, 0.99)
        for _ in range(100):
            t0 = int(rng.integers(0, 200))
            t = int(rng.integers(t0, 201))
            norm = np.linalg.norm(phi_product(As, t, t0))
            assert norm <= c * rho ** (t - t0) + 1e-8, (
                f"run {run}: |Phi({t},{t0})| = {norm:.4e} "
                f"above {c * rho ** (t - t0):.4e}"
            )


@criterion(8, "intersected widths never increase, bitwise, every run")
def test_criterion_08_monotone_widths(reference_study):
    _, traces, _ = reference_study
    for run_traces in traces:
        for trace in run_traces:
            widths = trace.mono_upper - trace.mono_lower
            steps = np.diff(widths, axis=0)
            assert np.all(steps <= 0.0), (
                f"{trace.label}: width grew by {steps.max():.3e}"
            )


@criterion(9, "smaller forgetting factor gives narrower final boxes")
def test_criterion_09_forgetting_sweep():
    fast, slow = lambda_sweep(replace(STUDY, modes=(None,)), (0.3, 0.99))
    assert (fast.lam, fast.label, slow.lam, slow.label) == (0.3, "exact", 0.99, "exact")
    w_fast, w_slow = fast.final_width[0], slow.final_width[0]
    assert w_fast < w_slow, f"width {w_fast:.4f} !< {w_slow:.4f}"


@criterion(10, "longer windows give tighter averaged final widths")
def test_criterion_10_window_ordering(reference_study):
    result, _, _ = reference_study

    def final_width(label):
        avg = result.averages[label]
        return avg.upper[-1, 0] - avg.lower[-1, 0]

    w20, w50, wex = final_width("m20"), final_width("m50"), final_width("exact")
    assert w20 >= w50 >= wex, f"ordering broken: {w20:.4f}, {w50:.4f}, {wex:.4f}"


@criterion(11, "windowed radii stay bounded over a 5000-step run")
def test_criterion_11_long_horizon_boundedness():
    config = replace(STUDY, horizon=5000, modes=(50,), monotonic=False)
    ds = generate_lti(config, seed=SEED + 777)
    (trace,) = run_dataset(ds, config)
    norms = np.linalg.norm(trace.radius, axis=1)
    early = norms[199:1200].max()
    late = norms[3999:5000].max()
    assert late <= early * 1.01, f"late/early = {late / early:.4f} > 1.01"

    report = analyze(ds.X, 0.99, 1000.0 * np.eye(4), T=8, noise_radius=0.2)
    assert report.is_pe
    # the certificate needs a window past the threshold horizon; evaluate
    # the limsup bound at the smallest covered window
    m_eval = max(50, math.ceil(report.m_star) + 1)
    limsup, _ = asymptotic_radius_bound(
        report.c, report.rho, report.eta_q, report.eta_v, m_eval
    )
    transient = report.c * float(np.linalg.norm(np.full(4, 4.0)))
    assert norms.max() <= limsup + transient, (
        f"max radius {norms.max():.3e} above {limsup + transient:.3e}"
    )


@criterion(12, "drifting-parameter containment and zero-drift reduction")
def test_criterion_12_drifting_parameters():
    config = replace(REFERENCE_LTV, seed=SEED + 5)
    result = run_experiment(config)
    assert len(result.audits) == 100 * 2
    for audit in result.audits:
        assert audit.raw_contained, f"raw escape: run {audit.run} {audit.label}"
        assert audit.refined_contained
        assert audit.inconsistent_steps == 0

    # zero drift must collapse to the constant-parameter estimator
    ds = generate_lti(STUDY, seed=SEED)
    zero = IntervalVector(np.zeros(4), np.zeros(4))
    ecfg = estimator_config(4, 0.99, 1000.0, 4.0, m=None, monotonic=True)
    plain_est = LtiIntervalEstimator(ecfg)
    drift_est = LtiIntervalEstimator(ecfg)
    for i in range(ds.N):
        a = plain_est.step(ds.X[i], ds.y[i], ds.v_low[i], ds.v_high[i])
        b = drift_est.step(ds.X[i], ds.y[i], ds.v_low[i], ds.v_high[i], zero)
        for box_a, box_b in ((a.raw, b.raw), (a.refined, b.refined)):
            assert np.abs(box_a.lower - box_b.lower).max() <= 1e-12
            assert np.abs(box_a.upper - box_b.upper).max() <= 1e-12


@criterion(13, "byte-identical rerun, serial and parallel, both plants")
def test_criterion_13_determinism(tmp_path):
    from ivrls.cli import main

    def files(out):
        return sorted(p for p in out.iterdir() if p.suffix == ".csv")

    base = ["--seed", "11", "--runs", "4", "--horizon", "50",
            "--modes", "exact,10", "--write-datasets"]
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["simulate-lti", "--out", str(a), *base]) == 0
    assert main(["simulate-lti", "--out", str(b), *base]) == 0
    assert main(["simulate-lti", "--out", str(c), *base, "--workers", "2"]) == 0
    names = [p.name for p in files(a)]
    assert "dataset_run000.csv" in names and "audit.csv" in names
    for other in (b, c):
        assert [p.name for p in files(other)] == names
        for name in names:
            assert (a / name).read_bytes() == (other / name).read_bytes(), name

    ltv = ["--seed", "11", "--runs", "4", "--horizon", "50"]
    d, e = tmp_path / "d", tmp_path / "e"
    assert main(["simulate-ltv", "--out", str(d), *ltv]) == 0
    assert main(["simulate-ltv", "--out", str(e), *ltv, "--workers", "2"]) == 0
    for name in [p.name for p in files(d)]:
        assert (d / name).read_bytes() == (e / name).read_bytes(), name
