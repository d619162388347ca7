from dataclasses import replace

import numpy as np
import pytest

from ivrls.experiment import run_dataset
from ivrls.intervals import IntervalVector, from_center_radius
from ivrls.lti import EstimatorConfig, LtiIntervalEstimator
from ivrls.rls import RlsConfig
from ivrls.simulate import (
    REFERENCE_DRIFT_RADIUS,
    REFERENCE_LTV,
    drift_increment,
    generate_ltv,
)

from helpers import random_spd, vertex_oracle


def ltv_sim_config(**kwargs):
    return replace(REFERENCE_LTV, **{"horizon": 150, **kwargs})


def make_config(n=4, lam=0.1, p0=1000.0, prior=4.0, m=None, monotonic=False):
    return EstimatorConfig(
        rls=RlsConfig(theta0=np.zeros(n), P0=p0 * np.eye(n), lam=lam),
        theta_prior=from_center_radius(np.zeros(n), np.full(n, prior)),
        m=m,
        monotonic=monotonic,
    )


def run_on(dataset, config):
    est = LtiIntervalEstimator(config)
    outs = []
    for i in range(dataset.N):
        drift = IntervalVector(dataset.delta_low[i], dataset.delta_high[i])
        outs.append(
            est.step(
                dataset.X[i], dataset.y[i], dataset.v_low[i], dataset.v_high[i], drift
            )
        )
    return est, outs


def test_drift_bounds_validation():
    # drift boxes are plain boxes: inverted or infinite bounds are refused,
    # also when they come from a dataset
    with pytest.raises(ValueError, match="inversion"):
        IntervalVector([0.1, 0.1], [0.2, 0.0])
    ds = generate_ltv(ltv_sim_config(horizon=10), seed=1)
    ds.delta_high[4, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        run_dataset(ds, ltv_sim_config(horizon=10))


def test_step_rejects_wrong_drift_dimension():
    est = LtiIntervalEstimator(make_config(n=2))
    with pytest.raises(ValueError, match="components"):
        est.step(np.zeros(2), 0.0, -0.1, 0.1, IntervalVector([-0.1], [0.1]))


def test_step_rejects_switching_drift():
    drift = IntervalVector([-0.1, -0.1], [0.1, 0.1])
    est = LtiIntervalEstimator(make_config(n=2))
    est.step(np.ones(2), 0.0, -0.1, 0.1, drift)
    with pytest.raises(ValueError, match="step 2: drift box missing"):
        est.step(np.ones(2), 0.0, -0.1, 0.1)
    est = LtiIntervalEstimator(make_config(n=2))
    est.step(np.ones(2), 0.0, -0.1, 0.1)
    est.step(np.ones(2), 0.0, -0.1, 0.1)
    with pytest.raises(ValueError, match="step 3: drift box given"):
        est.step(np.ones(2), 0.0, -0.1, 0.1, drift)
    # the refused step leaves the estimator where it was
    assert est.t == 2 and est._identifier.live == 2 + 2


def test_a_refused_drifting_step_leaves_the_refinement_untranslated():
    # a drift box offered with a refused step, the first one (bad x) or a
    # later one (the stage is drift-less), moves no later refined box
    drift = IntervalVector([1.0, 1.0], [2.0, 2.0])
    rng = np.random.default_rng(5)
    X, y = rng.normal(size=(6, 2)), rng.normal(size=6)

    def run(refuse_at=None):
        est = LtiIntervalEstimator(make_config(n=2, monotonic=True))
        outs = []
        for k in range(6):
            if k == refuse_at:
                with pytest.raises(ValueError):
                    est.step([np.nan, 0.0] if k == 0 else X[k], y[k], -0.1, 0.1, drift)
            outs.append(est.step(X[k], y[k], -0.1, 0.1))
        return outs

    expected = run()
    for refuse_at in (0, 3):
        for out, ref in zip(run(refuse_at), expected):
            assert out.refined.lower.tobytes() == ref.refined.lower.tobytes()
            assert out.refined.upper.tobytes() == ref.refined.upper.tobytes()


def test_zero_drift_reduces_to_lti():
    # with a degenerate drift box the augmented recursion must reproduce
    # the constant-parameter estimator to roundoff
    rng = np.random.default_rng(3)
    n, N = 3, 80
    X = rng.normal(size=(N, n))
    y = rng.normal(size=N)
    zero = IntervalVector(np.zeros(n), np.zeros(n))
    for m in (None, 10):
        cfg = EstimatorConfig(
            rls=RlsConfig(theta0=np.zeros(n), P0=50.0 * np.eye(n), lam=0.9),
            theta_prior=from_center_radius(np.zeros(n), np.full(n, 2.0)),
            m=m,
            monotonic=True,
        )
        plain = LtiIntervalEstimator(cfg)
        drifting = LtiIntervalEstimator(cfg)
        for k in range(N):
            a = plain.step(X[k], y[k], -0.2, 0.3)
            b = drifting.step(X[k], y[k], -0.2, 0.3, zero)
            for pair in ((a.raw, b.raw), (a.refined, b.refined)):
                assert np.max(np.abs(pair[0].lower - pair[1].lower)) <= 1e-12
                assert np.max(np.abs(pair[0].upper - pair[1].upper)) <= 1e-12


def test_oracle_methods_agree():
    rng = np.random.default_rng(7)
    for trial in range(10):
        n, t = 2, 4  # vertex dimension 2 + 4*3 = 14, still enumerable
        rls_cfg = RlsConfig(
            theta0=rng.normal(size=n),
            P0=random_spd(rng, n),
            lam=float(rng.uniform(0.4, 0.95)),
        )
        prior = from_center_radius(rng.normal(size=n), 0.3 + rng.random(n))
        X = rng.normal(size=(t, n))
        y = rng.normal(size=t)
        vb = np.sort(rng.normal(scale=0.3, size=(t, 2)), axis=1)
        drifts = [
            from_center_radius(rng.normal(scale=0.05, size=n), rng.random(n) * 0.1)
            for _ in range(t)
        ]
        enum = vertex_oracle(X, y, vb, prior, rls_cfg, drifts, method="enumerate")
        rows = vertex_oracle(X, y, vb, prior, rls_cfg, drifts, method="rowsign")
        np.testing.assert_allclose(enum.lower, rows.lower, atol=1e-12, rtol=0)
        np.testing.assert_allclose(enum.upper, rows.upper, atol=1e-12, rtol=0)


def test_estimator_matches_oracle():
    rng = np.random.default_rng(11)
    for trial in range(10):
        n, t = 2, 6
        rls_cfg = RlsConfig(
            theta0=rng.normal(size=n),
            P0=random_spd(rng, n),
            lam=float(rng.uniform(0.4, 0.95)),
        )
        prior = from_center_radius(rng.normal(size=n), 0.3 + rng.random(n))
        X = rng.normal(size=(t, n))
        y = rng.normal(size=t)
        vb = np.sort(rng.normal(scale=0.3, size=(t, 2)), axis=1)
        drifts = [
            from_center_radius(rng.normal(scale=0.05, size=n), rng.random(n) * 0.1)
            for _ in range(t)
        ]
        est = LtiIntervalEstimator(EstimatorConfig(rls=rls_cfg, theta_prior=prior))
        for k in range(t):
            out = est.step(X[k], y[k], vb[k, 0], vb[k, 1], drifts[k])
            box = vertex_oracle(
                X[: k + 1], y[: k + 1], vb[: k + 1], prior, rls_cfg, drifts[: k + 1]
            )
            np.testing.assert_allclose(out.raw.lower, box.lower, atol=1e-10, rtol=0)
            np.testing.assert_allclose(out.raw.upper, box.upper, atol=1e-10, rtol=0)


def test_oracle_zero_drift_matches_lti_oracle():
    rng = np.random.default_rng(13)
    n, t = 2, 5
    rls_cfg = RlsConfig(theta0=np.zeros(n), P0=5.0 * np.eye(n), lam=0.8)
    prior = from_center_radius(np.zeros(n), np.ones(n))
    X = rng.normal(size=(t, n))
    y = rng.normal(size=t)
    vb = np.sort(rng.normal(scale=0.3, size=(t, 2)), axis=1)
    drifts = [IntervalVector(np.zeros(n), np.zeros(n))] * t
    aug = vertex_oracle(X, y, vb, prior, rls_cfg, drifts, method="rowsign")
    plain = vertex_oracle(X, y, vb, prior, rls_cfg)
    np.testing.assert_allclose(aug.lower, plain.lower, atol=1e-13, rtol=0)
    np.testing.assert_allclose(aug.upper, plain.upper, atol=1e-13, rtol=0)


def test_windowed_radius_dominates_exact_with_drift():
    # same domination argument as for the constant case; a counterexample
    # here would be a real finding, so fail loudly with the details
    ds = generate_ltv(ltv_sim_config(), seed=21)
    _, exact = run_on(ds, make_config(m=None))
    for m in (3, 5, 12):
        _, windowed = run_on(ds, make_config(m=m))
        for a, b in zip(exact, windowed):
            excess = np.max(a.raw.radius - b.raw.radius)
            assert excess <= 1e-9, (
                f"windowed radius m={m} fell below the exact radius by "
                f"{excess:g} at t={a.t}"
            )


def test_containment_with_sinusoidal_drift():
    for seed in (31, 32, 33):
        config = ltv_sim_config()
        ds = generate_ltv(config, seed=seed)
        for m in (5, None):
            _, outs = run_on(ds, make_config(m=m, monotonic=True))
            for i, out in enumerate(outs):
                truth = ds.theta_true[i]
                assert out.raw.contains(truth, slack=1e-9)
                assert out.refined.contains(truth, slack=1e-9)
                assert not out.inconsistent


def test_monotonic_bounds_respect_drift_envelope():
    # refined bounds may only move by the admissible drift per step
    config = ltv_sim_config(horizon=100)
    ds = generate_ltv(config, seed=41)
    _, outs = run_on(ds, make_config(monotonic=True))
    dhi = ds.delta_high
    dlo = ds.delta_low
    for i in range(1, len(outs)):
        prev, cur = outs[i - 1].refined, outs[i].refined
        assert np.all(cur.upper <= np.minimum(prev.upper + dhi[i], outs[i].raw.upper) + 1e-12)
        assert np.all(cur.lower >= np.maximum(prev.lower + dlo[i], outs[i].raw.lower) - 1e-12)


def test_drift_increment_zero_crossing():
    config = ltv_sim_config()
    # sin(pi) vanishes at half the period
    np.testing.assert_allclose(drift_increment(config, 15), np.zeros(4), atol=1e-15)
    peak = drift_increment(config, 7.5)
    np.testing.assert_allclose(peak, np.asarray(REFERENCE_DRIFT_RADIUS), rtol=1e-12)
