import dataclasses
import inspect

import numpy as np
import pytest

from ivrls import lti
from ivrls.intervals import IntervalVector, _box_view, _check_bounds, from_center_radius
from ivrls.lti import EstimatorConfig, LtiIntervalEstimator, _on_one_stage, _refine
from ivrls.rls import RlsConfig
from ivrls.simulate import (
    REFERENCE_DRIFT_RADIUS,
    REFERENCE_LTV,
    REFERENCE_THETA,
    SimConfig,
    generate_lti,
    generate_ltv,
)

from helpers import phi_product, random_spd, vertex_oracle


def make_config(n=4, lam=0.99, p0=1000.0, prior=4.0, m=None, monotonic=False):
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
        outs.append(
            est.step(dataset.X[i], dataset.y[i], dataset.v_low[i], dataset.v_high[i])
        )
    return est, outs


def test_config_validation():
    with pytest.raises(ValueError, match="m must be"):
        make_config(m=0)
    with pytest.raises(ValueError, match="components"):
        EstimatorConfig(
            rls=RlsConfig(theta0=np.zeros(3), P0=np.eye(3), lam=0.9),
            theta_prior=from_center_radius(np.zeros(2), np.ones(2)),
        )


def test_step_validation():
    est = LtiIntervalEstimator(make_config(n=2))
    with pytest.raises(ValueError, match="inversion"):
        est.step(np.zeros(2), 0.0, 0.5, -0.5)
    with pytest.raises(ValueError, match="finite"):
        est.step(np.zeros(2), 0.0, -np.inf, 0.5)


def test_one_step_radius_formula():
    # r(1) = |A(1)| r(0) + |q(1)| r_v
    config = make_config(n=2, lam=0.9, p0=10.0, prior=2.0)
    est = LtiIntervalEstimator(config)
    x = np.array([1.0, -0.5])
    out = est.step(x, 0.7, -0.3, 0.1)
    state = est.rls_state
    A = np.eye(2) - np.outer(state.last_q, x)
    expected = np.abs(A) @ np.full(2, 2.0) + np.abs(state.last_q) * 0.2
    np.testing.assert_allclose(out.raw.radius, expected, rtol=1e-14)
    np.testing.assert_allclose(out.raw.center, est._identifier.center)
    assert out.t == 1 and not out.inconsistent and out.refined is None


def test_center_tracks_point_estimate_when_aligned():
    # prior centered on theta(0) and centered noise make c(t) = theta(t)
    ds = generate_lti(SimConfig(horizon=80, seed=4), seed=4)
    _, outs = run_on(ds, make_config())
    for out in outs:
        np.testing.assert_allclose(out.raw.center, out.point, rtol=1e-9, atol=1e-12)


def test_truncated_equals_exact_when_window_covers_run():
    ds = generate_lti(SimConfig(horizon=60, seed=8), seed=8)
    _, exact = run_on(ds, make_config())
    _, windowed = run_on(ds, make_config(m=60))
    for a, b in zip(exact, windowed):
        np.testing.assert_array_equal(a.raw.lower, b.raw.lower)
        np.testing.assert_array_equal(a.raw.upper, b.raw.upper)


def test_windowed_radius_dominates_exact():
    ds = generate_lti(SimConfig(horizon=120, seed=12), seed=12)
    _, exact = run_on(ds, make_config())
    for m in (1, 2, 5, 20):
        _, windowed = run_on(ds, make_config(m=m))
        for a, b in zip(exact, windowed):
            assert np.all(a.raw.radius <= b.raw.radius + 1e-9)


def test_matches_vertex_oracle_small():
    rng = np.random.default_rng(31)
    for trial in range(20):
        n, t = 2, 6
        rls_cfg = RlsConfig(
            theta0=rng.normal(size=n),
            P0=random_spd(rng, n, scale=3.0),
            lam=float(rng.uniform(0.5, 0.99)),
        )
        prior = from_center_radius(rng.normal(size=n), 0.2 + rng.random(n))
        X = rng.normal(size=(t, n))
        y = rng.normal(size=t)
        vb = np.sort(rng.normal(scale=0.4, size=(t, 2)), axis=1)
        est = LtiIntervalEstimator(
            EstimatorConfig(rls=rls_cfg, theta_prior=prior)
        )
        for k in range(t):
            out = est.step(X[k], y[k], vb[k, 0], vb[k, 1])
            box = vertex_oracle(X[: k + 1], y[: k + 1], vb[: k + 1], prior, rls_cfg)
            np.testing.assert_allclose(out.raw.lower, box.lower, atol=1e-10, rtol=0)
            np.testing.assert_allclose(out.raw.upper, box.upper, atol=1e-10, rtol=0)


def test_vertex_oracle_no_data_returns_prior():
    rls_cfg = RlsConfig(theta0=np.zeros(2), P0=np.eye(2), lam=0.9)
    prior = IntervalVector([-1.0, 0.5], [2.0, 1.5])
    box = vertex_oracle(np.zeros((0, 2)), [], np.zeros((0, 2)), prior, rls_cfg)
    np.testing.assert_array_equal(box.lower, prior.lower)
    np.testing.assert_array_equal(box.upper, prior.upper)


def test_vertex_oracle_collapses_to_truth_without_uncertainty():
    # exact prior, exact data: the box is the true parameter point
    rng = np.random.default_rng(41)
    theta = np.array([1.5, -0.5])
    rls_cfg = RlsConfig(theta0=np.zeros(2), P0=10.0 * np.eye(2), lam=0.9)
    prior = from_center_radius(theta, np.zeros(2))
    X = rng.normal(size=(5, 2))
    y = X @ theta
    vb = np.zeros((5, 2))
    box = vertex_oracle(X, y, vb, prior, rls_cfg)
    np.testing.assert_allclose(box.lower, theta, atol=1e-9)
    np.testing.assert_allclose(box.upper, theta, atol=1e-9)


def test_vertex_oracle_refuses_large_enumeration():
    rls_cfg = RlsConfig(theta0=np.zeros(4), P0=np.eye(4), lam=0.9)
    prior = from_center_radius(np.zeros(4), np.ones(4))
    with pytest.raises(ValueError, match="refused"):
        vertex_oracle(
            np.zeros((17, 4)), np.zeros(17), np.zeros((17, 2)), prior, rls_cfg,
            method="enumerate",
        )


def test_monotonic_update_examples():
    lo, hi = _refine((np.array([0.0]), np.array([2.0])), np.array([1.0]), np.array([3.0]), None)
    assert (lo[0], hi[0]) == (1.0, 2.0)
    assert _refine(
        (np.array([0.0]), np.array([1.0])), np.array([2.0]), np.array([3.0]), None
    ) is None
    # refinement never widens
    lo, hi = _refine((np.array([0.5]), np.array([0.8])), np.array([0.0]), np.array([2.0]), None)
    assert (lo[0], hi[0]) == (0.5, 0.8)


def test_monotonic_widths_never_increase():
    ds = generate_lti(SimConfig(horizon=150, seed=14), seed=14)
    _, outs = run_on(ds, make_config(monotonic=True))
    widths = np.array([o.refined.width for o in outs])
    assert np.all(widths[1:] <= widths[:-1])
    # the final refined box is the running intersection of everything seen
    raw_lo = np.array([o.raw.lower for o in outs])
    raw_hi = np.array([o.raw.upper for o in outs])
    np.testing.assert_array_equal(
        outs[-1].refined.lower, np.maximum(raw_lo.max(axis=0), -4.0)
    )
    np.testing.assert_array_equal(
        outs[-1].refined.upper, np.minimum(raw_hi.min(axis=0), 4.0)
    )


def test_refined_stays_inside_raw_and_contains_truth():
    ds = generate_lti(SimConfig(horizon=100, seed=16), seed=16)
    truth = np.array(REFERENCE_THETA)
    for m in (10, None):
        _, outs = run_on(ds, make_config(m=m, monotonic=True))
        for out in outs:
            assert np.all(out.refined.lower >= out.raw.lower)
            assert np.all(out.refined.upper <= out.raw.upper)
            assert out.raw.contains(truth, slack=1e-9)
            assert out.refined.contains(truth, slack=1e-9)
            assert not out.inconsistent


def test_inconsistency_freezes_refined_bounds():
    # lie about the noise: claim near-noiseless data, then contradict it
    config = make_config(n=1, lam=0.9, p0=1.0, prior=10.0, monotonic=True)
    est = LtiIntervalEstimator(config)
    x = np.array([1.0])
    first = est.step(x, 0.0, -0.01, 0.01)
    assert not first.inconsistent
    frozen_lo = first.refined.lower.copy()
    frozen_hi = first.refined.upper.copy()
    second = est.step(x, 100.0, -0.01, 0.01)
    assert second.inconsistent
    np.testing.assert_array_equal(second.refined.lower, frozen_lo)
    np.testing.assert_array_equal(second.refined.upper, frozen_hi)
    # raw pipeline keeps moving and the flag stays up
    third = est.step(x, 100.0, -0.01, 0.01)
    assert third.inconsistent
    np.testing.assert_array_equal(third.refined.upper, frozen_hi)
    assert third.raw.center[0] > first.raw.center[0]


def test_exact_mode_stores_linearly_growing_state():
    ds = generate_lti(SimConfig(horizon=40, seed=18), seed=18)
    est, _ = run_on(ds, make_config())
    stage = est._identifier
    assert stage.keep is None and stage.live == 4 + 40
    assert not hasattr(est._engine, "radius_ring")


def test_windowed_mode_stores_bounded_state():
    ds = generate_lti(SimConfig(horizon=40, seed=18), seed=18)
    est, _ = run_on(ds, make_config(m=7))
    assert est._identifier.keep == 7 and est._identifier.live == 4 + 7
    assert len(est._engine.stacks) == 7
    assert len(est._engine.radius_ring) == 7


def test_windowed_buffers_stop_growing_at_the_window():
    m = 7
    ds = generate_lti(SimConfig(horizon=10_000, seed=20), seed=20)
    est = LtiIntervalEstimator(make_config(m=m))
    stage, engine = est._identifier, est._engine
    for i in range(ds.N):
        est.step(ds.X[i], ds.y[i], ds.v_low[i], ds.v_high[i])
        buffers = {id(stage._rows), id(stage._spare), id(stage.radii), id(engine.stacks),
                   id(engine.abs_anchor)}
        if i + 1 == m:
            held = buffers
            rows = len(stage._rows)
        elif i + 1 > m:
            assert buffers == held and len(stage._rows) == rows
            assert stage.live == 4 + m and len(engine.radius_ring) == m
    assert rows == 4 + m


@pytest.mark.parametrize("drifting", [False, True])
@pytest.mark.parametrize("m", [1, 2, 7])
def test_anchor_matches_brute_force_product(m, drifting):
    # the back stack is rebuilt at t = m+1, 2m+1, ...: 4m + 10 steps see at least four
    n = 4
    ds = generate_lti(SimConfig(horizon=4 * m + 10, seed=21), seed=21)
    est = LtiIntervalEstimator(make_config(n=n, m=m))
    stage, engine = est._identifier, est._engine
    drift = from_center_radius(np.zeros(n), np.full(n, 1e-3)) if drifting else None
    As = []
    for i in range(ds.N):
        est.step(ds.X[i], ds.y[i], ds.v_low[i], ds.v_high[i], drift)
        As.append(stage.At.T.copy())  # the stage keeps A(t) transposed
        t = i + 1
        if t <= m:  # the stage's Phi(t,0), which the full sum reads
            np.testing.assert_allclose(
                stage._rows[:n].T, phi_product(As, t, 0), rtol=1e-12, atol=0
            )
        else:  # the mode's own |Phi(t,t-m)|, stored transposed
            np.testing.assert_allclose(
                engine.abs_anchor.T, np.abs(phi_product(As, t, t - m)), rtol=1e-12, atol=0
            )
    assert stage.term_width == (n + 1 if drifting else 1)


def test_windowed_radius_dominates_exact_on_a_long_stream():
    ds = generate_lti(SimConfig(horizon=3000, seed=23), seed=23)
    _, exact = run_on(ds, make_config())
    _, windowed = run_on(ds, make_config(m=50))
    r_exact = np.array([o.raw.radius for o in exact])
    r_windowed = np.array([o.raw.radius for o in windowed])
    assert np.all(r_windowed >= r_exact * (1 - 1e-12))


def test_exact_horizon_guard(monkeypatch):
    monkeypatch.setattr(lti, "MAX_EXACT_HORIZON", 5)
    est = LtiIntervalEstimator(make_config(n=2))
    rng = np.random.default_rng(0)
    for _ in range(5):
        est.step(rng.normal(size=2), 0.0, -0.1, 0.1)
    with pytest.raises(ValueError, match="horizon cap"):
        est.step(rng.normal(size=2), 0.0, -0.1, 0.1)


def test_exact_horizon_refusal_changes_no_state(monkeypatch):
    monkeypatch.setattr(lti, "MAX_EXACT_HORIZON", 3)
    est = LtiIntervalEstimator(make_config(n=2))
    rng = np.random.default_rng(0)
    for _ in range(3):
        est.step(rng.normal(size=2), 0.0, -0.1, 0.1)
    state, center = est.rls_state, est._identifier.center
    for _ in range(2):
        with pytest.raises(ValueError, match="horizon cap 3"):
            est.step(rng.normal(size=2), 1.0, -0.1, 0.1)
        assert est.t == 3 and est._identifier.live == 2 + 3 and est.rls_state is state
        assert est._identifier.center is center


def test_asymmetric_noise_bounds_shift_center():
    # biased noise interval moves the box but must still contain the truth
    rng = np.random.default_rng(19)
    theta = np.array([0.8, -0.3])
    config = EstimatorConfig(
        rls=RlsConfig(theta0=np.zeros(2), P0=100.0 * np.eye(2), lam=0.95),
        theta_prior=from_center_radius(np.zeros(2), np.full(2, 3.0)),
    )
    est = LtiIntervalEstimator(config)
    for _ in range(60):
        x = rng.normal(size=2)
        v = rng.uniform(0.05, 0.25)  # noise lives in [0.05, 0.25], not centered
        out = est.step(x, x @ theta + v, 0.05, 0.25)
        assert out.raw.contains(theta, slack=1e-9)


def shared_estimators(rls, modes, monotonic=True, prior=4.0):
    """Estimators of the given modes, all on one per-sample stage."""
    n = rls.n
    base = EstimatorConfig(
        rls=rls,
        theta_prior=from_center_radius(np.zeros(n), np.full(n, prior)),
        monotonic=monotonic,
    )
    return _on_one_stage(base, modes)


def check_shared_matches_independent(drifting, reverse):
    """Step the modes on one stage, in the given order within each sample,
    next to estimators of their own.  The point, exact mode and a window m
    while t <= m agree bit for bit.  Past that a window reads its terms
    from a history propagated with more blocks per matrix product than its
    own estimator's, so its bounds agree to rounding and still dominate
    the exact ones."""
    modes = (1, 7, None)
    lam = 0.1 if drifting else 0.99
    config = SimConfig(horizon=60, seed=24, lam=lam,
                       drift_radius=REFERENCE_DRIFT_RADIUS if drifting else None)
    ds = generate_ltv(config, seed=24) if drifting else generate_lti(config, seed=24)
    rls = RlsConfig(theta0=np.zeros(4), P0=1000.0 * np.eye(4), lam=lam)
    shared = shared_estimators(rls, modes)
    alone = [LtiIntervalEstimator(make_config(lam=lam, m=m, monotonic=True))
             for m in modes]
    for i in range(ds.N):
        drift = None
        if drifting:
            drift = IntervalVector(ds.delta_low[i], ds.delta_high[i])
        sample = (ds.X[i], ds.y[i], ds.v_low[i], ds.v_high[i], drift)
        # whichever mode steps first advances the stage
        pairs = list(zip(modes, shared, alone))
        radii = {}
        for m, a, b in reversed(pairs) if reverse else pairs:
            out, ref = a.step(*sample), b.step(*sample)
            assert out.t == ref.t == i + 1 and out.inconsistent == ref.inconsistent
            assert out.point.tobytes() == ref.point.tobytes()
            for x, y in ((out.raw.lower, ref.raw.lower), (out.raw.upper, ref.raw.upper),
                         (out.refined.lower, ref.refined.lower),
                         (out.refined.upper, ref.refined.upper)):
                if m is None or out.t <= m:
                    assert x.tobytes() == y.tobytes()
                else:
                    np.testing.assert_allclose(x, y, rtol=1e-12, atol=0)
            radii[m] = out.raw.radius
        for m in modes[:-1]:
            assert np.all(radii[m] >= radii[None] * (1 - 1e-12))
    # every estimator keeps its own view of the identifier's state
    assert all(a.rls_state is shared[0].rls_state for a in shared)


@pytest.mark.parametrize("drifting", [False, True])
def test_shared_identifier_matches_independent_estimators(drifting):
    check_shared_matches_independent(drifting, reverse=False)


@pytest.mark.parametrize("drifting", [False, True])
def test_shared_modes_stepped_in_reverse_order_match_independent_estimators(drifting):
    check_shared_matches_independent(drifting, reverse=True)


def test_a_mode_out_of_sample_order_on_a_shared_stage_is_refused():
    rls = RlsConfig(theta0=np.zeros(2), P0=1000.0 * np.eye(2), lam=0.99)
    exact, m3 = shared_estimators(rls, (None, 3))
    samples = [([1.0, 0.5], 0.2, -0.1, 0.1), ([0.3, -1.0], -0.1, -0.1, 0.1)]
    for sample in samples:
        exact.step(*sample)
    # m3's first sample would read sample 2's point; refused before any change
    with pytest.raises(ValueError, match=r"^step 1: the shared stage has taken 2 samples; "
                                         r"estimators on one stage must step sample-major$"):
        m3.step(*samples[0])
    assert m3.t == 0 and m3.rls_state.t == exact.t == 2


def brute_force_radii(As, terms, prior, modes):
    """r(t) of each mode from directly multiplied Phi products: the full
    sum for exact mode and for t <= m, else the window's recursion."""
    radii = {m: [] for m in modes}
    for m, out in radii.items():
        for t in range(1, len(As) + 1):
            start = 0 if m is None or t <= m else t - m
            r = np.abs(phi_product(As, t, start)) @ (prior if start == 0 else out[start - 1])
            for k in range(start + 1, t + 1):
                B, r_w = terms[k - 1]
                r = r + np.abs(phi_product(As, t, k) @ B) @ r_w
            out.append(r)
    return radii


@pytest.mark.parametrize("drifting", [False, True])
@pytest.mark.parametrize("modes", [(1, 2, 7, None), (3, 7)])
def test_every_mode_on_one_stage_matches_a_brute_force_radius(modes, drifting, monkeypatch):
    n, N, lam = 4, 30, 0.9
    config = SimConfig(horizon=N, seed=26, lam=lam,
                       drift_radius=REFERENCE_DRIFT_RADIUS if drifting else None)
    ds = generate_ltv(config, seed=26) if drifting else generate_lti(config, seed=26)
    radii = {m: [] for m in modes}
    real_step = lti._RadiusRecursion.step

    def recording(self, stage):
        radius = real_step(self, stage)
        radii[self.window].append(radius.copy())
        return radius

    monkeypatch.setattr(lti._RadiusRecursion, "step", recording)
    ests = shared_estimators(RlsConfig(theta0=np.zeros(n), P0=1000.0 * np.eye(n), lam=lam),
                             modes)
    As, terms = [], []
    for i in range(N):
        drift = IntervalVector(ds.delta_low[i], ds.delta_high[i]) if drifting else None
        for est in ests:
            est.step(ds.X[i], ds.y[i], ds.v_low[i], ds.v_high[i], drift)
        A, q = ests[0]._identifier.At.T.copy(), ests[0].rls_state.last_q
        B, r_w = q[:, None], np.array([0.5 * (ds.v_high[i] - ds.v_low[i])])
        if drifting:
            B, r_w = np.hstack([B, -A]), np.concatenate([r_w, drift.radius])
        As.append(A)
        terms.append((B, r_w))
    expected = brute_force_radii(As, terms, np.full(n, 4.0), modes)
    for m in modes:
        np.testing.assert_allclose(radii[m], expected[m], rtol=1e-12, atol=0)


def test_full_sum_is_computed_once_per_sample_and_shared():
    rls = RlsConfig(theta0=np.zeros(2), P0=np.eye(2), lam=0.9)
    ests = shared_estimators(rls, (3, None))
    rng = np.random.default_rng(27)
    for t in range(1, 6):
        x, y = rng.normal(size=2), rng.normal()
        outs = [est.step(x, y, -0.1, 0.1) for est in ests]
        # a window still inside its first m steps reads the exact radius,
        # the very array the stage summed for this sample
        ring = ests[0]._engine.radius_ring
        assert (ring[-1] is ests[0]._identifier.full) == (t <= 3)
        if t <= 3:
            assert outs[0].lower.tobytes() == outs[1].lower.tobytes()
    # without an exact mode the stage drops the full sum past the longest window
    ests = shared_estimators(rls, (2, 3))
    for t in range(1, 6):
        x, y = rng.normal(size=2), rng.normal()
        for est in ests:
            est.step(x, y, -0.1, 0.1)
        assert (ests[0]._identifier.full is None) == (t > 3)


def test_exact_horizon_refusal_on_a_shared_stage_changes_no_mode(monkeypatch):
    monkeypatch.setattr(lti, "MAX_EXACT_HORIZON", 3)
    rls = RlsConfig(theta0=np.zeros(2), P0=np.eye(2), lam=0.9)
    ests = shared_estimators(rls, (2, None))
    rng = np.random.default_rng(28)
    for _ in range(3):
        x, y = rng.normal(size=2), rng.normal()
        for est in ests:
            est.step(x, y, -0.1, 0.1)
    stage, windowed = ests[0]._identifier, ests[0]._engine
    state, center, abs_rows = stage.state, stage.center, stage.abs_rows.copy()
    ring, stacks, top = list(windowed.radius_ring), windowed.stacks.copy(), windowed._top
    monos = [est._mono for est in ests]
    # the stage keeps the full history for exact mode, so it refuses the
    # sample whichever mode steps first
    for est in ests + ests[::-1]:
        with pytest.raises(ValueError, match="horizon cap 3"):
            est.step(rng.normal(size=2), 1.0, -0.1, 0.1)
        assert est.t == 3 and est.rls_state is state
    assert stage.state is state and stage.center is center and stage.live == 2 + 3
    assert stage.abs_rows[:5].tobytes() == abs_rows[:5].tobytes()
    assert list(windowed.radius_ring) == ring and windowed._top == top
    assert windowed.stacks.tobytes() == stacks.tobytes()
    assert [est._mono for est in ests] == monos and not any(e.inconsistent for e in ests)


def test_shared_identifier_steps_rls_once_per_sample(monkeypatch):
    calls = []
    original = lti.rls_step

    def counted(state, x, y):
        calls.append(state.t)
        return original(state, x, y)

    monkeypatch.setattr(lti, "rls_step", counted)
    rls = RlsConfig(theta0=np.zeros(2), P0=np.eye(2), lam=0.9)
    ests = shared_estimators(rls, (1, 3, None))
    rng = np.random.default_rng(25)
    for _ in range(5):
        x, y = rng.normal(size=2), rng.normal()
        for est in ests:
            est.step(x, y, -0.1, 0.1)
    assert calls == [0, 1, 2, 3, 4]
    # a follower that has not stepped yet counts its own samples; its
    # rls_state is the stage's, which the lead has advanced
    lead, follow = shared_estimators(rls, (1, None))
    lead.step([1.0, 0.0], 0.5, -0.1, 0.1)
    assert lead.t == 1 and follow.t == 0 and follow.rls_state.t == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_radius_overflow_fails_fast_naming_step_and_window(seed):
    # lambda = 0.1 with a window of 2, far below the certified m*: the
    # windowed radius recursion blows up within 2000 steps
    config = dataclasses.replace(REFERENCE_LTV, horizon=2000, seed=seed, modes=(2,))
    ds = generate_ltv(config, seed=seed)
    est = LtiIntervalEstimator(make_config(lam=0.1, m=2, monotonic=True))
    last = None
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ArithmeticError, match=r"radius overflow at t=(\d+), m=2") as err:
            for i in range(ds.N):
                drift = IntervalVector(ds.delta_low[i], ds.delta_high[i])
                last = est.step(ds.X[i], ds.y[i], ds.v_low[i], ds.v_high[i], drift)
    t = int(err.value.args[0].split("t=")[1].split(",")[0])
    assert t == last.t + 1
    # the last accepted box is valid however wide: its center and radius
    # views stay finite (seed 1: the box at t = 1938 reaches +-1.4e308)
    with np.errstate(over="raise"):
        radius, center = last.raw.radius, last.raw.center
    assert np.isfinite(radius).all() and np.isfinite(center).all()
    if seed == 1:
        assert last.t == 1938 and np.abs(last.upper).max() > 1e308


def test_estimate_arrays_are_read_only_and_the_boxes_built_on_read():
    ds = generate_lti(SimConfig(horizon=40, seed=30), seed=30)
    for monotonic in (True, False):
        _, outs = run_on(ds, make_config(m=5, monotonic=monotonic))
        for out in outs:
            arrays = [out.point, out.lower, out.upper]
            if monotonic:
                arrays += [out.refined_lower, out.refined_upper]
            else:
                assert out.refined_lower is None and out.refined_upper is None
                assert out.refined is None
            for arr in arrays:
                assert not arr.flags.writeable
            raw = out.raw
            assert raw is out.raw
            assert raw.lower.tobytes() == out.lower.tobytes()
            assert raw.upper.tobytes() == out.upper.tobytes()
            if monotonic:
                assert out.refined is out.refined
                assert out.refined.lower.tobytes() == out.refined_lower.tobytes()
                assert out.refined.upper.tobytes() == out.refined_upper.tobytes()


def test_per_step_dataclasses_stay_frozen_dataclasses():
    # RlsState fills its fields in an __init__ of its own, IntervalEstimate
    # in the generated one; a step builds estimates without either
    est = LtiIntervalEstimator(make_config(n=2, monotonic=True))
    out = est.step([1.0, 0.5], 0.2, -0.1, 0.1)
    for obj in (est.rls_state, out):
        names = [f.name for f in dataclasses.fields(obj)]
        assert names == list(inspect.signature(type(obj)).parameters)
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, getattr(obj, name))
        copy = dataclasses.replace(obj)
        assert type(copy) is type(obj)
        assert all(getattr(copy, name) is getattr(obj, name) for name in names)
    assert dataclasses.replace(est.rls_state, t=7).t == 7
    raw = out.raw
    assert out.raw is raw and vars(out)["raw"] is raw
    # a replaced estimate builds its own box from its own bounds
    moved = dataclasses.replace(out, lower=out.lower - 1.0)
    assert moved.raw is not raw
    assert moved.raw.lower.tobytes() == (out.lower - 1.0).tobytes()


def test_reading_a_box_calls_the_module_level_interval_vector(monkeypatch):
    made = []

    def counted(lower, upper):
        made.append(1)
        return _box_view(lower, upper)

    est = LtiIntervalEstimator(make_config(n=2, monotonic=True))
    monkeypatch.setattr(lti, "_box_view", counted)
    out = est.step([1.0, 0.5], 0.2, -0.1, 0.1)
    assert made == []
    assert out.raw is out.raw and out.refined is out.refined
    assert made == [1, 1]


def stepped_estimates(monotonic, drifting):
    """Every estimate of one run, with none of its boxes read yet."""
    lam = 0.1 if drifting else 0.99
    config = SimConfig(horizon=60, seed=33, lam=lam,
                       drift_radius=REFERENCE_DRIFT_RADIUS if drifting else None)
    ds = generate_ltv(config, seed=33) if drifting else generate_lti(config, seed=33)
    est = LtiIntervalEstimator(make_config(lam=lam, m=7, monotonic=monotonic))
    drift = IntervalVector(ds.delta_low[0], ds.delta_high[0]) if drifting else None
    return [est.step(ds.X[i], ds.y[i], ds.v_low[i], ds.v_high[i], drift)
            for i in range(ds.N)]


@pytest.mark.parametrize("drifting", [False, True])
@pytest.mark.parametrize("monotonic", [False, True])
def test_boxes_of_a_step_are_views_of_its_checked_bounds(monotonic, drifting):
    for out in stepped_estimates(monotonic, drifting):
        pairs = [(out.raw, out.lower, out.upper)]
        if monotonic:
            pairs.append((out.refined, out.refined_lower, out.refined_upper))
        else:
            assert out.refined is None and vars(out)["refined"] is None
        for box, lower, upper in pairs:
            assert type(box) is IntervalVector
            assert box.lower is lower and box.upper is upper
            assert not box.lower.flags.writeable and not box.upper.flags.writeable
            _check_bounds(box.lower, box.upper)
        assert vars(out)["raw"] is out.raw


@pytest.mark.parametrize("drifting", [False, True])
@pytest.mark.parametrize("monotonic", [False, True])
def test_boxes_of_other_estimates_copy_and_check_their_bounds(monotonic, drifting):
    for out in stepped_estimates(monotonic, drifting)[::10]:
        fields = {f.name: getattr(out, f.name) for f in dataclasses.fields(out)}
        writeable = dict(fields)
        for name in ("lower", "upper", "refined_lower", "refined_upper"):
            if fields[name] is not None:
                writeable[name] = fields[name].copy()
        for other in (dataclasses.replace(out), lti.IntervalEstimate(**fields),
                      lti.IntervalEstimate(**writeable)):
            pairs = [(other.raw, other.lower, other.upper)]
            if monotonic:
                pairs.append((other.refined, other.refined_lower, other.refined_upper))
            else:
                assert other.refined is None
            for box, lower, upper in pairs:
                assert box.lower is not lower and box.upper is not upper
                assert box.lower.tobytes() == lower.tobytes()
                assert box.upper.tobytes() == upper.tobytes()
                assert not box.lower.flags.writeable and not box.upper.flags.writeable
            assert vars(other)["raw"] is other.raw
        # the box of writeable bounds is a copy that later writes leave alone
        box = lti.IntervalEstimate(**writeable).raw
        writeable["lower"][0] -= 1.0
        assert box.lower.tobytes() == out.lower.tobytes()
        inverted = dataclasses.replace(out, lower=out.upper + 1.0)
        with pytest.raises(ValueError, match="bound inversion"):
            inverted.raw
        if monotonic:
            inverted = dataclasses.replace(out, refined_upper=out.refined_lower - 1.0)
            with pytest.raises(ValueError, match="bound inversion"):
                inverted.refined


def test_refined_arrays_are_shared_while_unchanged():
    ds = generate_lti(SimConfig(horizon=200, seed=31), seed=31)
    _, outs = run_on(ds, make_config(m=20, monotonic=True))
    kept = changed = 0
    for prev, out in zip(outs, outs[1:]):
        same = np.array_equal(prev.refined_lower, out.refined_lower) and np.array_equal(
            prev.refined_upper, out.refined_upper)
        if same:
            assert out.refined_lower is prev.refined_lower
            assert out.refined_upper is prev.refined_upper
            kept += 1
        else:
            changed += 1
    assert kept > 100 and changed > 10


def test_refine_returns_the_carried_pair_when_nothing_is_cut():
    bounds = (np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    assert _refine(bounds, np.array([-2.0, -1.0]), np.array([2.0, 3.0]), None) is bounds
    # a cut in one component gives new arrays
    lo, hi = _refine(bounds, np.array([-2.0, 0.5]), np.array([2.0, 3.0]), None)
    assert lo.tolist() == [-1.0, 0.5] and hi.tolist() == [1.0, 2.0]
    assert lo is not bounds[0]
    # with a drift box's bound lists, the translated pair itself when nothing is cut
    drift = ([-0.5, 0.0], [0.5, 0.25])
    lo, hi = _refine(bounds, np.array([-2.0, -1.0]), np.array([2.0, 3.0]), drift)
    assert lo.tolist() == [-1.5, 0.0] and hi.tolist() == [1.5, 2.25]
    # a raw bound equal to the carried one is taken as np.maximum and
    # np.minimum give it: the raw bound, whose zero may have another sign
    lo, hi = _refine((np.array([-0.0]), np.array([1.0])), np.array([0.0]), np.array([2.0]), None)
    assert not np.signbit(lo[0])


def test_step_checks_the_raw_box_contract():
    # a zero-width drift box of 1e308 moves the center past DBL_MAX at the
    # second step, while the radius stays finite
    est = LtiIntervalEstimator(make_config(n=1))
    drift = IntervalVector([1e308], [1e308])
    est.step([0.0], 0.0, -0.1, 0.1, drift)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match=r"^step 2: .*non-finite bound\) at components \[0\]"):
            est.step([0.0], 0.0, -0.1, 0.1, drift)


@pytest.mark.parametrize("monotonic", [False, True])
def test_noise_near_dbl_max_reaches_the_box_contract(monotonic):
    # the noise interval [-1.5e308, 1.5e308] has a finite radius, so the
    # radius stays finite while the upper bound passes DBL_MAX; the
    # monotonic step checks it in its refinement pass
    est = LtiIntervalEstimator(make_config(n=1, monotonic=monotonic))
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match=r"^step 1: .*non-finite bound\) at components \[0\]"):
            est.step([1.0], 1.5e308, -1.5e308, 1.5e308)
    assert np.isfinite(est._identifier.full).all() and est._identifier.radii[1] == 1.5e308


def test_standalone_estimator_is_a_stage_of_one():
    a = LtiIntervalEstimator(make_config(n=2))
    b = LtiIntervalEstimator(make_config(n=2))
    assert a._identifier is not b._identifier
