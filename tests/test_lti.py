import dataclasses
import inspect

import numpy as np
import pytest

from ivrls import lti
from ivrls.intervals import IntervalVector, _box_view, _check_bounds, from_center_radius
from ivrls.lti import EstimatorConfig, LtiIntervalEstimator, _refine
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
    with pytest.raises(ValueError, match=r"^m must be an integer, got 2\.5$"):
        make_config(m=2.5)
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
    box = _refine(IntervalVector([0.0], [2.0]), np.array([1.0]), np.array([3.0]), None)
    assert (box.lower[0], box.upper[0]) == (1.0, 2.0)
    assert _refine(
        IntervalVector([0.0], [1.0]), np.array([2.0]), np.array([3.0]), None
    ) is None
    # refinement never widens
    box = _refine(IntervalVector([0.5], [0.8]), np.array([0.0]), np.array([2.0]), None)
    assert (box.lower[0], box.upper[0]) == (0.5, 0.8)


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


def shared_run(rls, modes, samples, monotonic=True, prior=4.0):
    """Each sample's estimates of the given modes, all on one per-sample stage."""
    n = rls.n
    base = EstimatorConfig(
        rls=rls,
        theta_prior=from_center_radius(np.zeros(n), np.full(n, prior)),
        monotonic=monotonic,
    )
    return lti._run_modes(base, modes, samples)


def record_radius_steps(monkeypatch):
    """Every radius step from now on, as (engine, stage, radius), in call order."""
    steps = []
    real_step = lti._RadiusRecursion.step

    def recording(self, stage):
        radius = real_step(self, stage)
        steps.append((self, stage, radius))
        return radius

    monkeypatch.setattr(lti._RadiusRecursion, "step", recording)
    return steps


def check_shared_matches_independent(drifting, reverse, monkeypatch):
    """Run the modes on one stage, in the given order, next to estimators
    of their own.  The point, exact mode and a window m while t <= m agree
    bit for bit.  Past that a window reads its terms from a history
    propagated with more blocks per matrix product than its own
    estimator's, so its bounds agree to rounding and still dominate the
    exact ones."""
    modes = (1, 7, None)
    lam = 0.1 if drifting else 0.99
    config = SimConfig(horizon=60, seed=24, lam=lam,
                       drift_radius=REFERENCE_DRIFT_RADIUS if drifting else None)
    ds = generate_ltv(config, seed=24) if drifting else generate_lti(config, seed=24)
    rls = RlsConfig(theta0=np.zeros(4), P0=1000.0 * np.eye(4), lam=lam)
    samples = [(ds.X[i], ds.y[i], ds.v_low[i], ds.v_high[i],
                IntervalVector(ds.delta_low[i], ds.delta_high[i]) if drifting else None)
               for i in range(ds.N)]
    # the first mode advances the stage: reversed, the exact mode leads
    order = modes[::-1] if reverse else modes
    alone = {m: LtiIntervalEstimator(make_config(lam=lam, m=m, monotonic=True))
             for m in modes}
    steps = record_radius_steps(monkeypatch)
    for i, outs in enumerate(shared_run(rls, order, samples)):
        radii = {}
        for m, out in zip(order, outs):
            ref = alone[m].step(*samples[i])
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
    # every mode of the run read one stage
    own = {id(est._engine) for est in alone.values()}
    assert len({id(stage) for engine, stage, _ in steps if id(engine) not in own}) == 1


@pytest.mark.parametrize("drifting", [False, True])
def test_shared_identifier_matches_independent_estimators(drifting, monkeypatch):
    check_shared_matches_independent(drifting, reverse=False, monkeypatch=monkeypatch)


@pytest.mark.parametrize("drifting", [False, True])
def test_shared_modes_stepped_in_reverse_order_match_independent_estimators(drifting,
                                                                             monkeypatch):
    check_shared_matches_independent(drifting, reverse=True, monkeypatch=monkeypatch)


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
    samples = [(ds.X[i], ds.y[i], ds.v_low[i], ds.v_high[i],
                IntervalVector(ds.delta_low[i], ds.delta_high[i]) if drifting else None)
               for i in range(N)]
    steps = record_radius_steps(monkeypatch)
    run = shared_run(RlsConfig(theta0=np.zeros(n), P0=1000.0 * np.eye(n), lam=lam),
                     modes, samples)
    As, terms = [], []
    for i, _ in enumerate(run):
        stage = steps[-1][1]
        A, q = stage.At.T.copy(), stage.state.last_q
        B, r_w = q[:, None], np.array([0.5 * (ds.v_high[i] - ds.v_low[i])])
        if drifting:
            B, r_w = np.hstack([B, -A]), np.concatenate([r_w, samples[i][4].radius])
        As.append(A)
        terms.append((B, r_w))
    expected = brute_force_radii(As, terms, np.full(n, 4.0), modes)
    for m in modes:
        radii = [radius for engine, _, radius in steps if engine.window == m]
        np.testing.assert_allclose(radii, expected[m], rtol=1e-12, atol=0)


def test_full_sum_is_computed_once_per_sample_and_shared(monkeypatch):
    steps = record_radius_steps(monkeypatch)
    rls = RlsConfig(theta0=np.zeros(2), P0=np.eye(2), lam=0.9)
    rng = np.random.default_rng(27)
    samples = [(rng.normal(size=2), rng.normal(), -0.1, 0.1) for _ in range(5)]
    for t, outs in enumerate(shared_run(rls, (3, None), samples), 1):
        # a window still inside its first m steps reads the exact radius,
        # the very array the stage summed for this sample
        (_, stage, windowed), _ = steps[-2:]
        assert (windowed is stage.full) == (t <= 3)
        if t <= 3:
            assert outs[0].lower.tobytes() == outs[1].lower.tobytes()
    # without an exact mode the stage drops the full sum past the longest window
    samples = [(rng.normal(size=2), rng.normal(), -0.1, 0.1) for _ in range(5)]
    for t, _ in enumerate(shared_run(rls, (2, 3), samples), 1):
        assert (steps[-1][1].full is None) == (t > 3)


def test_exact_horizon_refusal_on_a_shared_stage_changes_no_mode(monkeypatch):
    monkeypatch.setattr(lti, "MAX_EXACT_HORIZON", 3)
    rls = RlsConfig(theta0=np.zeros(2), P0=np.eye(2), lam=0.9)
    rng = np.random.default_rng(28)
    samples = [(rng.normal(size=2), rng.normal(), -0.1, 0.1) for _ in range(3)]
    samples.append((rng.normal(size=2), 1.0, -0.1, 0.1))
    # the stage keeps the full history for exact mode, so it refuses the
    # sample whichever mode leads
    for modes in ((2, None), (None, 2)):
        steps = record_radius_steps(monkeypatch)
        run = shared_run(rls, modes, samples)
        for _ in range(3):
            next(run)
        stage = steps[-1][1]
        windowed = next(engine for engine, _, _ in steps if engine.window == 2)
        state, center, abs_rows = stage.state, stage.center, stage.abs_rows.copy()
        ring, stacks, top = list(windowed.radius_ring), windowed.stacks.copy(), windowed._top
        with pytest.raises(ValueError, match=r"^step 4: exact-mode horizon cap 3 exceeded"):
            next(run)
        assert len(steps) == 3 * len(modes)  # no mode went on to its radius
        assert stage.state is state and stage.center is center and stage.live == 2 + 3
        assert stage.abs_rows[:5].tobytes() == abs_rows[:5].tobytes()
        assert list(windowed.radius_ring) == ring and windowed._top == top
        assert windowed.stacks.tobytes() == stacks.tobytes()
        # a refused sample ends the run
        with pytest.raises(StopIteration):
            next(run)


def test_shared_identifier_steps_rls_once_per_sample(monkeypatch):
    calls = []
    original = lti.rls_step

    def counted(state, x, y):
        calls.append(state.t)
        return original(state, x, y)

    monkeypatch.setattr(lti, "rls_step", counted)
    rls = RlsConfig(theta0=np.zeros(2), P0=np.eye(2), lam=0.9)
    rng = np.random.default_rng(25)
    samples = [(rng.normal(size=2), rng.normal(), -0.1, 0.1) for _ in range(5)]
    for t, outs in enumerate(shared_run(rls, (1, 3, None), samples), 1):
        assert [out.t for out in outs] == [t] * 3
    assert calls == [0, 1, 2, 3, 4]


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


def test_every_bound_of_an_estimate_is_read_only():
    ds = generate_lti(SimConfig(horizon=40, seed=30), seed=30)
    for monotonic in (True, False):
        _, outs = run_on(ds, make_config(m=5, monotonic=monotonic))
        for out in outs:
            arrays = [out.point, out.lower, out.upper]
            if monotonic:
                arrays += [out.refined.lower, out.refined.upper]
            else:
                assert out.refined is None
            for arr in arrays:
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0


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
        kept = [name for name in names if getattr(copy, name) is getattr(obj, name)]
        # an estimate copies its own bounds, as every IntervalVector does
        assert kept == (names[2:] if obj is out else names)
    assert dataclasses.replace(est.rls_state, t=7).t == 7
    assert names == ["lower", "upper", "t", "point", "refined", "inconsistent"]
    assert isinstance(out, IntervalVector) and out.raw is out
    moved = dataclasses.replace(out, lower=out.lower - 1.0)
    assert moved.raw is moved
    assert moved.lower.tobytes() == (out.lower - 1.0).tobytes()


def test_a_step_builds_a_box_only_where_refinement_cuts(monkeypatch):
    made = []

    def counted(lower, upper):
        made.append(1)
        return _box_view(lower, upper)

    monkeypatch.setattr(lti, "_box_view", counted)
    ds = generate_lti(SimConfig(horizon=60, seed=32), seed=32)
    est, outs = run_on(ds, make_config(m=5, monotonic=True))
    before = [est.config.theta_prior] + [out.refined for out in outs[:-1]]
    cuts = sum(out.refined is not prev for prev, out in zip(before, outs))
    assert len(made) == cuts and 0 < cuts < len(outs)
    # reading an estimate's boxes builds none
    assert all(out.raw is out and out.refined is out.refined for out in outs)
    assert len(made) == cuts


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
        assert out.raw is out and isinstance(out, IntervalVector)
        # the step's fields and nothing else: no cached box, no flag
        assert list(vars(out)) == [f.name for f in dataclasses.fields(out)]
        boxes = [out]
        if monotonic:
            assert type(out.refined) is IntervalVector
            boxes.append(out.refined)
        else:
            assert out.refined is None
        for box in boxes:
            assert not box.lower.flags.writeable and not box.upper.flags.writeable
            _check_bounds(box.lower, box.upper)


@pytest.mark.parametrize("drifting", [False, True])
@pytest.mark.parametrize("monotonic", [False, True])
def test_boxes_of_other_estimates_copy_and_check_their_bounds(monotonic, drifting):
    for out in stepped_estimates(monotonic, drifting)[::10]:
        fields = {f.name: getattr(out, f.name) for f in dataclasses.fields(out)}
        writeable = dict(fields, lower=out.lower.copy(), upper=out.upper.copy())
        for other in (dataclasses.replace(out), lti.IntervalEstimate(**fields),
                      lti.IntervalEstimate(**writeable)):
            assert other.raw is other and other.refined is out.refined
            for mine, given in ((other.lower, out.lower), (other.upper, out.upper)):
                assert mine is not given and mine.tobytes() == given.tobytes()
                assert not mine.flags.writeable
        # the bounds of writeable arrays are copies that later writes leave alone
        other = lti.IntervalEstimate(**writeable)
        writeable["lower"][0] -= 1.0
        assert other.lower.tobytes() == out.lower.tobytes()
        # inverted bounds are refused when the estimate is built, not when read
        with pytest.raises(ValueError, match="bound inversion"):
            dataclasses.replace(out, lower=out.upper + 1.0)
        with pytest.raises(ValueError, match="bound inversion"):
            lti.IntervalEstimate(**dict(fields, upper=out.lower - 1.0))


def test_refined_arrays_are_shared_while_unchanged():
    ds = generate_lti(SimConfig(horizon=200, seed=31), seed=31)
    _, outs = run_on(ds, make_config(m=20, monotonic=True))
    kept = changed = 0
    for prev, out in zip(outs, outs[1:]):
        same = [np.array_equal(getattr(prev.refined, side), getattr(out.refined, side))
                for side in ("lower", "upper")]
        if all(same):
            assert out.refined is prev.refined
            kept += 1
        else:
            # a new box, which keeps the array of a side that is not cut
            assert out.refined is not prev.refined
            for side, unchanged in zip(("lower", "upper"), same):
                if unchanged:
                    assert getattr(out.refined, side) is getattr(prev.refined, side)
            changed += 1
    assert kept > 100 and changed > 10


def test_refine_returns_the_carried_pair_when_nothing_is_cut():
    box = IntervalVector([-1.0, 0.0], [1.0, 2.0])
    assert _refine(box, np.array([-2.0, -1.0]), np.array([2.0, 3.0]), None) is box
    # a cut in one component gives a new box with a new array for that side
    cut = _refine(box, np.array([-2.0, 0.5]), np.array([2.0, 3.0]), None)
    assert type(cut) is IntervalVector
    assert cut.lower.tolist() == [-1.0, 0.5] and cut.upper.tolist() == [1.0, 2.0]
    assert cut.lower is not box.lower and cut.upper is box.upper
    assert not cut.lower.flags.writeable
    # with a drift box's bound lists, the translated box itself when nothing is cut
    drift = ([-0.5, 0.0], [0.5, 0.25])
    moved = _refine(box, np.array([-2.0, -1.0]), np.array([2.0, 3.0]), drift)
    assert moved.lower.tolist() == [-1.5, 0.0] and moved.upper.tolist() == [1.5, 2.25]
    # a raw bound equal to the carried one is taken as np.maximum and
    # np.minimum give it: the raw bound, whose zero may have another sign
    tie = _refine(IntervalVector([-0.0], [1.0]), np.array([0.0]), np.array([2.0]), None)
    assert not np.signbit(tie.lower[0])


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


def test_a_run_builds_its_one_stage_once(monkeypatch):
    # the estimators of a run's modes are built on the run's stage; a
    # standalone estimator builds a stage of its own
    built = []
    real_init = lti._Identifier.__init__

    def counting(self, *args):
        built.append(self)
        real_init(self, *args)

    monkeypatch.setattr(lti._Identifier, "__init__", counting)
    rls = RlsConfig(theta0=np.zeros(2), P0=np.eye(2), lam=0.9)
    samples = [(np.array([1.0, 0.5]), 0.2, -0.1, 0.1)] * 3
    assert len(list(shared_run(rls, (1, 3, None), samples))) == 3
    assert len(built) == 1
    LtiIntervalEstimator(make_config(n=2))
    assert len(built) == 2


def test_a_drift_box_is_kept_only_with_a_sample_the_stage_took():
    est = LtiIntervalEstimator(make_config(n=2, monotonic=True))
    drift = IntervalVector([1.0, 1.0], [2.0, 2.0])
    with pytest.raises(ValueError, match="^step 1: x must be finite"):
        est.step([np.nan, 0.0], 0.0, -0.1, 0.1, drift)
    assert est._identifier.drift_bounds is None
    est.step([1.0, 0.0], 0.0, -0.1, 0.1, drift)
    assert est._identifier.drift_bounds == ([1.0, 1.0], [2.0, 2.0])


def test_standalone_estimator_is_a_stage_of_one():
    a = LtiIntervalEstimator(make_config(n=2))
    b = LtiIntervalEstimator(make_config(n=2))
    assert a._identifier is not b._identifier
