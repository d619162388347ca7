import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from ivrls.lti import EstimatorSpec
from ivrls.simulate import (
    REFERENCE_DRIFT_RADIUS,
    REFERENCE_LTV,
    REFERENCE_THETA,
    SimConfig,
    drift_increment,
    generate_lti,
    generate_ltv,
)


def test_config_validation():
    with pytest.raises(ValueError, match="theta_true"):
        SimConfig(theta_true=(1.0, 2.0))
    with pytest.raises(ValueError, match="lam"):
        SimConfig(lam=0.0)
    with pytest.raises(ValueError, match="window"):
        SimConfig(modes=(0,))
    with pytest.raises(ValueError, match="drift_radius"):
        SimConfig(drift_radius=(0.1,))
    with pytest.raises(ValueError, match="runs"):
        SimConfig(runs=0)


nan, inf = math.nan, math.inf


@pytest.mark.parametrize("settings, message", [
    (dict(n_a=-1), "need n_a, n_b >= 0 with n_a + n_b >= 1, got -1, 2"),
    (dict(theta_true=(nan, 0.75, 0.6, -0.1)),
     "theta_true entries must be finite, got (nan, 0.75, 0.6, -0.1)"),
    (dict(theta_true=(-1.4, 0.75, -inf, -0.1)),
     "theta_true entries must be finite, got (-1.4, 0.75, -inf, -0.1)"),
    (dict(noise_half_width=-0.1), "noise_half_width must be finite and >= 0, got -0.1"),
    (dict(noise_half_width=nan), "noise_half_width must be finite and >= 0, got nan"),
    (dict(noise_half_width=inf), "noise_half_width must be finite and >= 0, got inf"),
    (dict(horizon=0), "horizon must be >= 1, got 0"),
    (dict(p0_scale=0.0), "p0_scale must be finite and positive, got 0.0"),
    (dict(p0_scale=nan), "p0_scale must be finite and positive, got nan"),
    (dict(p0_scale=inf), "p0_scale must be finite and positive, got inf"),
    (dict(prior_radius=-4.0), "prior_radius must be finite and positive, got -4.0"),
    (dict(prior_radius=nan), "prior_radius must be finite and positive, got nan"),
    (dict(modes=()), "modes must not be empty"),
    (dict(drift_radius=(0.1, -0.05, 0.0, 0.0)),
     "drift_radius entries must be finite and >= 0, got (0.1, -0.05, 0.0, 0.0)"),
    (dict(drift_radius=(0.1, 0.05, inf, 0.0)),
     "drift_radius entries must be finite and >= 0, got (0.1, 0.05, inf, 0.0)"),
    (dict(drift_period=0.0), "drift_period must be finite and positive, got 0.0"),
    (dict(drift_period=nan), "drift_period must be finite and positive, got nan"),
    (dict(workers=0), "workers must be >= 1, got 0"),
    (dict(lam=0.0), "lam must lie in (0, 1], got 0.0"),
    (dict(lam=nan), "lam must lie in (0, 1], got nan"),
    (dict(modes=(5, 0)), "truncation window must be >= 1, got 0"),
    (dict(modes=(5, None, 5)), "mode 5 is given more than once"),
    (dict(seed=-1), "seed must be >= 0, got -1"),
    (dict(horizon=100_001, modes=(20, None)),
     "horizon 100001 exceeds the exact-mode cap 100000; use a truncation window for long runs"),
])
def test_a_setting_out_of_range_or_not_finite_is_refused_naming_it(settings, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SimConfig(**settings)
    # the estimator's own settings are checked by its spec, with the same words
    if set(settings) <= {f.name for f in fields(EstimatorSpec)}:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EstimatorSpec(**settings)


def test_same_seed_is_bitwise_reproducible():
    config = SimConfig(horizon=100)
    a = generate_lti(config, seed=42)
    b = generate_lti(config, seed=42)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.v, b.v)
    c = generate_lti(config, seed=43)
    assert not np.array_equal(a.y, c.y)


def test_pinned_draw_order_and_transforms():
    # the exact stream is part of the contract: PCG64(seed), inputs first
    # via Box-Muller on block uniforms, then the uniform noise draws
    config = SimConfig(horizon=50)
    ds = generate_lti(config, seed=7)
    rng = np.random.Generator(np.random.PCG64(7))
    u1 = rng.random(50)
    u2 = rng.random(50)
    u = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
    v = 0.2 * (2.0 * rng.random(50) - 1.0)
    np.testing.assert_array_equal(ds.v, v)
    # u(t-1) appears as the third regressor component one step later
    np.testing.assert_array_equal(ds.X[1:, 2], u[:-1])


def test_regressor_lag_structure():
    ds = generate_lti(SimConfig(horizon=60), seed=11)
    # first sample has no history at all
    np.testing.assert_array_equal(ds.X[0], np.zeros(4))
    np.testing.assert_array_equal(ds.X[1:, 0], -ds.y[:-1])
    np.testing.assert_array_equal(ds.X[2:, 1], -ds.y[:-2])
    np.testing.assert_array_equal(ds.X[2:, 3], ds.X[1:-1, 2])


def test_outputs_satisfy_model_equation():
    ds = generate_lti(SimConfig(horizon=80), seed=13)
    theta = np.array(REFERENCE_THETA)
    # same per-row dot product the generator uses, so equality is bitwise
    recomputed = np.array([ds.X[i] @ theta + ds.v[i] for i in range(80)])
    np.testing.assert_array_equal(ds.y, recomputed)
    np.testing.assert_allclose(ds.y, ds.X @ theta + ds.v, rtol=1e-12, atol=1e-14)
    assert np.all(ds.v >= ds.v_low) and np.all(ds.v <= ds.v_high)
    ds.validate()


def test_zero_noise_width():
    ds = generate_lti(SimConfig(horizon=30, noise_half_width=0.0), seed=17)
    np.testing.assert_array_equal(ds.v, np.zeros(30))
    np.testing.assert_array_equal(ds.v_low, np.zeros(30))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_unstable_plant_reports_divergence_time():
    config = SimConfig(theta_true=(-12.0, 0.0, 1.0, 0.0), horizon=400)
    with pytest.raises(ValueError, match=r"t=\d+"):
        generate_lti(config, seed=1)


def test_ltv_trajectory_and_drift_boxes():
    config = replace(REFERENCE_LTV, horizon=90)
    ds = generate_ltv(config, seed=19)
    assert ds.is_ltv
    r = np.array(REFERENCE_DRIFT_RADIUS)
    np.testing.assert_array_equal(ds.delta_low, np.tile(-r, (90, 1)))
    np.testing.assert_array_equal(ds.delta_high, np.tile(r, (90, 1)))
    # trajectory accumulates the sinusoidal increments from the base value
    theta = np.array(REFERENCE_THETA)
    for i in range(90):
        theta = theta + drift_increment(config, i + 1)
        np.testing.assert_array_equal(ds.theta_true[i], theta)
    # every realized increment sits inside its declared box
    steps = np.diff(ds.theta_true, axis=0)
    assert np.all(steps >= ds.delta_low[1:] - 1e-15)
    assert np.all(steps <= ds.delta_high[1:] + 1e-15)
    ds.validate()


def test_ltv_requires_drift_radius():
    with pytest.raises(ValueError, match="drift_radius"):
        generate_ltv(SimConfig(), seed=1)


def test_ltv_shares_the_lti_noise_stream():
    lti_ds = generate_lti(SimConfig(horizon=40), seed=23)
    ltv_ds = generate_ltv(
        SimConfig(horizon=40, drift_radius=(0.0, 0.0, 0.0, 0.0)), seed=23
    )
    # zero drift radius makes the plants identical
    np.testing.assert_array_equal(lti_ds.y, ltv_ds.y)
    np.testing.assert_array_equal(lti_ds.v, ltv_ds.v)
