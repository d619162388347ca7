import math

import numpy as np
import pytest

from ivrls.intervals import from_center_radius
from ivrls.lti import _Identifier, _identity
from ivrls.rls import RlsConfig, rls_init, rls_step

from helpers import batch_rls, collect_run, random_spd


def test_config_rejects_bad_lambda():
    for lam in (0.0, -0.5, 1.2):
        with pytest.raises(ValueError, match="lam"):
            RlsConfig(theta0=np.zeros(2), P0=np.eye(2), lam=lam)


def test_config_warns_on_lambda_one():
    with pytest.warns(UserWarning, match="forgetting") as caught:
        RlsConfig(theta0=np.zeros(2), P0=np.eye(2), lam=1.0)
    # the warning names the caller's line, not the generated __init__
    assert [w.filename for w in caught] == [__file__]


def test_config_rejects_indefinite_p0():
    with pytest.raises(ValueError, match="positive definite"):
        RlsConfig(theta0=np.zeros(2), P0=np.array([[1.0, 2.0], [2.0, 1.0]]), lam=0.9)


def test_config_rejects_asymmetric_p0():
    with pytest.raises(ValueError, match="symmetric"):
        RlsConfig(theta0=np.zeros(2), P0=np.array([[1.0, 0.1], [0.0, 1.0]]), lam=0.9)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theta0, P0, name", [
    ([math.nan, 0.0], np.eye(2), "theta0"),
    ([0.0, -math.inf], np.eye(2), "theta0"),
    ([0.0, 0.0], [[math.nan, 0.0], [0.0, 1.0]], "P0"),
    ([0.0, 0.0], [[math.inf, 0.0], [0.0, 1.0]], "P0"),
])
def test_config_rejects_non_finite_initial_conditions(theta0, P0, name):
    # before the symmetry and eigenvalue checks, which would misname the
    # cause or warn on the non-finite entries
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        RlsConfig(theta0=theta0, P0=P0, lam=0.9)


def test_config_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        RlsConfig(theta0=np.zeros(3), P0=np.eye(2), lam=0.9)


def test_scalar_hand_step():
    # x=1, y=2 from (theta0=0, P0=1): gain 1/(1+1)=0.5, theta=1, P=0.5
    with pytest.warns(UserWarning):
        config = RlsConfig(theta0=np.zeros(1), P0=np.eye(1), lam=1.0)
    state = rls_step(rls_init(config), np.array([1.0]), 2.0)
    assert state.t == 1
    np.testing.assert_allclose(state.last_q, [0.5])
    np.testing.assert_allclose(state.theta, [1.0])
    np.testing.assert_allclose(state.P, [[0.5]])
    np.testing.assert_allclose(np.eye(1) - np.outer(state.last_q, [1.0]), [[0.5]])


def test_zero_regressor_only_rescales_p():
    config = RlsConfig(theta0=np.array([1.0, -2.0]), P0=2.0 * np.eye(2), lam=0.5)
    state = rls_step(rls_init(config), np.zeros(2), 7.0)
    np.testing.assert_array_equal(state.last_q, np.zeros(2))
    np.testing.assert_array_equal(state.theta, config.theta0)
    np.testing.assert_allclose(state.P, 4.0 * np.eye(2))
    np.testing.assert_array_equal(np.eye(2) - np.outer(state.last_q, np.zeros(2)), np.eye(2))


def test_noise_free_fixed_point():
    # starting at the true parameters with exact data, theta never moves
    rng = np.random.default_rng(2)
    theta = np.array([0.5, -1.5, 2.0])
    config = RlsConfig(theta0=theta, P0=10.0 * np.eye(3), lam=0.9)
    state = rls_init(config)
    for _ in range(25):
        x = rng.normal(size=3)
        state = rls_step(state, x, x @ theta)
        np.testing.assert_array_equal(state.theta, theta)


def test_step_input_validation():
    config = RlsConfig(theta0=np.zeros(2), P0=np.eye(2), lam=0.9)
    state = rls_init(config)
    with pytest.raises(ValueError, match="components"):
        rls_step(state, np.zeros(3), 0.0)
    with pytest.raises(ValueError, match="finite"):
        rls_step(state, np.array([np.inf, 0.0]), 0.0)
    with pytest.raises(ValueError, match="finite"):
        rls_step(state, np.zeros(2), np.nan)


def test_matches_batch_solution():
    rng = np.random.default_rng(7)
    for trial in range(5):
        n = 3
        lam = 0.9
        theta0 = rng.normal(size=n)
        P0 = random_spd(rng, n, scale=5.0)
        config = RlsConfig(theta0=theta0, P0=P0, lam=lam)
        X = rng.normal(size=(30, n))
        y = rng.normal(size=30)
        state = rls_init(config)
        for t in range(1, 31):
            state = rls_step(state, X[t - 1], y[t - 1])
            ref_theta, ref_P = batch_rls(X, y, lam, theta0, P0, t)
            np.testing.assert_allclose(state.theta, ref_theta, rtol=1e-7, atol=1e-10)
            np.testing.assert_allclose(state.P, ref_P, rtol=1e-7, atol=1e-10)


def test_information_form_recursion():
    # P^{-1}(t) = lam P^{-1}(t-1) + x x' must hold for the inverted states
    rng = np.random.default_rng(9)
    config = RlsConfig(theta0=np.zeros(3), P0=100.0 * np.eye(3), lam=0.95)
    X = rng.normal(size=(80, 3))
    y = rng.normal(size=80)
    state = rls_init(config)
    prev_inv = np.linalg.inv(state.P)
    for k in range(80):
        state = rls_step(state, X[k], y[k])
        cur_inv = np.linalg.inv(state.P)
        residual = cur_inv - 0.95 * prev_inv - np.outer(X[k], X[k])
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(cur_inv)
        prev_inv = cur_inv


def test_symmetry_drift_is_below_tolerance():
    # the raw rank-one update, before re-symmetrization, stays symmetric
    # to 1e-10 relative
    rng = np.random.default_rng(13)
    config = RlsConfig(theta0=np.zeros(4), P0=1000.0 * np.eye(4), lam=0.99)
    state = rls_init(config)
    for _ in range(200):
        x = rng.normal(size=4)
        P_prev = state.P
        state = rls_step(state, x, rng.normal())
        raw = (P_prev - np.outer(state.last_q, P_prev @ x)) / config.lam
        asym = np.linalg.norm(raw - raw.T)
        assert asym <= 1e-10 * np.linalg.norm(raw)
        assert np.array_equal(state.P, state.P.T)


def test_gain_denominator_guard():
    config = RlsConfig(theta0=np.zeros(1), P0=np.eye(1), lam=0.9)
    state = rls_init(config)
    # corrupt the covariance to simulate a lost factorization
    object.__setattr__(state, "P", np.array([[-2.0]]))
    with pytest.raises(ArithmeticError, match="positive definiteness"):
        rls_step(state, np.array([1.0]), 0.0)


def test_covariance_overflow_fails_at_the_step_it_happens():
    # heavy forgetting with one excited direction: the other three
    # diagonal entries of P grow by 1/lam per step until they overflow
    rng = np.random.default_rng(2)
    state = rls_init(RlsConfig(theta0=np.zeros(4), P0=1000.0 * np.eye(4), lam=0.1))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(304):
            state = rls_step(state, np.array([rng.normal(), 0.0, 0.0, 0.0]), rng.normal())
        assert np.all(np.isfinite(state.P))
        with pytest.raises(ArithmeticError, match="covariance overflow at t=305"):
            rls_step(state, np.array([rng.normal(), 0.0, 0.0, 0.0]), rng.normal())


def test_states_are_fresh_objects():
    config = RlsConfig(theta0=np.zeros(2), P0=np.eye(2), lam=0.9)
    s0 = rls_init(config)
    s1 = rls_step(s0, np.array([1.0, 0.0]), 1.0)
    assert s0.t == 0 and s1.t == 1
    np.testing.assert_array_equal(s0.theta, np.zeros(2))
    assert s1.theta is not s0.theta


def test_collect_run_helper_consistency():
    rng = np.random.default_rng(21)
    config = RlsConfig(theta0=np.zeros(2), P0=np.eye(2), lam=0.8)
    X = rng.normal(size=(10, 2))
    y = rng.normal(size=10)
    thetas, Ps, As, qs = collect_run(config, X, y)
    assert len(thetas) == 10
    # A(t) = I - q(t) x(t)'
    for k in range(10):
        np.testing.assert_allclose(As[k], np.eye(2) - np.outer(qs[k], X[k]))


def test_transition_and_covariance_bit_equal_to_outer_products():
    # an FIR regressor fills up from zeros: entries of q x' that are zero
    # must come out of I - q x' as +0.0, as with np.eye and np.outer.  The
    # library's np.dot must give the bits of the @ forms written here.
    config = RlsConfig(theta0=np.zeros(4), P0=10.0 * np.eye(4), lam=0.95)
    state = rls_init(config)
    prior = from_center_radius([0.5, -0.25, 1.0, 0.0], np.full(4, 4.0))
    drift = from_center_radius([0.01, -0.02, 0.0, 0.03], np.full(4, 0.05))
    # an exact stage without drift, and a windowed one with a drift box at every step
    stages = [(None, _Identifier(config, prior, (None,))),
              (drift, _Identifier(config, prior, (3,)))]
    u = [1.0, -0.5, 2.0, 0.25, -1.5, 0.75]
    for t in range(1, len(u) + 1):
        x = np.array((u[:t][::-1] + [0.0] * 4)[:4])
        y, v_low, v_high = 0.3 * t, -0.1, 0.2
        prev = state
        state = rls_step(prev, x, y)
        q, Px = state.last_q, prev.P @ x
        expected_A = np.eye(4) - np.outer(q, x)
        expected_P = (prev.P - np.outer(q, Px)) / config.lam
        expected_P = 0.5 * (expected_P + expected_P.T)
        assert q.tobytes() == (Px / (config.lam + x @ Px)).tobytes()
        assert state.theta.tobytes() == (prev.theta + q * (y - x @ prev.theta)).tobytes()
        assert state.P.tobytes() == expected_P.tobytes()
        for box, stage in stages:
            c = stage.center
            stage._take(x, y, v_low, v_high, box)
            A = stage.At.T.copy()  # the stage keeps A(t) transposed; C order, as it multiplies
            assert A.tobytes() == expected_A.tobytes()
            zeros = A == 0.0
            assert zeros.any() == (t < 4) and not np.signbit(A[zeros]).any()
            expected_c = A @ c + q * (y - 0.5 * (v_low + v_high))
            if box is not None:
                expected_c = expected_c + A @ box.center
            assert stage.center.tobytes() == expected_c.tobytes()
    # the cached identity is shared, read-only and never handed out
    assert _identity(4) is _identity(4) and not _identity(4).flags.writeable
    assert all(not np.shares_memory(stage.At, _identity(4)) for _, stage in stages)
