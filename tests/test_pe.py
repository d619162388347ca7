import math

import numpy as np
import pytest

from ivrls import pe
from ivrls.pe import (
    analyze,
    asymptotic_radius_bound,
    contraction_constants,
    eta_q_bound,
    gamma_bounds,
    iss_envelope,
    m_star,
    pe_levels,
)
from ivrls.rls import RlsConfig
from ivrls.simulate import SimConfig, generate_lti

from helpers import collect_run, phi_product


def test_pe_levels_alternating_unit_vectors():
    # each window of two holds e1 and e2, so every Gram sum is the identity
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    alpha, beta = pe_levels(X, T=2)
    assert alpha == pytest.approx(1.0)
    assert beta == pytest.approx(1.0)


def test_pe_levels_rank_deficient_window():
    X = np.tile(np.array([[1.0, 0.0]]), (6, 1))
    alpha, beta = pe_levels(X, T=3)
    assert alpha == pytest.approx(0.0, abs=1e-12)
    assert beta == pytest.approx(3.0)


def test_pe_levels_zero_sequence():
    alpha, beta = pe_levels(np.zeros((5, 2)), T=2)
    assert alpha == 0.0 and beta == 0.0


def window_loop_levels(X, T):
    """pe_levels as a running min and max over one eigvalsh per window."""
    alpha, beta = math.inf, 0.0
    for s in range(X.shape[0] - T + 1):
        W = X[s : s + T]
        eigs = np.linalg.eigvalsh(W.T @ W)
        alpha = min(alpha, eigs[0])
        beta = max(beta, eigs[-1])
    return float(alpha), float(beta)


@pytest.mark.parametrize("T", [1, 2, 8, 45, 300])
@pytest.mark.parametrize("chunk_windows", [None, 1, 7])
def test_pe_levels_bit_equal_to_the_window_loop(T, chunk_windows, monkeypatch):
    # None keeps the default chunk; 1 and 7 windows per eigvalsh call put
    # chunk boundaries everywhere, and 300 is T = N
    if chunk_windows is not None:
        monkeypatch.setattr(pe, "_GRAM_CHUNK_ENTRIES", chunk_windows * 16)
    X = generate_lti(SimConfig(horizon=300, seed=27), seed=27).X
    X[-1] *= 10.0  # the largest level sits in the last window
    # the batched product reads X as laid out, without a contiguous copy:
    # Fortran order and reversed columns keep the window loop's bits too
    for layout in (X, np.asfortranarray(X), X[:, ::-1]):
        levels = np.array(pe_levels(layout, T)).tobytes()
        assert levels == np.array(window_loop_levels(layout, T)).tobytes()


def test_pe_levels_and_gamma_bounds_reject_non_finite_regressors():
    # a nan window would have a nan eigenvalue, which a running min and max
    # skip without a word, and eigvalsh fails on an inf one
    for bad in (np.nan, np.inf):
        X = np.array([1.0, 2.0, 3.0, 0.5, bad, 9.0, 4.0])[:, None]
        with pytest.raises(ValueError, match="x must be finite"):
            pe_levels(X, 1)
        with pytest.raises(ValueError, match="x must be finite"):
            gamma_bounds(X, 1, 0.9, np.eye(1), alpha=0.25, beta=81.0)


def test_pe_levels_requires_enough_samples():
    with pytest.raises(ValueError, match="at least"):
        pe_levels(np.zeros((3, 2)), T=4)


def test_gamma_bounds_unexcited_prefix():
    # with x = 0 over the first steps the information matrix only decays:
    # delta1 = lam^(T-1), delta2 = 1 for P0 = I
    lam, T = 0.5, 3
    g1, g2, d1, d2 = gamma_bounds(
        np.zeros((T - 1, 2)), T, lam, np.eye(2), alpha=1.0, beta=1.0
    )
    assert d1 == pytest.approx(lam ** (T - 1), rel=1e-12)
    assert d2 == pytest.approx(1.0, rel=1e-12)
    assert g1 == pytest.approx(min(d1, lam ** (2 * T - 1)), rel=1e-12)
    assert g2 == pytest.approx(
        max(d2, lam**T + (2 - lam) / (1 - lam)), rel=1e-12
    )


def test_gamma_bounds_single_step_window():
    g1, g2, d1, d2 = gamma_bounds(
        np.zeros((0, 2)), 1, 0.5, np.eye(2), alpha=1.0, beta=1.0
    )
    assert (d1, d2) == (1.0, 1.0)
    assert g1 == pytest.approx(0.5)
    assert g2 == pytest.approx(3.5)


def test_gamma_bounds_validation():
    with pytest.raises(ValueError, match="alpha"):
        gamma_bounds(np.zeros((2, 2)), 2, 0.9, np.eye(2), alpha=0.0, beta=1.0)
    with pytest.raises(ValueError, match="lam"):
        gamma_bounds(np.zeros((2, 2)), 2, 1.0, np.eye(2), alpha=1.0, beta=2.0)


def test_gamma_bounds_certify_a_real_run():
    # eigenvalues of the information matrix stay inside [gamma1, gamma2]
    ds = generate_lti(SimConfig(horizon=200, seed=3), seed=3)
    lam, P0 = 0.99, 1000.0 * np.eye(4)
    T = 8
    alpha, beta = pe_levels(ds.X, T)
    assert alpha > 0
    g1, g2, _, _ = gamma_bounds(ds.X, T, lam, P0, alpha, beta)
    Pinv = np.linalg.inv(P0)
    for x in ds.X:
        eigs = np.linalg.eigvalsh(Pinv)
        assert eigs[0] >= g1 * (1 - 1e-8)
        assert eigs[-1] <= g2 * (1 + 1e-8)
        Pinv = lam * Pinv + np.outer(x, x)
    eigs = np.linalg.eigvalsh(Pinv)
    assert eigs[0] >= g1 * (1 - 1e-8) and eigs[-1] <= g2 * (1 + 1e-8)


def test_contraction_constants():
    c, rho = contraction_constants(4, 1.0, 1.0, 0.81)
    assert c == pytest.approx(2.0)
    assert rho == pytest.approx(0.9)
    c, rho = contraction_constants(1, 2.0, 2.0, 0.99)
    assert c == pytest.approx(1.0)
    assert rho == pytest.approx(math.sqrt(0.99))


def test_contraction_envelope_on_a_run():
    ds = generate_lti(SimConfig(horizon=120, seed=5), seed=5)
    lam, P0, T = 0.99, 1000.0 * np.eye(4), 8
    alpha, beta = pe_levels(ds.X, T)
    g1, g2, _, _ = gamma_bounds(ds.X, T, lam, P0, alpha, beta)
    c, rho = contraction_constants(4, g1, g2, lam)
    config = RlsConfig(theta0=np.zeros(4), P0=P0, lam=lam)
    _, _, As, _ = collect_run(config, ds.X, ds.y)
    rng = np.random.default_rng(55)
    for _ in range(50):
        t0 = int(rng.integers(0, 120))
        t = int(rng.integers(t0 + 1, 121))
        phi = phi_product(As, t, t0)
        assert np.linalg.norm(phi, "fro") <= c * rho ** (t - t0) + 1e-8


def test_m_star_reference_value():
    assert m_star(4, 1.0, 10.0, 0.99) == pytest.approx(367.0, abs=0.1)


def test_m_star_degenerate_ratio():
    # n gamma2/gamma1 = 1 means every window is already contractive
    assert m_star(1, 2.0, 2.0, 0.5) == 0.0


def test_m_star_monotone_in_lambda():
    values = [m_star(4, 1.0, 10.0, lam) for lam in (0.9, 0.95, 0.99)]
    assert values[0] < values[1] < values[2]


def test_iss_envelope_initial_and_geometric():
    # t=0 keeps only the initial term
    assert iss_envelope(0, 0.5, 2.0, 0.1, 3.0, []) == pytest.approx(2.0 * 9.0 / 0.1)
    # constant noise, zero initial error: plain geometric sum
    a, lam, g1, t = 0.2, 0.5, 0.25, 12
    env = iss_envelope(t, lam, 1.0, g1, 0.0, np.full(t, a))
    assert env == pytest.approx(a**2 * (1 - lam**t) / ((1 - lam) * g1), rel=1e-12)


def test_iss_envelope_validation():
    with pytest.raises(ValueError, match="cover"):
        iss_envelope(5, 0.5, 1.0, 1.0, 0.0, np.zeros(3))
    with pytest.raises(ValueError, match="gamma1"):
        iss_envelope(1, 0.5, 1.0, 0.0, 0.0, np.zeros(1))


def test_asymptotic_radius_bound_reference_value():
    limsup, b_inf = asymptotic_radius_bound(2.0, 0.9, 1.0, 1.0, 10)
    assert b_inf == pytest.approx(20.0)
    assert limsup == pytest.approx(43.0, abs=0.1)


def test_asymptotic_radius_bound_long_window_limit():
    limsup, b_inf = asymptotic_radius_bound(2.0, 0.9, 1.0, 1.0, 500)
    assert limsup == pytest.approx(b_inf, rel=1e-10)


def test_asymptotic_radius_bound_rejects_short_window():
    # c rho^m >= 1 leaves the recursion uncertified
    with pytest.raises(ValueError, match="too short"):
        asymptotic_radius_bound(2.0, 0.9, 1.0, 1.0, 3)


def test_eta_q_bound_dominates_observed_gains():
    ds = generate_lti(SimConfig(horizon=150, seed=9), seed=9)
    lam, P0, T = 0.99, 1000.0 * np.eye(4), 8
    alpha, beta = pe_levels(ds.X, T)
    g1, g2, _, _ = gamma_bounds(ds.X, T, lam, P0, alpha, beta)
    norms = np.linalg.norm(ds.X, axis=1)
    bound = eta_q_bound(g1, g2, lam, norms.min(), norms.max())
    config = RlsConfig(theta0=np.zeros(4), P0=P0, lam=lam)
    _, _, _, qs = collect_run(config, ds.X, ds.y)
    assert max(np.linalg.norm(q) for q in qs) <= bound


def test_analyze_report_fields_and_serialization():
    ds = generate_lti(SimConfig(horizon=200, seed=1), seed=1)
    report = analyze(ds.X, lam=0.99, P0=1000.0 * np.eye(4), noise_radius=0.2)
    assert report.is_pe
    assert 0 < report.gamma1 <= report.gamma2
    assert 0 < report.rho < 1
    assert report.eta_q <= report.eta_q_bound
    assert report.b_inf_star <= report.b_inf_star_bound * (1 + 1e-12)
    kv = report.to_kv_text()
    for key in ("alpha", "beta", "T", "gamma1", "gamma2", "c", "rho",
                "m_star", "b_inf_star", "h_min", "h_max"):
        assert f"{key}=" in kv
    csv_text = report.to_csv_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "quantity,value"
    assert len(lines) == kv.count("\n") + 1
    # values round-trip through the kv text
    parsed = dict(line.split("=") for line in kv.strip().split("\n"))
    assert float(parsed["gamma1"]) == report.gamma1


def test_analyze_without_excitation_reports_nan():
    X = np.tile(np.array([[1.0, 0.0]]), (12, 1))
    report = analyze(X, lam=0.9, P0=np.eye(2))
    assert not report.is_pe
    assert math.isnan(report.gamma1) and math.isnan(report.m_star)
    assert math.isnan(report.eta_v)
    # the kv block still serializes
    assert "is_pe=false" in report.to_kv_text()


def test_analyze_b_inf_fields_come_from_the_asymptotic_bound():
    ds = generate_lti(SimConfig(horizon=300, seed=4), seed=4)
    P0 = 1000.0 * np.eye(4)
    # without a noise level neither bound can be certified
    report = analyze(ds.X, lam=0.99, P0=P0)
    assert report.is_pe and math.isnan(report.eta_v)
    assert math.isnan(report.b_inf_star) and math.isnan(report.b_inf_star_bound)
    # with one, both are b_inf_star of the same window, for the observed
    # and the worst-case gain norm
    report = analyze(ds.X, lam=0.99, P0=P0, noise_radius=0.2)
    m = math.ceil(report.m_star) + 1
    for eta_q, field in ((report.eta_q, report.b_inf_star),
                         (report.eta_q_bound, report.b_inf_star_bound)):
        assert field == asymptotic_radius_bound(report.c, report.rho, eta_q, 0.2, m)[1]
    # the closed form c eta_q_bound eta_v / (1 - rho), multiplied out
    g1, g2, lam = report.gamma1, report.gamma2, 0.99
    closed = (0.2 * math.sqrt(4) / (1.0 - math.sqrt(lam)) * (g2 / g1) ** 1.5 * report.h_max
              / (report.h_min**2 + lam * g2))
    assert report.b_inf_star_bound == pytest.approx(closed, rel=1e-14, abs=0)
    assert report.b_inf_star <= report.b_inf_star_bound


def test_analyze_gain_norms_match_the_full_identifier_replay():
    # the covariance-only replay gives the same gains, bit for bit, as the
    # full identifier driven by the real outputs
    ds = generate_lti(SimConfig(horizon=300, seed=4), seed=4)
    P0 = 1000.0 * np.eye(4)
    report = analyze(ds.X, lam=0.99, P0=P0, noise_radius=0.2)
    _, _, _, qs = collect_run(RlsConfig(theta0=np.zeros(4), P0=P0, lam=0.99), ds.X, ds.y)
    assert report.eta_q == max(float(np.linalg.norm(q)) for q in qs)


def test_analyze_rejects_bad_regressors_and_covariance():
    X = np.tile(np.eye(2), (4, 1))
    with pytest.raises(ValueError, match="positive definite"):
        analyze(X, lam=0.9, P0=-np.eye(2))
    X[3, 1] = np.inf
    with pytest.raises(ValueError, match="x must be finite"):
        analyze(X, lam=0.9, P0=np.eye(2))
