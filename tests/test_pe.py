import math
import re

import numpy as np
import pytest

from ivrls import pe
from ivrls.cli import main
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


def test_analyze_report_fields_and_serialization(tmp_path):
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
    # analyze-pe's defaults and the dataset's noise bounds give the same report
    ds.to_csv(tmp_path / "ds.csv")
    assert main(["analyze-pe", "--in", str(tmp_path / "ds.csv"), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "pe_report.txt").read_text() == kv
    csv_text = (tmp_path / "pe_report.csv").read_text()
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


@pytest.mark.filterwarnings("error")
def test_a_window_gram_past_the_float_range_is_refused_before_it_is_formed():
    # x_1 = 1e200 at t = 5, and a regressor that grows tenfold per step so
    # slowly that the replay's x'Px stays in range while x_2^2 overflows
    huge = np.ones((10, 1))
    huge[4] = 1e200
    grow = np.array([[10.0 ** (4 * t), (-1) ** t * 10.0 ** (4 * t)] for t in range(1, 60)])
    for X, T, t in ((huge, 3, 5), (huge, 1, 5), (grow, 3, 39)):
        message = rf"^regressor out of range at t={t}: the Gram of the window ending there "
        with pytest.raises(ArithmeticError, match=message):
            pe_levels(X, T)
        with pytest.raises(ArithmeticError, match=message):
            analyze(X, lam=0.99, P0=1000.0 * np.eye(X.shape[1]), T=T, noise_radius=0.1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("T", [150, 155, 165])
def test_analyze_reports_inf_where_the_chain_leaves_the_float_range(T):
    # gamma1 = alpha lam^(2T-1) at lam 0.1: 2.4e-298 at T = 150, 2.6e-308
    # at T = 155, where c = sqrt(n gamma2 / gamma1) overflows, and 0 at T = 165
    ds = generate_lti(SimConfig(horizon=300), seed=0)
    P0 = 1000.0 * np.eye(4)
    report = analyze(ds.X, lam=0.1, P0=P0, T=T, noise_radius=0.2)
    assert report.is_pe
    assert report.gamma1 == gamma_bounds(ds.X, T, 0.1, P0, report.alpha, report.beta)[0]
    assert report.gamma1 == report.alpha * 0.1 ** (2 * T - 1)
    assert report.rho == math.sqrt(0.1) and report.b_inf_star_bound == math.inf
    if T == 150:  # in range: the chain of the public certificates
        assert report.c == contraction_constants(4, report.gamma1, report.gamma2, 0.1)[0]
        assert report.m_star == m_star(4, report.gamma1, report.gamma2, 0.1) < math.inf
        assert math.isfinite(report.b_inf_star)
    else:
        assert (report.gamma1 > 0.0) == (T == 155)
        assert [report.c, report.m_star, report.eta_q_bound, report.b_inf_star] == [math.inf] * 4


def test_analyze_pe_writes_m_star_inf_past_the_float_range(tmp_path, capsys):
    ds_path = tmp_path / "ds.csv"
    generate_lti(SimConfig(horizon=300), seed=0).to_csv(ds_path)
    out = tmp_path / "pe"
    argv = ["analyze-pe", "--in", str(ds_path), "--out", str(out), "--lambda", "0.1"]
    assert main(argv + ["--window", "165"]) == 0
    lines = (out / "pe_report.txt").read_text().splitlines()
    assert "gamma1=0" in lines and "m_star=inf" in lines and "b_inf_star=inf" in lines
    assert capsys.readouterr().err == ""


X3 = np.eye(2)[[0, 1, 0]]


@pytest.mark.parametrize("func, args, message", [
    (pe_levels, (np.zeros(5), 2), "X must be an (N, n) array, got shape (5,)"),
    (pe_levels, (X3, 0), "T must be >= 1, got 0"),
    (gamma_bounds, (X3, 0, 0.9, np.eye(2), 1.0, 2.0), "T must be >= 1, got 0"),
    (gamma_bounds, (X3[:1], 4, 0.9, np.eye(2), 1.0, 2.0), "need at least T-1=3 regressors, got 1"),
    (gamma_bounds, (X3, 2, 0.9, np.eye(2), 2.0, 1.0), "beta=1.0 must be >= alpha=2.0"),
    (contraction_constants, (0, 1.0, 2.0, 0.9), "n must be >= 1, got 0"),
    (contraction_constants, (2, 0.0, 1.0, 0.9), "need 0 < gamma1 <= gamma2, got 0.0, 1.0"),
    (m_star, (2, 1.0, 2.0, 1.0), "lam must lie in (0, 1), got 1.0"),
    (iss_envelope, (-1, 0.9, 1.0, 1.0, 1.0, []), "t must be >= 0, got -1"),
    (iss_envelope, (1, 1.5, 1.0, 1.0, 1.0, [0.1]), "lam must lie in (0, 1], got 1.5"),
    (asymptotic_radius_bound, (0.0, 0.5, 1.0, 1.0, 3), "c must be positive, got 0.0"),
    (asymptotic_radius_bound, (1.0, 1.0, 1.0, 1.0, 3), "rho must lie in (0, 1), got 1.0"),
    (asymptotic_radius_bound, (1.0, 0.5, -1.0, 1.0, 3), "eta_q and eta_v must be nonnegative"),
    (asymptotic_radius_bound, (1.0, 0.5, 1.0, 1.0, 0), "m must be >= 1, got 0"),
    (eta_q_bound, (2.0, 1.0, 0.9, 0.0, 1.0), "need 0 < gamma1 <= gamma2, got 2.0, 1.0"),
    (eta_q_bound, (1.0, 2.0, 0.0, 0.0, 1.0), "lam must lie in (0, 1], got 0.0"),
    (eta_q_bound, (1.0, 2.0, 0.9, 2.0, 1.0), "need 0 <= h_min <= h_max, got 2.0, 1.0"),
    # a count or a window is an integer, never truncated
    (pe_levels, (X3, 2.5), "T must be an integer, got 2.5"),
    (gamma_bounds, (X3, 2.0, 0.9, np.eye(2), 1.0, 2.0), "T must be an integer, got 2.0"),
    (contraction_constants, (2.0, 1.0, 2.0, 0.9), "n must be an integer, got 2.0"),
    (iss_envelope, (1.5, 0.9, 1.0, 1.0, 1.0, [0.1, 0.1]), "t must be an integer, got 1.5"),
    (asymptotic_radius_bound, (1.0, 0.5, 1.0, 1.0, 3.5), "m must be an integer, got 3.5"),
    # a nan is outside every assumption, never skipped or carried into a bound
    (gamma_bounds, (X3, 2, 0.9, np.eye(2), math.nan, 2.0), "alpha must be positive, got nan"),
    (gamma_bounds, (X3, 2, 0.9, np.eye(2), 1.0, math.nan), "beta=nan must be >= alpha=1.0"),
    (gamma_bounds, (X3, 2, 0.9, np.diag([1.0, math.nan]), 1.0, 2.0), "P0 must be finite"),
    (gamma_bounds, (X3, 2, 0.9, np.diag([1.0, math.inf]), 1.0, 2.0), "P0 must be finite"),
    (iss_envelope, (1, 0.9, 1.0, math.nan, 1.0, [0.1]), "gamma1 must be positive, got nan"),
    (asymptotic_radius_bound, (math.nan, 0.5, 1.0, 1.0, 3), "c must be positive, got nan"),
    (asymptotic_radius_bound, (1.0, 0.5, math.nan, 1.0, 3), "eta_q and eta_v must be nonnegative"),
    (asymptotic_radius_bound, (1.0, 0.5, 1.0, math.nan, 3), "eta_q and eta_v must be nonnegative"),
    (eta_q_bound, (1.0, 2.0, 0.9, math.nan, 1.0), "need 0 <= h_min <= h_max, got nan, 1.0"),
    (eta_q_bound, (1.0, 2.0, 0.9, 0.0, math.nan), "need 0 <= h_min <= h_max, got 0.0, nan"),
])
def test_each_certificate_refuses_inputs_outside_its_assumptions(func, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        func(*args)
