"""Excitation and stability diagnostics for the RLS error dynamics.

The forgetting-factor identifier contracts its estimation error only
when the regressor sequence is persistently exciting: every window of T
consecutive steps must have a Gram sum

    alpha I <= sum_{k=t+1}^{t+T} x(k) x(k)' <= beta I

with alpha > 0.  From (alpha, beta, T) and the initial covariance this
module derives uniform bounds gamma1 I <= P^{-1}(t) <= gamma2 I on the
inverse covariance,

    gamma1 = min(delta1, alpha lam^{2T-1})
    gamma2 = max(delta2, lam^T sigma_max(P^{-1}(0)) + beta (2-lam)/(1-lam))

where delta1/delta2 cover the first T steps directly, and from those the
contraction envelope of products of the error transition matrices,

    ||A(t) ... A(t0+1)||_F <= c rho^(t-t0),  c = sqrt(n gamma2/gamma1),
    rho = sqrt(lam),

the threshold m_star = -ln(n gamma2/gamma1) / ln(lam) above which a
radius recursion truncated to a window of m > m_star steps is provably
bounded (c rho^m < 1), the ISS envelope on the squared estimation error,
and asymptotic bounds on the truncated radius.

Everything here is a certificate about worst-case behaviour; the bounds
are typically loose by orders of magnitude but are what the guarantees
rest on.  `analyze` bundles the individual functions into one report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .rls import RlsConfig, _gain_update

__all__ = [
    "PeReport",
    "pe_levels",
    "gamma_bounds",
    "contraction_constants",
    "m_star",
    "iss_envelope",
    "asymptotic_radius_bound",
    "eta_q_bound",
    "analyze",
]


# Gram entries per batched eigvalsh call in pe_levels (512 KiB of floats).
_GRAM_CHUNK_ENTRIES = 1 << 16


def _regressors(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be an (N, n) array, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("x must be finite")
    return X


def pe_levels(X, T: int) -> tuple[float, float]:
    """Smallest and largest excitation level over all windows of length T.

    Returns (alpha, beta): the minimum over window starts of the smallest
    eigenvalue of the window Gram sum, and the maximum of the largest.
    alpha > 0 means the sequence is persistently exciting at window T.
    """
    X = _regressors(X)
    N = X.shape[0]
    T = int(T)
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if N < T:
        raise ValueError(f"need at least T={T} regressors, got {N}")
    n = X.shape[1]
    starts = N - T + 1
    # Each window's Gram is W'W, with the bits of W.T @ W on its own: a
    # batched matmul of the window views W' (n x T, no copy) with their
    # transposes takes the same kernel per window.  One fixed-size chunk
    # of Grams per matmul and eigvalsh call keeps memory flat however long
    # X is.
    windows = np.lib.stride_tricks.sliding_window_view(X, T, axis=0)
    chunk = max(1, _GRAM_CHUNK_ENTRIES // max(1, n * n))
    grams = np.empty((min(chunk, starts), n, n))
    alpha = math.inf
    beta = 0.0
    for first in range(0, starts, chunk):
        count = min(chunk, starts - first)
        Wt = windows[first : first + count]
        np.matmul(Wt, Wt.transpose(0, 2, 1), out=grams[:count])
        eigs = np.linalg.eigvalsh(grams[:count])
        # builtin min and max from the running value: the same comparisons,
        # in the same order, as one window at a time (a nan is skipped)
        alpha = min(alpha, *eigs[:, 0].tolist())
        beta = max(beta, *eigs[:, -1].tolist())
    return float(alpha), float(beta)


def gamma_bounds(
    X, T: int, lam: float, P0, alpha: float, beta: float
) -> tuple[float, float, float, float]:
    """Uniform eigenvalue bounds gamma1 I <= P^{-1}(t) <= gamma2 I, all t >= 0.

    The excitation levels (alpha, beta) certified for window T cover
    t >= T; the first T steps are covered directly by running the
    information-form recursion P^{-1}(t) = lam P^{-1}(t-1) + x(t) x(t)'
    on the first T-1 regressors:

        delta1 = min_{t=0..T-1} sigma_min(P^{-1}(t))
        delta2 = max_{t=0..T-1} sigma_max(P^{-1}(t))

    Returns (gamma1, gamma2, delta1, delta2).
    """
    X = _regressors(X)
    T = int(T)
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if X.shape[0] < T - 1:
        raise ValueError(f"need at least T-1={T - 1} regressors, got {X.shape[0]}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if beta < alpha:
        raise ValueError(f"beta={beta} must be >= alpha={alpha}")
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0, 1), got {lam}")
    P0 = np.asarray(P0, dtype=float)

    Pinv = np.linalg.inv(P0)
    Pinv = 0.5 * (Pinv + Pinv.T)
    eigs0 = np.linalg.eigvalsh(Pinv)
    delta1, delta2 = eigs0[0], eigs0[-1]
    sigma_max_P0inv = eigs0[-1]
    for t in range(1, T):
        x = X[t - 1]
        Pinv = lam * Pinv + np.outer(x, x)
        eigs = np.linalg.eigvalsh(0.5 * (Pinv + Pinv.T))
        delta1 = min(delta1, eigs[0])
        delta2 = max(delta2, eigs[-1])

    gamma1 = min(delta1, alpha * lam ** (2 * T - 1))
    gamma2 = max(delta2, lam**T * sigma_max_P0inv + beta * (2.0 - lam) / (1.0 - lam))
    return float(gamma1), float(gamma2), float(delta1), float(delta2)


def contraction_constants(
    n: int, gamma1: float, gamma2: float, lam: float
) -> tuple[float, float]:
    """Envelope ||Phi(t, t0)||_F <= c rho^(t-t0) for error-transition products."""
    _check_constants(n, gamma1, gamma2, lam)
    c = math.sqrt(n * gamma2 / gamma1)
    rho = math.sqrt(lam)
    return c, rho


def m_star(n: int, gamma1: float, gamma2: float, lam: float) -> float:
    """Real-valued truncation threshold: c rho^m < 1 iff m > m_star.

    Callers needing an integer window take ceil(m_star) + 1.
    """
    _check_constants(n, gamma1, gamma2, lam)
    return -math.log(n * gamma2 / gamma1) / math.log(lam)


def _check_constants(n: int, gamma1: float, gamma2: float, lam: float) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < gamma1 <= gamma2:
        raise ValueError(f"need 0 < gamma1 <= gamma2, got {gamma1}, {gamma2}")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0, 1), got {lam}")


def iss_envelope(
    t: int,
    lam: float,
    sigma_max_P0inv: float,
    gamma1: float,
    theta_err0_norm: float,
    noise_history,
) -> float:
    """Certified bound on the squared error norm ||theta(t) - theta||^2:

        (1/gamma1) (lam^t sigma_max(P^{-1}(0)) ||err(0)||^2
                    + sum_{k=1}^{t} lam^(t-k) v(k)^2)

    noise_history holds v(1..t) (longer histories are truncated to t).
    """
    t = int(t)
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if gamma1 <= 0.0:
        raise ValueError(f"gamma1 must be positive, got {gamma1}")
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"lam must lie in (0, 1], got {lam}")
    v = np.asarray(noise_history, dtype=float)
    if v.shape[0] < t:
        raise ValueError(f"noise_history must cover {t} steps, got {v.shape[0]}")
    weights = lam ** np.arange(t - 1, -1, -1, dtype=float)
    forced = float(weights @ (v[:t] ** 2)) if t else 0.0
    return (lam**t * sigma_max_P0inv * theta_err0_norm**2 + forced) / gamma1


def asymptotic_radius_bound(
    c: float, rho: float, eta_q: float, eta_v: float, m: int
) -> tuple[float, float]:
    """Asymptotic bounds on the window-m truncated radius.

    With per-term bound c rho^j eta_q eta_v on the propagated noise
    terms, the full-memory radius satisfies
    limsup ||r(t)|| <= b_inf_star = c eta_q eta_v / (1 - rho), and the
    truncated recursion satisfies

        limsup ||r_m(t)|| <= b_inf_star (1 - rho^m) / (1 - c rho^m)

    provided c rho^m < 1.  Returns (limsup_bound, b_inf_star); raises
    when the window is too short for the certificate (c rho^m >= 1).
    """
    if c <= 0.0:
        raise ValueError(f"c must be positive, got {c}")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if eta_q < 0.0 or eta_v < 0.0:
        raise ValueError("eta_q and eta_v must be nonnegative")
    m = int(m)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    contraction = c * rho**m
    if contraction >= 1.0:
        raise ValueError(
            f"window m={m} too short for a bounded certificate: "
            f"c rho^m = {contraction:g} >= 1"
        )
    b_inf_star = c * eta_q * eta_v / (1.0 - rho)
    limsup_bound = b_inf_star * (1.0 - rho**m) / (1.0 - contraction)
    return limsup_bound, b_inf_star


def eta_q_bound(
    gamma1: float, gamma2: float, lam: float, h_min: float, h_max: float
) -> float:
    """Worst-case gain norm: ||q(t)|| <= (1/gamma1) h_max / (lam + h_min^2/gamma2)

    where h_min/h_max bound the regressor norms.  h_min = 0 is allowed
    (the denominator degrades to lam).
    """
    if not 0.0 < gamma1 <= gamma2:
        raise ValueError(f"need 0 < gamma1 <= gamma2, got {gamma1}, {gamma2}")
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"lam must lie in (0, 1], got {lam}")
    if h_min < 0.0 or h_max < h_min:
        raise ValueError(f"need 0 <= h_min <= h_max, got {h_min}, {h_max}")
    return (1.0 / gamma1) * h_max / (lam + h_min**2 / gamma2)


@dataclass(frozen=True)
class PeReport:
    """Bundle of excitation levels, eigenvalue bounds, and derived constants.

    Fields that cannot be certified from the inputs (no excitation,
    lam = 1, or no noise level supplied) are NaN rather than omitted.
    eta_q is the largest gain norm observed on the analyzed run; the
    b_inf_star field uses it, while b_inf_star_bound uses the closed-form
    eta_q_bound and is therefore never smaller (up to roundoff).
    """

    n: int
    N: int
    T: int
    lam: float
    alpha: float
    beta: float
    is_pe: bool
    delta1: float
    delta2: float
    gamma1: float
    gamma2: float
    c: float
    rho: float
    m_star: float
    h_min: float
    h_max: float
    eta_v: float
    eta_q: float
    eta_q_bound: float
    b_inf_star: float
    b_inf_star_bound: float

    def to_kv_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, int):
                text = str(value)
            else:
                text = format(value, ".17g")
            lines.append(f"{f.name}={text}")
        return "\n".join(lines) + "\n"

    def to_csv_text(self) -> str:
        return "quantity,value\n" + self.to_kv_text().replace("=", ",")


def analyze(X, lam: float, P0, T: int | None = None, noise_radius=None) -> PeReport:
    """Run every diagnostic on a regressor sequence and bundle the results.

    T defaults to 2n.  noise_radius (scalar or per-step array) supplies
    the noise level eta_v for the asymptotic radius bounds.
    """
    X = _regressors(X)
    N, n = X.shape
    T = 2 * n if T is None else int(T)
    alpha, beta = pe_levels(X, T)
    norms = np.linalg.norm(X, axis=1)
    h_min = float(norms.min())
    h_max = float(norms.max())
    lam = float(lam)
    P0 = np.asarray(P0, dtype=float)

    if noise_radius is None:
        eta_v = math.nan
    else:
        eta_v = float(np.max(np.asarray(noise_radius, dtype=float)))

    # Empirical gain norms come from replaying the covariance recursion;
    # the gain does not depend on the outputs.
    config = RlsConfig(theta0=np.zeros(n), P0=P0, lam=lam)
    P = config.P0
    eta_q = 0.0
    for t, x in enumerate(X, 1):
        q, P = _gain_update(P, x, config.lam, t)
        eta_q = max(eta_q, math.sqrt(np.dot(q, q)))

    is_pe = alpha > 0.0
    nan = math.nan
    if is_pe and lam < 1.0:
        gamma1, gamma2, delta1, delta2 = gamma_bounds(X, T, lam, P0, alpha, beta)
        c, rho = contraction_constants(n, gamma1, gamma2, lam)
        mstar = m_star(n, gamma1, gamma2, lam)
        qbound = eta_q_bound(gamma1, gamma2, lam, h_min, h_max)
        if math.isnan(eta_v):
            b_inf = b_inf_bound = nan
        else:
            # the same b_inf_star formula, with the observed and the worst-case gain
            m = math.ceil(mstar) + 1
            _, b_inf = asymptotic_radius_bound(c, rho, eta_q, eta_v, m)
            _, b_inf_bound = asymptotic_radius_bound(c, rho, qbound, eta_v, m)
    else:
        gamma1 = gamma2 = delta1 = delta2 = nan
        c = rho = mstar = qbound = b_inf = b_inf_bound = nan

    return PeReport(
        n=n,
        N=N,
        T=T,
        lam=lam,
        alpha=alpha,
        beta=beta,
        is_pe=is_pe,
        delta1=delta1,
        delta2=delta2,
        gamma1=gamma1,
        gamma2=gamma2,
        c=c,
        rho=rho,
        m_star=mstar,
        h_min=h_min,
        h_max=h_max,
        eta_v=eta_v,
        eta_q=eta_q,
        eta_q_bound=qbound,
        b_inf_star=b_inf,
        b_inf_star_bound=b_inf_bound,
    )
