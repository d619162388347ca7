"""Exponentially weighted recursive least squares.

This is the point identifier whose estimation error the interval
machinery bounds.  Each step with regressor x(t) and output y(t) does

    q(t)     = P(t-1) x(t) / (lam + x(t)' P(t-1) x(t))
    theta(t) = theta(t-1) + q(t) (y(t) - x(t)' theta(t-1))
    P(t)     = (P(t-1) - q(t) x(t)' P(t-1)) / lam

with theta(0) and P(0) from the configuration.  P is re-symmetrized
after every update; the rank-one form otherwise drifts off symmetric in
floating point.  A state carries what RLS itself computes: theta, P
and the latest gain q.  The interval estimators form the transition
factor A(t) = I - q(t) x(t)' of the estimation error from q and x.  In
information form the update reads P^{-1}(t) = lam P^{-1}(t-1) + x(t) x(t)',
which is what the excitation diagnostics reason about.

States are immutable; `rls_step` returns a new state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .intervals import _vector

__all__ = ["RlsConfig", "RlsState", "rls_init", "rls_step"]

_SPD_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class RlsConfig:
    """Initial condition (theta0, P0) and forgetting factor lam.

    lam must lie in (0, 1].  lam = 1 (no forgetting) is accepted so the
    identifier can be exercised on its own, but the interval estimators'
    contraction argument needs lam < 1, so it triggers a warning.
    theta0 and P0 must be finite, and P0 symmetric positive definite.
    """

    theta0: np.ndarray
    P0: np.ndarray
    lam: float

    def __post_init__(self):
        theta0 = _vector(self.theta0, "theta0").copy()
        P0 = np.asarray(self.P0, dtype=float).copy()
        n = theta0.shape[0]
        if P0.shape != (n, n):
            raise ValueError(
                f"P0 must have shape ({n}, {n}) to match theta0, got {P0.shape}"
            )
        for name, value in (("theta0", theta0), ("P0", P0)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        scale = float(np.linalg.norm(P0))
        if scale == 0.0 or np.linalg.norm(P0 - P0.T) > _SPD_RTOL * scale:
            raise ValueError("P0 must be symmetric (relative tolerance 1e-12)")
        eigs = np.linalg.eigvalsh(0.5 * (P0 + P0.T))
        if eigs[0] <= _SPD_RTOL * eigs[-1]:
            raise ValueError(
                f"P0 must be positive definite, smallest eigenvalue {eigs[0]:g}"
            )
        lam = float(self.lam)
        if not 0.0 < lam <= 1.0:
            raise ValueError(f"lam must lie in (0, 1], got {lam}")
        if lam == 1.0:
            warnings.warn(
                "lam = 1 disables forgetting; the interval estimators' "
                "stability guarantees assume lam < 1",
                UserWarning,
                stacklevel=3,  # past the generated __init__, to its caller
            )
        theta0.flags.writeable = False
        P0.flags.writeable = False
        object.__setattr__(self, "theta0", theta0)
        object.__setattr__(self, "P0", P0)
        object.__setattr__(self, "lam", lam)

    @property
    def n(self) -> int:
        return self.theta0.shape[0]


@dataclass(frozen=True, eq=False, init=False)
class RlsState:
    """Identifier state after t steps.

    last_q is the gain of the most recent step (zero at t = 0).
    """

    config: RlsConfig
    t: int
    theta: np.ndarray
    P: np.ndarray
    last_q: np.ndarray

    def __init__(self, config, t, theta, P, last_q):
        # one dict update, not the generated __init__'s object.__setattr__ per field
        self.__dict__.update(config=config, t=t, theta=theta, P=P, last_q=last_q)


def rls_init(config: RlsConfig) -> RlsState:
    return RlsState(config=config, t=0, theta=config.theta0.copy(), P=config.P0.copy(),
                    last_q=np.zeros(config.n))


def _gain_update(P: np.ndarray, x: np.ndarray, lam: float, t: int):
    """Gain q(t) and covariance P(t) from P(t-1) and a finite regressor,
    failing fast at step t when P loses definiteness or overflows."""
    Px = np.dot(P, x)
    denom = lam + np.dot(x, Px)
    if denom <= 0.0 or not math.isfinite(denom):
        raise ArithmeticError(
            f"gain denominator {denom:g} at t={t}: covariance lost "
            "positive definiteness"
        )
    q = Px / denom
    P = (P - np.multiply.outer(q, Px)) / lam
    P = 0.5 * (P + P.T)
    if not math.isfinite(np.add.reduce(P, axis=None)):
        raise ArithmeticError(f"covariance overflow at t={t}: P is no longer finite")
    return q, P


def rls_step(state: RlsState, x, y: float) -> RlsState:
    """One update with regressor x and scalar output y."""
    x = _vector(x, "x")
    n = state.config.n
    if x.shape[0] != n:
        raise ValueError(f"x must have {n} components, got {x.shape[0]}")
    if not all(map(math.isfinite, x.tolist())):
        raise ValueError("x must be finite")
    y = float(y)
    if not math.isfinite(y):
        raise ValueError(f"y must be finite, got {y}")

    q, P = _gain_update(state.P, x, state.config.lam, state.t + 1)
    theta = state.theta + q * (y - np.dot(x, state.theta))
    return RlsState(config=state.config, t=state.t + 1, theta=theta, P=P, last_q=q)
