"""Seeded synthetic ARX data for the simulation studies.

The plant is y(t) = x(t)' theta(t) + v(t) with the lagged regressor

    x(t) = (-y(t-1), ..., -y(t-n_a), u(t-1), ..., u(t-n_b)),

zero initial conditions (y and u vanish for t <= 0), standard normal
input u, and noise v drawn uniformly from [-a, a].  For the
time-varying variant the parameter follows theta(t) = theta(t-1) +
delta(t) with the sinusoidal increment delta(t) = r_delta sin(2 pi t /
period), applied before y(t) is formed; the emitted per-step drift box
is the symmetric [-r_delta, r_delta], which always contains delta(t).

Determinism is part of the contract, so the random layer is pinned
exactly: the generator is numpy's PCG64 seeded with the given integer;
per run, the N input deviates are drawn first, then the N noise draws.
Gaussians use the Box-Muller transform on consecutive uniform blocks,

    u1 = rng.random(N); u2 = rng.random(N)
    u  = sqrt(-2 ln(1 - u1)) * cos(2 pi u2)

(1 - u1 keeps the log argument in (0, 1]), and the noise is
v = a (2 rng.random(N) - 1).  Identical seeds give bit-identical
datasets on any platform with a faithful libm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .lti import EstimatorSpec, _integer

__all__ = ["SimConfig", "generate_lti", "generate_ltv",
           "REFERENCE_THETA", "REFERENCE_DRIFT_RADIUS", "REFERENCE_LTV"]

REFERENCE_THETA = (-1.40, 0.75, 0.60, -0.10)
REFERENCE_DRIFT_RADIUS = (0.10, 0.05, 0.04, 0.01)


@dataclass(frozen=True)
class SimConfig(EstimatorSpec):
    """Study settings: the estimator's, plus plant, noise, horizon and runs.

    drift_radius switches the plant to the time-varying variant.  Defaults
    reproduce the constant-parameter reference study; REFERENCE_LTV is the
    drifting one.  Every setting must be finite, and every count an integer.
    """

    theta_true: tuple = REFERENCE_THETA
    n_a: int = 2
    n_b: int = 2
    noise_half_width: float = 0.2
    horizon: int = 200
    runs: int = 100
    seed: int = 0
    drift_radius: tuple | None = None
    drift_period: float = 30.0
    workers: int = 1

    def __post_init__(self):
        for name, floor in (("n_a", None), ("n_b", None), ("horizon", 1), ("runs", 1),
                            ("seed", 0), ("workers", 1)):  # numpy takes no negative seed
            object.__setattr__(self, name, _integer(name, getattr(self, name), floor))
        n = self.n_a + self.n_b
        if self.n_a < 0 or self.n_b < 0 or n < 1:
            raise ValueError(f"need n_a, n_b >= 0 with n_a + n_b >= 1, got {self.n_a}, {self.n_b}")
        object.__setattr__(self, "theta_true", tuple(float(v) for v in self.theta_true))
        if len(self.theta_true) != n:
            raise ValueError(
                f"theta_true must have n_a + n_b = {n} entries, got {len(self.theta_true)}"
            )
        if not all(map(math.isfinite, self.theta_true)):
            raise ValueError(f"theta_true entries must be finite, got {self.theta_true}")
        if not 0 <= self.noise_half_width < math.inf:
            raise ValueError(
                f"noise_half_width must be finite and >= 0, got {self.noise_half_width}"
            )
        super().__post_init__()
        self._check_horizon(self.horizon)
        if self.drift_radius is not None:
            dr = tuple(float(v) for v in self.drift_radius)
            if len(dr) != n:
                raise ValueError(f"drift_radius must have {n} entries, got {len(dr)}")
            if not all(0 <= v < math.inf for v in dr):
                raise ValueError(f"drift_radius entries must be finite and >= 0, got {dr}")
            object.__setattr__(self, "drift_radius", dr)
        if not 0 < self.drift_period < math.inf:
            raise ValueError(f"drift_period must be finite and positive, got {self.drift_period}")

    @property
    def n(self) -> int:
        return self.n_a + self.n_b

    @property
    def is_ltv(self) -> bool:
        return self.drift_radius is not None


REFERENCE_LTV = SimConfig(lam=0.1, modes=(5, None), drift_radius=REFERENCE_DRIFT_RADIUS)


def _draw(config: SimConfig, seed: int):
    N = config.horizon
    rng = np.random.Generator(np.random.PCG64(seed))
    u1 = rng.random(N)
    u2 = rng.random(N)
    u = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
    v = config.noise_half_width * (2.0 * rng.random(N) - 1.0)
    return u, v


def _simulate(
    config: SimConfig,
    seed: int,
    theta_path: np.ndarray,
    delta_low: np.ndarray | None = None,
    delta_high: np.ndarray | None = None,
) -> Dataset:
    N, n, n_a = config.horizon, config.n, config.n_a
    u, v = _draw(config, seed)
    X = np.zeros((N, n))
    for j in range(1, config.n_b + 1):
        X[j:, n_a + j - 1] = u[: max(N - j, 0)]
    # -y(t-1), ..., -y(t-n_a) as Python floats; y vanishes for t <= 0,
    # and its negation is -0.0.  y goes straight into its array, so a long
    # run builds no list of floats that would raise peak RSS.
    lags = [-0.0] * n_a
    y = np.empty(N)
    # one scope per run: a diverging output is refused by name, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (row, theta, v_i) in enumerate(zip(X, theta_path, v.tolist())):
            row[:n_a] = lags
            y_i = float(np.dot(row, theta)) + v_i
            if not math.isfinite(y_i):
                raise ValueError(
                    f"simulated output diverged (non-finite y) at t={i + 1}; "
                    "the chosen parameters make the closed recursion unstable"
                )
            y[i] = y_i
            lags = [-y_i, *lags][:n_a]
    a = config.noise_half_width
    return Dataset(
        t=np.arange(1, N + 1),
        X=X,
        y=y,
        v_low=np.full(N, -a),
        v_high=np.full(N, a),
        v=v,
        theta_true=theta_path.copy(),
        delta_low=delta_low,
        delta_high=delta_high,
    )


def generate_lti(config: SimConfig, seed: int) -> Dataset:
    """One run of the constant-parameter plant."""
    theta = np.asarray(config.theta_true, dtype=float)
    theta_path = np.tile(theta, (config.horizon, 1))
    return _simulate(config, seed, theta_path)


def drift_increment(config: SimConfig, t) -> np.ndarray:
    """delta(t) = r_delta sin(2 pi t / period) for the time-varying plant;
    a column of steps t gives one row per step."""
    r = np.asarray(config.drift_radius, dtype=float)
    return r * np.sin(2.0 * np.pi * t / config.drift_period)


def generate_ltv(config: SimConfig, seed: int) -> Dataset:
    """One run of the drifting plant; emits the true trajectory and drift boxes.

    theta(t) is one running sum of theta(0), delta(1), ..., delta(t), added
    in step order, so it has the bits of a per-step loop."""
    if not config.is_ltv:
        raise ValueError("config has no drift_radius; use generate_lti")
    N = config.horizon
    steps = drift_increment(config, np.arange(1, N + 1)[:, None])
    theta_path = np.add.accumulate(np.vstack((config.theta_true, steps)))[1:]
    r = np.asarray(config.drift_radius, dtype=float)
    return _simulate(
        config,
        seed,
        theta_path,
        delta_low=np.tile(-r, (N, 1)),
        delta_high=np.tile(r, (N, 1)),
    )
