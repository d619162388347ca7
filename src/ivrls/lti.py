"""Interval-valued estimation around the RLS identifier.

For y(t) = x(t)' theta + v(t) with v(t) in a known interval, the RLS
estimation error err(t) = theta(t) - theta obeys

    err(t) = A(t) err(t-1) + q(t) v(t),      A(t) = I - q(t) x(t)',

so unrolling from the prior gives

    err(t) = Phi(t,0) err(0) + sum_{k=1}^{t} Phi(t,k) q(k) v(k),

with state-transition products Phi(t,k) = A(t) ... A(k+1).  Pushing the
prior box and the noise intervals through this affine map componentwise
yields the exact hull: center from the recursion

    c(t) = A(t) c(t-1) + q(t) (y(t) - c_v(t)),

radius r(t) = |Phi(t,0)| r(0) + sum_k |Phi(t,k) q(k)| r_v(k).  Absolute
values are taken on fully formed products only; |A||B| >= |AB|
entrywise, so taking them earlier would only widen the box.  Seeding the
center recursion at the prior center makes c(t) = theta(t) minus the
center of the error box, so [c(t) - r(t), c(t) + r(t)] is itself the
guaranteed parameter box.

A slowly varying parameter theta(t) = theta(t-1) + delta(t), with each
increment delta(t) confined to a known box, turns the error recursion
into

    err(t) = A(t) err(t-1) + B(t) w(t),
    B(t) = [q(t), -A(t)]  (n x (n+1)),   w(t) = (v(t), delta(t)),

because this step's target is theta(t-1) + delta(t): the increment
shifts the previous error by -delta(t) before the measurement update,
and A(t) acts on that shift.  The same machinery carries over with the
scalar term q(t) v(t) replaced by the (n+1)-column block B(t) w(t): the
center recursion gains the feedthrough A(t) c_delta(t), and the radius
formulas apply |Phi(t,k) B(k)| to the stacked radii (r_v(k), r_delta(k)).
Constant parameters are the case without a drift block.

Exact mode keeps every propagated term, so its per-step cost grows
linearly with t.  Windowed mode (truncation horizon m) restarts the
convolution every step from the stored radius m steps back:

    r_m(t) = |Phi(t,t-m)| r_m(t-m) + sum_{k=t-m+1}^{t} |Phi(t,k) B(k)| r_w(k)

for t > m (exact formula below that).  The windowed radius dominates the
exact one componentwise, so soundness is preserved at bounded cost; the
excitation diagnostics certify boundedness of the recursion itself once
m exceeds their threshold.

An optional monotonic post-processor intersects each instantaneous box
with the running one.  A constant parameter lies in all of them; a
drifting one may move by the admissible increment, so the running bounds
are first translated by the drift box:

    p_lo(t) = max(p_lo(t-1) + delta_lo(t), raw_lo(t))
    p_hi(t) = min(p_hi(t-1) + delta_hi(t), raw_hi(t))

This gives componentwise nonincreasing widths without drift.  If an
intersection comes up empty the declared bounds were violated; the
refined box freezes at the last consistent value and every subsequent
estimate carries an inconsistency flag, while the raw pipeline keeps
running.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .intervals import IntervalVector
from .rls import RlsConfig, RlsState, rls_init, rls_step

__all__ = [
    "EstimatorConfig",
    "IntervalEstimate",
    "LtiIntervalEstimator",
]


@dataclass(frozen=True, eq=False)
class EstimatorConfig:
    """Identifier settings, prior parameter box, and estimator options.

    m is the truncation horizon of the radius recursion; None keeps the
    full convolution (exact mode).  Any m >= 1 is accepted, but very
    short windows (m = 1 in particular) carry no boundedness guarantee:
    see asymptotic_radius_bound for the certified threshold.
    max_exact_horizon caps how long an exact-mode run may get before the
    linearly growing state is refused.
    """

    rls: RlsConfig
    theta_prior: IntervalVector
    m: int | None = None
    monotonic: bool = False
    max_exact_horizon: int = 100_000

    def __post_init__(self):
        if self.theta_prior.dim != self.rls.n:
            raise ValueError(
                f"theta_prior has {self.theta_prior.dim} components but the "
                f"identifier has {self.rls.n} parameters"
            )
        if self.m is not None:
            m = int(self.m)
            if m < 1:
                raise ValueError(f"m must be >= 1, got {self.m}")
            object.__setattr__(self, "m", m)
        if int(self.max_exact_horizon) < 1:
            raise ValueError(
                f"max_exact_horizon must be >= 1, got {self.max_exact_horizon}"
            )


@dataclass(frozen=True, eq=False)
class IntervalEstimate:
    """One time step of estimator output.

    raw is the propagated box; refined is the monotonic intersection
    (None when disabled).  Once inconsistent is set, refined is frozen at
    the last consistent box and stays flagged.
    """

    t: int
    point: np.ndarray
    raw: IntervalVector
    refined: IntervalVector | None
    inconsistent: bool


def _refine(bounds, raw: IntervalVector, drift: IntervalVector | None):
    """One step of the running intersection of the refined bounds.

    bounds is the (lower, upper) pair carried so far; a drift box first
    translates it by the admissible increment.  Returns the new pair, or
    None when the intersection is empty in some component.
    """
    lo, hi = bounds
    if drift is not None:
        lo = lo + drift.lower
        hi = hi + drift.upper
    lo = np.maximum(lo, raw.lower)
    hi = np.minimum(hi, raw.upper)
    return None if np.any(lo > hi) else (lo, hi)


class _RadiusRecursion:
    """Propagates the convolution terms of the radius formula.

    Exact mode (window=None) carries Phi(t,0) and every term
    Phi(t,k) B(k): at time t that is one n x n matrix plus t stored
    term blocks of width `term_width`, which the first step fixes.
    Windowed mode keeps ring buffers of the last `window` term blocks,
    the staggered products Phi(t, t-j) for j = 1..window, and the last
    `window` radius vectors, anchoring each step at
    |Phi(t, t-window)| r(t-window).
    """

    def __init__(self, n, prior_radius, window, max_exact_horizon):
        self.window = window
        self.term_width = None
        self.max_exact_horizon = max_exact_horizon
        self.t = 0
        self.prior_radius = np.asarray(prior_radius, dtype=float).copy()
        self.phi_t0 = np.eye(n)
        self.terms = np.zeros((n, 0))
        self.term_radii = np.zeros(0)
        if window is not None:
            # stagger[j-1] = Phi(t, t-j); radius_ring[0] = r(t-window) once full
            self.stagger = np.zeros((0, n, n))
            self.radius_ring = deque(maxlen=window)

    @property
    def stored_terms(self) -> int:
        return self.terms.shape[1] // (self.term_width or 1)

    def step(self, A, term, term_radius) -> np.ndarray:
        m = self.window
        w = self.term_width = term.shape[1]
        self.t += 1
        if m is None and self.t > self.max_exact_horizon:
            raise RuntimeError(
                f"exact-mode horizon cap {self.max_exact_horizon} exceeded; "
                "use a truncation window for long runs"
            )
        if m is not None:
            keep = self.stagger if len(self.stagger) < m else self.stagger[:-1]
            self.stagger = np.concatenate([A[None], np.matmul(A, keep)])
        propagated = A @ self.terms
        if m is None or self.t <= m:
            self.phi_t0 = A @ self.phi_t0
            self.terms = np.concatenate([propagated, term], axis=1)
            self.term_radii = np.concatenate([self.term_radii, term_radius])
            radius = np.abs(self.phi_t0) @ self.prior_radius
        else:
            self.terms = np.concatenate([propagated[:, w:], term], axis=1)
            self.term_radii = np.concatenate([self.term_radii[w:], term_radius])
            radius = np.abs(self.stagger[-1]) @ self.radius_ring[0]
        radius = radius + np.abs(self.terms) @ self.term_radii
        if m is not None:
            self.radius_ring.append(radius)
        return radius


class LtiIntervalEstimator:
    """Streaming interval estimator for a constant or drifting parameter vector.

    Every step either carries a drift box or none does: the first step
    fixes which, because the stored terms of the two cases differ in width.
    """

    def __init__(self, config: EstimatorConfig):
        self.config = config
        self._rls_state = rls_init(config.rls)
        self._center = config.theta_prior.center
        self._engine = _RadiusRecursion(
            config.rls.n,
            config.theta_prior.radius,
            config.m,
            config.max_exact_horizon,
        )
        self._mono = (config.theta_prior.lower.copy(), config.theta_prior.upper.copy())
        self._inconsistent = False

    @property
    def t(self) -> int:
        return self._rls_state.t

    @property
    def rls_state(self) -> RlsState:
        return self._rls_state

    @property
    def inconsistent(self) -> bool:
        return self._inconsistent

    def step(
        self, x, y, v_low, v_high, drift: IntervalVector | None = None
    ) -> IntervalEstimate:
        """Process one sample; the noise at this step lies in [v_low, v_high].

        drift, when given, bounds the increment theta(t) - theta(t-1).
        """
        v_low = float(v_low)
        v_high = float(v_high)
        if not (math.isfinite(v_low) and math.isfinite(v_high)):
            raise ValueError(f"noise bounds must be finite, got [{v_low}, {v_high}]")
        if v_low > v_high:
            raise ValueError(f"noise bound inversion: [{v_low}, {v_high}]")
        width = 1
        if drift is not None:
            n = self.config.rls.n
            if drift.dim != n:
                raise ValueError(f"drift has {drift.dim} components, expected {n}")
            width = n + 1
        if self._engine.term_width not in (None, width):
            given = "given" if drift is not None else "missing"
            raise ValueError(f"step {self.t + 1}: drift box {given}, unlike earlier steps")
        c_v = 0.5 * (v_low + v_high)
        r_v = 0.5 * (v_high - v_low)
        state = rls_step(self._rls_state, x, y)
        self._rls_state = state
        A = state.last_A
        q = state.last_q
        self._center = A @ self._center + q * (float(y) - c_v)
        if drift is None:
            term = q[:, None]
            term_radius = np.array([r_v])
        else:
            self._center = self._center + A @ drift.center
            term = np.concatenate([q[:, None], -A], axis=1)
            term_radius = np.concatenate([[r_v], drift.radius])
        radius = self._engine.step(A, term, term_radius)
        raw = IntervalVector(self._center - radius, self._center + radius)
        refined = None
        if self.config.monotonic:
            if not self._inconsistent:
                bounds = _refine(self._mono, raw, drift)
                if bounds is None:
                    self._inconsistent = True
                else:
                    self._mono = bounds
            refined = IntervalVector(*self._mono)
        return IntervalEstimate(
            t=state.t,
            point=state.theta.copy(),
            raw=raw,
            refined=refined,
            inconsistent=self._inconsistent,
        )
