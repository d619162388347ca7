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

Exact mode keeps every propagated term, so a step costs O(n w t) for
terms of width w (1, or n+1 with drift) and its state grows linearly
with t.  Windowed mode (truncation horizon m) restarts the convolution
every step from the stored radius m steps back:

    r_m(t) = |Phi(t,t-m)| r_m(t-m) + sum_{k=t-m+1}^{t} |Phi(t,k) B(k)| r_w(k)

for t > m (exact formula below that).  A step costs O(n w m) for the
terms plus an amortized O(n^3) for the anchor Phi(t,t-m), which a
two-stack sliding-window product keeps without inverting anything.  The
windowed radius dominates the exact one componentwise, so soundness is
preserved at bounded cost; the excitation diagnostics certify
boundedness of the recursion itself once m exceeds their threshold.
Below it the recursion may diverge: the first step whose radius is no
longer finite raises ArithmeticError naming t and m.

Every mode bounds the error of the same reference identifier; only the
bound differs with m.  So everything without m in it belongs to one
per-sample stage: the RLS step, the center c(t), the term block B(t)
with its radii, and the contiguous A(t)' the radius engine multiplies
by.  A standalone estimator is a stage of one.  A Monte Carlo study
builds every mode of a run on one stage and hands each of them the same
samples, sample-major: the first estimator to step for a sample advances
the stage, and the others read it, so each sample goes through RLS once;
only the radius recursion and the refinement are per estimator.

An estimate carries its bounds as read-only arrays, checked against the
box contract when the step makes them; the IntervalVector views `raw`
and `refined` are built on first read.

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
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .intervals import IntervalVector, _check_bounds
from .rls import RlsConfig, RlsState, rls_init, rls_step

__all__ = [
    "EstimatorConfig",
    "IntervalEstimate",
    "LtiIntervalEstimator",
]

# Exact mode's state grows linearly with t; a run longer than this many
# steps is refused rather than left to exhaust memory.
MAX_EXACT_HORIZON = 100_000


@dataclass(frozen=True, eq=False)
class EstimatorConfig:
    """Identifier settings, prior parameter box, and estimator options.

    m is the truncation horizon of the radius recursion; None keeps the
    full convolution (exact mode).  Any m >= 1 is accepted, but very
    short windows (m = 1 in particular) carry no boundedness guarantee:
    see asymptotic_radius_bound for the certified threshold.
    """

    rls: RlsConfig
    theta_prior: IntervalVector
    m: int | None = None
    monotonic: bool = False

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


@dataclass(frozen=True, eq=False)
class IntervalEstimate:
    """One time step of estimator output.

    lower and upper bound the propagated box; refined_lower and
    refined_upper the monotonic intersection (None when disabled).  Once
    inconsistent is set, the refined bounds are frozen at the last
    consistent box and stay flagged.  The arrays are read-only and may be
    shared with other estimates: refined bounds are the same arrays for
    as long as they do not change.  raw and refined are the same bounds
    as IntervalVector boxes, built on first read.
    """

    t: int
    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    refined_lower: np.ndarray | None
    refined_upper: np.ndarray | None
    inconsistent: bool

    @cached_property
    def raw(self):
        return IntervalVector(self.lower, self.upper)

    @cached_property
    def refined(self):
        if self.refined_lower is None:
            return None
        return IntervalVector(self.refined_lower, self.refined_upper)


def _refine(bounds, lower, upper, drift: IntervalVector | None):
    """One step of the running intersection of the refined bounds.

    bounds is the (lower, upper) pair carried so far; a drift box first
    translates it by the admissible increment.  Returns the new pair,
    which is the carried (or translated) pair itself when it lies strictly
    inside the raw bounds, or None when the intersection is empty in some
    component.
    """
    lo, hi = bounds
    if drift is not None:
        lo = lo + drift.lower
        hi = hi + drift.upper
        bounds = (lo, hi)
    # strictly inside only: on a tie np.maximum and np.minimum pick the raw
    # bound, which matters for the sign of a zero
    inside = (lower < lo) & (upper > hi)
    if np.count_nonzero(inside) == inside.size:
        return bounds
    lo = np.maximum(lo, lower)
    hi = np.minimum(hi, upper)
    return None if np.count_nonzero(lo > hi) else (lo, hi)


class _RadiusRecursion:
    """Propagates the convolution terms of the radius formula.

    The history holds the columns of [Phi(t,a) | Phi(t,k) B(k) ...]: the
    anchor block Phi(t,a) first, then one block of `term_width` columns
    per stored term, oldest first.  It is stored transposed, one row per
    column, so every live part is a contiguous row slice of one of two
    preallocated buffers: a step writes the propagated rows into the other
    buffer, and |history| into the first, whose rows are then dead.
    `radii` holds the radius each column multiplies (r(a) for the anchor
    rows, r_w(k) for the terms), so the radius is one gemv:

        r(t) = |history| radii

    Exact mode (window=None) keeps a = 0: Phi(t,0) propagates with the
    terms, every term is kept, and a step costs O(n w t).  Its buffers grow
    geometrically up to MAX_EXACT_HORIZON blocks.  Windowed mode does the
    same until t = window.  After that each step drops the oldest block
    while propagating the rest, and the anchor rows become
    Phi(t, t-window) applied to the radius stored window steps back:
    O(n w window) per step, plus an amortized O(n^3) anchor.

    The anchor is a two-stack sliding-window product over the last
    `window` transition matrices (Tangwongsan, Hirzel & Schneider,
    VLDB 2015), kept transposed in `stacks`, one (window, n, n) array.  The
    front stack holds the newest A's from slot 0 up and their running
    product; the back stack holds, from slot `top` up, suffix products of
    older ones, the product of all of them at slot `top`.  Popping the
    oldest A advances `top`; when the back stack runs empty, the front is
    folded into suffix products in place.  Both stacks hold window matrices
    together, and no inverse is ever taken.
    """

    def __init__(self, n, prior_radius, window):
        self.n = n
        self.window = window
        self.term_width = None
        self.t = 0
        self._live = n
        self._rows = np.eye(n)
        self._spare = np.empty((n, n))
        self._radii = np.asarray(prior_radius, dtype=float).copy()
        if window is not None:
            self.stacks = np.empty((window, n, n))
            self._top = window
            self._front = None
            self.radius_ring = deque(maxlen=window)

    @property
    def stored_terms(self) -> int:
        return (self._live - self.n) // (self.term_width or 1)

    @property
    def anchor(self) -> np.ndarray:
        """The matrix applied to the anchor radius: Phi(t, t - window) once
        t > window, Phi(t, 0) before that and in exact mode."""
        return self._rows[: self.n].T

    def _reserve(self, rows: int) -> None:
        """Grow the buffers geometrically to hold at least `rows` rows."""
        size = len(self._rows)
        if rows <= size:
            return
        blocks = MAX_EXACT_HORIZON if self.window is None else self.window
        size = min(max(2 * size, rows), self.n + blocks * self.term_width)
        live = self._live
        grown = np.empty((size, self.n))
        grown[:live] = self._rows[:live]
        radii = np.empty(size)
        radii[:live] = self._radii[:live]
        self._rows, self._spare, self._radii = grown, np.empty((size, self.n)), radii

    def _slide_anchor(self, At, out) -> None:
        """Push A(t), pop A(t-window) and write Phi(t, t-window)' into out."""
        stacks = self.stacks
        if self._top == self.window:
            for i in range(self.window - 2, -1, -1):
                np.dot(stacks[i], stacks[i + 1], out=stacks[i])
            self._top = 0
        self._top += 1
        top = self._top
        stacks[top - 1] = At
        self._front = At if top == 1 else np.dot(self._front, At)
        if top < self.window:
            np.dot(stacks[top], self._front, out=out)
        else:
            out[...] = self._front

    def step(self, At, term_rows, term_radius) -> np.ndarray:
        """Append this step's terms and return r(t).

        At is A(t)' and term_rows is B(t)', both C-contiguous: gemm with a
        transposed operand is several times slower here.
        """
        n, m, k = self.n, self.window, self._live
        w = self.term_width = term_rows.shape[0]
        self.t += 1
        if m is None or self.t <= m:
            self._reserve(k + w)
            rows, new = self._rows, self._spare
            np.dot(rows[:k], At, out=new[:k])
            if m is not None:
                self.stacks[self.t - 1] = At
        else:
            rows, new, radii = self._rows, self._spare, self._radii
            k -= w
            np.dot(rows[n + w : k + w], At, out=new[n:k])
            radii[n:k] = radii[n + w : k + w]
            self._slide_anchor(At, new[:n])
            radii[:n] = self.radius_ring[0]
        new[k : k + w] = term_rows
        self._radii[k : k + w] = term_radius
        k = self._live = k + w
        np.abs(new[:k], out=rows[:k])
        radius = np.dot(self._radii[:k], rows[:k])
        if not all(map(math.isfinite, radius.tolist())):
            mode = "exact" if m is None else m
            raise ArithmeticError(
                f"radius overflow at t={self.t}, m={mode}: the error bound is "
                "no longer finite"
            )
        self._rows, self._spare = new, rows
        if m is not None:
            self.radius_ring.append(radius)
        return radius


class _Identifier:
    """The per-sample stage of one data stream: everything of a step that
    does not depend on the mode.

    Built on the RLS settings and the prior box of its estimators.  `_take`
    advances it by one sample: it checks the noise bounds and the drift
    box, calls `rls_step`, and computes the center c(t), the transposed
    term block B(t)' with its radii, and A(t)'.  Estimators on one stage
    (see `_on_one_stage`) read these results until the next sample.
    """

    def __init__(self, config: RlsConfig, prior: IntervalVector):
        self.config = config
        self.state = rls_init(config)
        self.center = prior.center
        self.point = self.At = self.term_rows = self.term_radius = None
        self.term_width = None

    def _take(self, x, y, v_low, v_high, drift) -> None:
        v_low = float(v_low)
        v_high = float(v_high)
        if not (math.isfinite(v_low) and math.isfinite(v_high)):
            raise ValueError(f"noise bounds must be finite, got [{v_low}, {v_high}]")
        if v_low > v_high:
            raise ValueError(f"noise bound inversion: [{v_low}, {v_high}]")
        n = self.config.n
        width = 1
        if drift is not None:
            if drift.dim != n:
                raise ValueError(f"drift has {drift.dim} components, expected {n}")
            width = n + 1
        if self.term_width not in (None, width):
            given = "given" if drift is not None else "missing"
            raise ValueError(
                f"step {self.state.t + 1}: drift box {given}, unlike earlier steps"
            )
        state = rls_step(self.state, x, y)
        A = state.last_A
        q = state.last_q
        c_v = 0.5 * (v_low + v_high)
        r_v = 0.5 * (v_high - v_low)
        center = A @ self.center + q * (float(y) - c_v)
        At = A.T.copy()
        if drift is None:
            term_rows = q[None, :]
            term_radius = r_v
        else:
            center = center + A @ drift.center
            term_rows = np.empty((width, n))
            term_rows[0] = q
            np.negative(At, out=term_rows[1:])
            term_radius = np.empty(width)
            term_radius[0] = r_v
            term_radius[1:] = drift.radius
        point = state.theta.copy()
        for arr in (center, point, At, term_rows):
            arr.setflags(write=False)
        self.state = state
        self.center, self.point, self.At = center, point, At
        self.term_rows, self.term_radius, self.term_width = term_rows, term_radius, width


class LtiIntervalEstimator:
    """Streaming interval estimator for a constant or drifting parameter vector.

    Every step either carries a drift box or none does: the first step
    fixes which, because the stored terms of the two cases differ in width.
    Each estimator has its own per-sample stage unless `_on_one_stage`
    built it on a stage shared with other modes.
    """

    def __init__(self, config: EstimatorConfig):
        self.config = config
        self._identifier = _Identifier(config.rls, config.theta_prior)
        self._rls_state = self._identifier.state
        self._engine = _RadiusRecursion(config.rls.n, config.theta_prior.radius, config.m)
        self._mono = (config.theta_prior.lower, config.theta_prior.upper)
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
        config = self.config
        t = self._rls_state.t
        if config.m is None and t >= MAX_EXACT_HORIZON:
            raise RuntimeError(
                f"exact-mode horizon cap {MAX_EXACT_HORIZON} exceeded; "
                "use a truncation window for long runs"
            )
        stage = self._identifier
        # the first estimator on the stage to take this sample advances it;
        # the others find it one step ahead and read it
        if stage.state.t == t:
            stage._take(x, y, v_low, v_high, drift)
        self._rls_state = stage.state
        radius = self._engine.step(stage.At, stage.term_rows, stage.term_radius)
        lower = stage.center - radius
        upper = stage.center + radius
        _check_bounds(lower, upper)
        lower.setflags(write=False)
        upper.setflags(write=False)
        refined_lower = refined_upper = None
        if config.monotonic:
            if not self._inconsistent:
                bounds = _refine(self._mono, lower, upper, drift)
                if bounds is None:
                    self._inconsistent = True
                elif bounds is not self._mono:
                    lo, hi = bounds
                    _check_bounds(lo, hi)
                    lo.setflags(write=False)
                    hi.setflags(write=False)
                    self._mono = bounds
            refined_lower, refined_upper = self._mono
        return IntervalEstimate(
            t + 1, stage.point, lower, upper, refined_lower, refined_upper,
            self._inconsistent,
        )


def _on_one_stage(base: EstimatorConfig, modes) -> list[LtiIntervalEstimator]:
    """One estimator per mode in `modes`, all on one per-sample stage.

    Contract: give every estimator the same samples and step them
    sample-major, every estimator on a sample before any takes the next.
    Nothing checks this.  The stage takes the sample of whichever
    estimator steps first, and the others read its results.  Under this
    contract each estimator's boxes are bit-identical to those of an
    estimator of its own.
    """
    estimators = [LtiIntervalEstimator(replace(base, m=m)) for m in modes]
    stage = estimators[0]._identifier
    for est in estimators[1:]:
        est._identifier, est._rls_state = stage, stage.state
    return estimators
