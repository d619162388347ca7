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

Exact mode keeps every propagated term, of width w (1, or n+1 with
drift), so a step multiplies n w t entries by the n x n A(t), O(n^2 w t),
and its state grows linearly with t.  Windowed mode (truncation horizon m)
restarts the convolution every step from the stored radius m steps back:

    r_m(t) = |Phi(t,t-m)| r_m(t-m) + sum_{k=t-m+1}^{t} |Phi(t,k) B(k)| r_w(k)

for t > m (exact formula below that).  The windowed radius dominates the
exact one componentwise, so soundness is preserved at bounded cost; the
excitation diagnostics certify boundedness of the recursion itself once
m exceeds their threshold.  Below it the recursion may diverge: the
first step whose radius is no longer finite raises ArithmeticError
naming t and m.

Every mode bounds the error of the same reference identifier, and the
terms Phi(t,k) B(k) have no m in them: a window sums the newest m.  So
one per-sample stage does everything without m in it: the RLS step, the
transition A(t) = I - q(t) x(t)' (formed here from the gain and the
regressor: the error recursion holds for whatever gain RLS computed), the
center c(t), the term history with its absolute values (one gemm and one
np.abs per sample, O(n^2 w) per kept term block) and the full sum.  A
window adds O(n w m) for its sum and an amortized O(n^3) for its anchor
Phi(t,t-m).  A standalone estimator is a stage of one; `_run_modes` runs
every mode of a study run on one stage and hands each a sample before any
takes the next, so no other code can step a shared stage out of order.

An estimate is its raw box: an IntervalVector whose read-only bounds the
step checked against the box contract once, in the pass that also
refines them, so a step makes no second copy or check.  Its refined box
is the estimator's running one, the same object for as long as no side
of it is cut.

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
from functools import lru_cache
from operator import add, sub

import numpy as np

from .intervals import IntervalVector, _box_view, _check_bounds, _halves
from .rls import RlsConfig, RlsState, rls_init, rls_step

__all__ = [
    "EstimatorSpec",
    "EstimatorConfig",
    "IntervalEstimate",
    "LtiIntervalEstimator",
]

# Exact mode's state grows linearly with t; a run longer than this many
# steps is refused rather than left to exhaust memory.
MAX_EXACT_HORIZON = 100_000


@dataclass(frozen=True)
class EstimatorSpec:
    """The estimator's settings, apart from the data they run on.

    The reference RLS (forgetting factor lam, P(0) = p0_scale I, theta(0)
    = 0), the prior box [-prior_radius, prior_radius]^n around theta(0),
    the radius modes to run (integers for truncation windows, None for
    exact, each at most once) and whether to refine by running
    intersection.  Defaults are those of the reference studies.
    """

    lam: float = 0.99
    p0_scale: float = 1000.0
    prior_radius: float = 4.0
    modes: tuple = (20, 50, None)
    monotonic: bool = True

    def __post_init__(self):
        if not 0.0 < self.lam <= 1.0:
            raise ValueError(f"lam must lie in (0, 1], got {self.lam}")
        if not 0 < self.p0_scale < math.inf:
            raise ValueError(f"p0_scale must be finite and positive, got {self.p0_scale}")
        if not 0 < self.prior_radius < math.inf:
            raise ValueError(f"prior_radius must be finite and positive, got {self.prior_radius}")
        modes = tuple(None if m is None else int(m) for m in self.modes)
        if not modes:
            raise ValueError("modes must not be empty")
        for i, m in enumerate(modes):
            if m is not None and m < 1:
                raise ValueError(f"truncation window must be >= 1, got {m}")
            if m in modes[:i]:  # its output file would be written twice
                raise ValueError(f"mode {'exact' if m is None else m} is given more than once")
        object.__setattr__(self, "modes", modes)

    def _check_horizon(self, horizon: int) -> None:
        """Refuse a run of `horizon` samples that an exact mode would not finish."""
        if None in self.modes and horizon > MAX_EXACT_HORIZON:
            raise ValueError(f"horizon {horizon} exceeds the exact-mode cap {MAX_EXACT_HORIZON}; "
                             "use a truncation window for long runs")


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
class IntervalEstimate(IntervalVector):
    """One time step of estimator output: the propagated box itself.

    Its own lower and upper bound the propagated box, and `raw` is the
    estimate itself.  refined is the monotonic intersection (None when
    disabled); once inconsistent is set it is frozen at the last
    consistent box and stays flagged.  Every bound is a read-only array;
    the refined box is the same object for as long as it does not change.
    A step's estimate holds the bounds it checked, as they are; one from
    this constructor or `dataclasses.replace` copies and checks its own
    lower and upper, as every IntervalVector does.
    """

    t: int
    point: np.ndarray
    refined: IntervalVector | None
    inconsistent: bool

    @property
    def raw(self) -> IntervalVector:
        return self


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """The n x n identity, built once per n and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _frozen(values) -> np.ndarray:
    arr = np.array(values)
    arr.setflags(write=False)
    return arr


def _refine(box, lower, upper, drift):
    """One step of the running intersection, in one scalar pass that also
    checks the raw bounds against the box contract.

    box is the refined box carried so far; drift, a drift box as (lower,
    upper) float lists, translates it first.  Returns the new refined box,
    or None if it is empty in some component.  A tie goes to the raw
    bound, as in np.maximum and np.minimum (the sign of a zero).  Only a
    side that changes is a new array, in a new box: no cut, no drift,
    `box` returns.
    """
    lo, hi = box.lower, box.upper
    los, his = lo.tolist(), hi.tolist()
    if drift is not None:
        (dlo, dhi), lo, hi = drift, None, None
    empty = False
    for i, (a, b) in enumerate(zip(lower.tolist(), upper.tolist())):
        if not -math.inf < a <= b < math.inf:
            _check_bounds(lower, upper)
        if drift is not None:
            los[i] += dlo[i]
            his[i] += dhi[i]
        if not los[i] > a:
            los[i], lo = a, None
        if not his[i] < b:
            his[i], hi = b, None
        empty = empty or los[i] > his[i]
    if empty:
        return None
    if lo is not None and hi is not None:
        return box
    return _box_view(_frozen(los) if lo is None else lo, _frozen(his) if hi is None else hi)


class _RadiusRecursion:
    """The radius of one mode, read off its stage's term history.

    Exact mode, and window m while t <= m, take the stage's full sum.
    After that window m adds |Phi(t,t-m)| r_m(t-m) to the sum over the
    newest m term blocks of that history, so it keeps only its anchor and
    its radii of the last m steps, in `radius_ring`.

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

    def __init__(self, n, window):
        self.window = window
        if window is not None:
            self.stacks = np.empty((window, n, n))
            self._top = window
            self._front = None
            self.abs_anchor = np.empty((n, n))
            self.radius_ring = deque(maxlen=window)

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

    def step(self, stage) -> np.ndarray:
        """r(t) for the sample the stage has just taken."""
        m, t = self.window, stage.state.t
        if m is None or t <= m:
            if m is not None:
                self.stacks[t - 1] = stage.At
            radius = stage.full
        else:
            anchor = self.abs_anchor
            self._slide_anchor(stage.At, anchor)
            np.abs(anchor, out=anchor)
            k = stage.live
            s = k - m * stage.term_width
            radius = np.dot(self.radius_ring[0], anchor)
            radius += np.dot(stage.radii[s:k], stage.abs_rows[s:k])
        if not all(map(math.isfinite, radius.tolist())):
            raise ArithmeticError(
                f"radius overflow at t={t}, m={'exact' if m is None else m}: the "
                "error bound is no longer finite"
            )
        if m is not None:
            self.radius_ring.append(radius)
        return radius


class _Identifier:
    """The per-sample stage of one data stream: everything of a step that
    does not depend on the mode.

    Built on the RLS settings, the prior box and the windows of its
    estimators (None for exact mode).  `_take` advances it by one sample:
    it checks the noise bounds, calls `rls_step`, forms A(t) = I - q(t) x(t)'
    and c(t), and propagates the term history; a drift box it checks and
    takes apart only when a new box object arrives.  It refuses a bad
    sample with the bare cause, and `LtiIntervalEstimator.step` names the
    step.  The estimators `_run_modes` puts on one stage read it until the
    next sample, `drift_bounds` too.

    The history holds the columns of [Phi(t,0) | Phi(t,k) B(k) ...],
    oldest term first, transposed in one of two preallocated buffers so
    that each part is a contiguous row slice: a step writes the propagated
    rows into the other buffer and |history| into the first, `abs_rows`.
    `radii` holds the radius each row multiplies, and `full` is
    |history| radii, the radius of exact mode and of a window m while
    t <= m.  With an exact mode the stage keeps every block, growing
    geometrically up to MAX_EXACT_HORIZON blocks, and refuses a step
    beyond that before changing anything.  Otherwise it keeps the blocks
    of the longest window, `keep`, and drops Phi(t,0) and `full` once
    t > keep, when no mode reads them.
    """

    def __init__(self, config: RlsConfig, prior: IntervalVector, windows):
        n = config.n
        self.config = config
        self.state = rls_init(config)
        self.center = prior.center
        self.point = self.At = self.term_width = None
        self.keep = None if None in windows else max(windows)
        self.live = n
        self._rows, self._spare = np.eye(n), np.empty((n, n))
        self.radii = prior.radius
        self.abs_rows = self.full = self._drift = self.drift_bounds = None

    def _reserve(self, rows: int, width: int) -> None:
        """Grow the full buffers geometrically to hold at least `rows` rows."""
        size, n = len(self._rows), self.config.n
        blocks = MAX_EXACT_HORIZON if self.keep is None else self.keep
        size = min(max(2 * size, rows), n + blocks * width)
        live = self.live
        grown = np.empty((size, n))
        grown[:live] = self._rows[:live]
        radii = np.empty(size)
        radii[:live] = self.radii[:live]
        self._rows, self._spare, self.radii = grown, np.empty((size, n)), radii

    def _take(self, x, y, v_low, v_high, drift) -> None:
        keep, t = self.keep, self.state.t + 1
        if keep is None and t > MAX_EXACT_HORIZON:
            raise ValueError(f"exact-mode horizon cap {MAX_EXACT_HORIZON} exceeded; "
                             "use a truncation window for long runs")
        v_low, v_high = float(v_low), float(v_high)
        if not (math.isfinite(v_low) and math.isfinite(v_high)):
            raise ValueError(f"noise bounds must be finite, got [{v_low}, {v_high}]")
        if v_low > v_high:
            raise ValueError(f"noise bound inversion: [{v_low}, {v_high}]")
        n = self.config.n
        w = 1 if drift is None else n + 1
        if self.term_width not in (None, w):
            given = "given" if drift is not None else "missing"
            raise ValueError(f"drift box {given}, unlike earlier steps")
        if drift is not None and drift is not self._drift:
            if drift.dim != n:
                raise ValueError(f"drift has {drift.dim} components, expected {n}")
            self._drift, self.drift_bounds = drift, (drift.lower.tolist(), drift.upper.tolist())
            self._drift_center, self._drift_radius = drift.center, drift.radius
        x = np.asarray(x, dtype=float)
        state = rls_step(self.state, x, y)
        q = state.last_q
        # I - q x', not -(q x') with 1 added on the diagonal: negating would
        # turn the zeros an FIR regressor leaves in q x' into -0.0
        A = _identity(n) - np.multiply.outer(q, x)
        c_v, r_v = _halves(add, v_high, v_low), _halves(sub, v_high, v_low)
        center = np.dot(A, self.center) + q * (float(y) - c_v)
        At = A.T.copy()  # C-contiguous: gemm with a transposed operand is slower
        k, first = self.live, 0
        if keep is None or t <= keep:
            if k + w > len(self._rows):
                self._reserve(k + w, w)
            rows, new = self._rows, self._spare
            np.dot(rows[:k], At, out=new[:k])
        else:
            rows, new, radii = self._rows, self._spare, self.radii
            k, first = k - w, n
            np.dot(rows[n + w : k + w], At, out=new[n:k])
            radii[n:k] = radii[n + w : k + w]
        # this step's block B(t)' = [q | -A]' and its radii (r_v, r_delta)
        new[k] = q
        self.radii[k] = r_v
        if drift is not None:
            center = center + np.dot(A, self._drift_center)
            np.negative(At, out=new[k + 1 : k + w])
            self.radii[k + 1 : k + w] = self._drift_radius
        k = self.live = k + w
        np.abs(new[first:k], out=rows[first:k])
        self._rows, self._spare, self.abs_rows = new, rows, rows
        # Phi(t,0) is still propagated exactly while some mode is exact or has m >= t
        self.full = np.dot(self.radii[:k], rows[:k]) if first == 0 else None
        point = state.theta.copy()
        for arr in (center, point, At):
            arr.setflags(write=False)
        self.state = state
        self.center, self.point, self.At, self.term_width = center, point, At, w


class LtiIntervalEstimator:
    """Streaming interval estimator for a constant or drifting parameter vector.

    Every step either carries a drift box or none does: the first step
    fixes which, because the stored terms of the two cases differ in width.
    Each estimator has its own per-sample stage unless `_run_modes` built
    it on a stage shared with other modes; there the first mode's step
    advances the stage and the others read it.
    """

    def __init__(self, config: EstimatorConfig):
        self.config = config
        self._identifier = _Identifier(config.rls, config.theta_prior, (config.m,))
        self._t = 0
        self._engine = _RadiusRecursion(config.rls.n, config.m)
        self._refined = config.theta_prior
        self._inconsistent = False

    @property
    def t(self) -> int:
        """The number of samples this estimator has taken."""
        return self._t

    @property
    def rls_state(self) -> RlsState:
        """The identifier's state after the newest sample."""
        return self._identifier.state

    @property
    def inconsistent(self) -> bool:
        return self._inconsistent

    def step(
        self, x, y, v_low, v_high, drift: IntervalVector | None = None
    ) -> IntervalEstimate:
        """Process one sample; the noise at this step lies in [v_low, v_high].

        drift, when given, bounds the increment theta(t) - theta(t-1).
        """
        monotonic = self.config.monotonic
        t = self._t
        stage = self._identifier
        try:
            if stage.state.t == t:  # not yet taken by another mode on the stage
                stage._take(x, y, v_low, v_high, drift)
            self._t = t + 1
            radius = self._engine.step(stage)
            lower = stage.center - radius
            upper = stage.center + radius
            lower.setflags(write=False)
            upper.setflags(write=False)
            if monotonic and not self._inconsistent:
                drift = None if drift is None else stage.drift_bounds
                refined = _refine(self._refined, lower, upper, drift)
                self._inconsistent = refined is None
                self._refined = refined or self._refined
            else:
                _check_bounds(lower, upper)
        except ValueError as exc:  # every refusal of this sample names its step
            raise ValueError(f"step {t + 1}: {exc}") from None
        # what IntervalEstimate(...) builds, without its copy and check
        out = object.__new__(IntervalEstimate)
        out.__dict__.update(lower=lower, upper=upper, t=t + 1, point=stage.point,
                            refined=self._refined if monotonic else None,
                            inconsistent=self._inconsistent)
        return out


def _run_modes(base: EstimatorConfig, modes, samples):
    """Step one estimator per mode in `modes` over `samples`, each a tuple
    of `step`'s arguments, and yield each sample's estimates in mode order.

    The estimators share one per-sample stage, which the first mode's step
    advances and the others read.  As every mode takes a sample before any
    takes the next, each one's point and raw bounds are those of an
    estimator of its own, bit for bit in exact mode and for a window m
    while t <= m.  Past that a window reads its newest m term blocks from a
    history propagated with more blocks per matrix product than its own,
    so its bounds may differ from that estimator's by rounding.
    """
    estimators = [LtiIntervalEstimator(replace(base, m=m)) for m in modes]
    stage = _Identifier(base.rls, base.theta_prior, [est.config.m for est in estimators])
    for est in estimators:
        est._identifier = stage
    for sample in samples:
        yield [est.step(*sample) for est in estimators]
