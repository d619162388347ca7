"""Axis-aligned boxes in R^n and the operations the estimators need.

A box is stored by its bound pair (lower, upper).  The equivalent
(center, radius) view, with center = upper/2 + lower/2 and
radius = upper/2 - lower/2, is derived on demand; radius is always
nonnegative by construction, and both stay finite for every valid box,
bounds near +-DBL_MAX included.  Halving is exact in the normal range,
so there they equal (upper +- lower)/2 bit for bit.  All operations are
pure and never mutate their inputs, and the stored arrays are marked
read-only so instances can be shared freely.

`IntervalVector(lower, upper)` copies and checks its bounds.  `_box_view`
wraps bounds that a caller has already made read-only and checked, as
they are.  It builds only refined boxes: an estimator step checks its
bounds once, in the pass that refines them, and wraps the new refined
box when that pass cuts a side.  A step's estimate is an IntervalVector
of its own raw bounds, filled in the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, sub

import numpy as np

__all__ = ["IntervalVector", "from_center_radius"]


def _vector(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    return arr


def _check_bounds(lo: np.ndarray, hi: np.ndarray) -> None:
    """The box contract on two 1-d bound vectors of one shape: every bound
    finite and lower <= upper, else ValueError naming the components."""
    # one chained comparison per component: false for nan, for either
    # infinity and for an inversion.  At the small n of this package a
    # scalar loop costs a fifth of the equivalent ufunc calls.
    for a, b in zip(lo.tolist(), hi.tolist()):
        if not -math.inf < a <= b < math.inf:
            ok = (lo <= hi) & np.isfinite(lo) & np.isfinite(hi)
            raise ValueError(
                f"bound inversion (lower > upper, or non-finite bound) at "
                f"components {np.flatnonzero(~ok).tolist()}"
            )


def _halves(op, upper, lower):
    """op(upper/2, lower/2): the center (op = add) or the radius (op = sub)
    of bounds, arrays or floats.  The one place either is computed."""
    return op(0.5 * upper, 0.5 * lower)


def _within(lower, upper, point, slack: float) -> bool:
    """lower - slack <= point <= upper + slack everywhere, on arrays that
    broadcast; no argument checks."""
    return bool(np.all(lower - slack <= point) and np.all(point <= upper + slack))


@dataclass(frozen=True, eq=False)
class IntervalVector:
    """Closed box {x : lower <= x <= upper}, componentwise."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _vector(self.lower, "lower").copy()
        hi = _vector(self.upper, "upper").copy()
        if lo.shape != hi.shape:
            raise ValueError(
                f"dimension mismatch: lower has {lo.shape[0]} components, "
                f"upper has {hi.shape[0]}"
            )
        _check_bounds(lo, hi)
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def center(self) -> np.ndarray:
        return _halves(add, self.upper, self.lower)

    @property
    def radius(self) -> np.ndarray:
        return _halves(sub, self.upper, self.lower)

    @property
    def width(self) -> np.ndarray:
        """upper - lower; overflows to inf where the true width exceeds
        DBL_MAX, which a valid box with bounds near +-DBL_MAX can have."""
        return self.upper - self.lower

    def contains(self, point, slack: float = 0.0) -> bool:
        """Membership test with optional nonnegative slack on both bounds."""
        p = _vector(point, "point")
        if p.shape[0] != self.dim:
            raise ValueError(
                f"dimension mismatch: point has {p.shape[0]} components, box has "
                f"{self.dim}"
            )
        if not slack >= 0:  # nan too
            raise ValueError(f"slack must be nonnegative, got {slack}")
        return _within(self.lower, self.upper, p, slack)

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"[{lo:g}, {hi:g}]" for lo, hi in zip(self.lower, self.upper)
        )
        return f"IntervalVector({pairs})"


def _box_view(lower: np.ndarray, upper: np.ndarray) -> IntervalVector:
    """The box of `lower` and `upper`, sharing them: no copy and no check.

    The caller vouches for the box contract: two read-only 1-d float
    arrays of one shape, every bound finite and lower <= upper.
    """
    box = object.__new__(IntervalVector)
    box.__dict__.update(lower=lower, upper=upper)
    return box


def from_center_radius(center, radius) -> IntervalVector:
    """Box from its center/radius view; a negative radius entry is a bound inversion."""
    c = _vector(center, "center")
    r = _vector(radius, "radius")
    if c.shape != r.shape:
        raise ValueError(
            f"dimension mismatch: center has {c.shape[0]} components, "
            f"radius has {r.shape[0]}"
        )
    return IntervalVector(c - r, c + r)
