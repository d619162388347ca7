"""Every float bound of a run against the run's exact box in rationals.

`helpers.rational_boxes` computes, in fractions.Fraction, the box that
the run's own gains give in exact arithmetic.  A float bound inside it
falls short of the guarantee by rounding.  Until the boxes are rounded
outward, each float bound is held within K u width of the exact one, in
both directions, with u = 2^-53 and the exact box's width: a float box
neither shorter nor wider than the exact one by more than rounding.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from ivrls.experiment import estimator_config, run_dataset
from ivrls.intervals import IntervalVector
from ivrls.simulate import REFERENCE_LTV, SimConfig, generate_lti, generate_ltv

from helpers import rational_boxes, vertex_oracle

U = Fraction(1, 2**53)
# By mode.  The largest gaps on these cases are 20.9 u (exact) and 612 u
# (window 5, drifting, seed 1, t = 8, where the float radius falls short);
# over seeds 0-9 of both plants, with either offset, they were 378 u and
# 1638 u, both drifting, seed 9.
K = {None: 512, 5: 2048}


@pytest.mark.parametrize("drifting", [False, True])
@pytest.mark.parametrize("seed, offset", [(0, 0.0), (1, 0.05)])
def test_every_float_bound_is_within_k_u_width_of_the_exact_rational_box(drifting, seed, offset):
    study = REFERENCE_LTV if drifting else SimConfig()
    config = replace(study, horizon=20, modes=(5, None), monotonic=False)
    ds = generate_ltv(config, seed) if drifting else generate_lti(config, seed)
    # an offset makes the noise and drift boxes off-center, so that their
    # centers enter the center recursion
    ds.v_low, ds.v_high = ds.v_low + offset, ds.v_high + offset
    if drifting:
        ds.delta_low, ds.delta_high = ds.delta_low + offset / 5, ds.delta_high + offset / 5
    drifts = ([IntervalVector(lo, hi) for lo, hi in zip(ds.delta_low, ds.delta_high)]
              if drifting else None)
    v_bounds = list(zip(ds.v_low.tolist(), ds.v_high.tolist()))
    est = estimator_config(ds.n, config.lam, config.p0_scale, config.prior_radius)
    boxes = rational_boxes(ds.X, ds.y, v_bounds, est.theta_prior, est.rls, config.modes, drifts)
    for trace, m in zip(run_dataset(ds, config), config.modes):
        for t, (lower, upper) in enumerate(boxes[m]):
            for i, (lo, hi) in enumerate(zip(lower, upper)):
                slack = K[m] * U * (hi - lo)
                assert abs(Fraction(trace.lower[t, i]) - lo) <= slack
                assert abs(Fraction(trace.upper[t, i]) - hi) <= slack
    # the exact box of the last step is vertex_oracle's closed-form hull
    hull = vertex_oracle(ds.X, ds.y, v_bounds, est.theta_prior, est.rls, drifts, "rowsign")
    lower, upper = (np.array([float(v) for v in side]) for side in boxes[None][-1])
    np.testing.assert_allclose(lower, hull.lower, rtol=1e-12, atol=0)
    np.testing.assert_allclose(upper, hull.upper, rtol=1e-12, atol=0)
