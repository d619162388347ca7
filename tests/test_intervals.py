import numpy as np
import pytest

from ivrls.intervals import IntervalVector, from_center_radius
from ivrls.lti import _refine

from helpers import box_image_minmax, tightest_image


def test_from_bounds_basic():
    box = IntervalVector([-1.0, 0.0], [1.0, 2.0])
    np.testing.assert_array_equal(box.lower, [-1.0, 0.0])
    np.testing.assert_array_equal(box.upper, [1.0, 2.0])
    np.testing.assert_array_equal(box.center, [0.0, 1.0])
    np.testing.assert_array_equal(box.radius, [1.0, 1.0])
    assert box.dim == 2


def test_from_bounds_degenerate_point():
    box = IntervalVector([2.0], [2.0])
    assert box.radius[0] == 0.0
    assert box.contains([2.0])


def test_from_bounds_rejects_inversion():
    with pytest.raises(ValueError, match="component"):
        IntervalVector([0.0, 1.0], [1.0, 0.5])


def test_from_bounds_rejects_nan():
    with pytest.raises(ValueError):
        IntervalVector([np.nan], [1.0])


def test_rejects_infinite_bounds():
    for lower, upper in (([-np.inf], [1.0]), ([0.0], [np.inf]), ([-np.inf], [np.inf])):
        with pytest.raises(ValueError, match="non-finite"):
            IntervalVector(lower, upper)
    with pytest.raises(ValueError, match=r"components \[1\]"):
        from_center_radius(np.zeros(2), [1.0, np.inf])


def test_from_center_radius_negative_radius():
    with pytest.raises(ValueError):
        from_center_radius([0.0], [-0.1])


def test_center_radius_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = rng.integers(1, 6)
        c = rng.normal(scale=10.0, size=n)
        r = rng.random(n) * 5.0
        box = from_center_radius(c, r)
        np.testing.assert_allclose(box.center, c, rtol=0, atol=1e-12 * (1 + np.abs(c)).max())
        np.testing.assert_allclose(box.radius, r, rtol=0, atol=1e-12 * (1 + r).max())
        back = IntervalVector(box.lower, box.upper)
        np.testing.assert_array_equal(back.lower, box.lower)
        np.testing.assert_array_equal(back.upper, box.upper)


def test_immutability():
    box = IntervalVector([0.0], [1.0])
    with pytest.raises(ValueError):
        box.lower[0] = -5.0


def test_tightest_image_identity():
    box = IntervalVector([-1.0, 0.0], [2.0, 3.0])
    out = tightest_image(np.eye(2), box)
    np.testing.assert_array_equal(out.lower, box.lower)
    np.testing.assert_array_equal(out.upper, box.upper)


def test_tightest_image_diagonal_with_sign_flip():
    box = IntervalVector([-1.0, 0.0], [1.0, 2.0])
    M = np.array([[2.0, 0.0], [0.0, -3.0]])
    out = tightest_image(M, box)
    np.testing.assert_allclose(out.lower, [-2.0, -6.0])
    np.testing.assert_allclose(out.upper, [2.0, 0.0])
    lo, hi = box_image_minmax(M, box.lower, box.upper)
    np.testing.assert_allclose(out.lower, lo)
    np.testing.assert_allclose(out.upper, hi)


def test_tightest_image_row_sum():
    # [1, -1] over [-1,1] x [-1,1] reaches every value in [-2, 2]
    box = IntervalVector([-1.0, -1.0], [1.0, 1.0])
    out = tightest_image(np.array([[1.0, -1.0]]), box)
    np.testing.assert_allclose(out.lower, [-2.0])
    np.testing.assert_allclose(out.upper, [2.0])


def test_tightest_image_is_tight_on_vertices():
    # every bound of the image box must be attained at some input vertex
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 5, 8, 12):
        M = rng.normal(size=(3, d))
        box = from_center_radius(rng.normal(size=d), rng.random(d) * 2.0)
        out = tightest_image(M, box)
        lo, hi = box_image_minmax(M, box.lower, box.upper)
        scale = 1.0 + np.abs(hi).max()
        np.testing.assert_allclose(out.lower, lo, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(out.upper, hi, rtol=0, atol=1e-12 * scale)


def test_tightest_image_contains_sampled_points():
    rng = np.random.default_rng(17)
    hits = 0
    for _ in range(1000):
        rows = rng.integers(1, 4)
        d = rng.integers(1, 5)
        M = rng.normal(size=(rows, d))
        box = from_center_radius(rng.normal(size=d), rng.random(d))
        z = box.lower + rng.random(d) * box.width
        out = tightest_image(M, box)
        assert out.contains(M @ z, slack=1e-9)
        hits += 1
    assert hits == 1000


def intersect(a, b, drift=None):
    if drift is not None:
        drift = drift.lower.tolist(), drift.upper.tolist()
    return _refine(a, b.lower, b.upper, drift)


def test_intersect_overlap():
    box = intersect(IntervalVector([0.0], [2.0]), IntervalVector([1.0], [3.0]))
    np.testing.assert_array_equal(box.lower, [1.0])
    np.testing.assert_array_equal(box.upper, [2.0])


def test_intersect_disjoint_reports_components():
    a = IntervalVector([0.0, 0.0], [1.0, 1.0])
    # empty in one component is empty, whichever component it is
    assert intersect(a, IntervalVector([2.0, 0.5], [3.0, 0.7])) is None
    assert intersect(a, IntervalVector([0.5, -2.0], [0.7, -1.0])) is None


def test_intersect_touching_is_degenerate_not_empty():
    box = intersect(IntervalVector([0.0], [1.0]), IntervalVector([1.0], [2.0]))
    np.testing.assert_array_equal(box.lower, box.upper)


def test_intersect_algebra():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = rng.integers(1, 5)
        a = from_center_radius(rng.normal(size=n), rng.random(n) * 3)
        b = from_center_radius(rng.normal(size=n), rng.random(n) * 3)
        ab = intersect(a, b)
        ba = intersect(b, a)
        assert (ab is None) == (ba is None)
        if ab is not None:
            np.testing.assert_array_equal(ab.lower, ba.lower)
            np.testing.assert_array_equal(ab.upper, ba.upper)
        aa = intersect(a, a)
        np.testing.assert_array_equal(aa.lower, a.lower)
        np.testing.assert_array_equal(aa.upper, a.upper)


def test_translate():
    # a drift box shifts the carried bounds before intersecting
    box = IntervalVector([-1.0, 0.0], [1.0, 2.0])
    wide = IntervalVector([-100.0, -100.0], [100.0, 100.0])
    moved = intersect(box, wide, drift=IntervalVector([10.0, -1.0], [10.0, -1.0]))
    np.testing.assert_array_equal(moved.lower, [9.0, -1.0])
    np.testing.assert_array_equal(moved.upper, [11.0, 1.0])
    moved = intersect(box, wide, drift=IntervalVector([-0.5, 0.0], [0.25, 0.0]))
    np.testing.assert_array_equal(moved.lower, [-1.5, 0.0])
    np.testing.assert_array_equal(moved.upper, [1.25, 2.0])


def test_contains_boundary_and_slack():
    box = IntervalVector([0.0], [1.0])
    assert box.contains([0.0])
    assert box.contains([1.0])
    assert not box.contains([1.0 + 1e-12])
    assert box.contains([1.0 + 1e-12], slack=1e-9)
    assert not box.contains([-0.5], slack=0.1)
    with pytest.raises(ValueError, match="slack"):
        box.contains([0.5], slack=-1e-9)


@pytest.mark.parametrize("center, radius, message", [
    ([0.0, 1.0], [1.0], "dimension mismatch: center has 2 components, radius has 1"),
    ([0.0], [1.0, 2.0], "dimension mismatch: center has 1 components, radius has 2"),
])
def test_from_center_radius_refuses_mismatched_dimensions(center, radius, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        from_center_radius(center, radius)


def test_repr_lists_each_component_interval():
    box = IntervalVector([-1.5, 0.0], [2.0, 1e-20])
    assert repr(box) == "IntervalVector([-1.5, 2], [0, 1e-20])"


def test_dimension_mismatches():
    a = IntervalVector([0.0], [1.0])
    with pytest.raises(ValueError, match="mismatch"):
        a.contains([0.0, 0.0])
    with pytest.raises(ValueError, match="mismatch"):
        IntervalVector([0.0], [1.0, 2.0])


@pytest.mark.parametrize(
    "lower, upper, error",
    [
        ([0.0, np.nan], [1.0, 1.0], r"non-finite bound\) at components \[1\]"),
        ([0.0, 0.0], [np.nan, 1.0], r"non-finite bound\) at components \[0\]"),
        ([np.inf, 0.0], [np.inf, 1.0], r"components \[0\]"),
        ([0.0, 0.0], [1.0, np.inf], r"components \[1\]"),
        ([-np.inf, 0.0], [1.0, 1.0], r"components \[0\]"),
        ([0.0, -np.inf], [1.0, -np.inf], r"components \[1\]"),
        ([2.0, 0.0, 3.0], [1.0, 1.0, 2.0], r"bound inversion .* components \[0, 2\]"),
        ([[0.0, 1.0]], [[1.0, 2.0]], "lower must be a 1-d vector, got shape"),
        ([0.0, 1.0], [[1.0, 2.0]], "upper must be a 1-d vector, got shape"),
        ([0.0, 1.0], [1.0, 2.0, 3.0], "lower has 2 components, upper has 3"),
        ([-1.0, 0.0, 2.0], [1.0, 0.0, 5.0], None),
        ([-1e308], [1e308], None),
    ],
)
def test_box_contract(lower, upper, error):
    lower, upper = np.array(lower, dtype=float), np.array(upper, dtype=float)
    if error is not None:
        with pytest.raises(ValueError, match=error):
            IntervalVector(lower, upper)
        return
    box = IntervalVector(lower, upper)
    expected = lower.copy(), upper.copy()
    # the box copied its inputs: mutating them leaves it unchanged
    lower += 1.0
    upper -= 1.0
    np.testing.assert_array_equal(box.lower, expected[0])
    np.testing.assert_array_equal(box.upper, expected[1])
    for arr in (box.lower, box.upper):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 3.0


def test_center_and_radius_stay_finite_near_dbl_max():
    box = IntervalVector([-1.4e308, -1.0, 1.7e308], [1.4e308, 3.0, 1.75e308])
    with np.errstate(over="raise"):
        assert box.radius.tolist() == [1.4e308, 2.0, 0.5 * 1.75e308 - 0.5 * 1.7e308]
        assert box.center.tolist() == [0.0, 1.0, 0.5 * 1.75e308 + 0.5 * 1.7e308]
    # width is the plain difference: it overflows where the true width
    # exceeds DBL_MAX
    with np.errstate(over="ignore"):
        assert box.width.tolist() == [np.inf, 4.0, 1.75e308 - 1.7e308]


def test_center_and_radius_bit_equal_to_the_halved_sum_and_difference():
    # halving is exact in the normal range, so the overflow-free form gives
    # the bits of (upper +- lower) / 2
    rng = np.random.default_rng(29)
    lower = rng.normal(scale=10.0, size=1000) * 10.0 ** rng.integers(-30, 30, size=1000)
    upper = lower + rng.random(1000) * 10.0 ** rng.integers(-30, 30, size=1000)
    box = IntervalVector(lower, upper)
    assert box.center.tobytes() == (0.5 * (upper + lower)).tobytes()
    assert box.radius.tobytes() == (0.5 * (upper - lower)).tobytes()
