"""Independent reference computations shared by the test modules.

Everything here deliberately avoids the library's incremental code
paths: the batch solver goes through the weighted normal equations,
transition products are formed by direct multiplication, and box images
are hulled by exhaustive vertex enumeration or by the closed-form
|M| r hull over a batch-assembled error map.  The CSV writer's oracle
formats every cell of every row, and the ARX oracle builds each sample's
lagged outputs from a zero-padded output array.
"""

from fractions import Fraction
from itertools import chain

import numpy as np
import pytest

import ivrls.experiment
from ivrls.data import Dataset
from ivrls.experiment import ModeTrace, estimator_config, mode_label
from ivrls.intervals import IntervalVector
from ivrls.lti import LtiIntervalEstimator
from ivrls.rls import rls_init, rls_step

ENUM_CHUNK = 1 << 14
ORACLE_MAX_DIM = 20


def batch_rls(X, y, lam, theta0, P0, t):
    """Weighted least squares the recursion must reproduce at time t:

        G(t) = sum_{k=1}^{t} lam^(t-k) x(k) x(k)' + lam^t P0^{-1}
        theta(t) = G(t)^{-1} (sum_k lam^(t-k) x(k) y(k) + lam^t P0^{-1} theta0)

    Returns (theta_t, P_t) with P_t = G(t)^{-1}.
    """
    theta0 = np.asarray(theta0, dtype=float)
    P0inv = np.linalg.inv(np.asarray(P0, dtype=float))
    G = lam**t * P0inv
    b = lam**t * (P0inv @ theta0)
    for k in range(1, t + 1):
        w = lam ** (t - k)
        x = np.asarray(X[k - 1], dtype=float)
        G = G + w * np.outer(x, x)
        b = b + w * x * float(y[k - 1])
    return np.linalg.solve(G, b), np.linalg.inv(G)


def box_image_minmax(M, lower, upper):
    """Hull of {M z : z in box} by enumerating every vertex.

    The 2^d sign patterns are generated in chunks of ENUM_CHUNK and each
    chunk is mapped with one matrix product.
    """
    M = np.asarray(M, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    d = lower.shape[0]
    lo = np.full(M.shape[0], np.inf)
    hi = np.full(M.shape[0], -np.inf)
    total = 1 << d
    for start in range(0, total, ENUM_CHUNK):
        masks = np.arange(start, min(start + ENUM_CHUNK, total), dtype=np.int64)
        bits = (masks[:, None] >> np.arange(d)) & 1
        images = np.where(bits == 1, upper, lower) @ M.T
        lo = np.minimum(lo, images.min(axis=0))
        hi = np.maximum(hi, images.max(axis=0))
    return lo, hi


def tightest_image(M, box):
    """Hull of {M z : z in box} in closed form: center M c, radius |M| r.

    Every bound is attained at some vertex of the input box, so this is
    the exact hull, evaluated without enumeration.
    """
    M = np.asarray(M, dtype=float)
    center = M @ box.center
    radius = np.abs(M) @ box.radius
    return IntervalVector(center - radius, center + radius)


def collect_run(config, X, y):
    """RLS trajectory; returns (thetas, Ps, As, qs) indexed by step 1..t."""
    state = rls_init(config)
    thetas, Ps, As, qs = [], [], [], []
    for k in range(len(y)):
        state = rls_step(state, X[k], y[k])
        thetas.append(state.theta)
        Ps.append(state.P)
        As.append(np.eye(config.n) - np.outer(state.last_q, X[k]))
        qs.append(state.last_q)
    return thetas, Ps, As, qs


def phi_product(As, t, t0):
    """Phi(t, t0) = A(t) ... A(t0+1); identity when t == t0."""
    n = As[0].shape[0]
    out = np.eye(n)
    for k in range(t0 + 1, t + 1):
        out = As[k - 1] @ out
    return out


def random_spd(rng, n, scale=1.0):
    B = rng.normal(size=(n, n))
    return scale * (B @ B.T + n * np.eye(n))


def vertex_oracle(X, y, v_bounds, theta_prior, rls_config, drifts=None, method="auto"):
    """Reference for the exact interval estimate at t = len(X).

    Assembles the full affine error map err(t) = M z, with blocks
    Phi(t,0) and Phi(t,k) B(k), where B(k) = q(k) without drift and
    [q(k), -A(k)] with it, acting on z = (err(0), w(1), ..., w(t)),
    w(k) = v(k) or (v(k), delta(k)).  Transition products are formed by
    direct multiplication.  err(0) = theta(0) - theta ranges over
    theta(0) - prior, so the returned box is theta(t) - hull.

    method "enumerate" hulls the image of every vertex of the z box
    (dimension capped at ORACLE_MAX_DIM); "rowsign" uses the closed-form
    hull of `tightest_image`, an independent check of the estimator's
    incremental propagation at any size; "auto" enumerates when the
    dimension is at most 16.
    """
    n = rls_config.n
    t = len(y)
    X = np.asarray(X, dtype=float).reshape(t, n)
    vb = np.asarray(v_bounds, dtype=float).reshape(t, 2)
    thetas, _, As, qs = collect_run(rls_config, X, y)
    blocks = [phi_product(As, t, 0) if t else np.eye(n)]
    lower = [rls_config.theta0 - theta_prior.upper]
    upper = [rls_config.theta0 - theta_prior.lower]
    for k in range(1, t + 1):
        B = qs[k - 1][:, None]
        lower.append(vb[k - 1, :1])
        upper.append(vb[k - 1, 1:])
        if drifts is not None:
            B = np.concatenate([B, -As[k - 1]], axis=1)
            lower.append(drifts[k - 1].lower)
            upper.append(drifts[k - 1].upper)
        blocks.append(phi_product(As, t, k) @ B)
    M = np.concatenate(blocks, axis=1)
    z = IntervalVector(np.concatenate(lower), np.concatenate(upper))
    if method == "auto":
        method = "enumerate" if z.dim <= 16 else "rowsign"
    if method == "enumerate":
        if z.dim > ORACLE_MAX_DIM:
            raise ValueError(
                f"vertex enumeration over {z.dim} dimensions refused "
                f"(cap {ORACLE_MAX_DIM})"
            )
        err_lo, err_hi = box_image_minmax(M, z.lower, z.upper)
    else:
        hull = tightest_image(M, z)
        err_lo, err_hi = hull.lower, hull.upper
    theta_t = thetas[-1] if t else rls_config.theta0
    return IntervalVector(theta_t - err_hi, theta_t - err_lo)


def rational_boxes(X, y, v_bounds, theta_prior, rls_config, modes=(None,), drifts=None):
    """The exact raw box of every step t = 1..len(y) of each mode, in
    fractions.Fraction: by mode, a list of (lower, upper) lists.

    The closed-form hull of `vertex_oracle`, center and |M| r, over the
    error map of the run's own gains: q(k) as the run computed it, which
    `collect_run` reproduces bit for bit, and A(k) = I - q(k) x(k)'.  Every
    float is an exact binary fraction, so every product and sum here is
    exact, and a float box is sound for the run only if it contains this
    one.  The columns of [Phi(t,0) | Phi(t,k) B(k) ...] are propagated one
    A(t) at a time, for every mode at once; window m (None for exact)
    takes the exact sum while t <= m, and after that |Phi(t,t-m)| r_m(t-m)
    plus the newest m blocks, with Phi(t,t-m) multiplied out directly.
    """
    n, T = rls_config.n, len(y)
    X = np.asarray(X, dtype=float).reshape(T, n)
    _, _, _, qs = collect_run(rls_config, X, y)

    def halves(lower, upper):
        lower, upper = [Fraction(a) for a in lower], [Fraction(b) for b in upper]
        return ([(b + a) / 2 for a, b in zip(lower, upper)],
                [(b - a) / 2 for a, b in zip(lower, upper)])

    def times(A, v):
        return [sum(a * b for a, b in zip(row, v)) for row in A]

    def weighted(columns, weights):
        return [sum(abs(col[i]) * r for col, r in zip(columns, weights)) for i in range(n)]

    center, r0 = halves(theta_prior.lower, theta_prior.upper)
    # signed columns with the radius each multiplies, one block per step
    blocks = [[([Fraction(int(i == j)) for i in range(n)], r) for j, r in enumerate(r0)]]
    As, boxes = [], {m: [] for m in modes}
    radii = {m: [] for m in modes}
    for k in range(T):
        q, x = [Fraction(v) for v in qs[k]], [Fraction(v) for v in X[k]]
        A = [[int(i == j) - q[i] * x[j] for j in range(n)] for i in range(n)]
        c_v, r_v = halves(v_bounds[k][:1], v_bounds[k][1:])
        shift = center
        block = [(q, r_v[0])]
        if drifts is not None:
            c_d, r_d = halves(drifts[k].lower, drifts[k].upper)
            shift = [a + b for a, b in zip(center, c_d)]
            block += [([-A[i][j] for i in range(n)], r_d[j]) for j in range(n)]
        center = [a + qi * (Fraction(y[k]) - c_v[0]) for a, qi in zip(times(A, shift), q)]
        blocks = [[(times(A, col), r) for col, r in b] for b in blocks] + [block]
        As.append(A)
        t = k + 1
        for m in modes:
            if m is None or t <= m:
                radius = weighted(*zip(*(term for b in blocks for term in b)))
            else:
                anchor = list(zip(*As[t - m]))  # Phi(t,t-m) by columns
                for A_j in As[t - m + 1 : t]:
                    anchor = [times(A_j, col) for col in anchor]
                radius = [a + b for a, b in zip(weighted(anchor, radii[m][t - m - 1]),
                                                weighted(*zip(*(term for b in blocks[-m:]
                                                                for term in b))))]
            radii[m].append(radius)
            boxes[m].append(([c - r for c, r in zip(center, radius)],
                             [c + r for c, r in zip(center, radius)]))
    return boxes


def mode_major_run_dataset(dataset, config):
    """`run_dataset` as a mode-major loop: one estimator with its own
    identifier per mode, each stepped through the whole dataset in turn."""
    drifts = [None] * dataset.N
    if dataset.is_ltv:
        drifts = [IntervalVector(*b) for b in zip(dataset.delta_low, dataset.delta_high)]
    shape = (dataset.N, dataset.n)
    mono = config.monotonic
    traces = []
    for m in config.modes:
        est = LtiIntervalEstimator(estimator_config(
            dataset.n, config.lam, config.p0_scale, config.prior_radius, m, mono
        ))
        trace = ModeTrace(
            label=mode_label(m),
            t=dataset.t.copy(),
            point=np.zeros(shape),
            center=np.zeros(shape),
            radius=np.zeros(shape),
            lower=np.zeros(shape),
            upper=np.zeros(shape),
            mono_lower=np.zeros(shape) if mono else None,
            mono_upper=np.zeros(shape) if mono else None,
            inconsistent=np.zeros(dataset.N, dtype=int),
        )
        for i in range(dataset.N):
            out = est.step(
                dataset.X[i], dataset.y[i], dataset.v_low[i], dataset.v_high[i], drifts[i]
            )
            trace.point[i] = out.point
            trace.center[i] = out.raw.center
            trace.radius[i] = out.raw.radius
            trace.lower[i] = out.raw.lower
            trace.upper[i] = out.raw.upper
            if mono:
                trace.mono_lower[i] = out.refined.lower
                trace.mono_upper[i] = out.refined.upper
            trace.inconsistent[i] = out.inconsistent
        traces.append(trace)
    return traces


def study_with_traces(config):
    """`run_experiment(config)` and, in run order, every run's traces as
    `run_dataset` returned them to the study.  Serial studies only: the
    recording wrapper lives in this process."""
    assert config.workers == 1
    traces = []
    original = ivrls.experiment.run_dataset

    def recording(dataset, config):
        traces.append(original(dataset, config))
        return traces[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ivrls.experiment, "run_dataset", recording)
        result = ivrls.experiment.run_experiment(config)
    return result, traces


def rowwise_write_table(path, header, blocks, comments=()):
    """`data._write_table` as one row format over all columns, applied to
    every row with `%`: floats at 17 significant digits, integers and
    booleans as %d, anything else as text."""
    blocks = [np.asarray(b) for b in blocks]
    blocks = [b[:, None] if b.ndim == 1 else b for b in blocks]
    kinds = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d"}
    row_fmt = ",".join(kinds.get(b.dtype.kind, "%s")
                       for b in blocks for _ in range(b.shape[1])) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for cells in zip(*(b.tolist() for b in blocks)):
            fh.write(row_fmt % tuple(chain.from_iterable(cells)))
        fh.writelines(f"# {line}\n" for line in comments)


def diverging_log():
    """3000 samples on which the radius of window 1 at lambda 0.1 overflows
    at t = 1078: per row x = 3 normal(4), then y = normal(), from
    default_rng(0), with noise bounds [-0.1, 0.1]."""
    r = np.random.default_rng(0)
    X, y = np.empty((3000, 4)), np.empty(3000)
    for i in range(3000):
        X[i] = 3 * r.normal(size=4)
        y[i] = r.normal()
    return Dataset(t=np.arange(1, 3001), X=X, y=y, v_low=np.full(3000, -0.1),
                   v_high=np.full(3000, 0.1))


def padded_arx(u, v, theta_path, n_a, n_b):
    """X and y of the ARX plant y(t) = x(t)' theta(t) + v(t): per sample,
    the lagged outputs are read reversed and negated from y behind a zero
    padding of n_a entries (so they are -0.0 for t <= 0)."""
    N, n = theta_path.shape
    X = np.zeros((N, n))
    for j in range(1, n_b + 1):
        X[j:, n_a + j - 1] = u[: max(N - j, 0)]
    padded = np.zeros(n_a + N)
    y = padded[n_a:]
    for i in range(N):
        X[i, :n_a] = -padded[i : i + n_a][::-1]
        y[i] = np.dot(X[i], theta_path[i]) + v[i]
    return X, y
