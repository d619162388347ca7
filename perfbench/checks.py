"""Output checks that hold for any seed, plus agreement with stored outputs.

Every check returns a boolean array with one entry per time step, True
where the step fails, so callers can count failures per run, mode or
sample.
"""

from __future__ import annotations

import json
import os

import numpy as np

# The windowed radius dominates the exact one in exact arithmetic.  The two
# sums are reduced in different orders, which can put the windowed value a
# few ulps below the exact one (5.6e-17 seen on a 10^4-sample stream).
RADIUS_ORDER_RTOL = 1e-12

# Agreement with stored outputs: passes the ~1e-13 relative drift of
# reordered floating-point arithmetic, fails any real change in the boxes.
REFERENCE_RTOL = 1e-9

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

BOX_FIELDS = ("center", "radius", "mono_lo", "mono_hi")


def box_failures(truth, lower, upper, mono_lo, mono_hi, inconsistent, slack, monotone):
    """Per-step failures of one estimate trajectory, arrays of shape (N, n).

    A step fails when the truth leaves the raw or the refined box (beyond
    `slack`), the refined box is not inside the raw one, the run is
    flagged inconsistent, or, with `monotone`, a refined bound loosens.
    """
    bad = np.any((truth < lower - slack) | (truth > upper + slack), axis=1)
    bad |= np.any((truth < mono_lo - slack) | (truth > mono_hi + slack), axis=1)
    bad |= np.any((mono_lo < lower) | (mono_hi > upper), axis=1)
    bad |= np.asarray(inconsistent) != 0
    if monotone:
        loosened = np.any((np.diff(mono_lo, axis=0) < 0) | (np.diff(mono_hi, axis=0) > 0), axis=1)
        bad[1:] |= loosened
    return bad


def order_failures(windowed_radius, exact_radius):
    """Per-step failures of `windowed radius >= exact radius`, componentwise."""
    floor = exact_radius * (1.0 - RADIUS_ORDER_RTOL)
    return np.any(windowed_radius < floor, axis=1)


def read_table(path) -> dict:
    """Columns of a CSV written by ivrls, keyed by header name."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, comments="#", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def block(table: dict, prefix: str) -> np.ndarray:
    """The (N, n) block `prefix_1..prefix_n` of a table."""
    cols = []
    while f"{prefix}_{len(cols) + 1}" in table:
        cols.append(table[f"{prefix}_{len(cols) + 1}"])
    return np.stack(cols, axis=1)


def checkpoint_rows(N: int) -> list[int]:
    return sorted({0, (N - 1) // 2, N - 1})


def checkpoints(arrays: dict) -> dict:
    """The stored form of one mode's trajectory: first, middle and last rows.

    Values keep 12 significant digits, plenty for REFERENCE_RTOL.
    """
    rows = checkpoint_rows(len(arrays["center"]))
    out = {"rows": rows}
    for key in BOX_FIELDS:
        out[key] = [[float(f"{v:.12g}") for v in row] for row in np.asarray(arrays[key])[rows]]
    return out


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def reference_entry(reference: dict, workload: str, seed: int, size: dict):
    """The stored outputs for this workload, seed and size, or None."""
    entry = reference.get(workload, {}).get(str(seed))
    if entry is None or entry["size"] != size:
        return None
    return entry


def _close(actual, expected) -> bool:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return False
    scale = float(np.max(np.abs(expected))) if expected.size else 0.0
    return bool(np.allclose(actual, expected, rtol=REFERENCE_RTOL, atol=REFERENCE_RTOL * scale))


def mismatches(entry: dict, observed: dict) -> list[str]:
    """Names of stored quantities that the observed outputs do not reproduce.

    Both hold {"modes": {label: checkpoints(...)}, "scalars": {name: value}}.
    """
    bad = []
    for label, stored in entry["modes"].items():
        got = observed["modes"].get(label)
        if got is None or got["rows"] != stored["rows"]:
            bad.append(label)
            continue
        bad += [f"{label}.{key}" for key in BOX_FIELDS if not _close(got[key], stored[key])]
    for name, value in entry["scalars"].items():
        if not _close(observed["scalars"].get(name, np.nan), value):
            bad.append(name)
    return bad
