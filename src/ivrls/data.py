"""Datasets and the CSV format, which lives only here: `_write_table`
writes every table of the package, and the dataset columns, writer and
reader all derive from one schema, `_DATASET_SCHEMA`.

A dataset is the row sequence an estimator consumes, in processing
order: time index, output, regressor, per-step noise bounds, and
optionally the realized noise, the true parameter trajectory, and
per-step drift bounds (their presence marks a time-varying truth).

CSV layout (header mandatory, one row per step):

    t, y, x_1..x_n, v_lo, v_hi [, v_true] [, theta_true_1..n]
                               [, delta_lo_1..n, delta_hi_1..n]

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly; equal datasets therefore produce byte-identical files.
The reader skips '#' comment and blank lines, accepts CRLF endings, and
rejects non-finite values and a non-integer `t`.
"""

from __future__ import annotations

import re
from contextlib import closing
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

__all__ = ["Dataset", "write_estimates_csv"]

# Rows formatted per `tolist()` call.  A chunk is held as Python floats,
# so it is kept small: on a 30-column trace 128 rows raise peak RSS by
# about 0.6 MB, 512 rows by about 2.4 MB, at the same speed.
_CHUNK_ROWS = 128
_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d"}


def _write_table(path, header, blocks, comments=()) -> None:
    """Write a header, one row per index of `blocks`, then '# ' comments.

    Each block is an array of N rows with one column (1-d) or several
    (2-d).  Float blocks are written at 17 significant digits, integer
    and boolean blocks as %d, and anything else (labels) as text.
    """
    blocks = [np.asarray(b) for b in blocks]
    blocks = [b[:, None] if b.ndim == 1 else b for b in blocks]
    if len({b.shape[0] for b in blocks}) != 1:
        raise ValueError(f"table columns differ in length: {[b.shape[0] for b in blocks]}")
    row_fmt = ",".join(
        _FORMATS.get(b.dtype.kind, "%s") for b in blocks for _ in range(b.shape[1])
    ) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, blocks[0].shape[0], _CHUNK_ROWS):
            chunk = [b[start : start + _CHUNK_ROWS].tolist() for b in blocks]
            fh.writelines(
                row_fmt % tuple(chain.from_iterable(cells)) for cells in zip(*chunk)
            )
        fh.writelines(f"# {line}\n" for line in comments)


# (field, column name, grouped): a grouped field is an (N, n) array
# written as columns name_1..name_n, the others are single columns.
_DATASET_SCHEMA = (
    ("t", "t", False),
    ("y", "y", False),
    ("X", "x", True),
    ("v_low", "v_lo", False),
    ("v_high", "v_hi", False),
    ("v", "v_true", False),
    ("theta_true", "theta_true", True),
    ("delta_low", "delta_lo", True),
    ("delta_high", "delta_hi", True),
)
_REQUIRED = ("t", "y", "v_lo", "v_hi")


def _column_names(column: str, grouped: bool, n: int) -> list[str]:
    return [f"{column}_{i}" for i in range(1, n + 1)] if grouped else [column]


def _content_lines(path):
    """(line number, text) of each line that is neither blank nor a comment."""
    with open(path, "r", newline="") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\r\n")
            if line and not line.startswith("#"):
                yield lineno, line


def _header_fields(path, header: list[str]):
    """The dataset fields a header carries: their column names, in schema
    order, and each field's index (single column) or slice (group) into them."""
    columns = set(header)
    if len(columns) != len(header):
        raise ValueError(f"{path}: duplicate column names in header")

    x_ids = sorted(
        int(m.group(1)) for h in header if (m := re.fullmatch(r"x_(\d+)", h))
    )
    if not x_ids or x_ids != list(range(1, len(x_ids) + 1)):
        raise ValueError(f"{path}: regressor columns must be x_1..x_n, got {x_ids}")
    n = len(x_ids)

    names: list[str] = []
    slices = {}
    for field, column, grouped in _DATASET_SCHEMA:
        group = _column_names(column, grouped, n)
        found = [name for name in group if name in columns]
        if not found:
            if column in _REQUIRED:
                raise ValueError(f"{path}: missing required column '{column}'")
            continue
        if len(found) != len(group):
            raise ValueError(
                f"{path}: incomplete column group {column}_1..{column}_{n}"
            )
        start = len(names)
        slices[field] = slice(start, start + len(group)) if grouped else start
        names += group
    if ("delta_low" in slices) != ("delta_high" in slices):
        raise ValueError(f"{path}: delta_lo_* and delta_hi_* must appear together")
    return names, slices


@dataclass(eq=False)
class Dataset:
    """Row-ordered estimation data; optional arrays are None when absent."""

    t: np.ndarray
    X: np.ndarray
    y: np.ndarray
    v_low: np.ndarray
    v_high: np.ndarray
    v: np.ndarray | None = None
    theta_true: np.ndarray | None = None
    delta_low: np.ndarray | None = None
    delta_high: np.ndarray | None = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.int64)
        self.X = np.asarray(self.X, dtype=float)
        N = self.t.shape[0]
        if self.X.ndim != 2 or self.X.shape[0] != N:
            raise ValueError(f"X must be ({N}, n), got {self.X.shape}")
        for name, column, grouped in _DATASET_SCHEMA[1:]:
            arr = getattr(self, name)
            if arr is None and column not in _REQUIRED:
                continue
            arr = np.asarray(arr, dtype=float)
            shape = (N, self.n) if grouped else (N,)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            setattr(self, name, arr)
        if (self.delta_low is None) != (self.delta_high is None):
            raise ValueError("delta_low and delta_high must be given together")

    @property
    def N(self) -> int:
        return self.t.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]

    @property
    def is_ltv(self) -> bool:
        return self.delta_low is not None

    def validate(self) -> None:
        """Value-level checks: every bound finite and ordered, noise bounds honored."""
        lo, hi = self.v_low, self.v_high
        bad = np.flatnonzero(~((lo <= hi) & np.isfinite(lo) & np.isfinite(hi)))
        if bad.size:
            raise ValueError(f"v_lo > v_hi, or a non-finite noise bound, at rows {bad.tolist()}")
        if self.v is not None:
            bad = np.flatnonzero(~((self.v_low <= self.v) & (self.v <= self.v_high)))
            if bad.size:
                raise ValueError(f"v outside its declared bounds at rows {bad.tolist()}")
        if self.is_ltv:
            lo, hi = self.delta_low, self.delta_high
            bad = ~((lo <= hi) & np.isfinite(lo) & np.isfinite(hi))
            if bad.any():
                row = int(np.flatnonzero(bad.any(axis=1))[0])
                raise ValueError(f"delta_lo > delta_hi, or a non-finite drift bound, at row "
                                 f"{row}, components {np.flatnonzero(bad[row]).tolist()}")

    def columns(self) -> list[str]:
        return [
            name
            for field, column, grouped in _DATASET_SCHEMA
            if getattr(self, field) is not None
            for name in _column_names(column, grouped, self.n)
        ]

    def to_csv(self, path) -> None:
        blocks = (getattr(self, field) for field, _, _ in _DATASET_SCHEMA)
        _write_table(path, self.columns(), [b for b in blocks if b is not None])

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        # Two passes: count the rows, then parse each into a preallocated
        # array, so the text of the file is never held in memory.
        N = sum(1 for _ in _content_lines(path)) - 1
        with closing(_content_lines(path)) as lines:
            first = next(lines, None)
            if first is None:
                raise ValueError(f"{path}: empty file")
            header = [h.strip() for h in first[1].split(",")]
            names, slices = _header_fields(path, header)
            if N == 0:
                raise ValueError(f"{path}: no data rows")
            pick = itemgetter(*map(header.index, names))
            data = np.empty((N, len(names)))
            linenos = np.empty(N, dtype=int)
            # t is also read as an integer, since a float rounds it above
            # 2^53; a row whose t is not an integer literal ("3.0") is
            # flagged and takes its float value once that is checked
            t = np.empty(N, dtype=np.int64)
            t_from_float = np.zeros(N, dtype=bool)
            t_at = header.index("t")
            for i, (lineno, line) in enumerate(lines):
                linenos[i] = lineno
                parts = line.split(",")
                if len(parts) != len(header):
                    raise ValueError(
                        f"{path}: line {lineno} has {len(parts)} fields, "
                        f"expected {len(header)}"
                    )
                try:
                    data[i] = [float(raw) for raw in pick(parts)]
                except ValueError:
                    for name, raw in zip(names, pick(parts)):
                        try:
                            float(raw)
                        except ValueError:
                            raise ValueError(
                                f"{path}: line {lineno}, column '{name}': "
                                f"cannot parse {raw!r}"
                            ) from None
                try:
                    t[i] = int(parts[t_at])
                except (ValueError, OverflowError):
                    t_from_float[i] = True

        def reject(message, i, name=None):
            where = f"line {linenos[i]}" + ("" if name is None else f", column '{name}'")
            raise ValueError(f"{path}: {where}: {message}")

        bad = np.argwhere(~np.isfinite(data))
        if bad.size:
            i, j = bad[0]
            reject(f"non-finite value {data[i, j]:g}", i, names[j])
        bad = np.flatnonzero(data[:, 0] != np.trunc(data[:, 0]))
        if bad.size:
            reject(f"t must be an integer, got {float(data[bad[0], 0])!r}", bad[0], "t")
        rows = np.flatnonzero(t_from_float)
        bad = rows[np.abs(data[rows, 0]) >= 2.0**63]
        if bad.size:
            reject(f"t out of the int64 range, got {data[bad[0], 0]:g}", bad[0], "t")
        t[rows] = data[rows, 0]
        lo, hi = data[:, slices["v_low"]], data[:, slices["v_high"]]
        bad = np.flatnonzero(lo > hi)
        if bad.size:
            i = bad[0]
            reject(f"v_lo={lo[i]:g} exceeds v_hi={hi[i]:g}", i)
        if "v" in slices:
            v = data[:, slices["v"]]
            bad = np.flatnonzero((v < lo) | (v > hi))
            if bad.size:
                i = bad[0]
                reject(f"v_true={v[i]:g} outside its bounds [{lo[i]:g}, {hi[i]:g}]", i, "v_true")
        if "delta_low" in slices:
            lo, hi = data[:, slices["delta_low"]], data[:, slices["delta_high"]]
            bad = np.argwhere(lo > hi)
            if bad.size:
                i, j = bad[0]
                reject(f"delta_lo_{j + 1}={lo[i, j]:g} exceeds delta_hi_{j + 1}={hi[i, j]:g}", i)
        # every value check of `validate` is made above, naming the line
        return cls(t=t, **{f: data[:, sl].copy() for f, sl in slices.items() if f != "t"})


def write_estimates_csv(
    path,
    t,
    point,
    center,
    radius,
    lower,
    upper,
    mono_lower=None,
    mono_upper=None,
    inconsistent=None,
    comments=None,
) -> None:
    """Estimate trajectory CSV: one row per step.

        t, theta_hat_1..n, c_1..n, r_1..n, lo_1..n, hi_1..n
        [, mono_lo_1..n, mono_hi_1..n], inconsistent

    For a single run `inconsistent` is 0/1; averaged outputs put the
    across-run count there.  Trailing '#' comment lines carry optional
    audit summaries; readers that skip comments see plain CSV.
    """
    t = np.asarray(t).astype(int)
    N, n = np.shape(point)
    blocks = [("theta_hat", point), ("c", center), ("r", radius),
              ("lo", lower), ("hi", upper)]
    if (mono_lower is None) != (mono_upper is None):
        raise ValueError("mono_lower and mono_upper must be given together")
    if mono_lower is not None:
        blocks += [("mono_lo", mono_lower), ("mono_hi", mono_upper)]
    blocks = [(name, np.asarray(arr, dtype=float)) for name, arr in blocks]
    for name, arr in blocks:
        if arr.shape != (N, n):
            raise ValueError(f"{name} must have shape ({N}, {n}), got {arr.shape}")
    if inconsistent is None:
        inconsistent = np.zeros(N, dtype=int)
    inconsistent = np.asarray(inconsistent, dtype=int)

    header = ["t", *(c for name, _ in blocks for c in _column_names(name, True, n)),
              "inconsistent"]
    _write_table(path, header, [t, *(arr for _, arr in blocks), inconsistent], comments or ())
