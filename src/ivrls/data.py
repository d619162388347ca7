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
Rows are formatted in chunks of `_CHUNK_ROWS`.  A numeric column whose
bits stay the same over a chunk (0.0 and -0.0 differ) is formatted once
for it.  A float column that repeats an earlier one a row later, as the
regressor of an ARX log repeats -y and its own entries, takes that
column's text one row down, with the sign toggled for a negated lag.
Both write the same bytes as formatting every row.
The reader skips '#' comment and blank lines and accepts CRLF endings.
It, `Dataset.validate` and a float t given to `Dataset` or to
`write_estimates_csv` are held to one set of value rules, `_first_break`,
and refused at its first break; an integer t past the int64 range is
refused at its row too.
"""

from __future__ import annotations

import re
from contextlib import closing
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

import numpy as np

__all__ = ["Dataset", "write_estimates_csv"]

# Rows formatted per chunk.  A chunk is held as Python floats, so it is
# kept small: on a 30-column trace 128 rows raise peak RSS by about
# 0.6 MB, 512 rows by about 2.4 MB, at the same speed.  A float costs
# about 0.37 us in the row format at `%.17g`, against 0.08 us as text and
# 0.09 us to negate text (2 vCPU, Python 3.11, numpy 2.4).  So folding a
# constant column, and shifting a lag's text, pay off.  In the 10^4-row
# reference log 6 of the 12 float columns never change and x_1, x_2, x_4
# are lags; with rows built from per-column lists its write takes 31 ms
# against 49 ms when only the constant columns were folded, and an
# m = 2000 estimate CSV of it (no lags; its 8 refined-box columns stay the
# same over most chunks) 115 ms against 123-131 ms (best of 9).
_CHUNK_ROWS = 128
_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d"}


def _chunk_folds(block: np.ndarray, chunks: int) -> np.ndarray:
    """(chunks, columns) flags of a 2-d numeric block: whether the column
    holds the same bits on every row of the `_CHUNK_ROWS`-row chunk, so
    0.0 and -0.0 never count as the same."""
    bits = block.view(f"u{block.dtype.itemsize}")
    same = np.ones((chunks * _CHUNK_ROWS, block.shape[1]), dtype=bool)
    np.equal(bits[1:], bits[:-1], out=same[1 : len(block)])
    same[::_CHUNK_ROWS] = True  # a chunk's first row starts its own run
    return same.reshape(chunks, _CHUNK_ROWS, block.shape[1]).all(axis=1)


def _chunk_lags(columns, floats, folded, start, stop) -> dict:
    """{j: (p, negated)} over the chunk of rows start..stop-1: each float64
    column j not folded there whose bits on rows start+1..stop-1 are those
    of an earlier float64 column p one row earlier, or those with the sign
    bit flipped (negated), while p is finite there.  `floats` indexes the
    float64 columns.  Only the pairs that lag on the chunk's first two rows
    are checked over the whole chunk, and j takes the first p that passes."""
    if len(floats) < 2 or stop - start < 2:
        return {}
    heads = np.array([columns[j][start : start + 2] for j in floats]).view(np.uint64)
    near = ((heads[:, 1, None] ^ heads[:, 0]) << 1) == 0  # equal up to the sign bit
    lags = {}
    for a, b in np.argwhere(np.tril(near, -1)).tolist():
        j, p = floats[a], floats[b]
        if j in lags or folded[j]:
            continue
        partner = columns[p][start : stop - 1]
        diff = columns[j][start + 1 : stop].view(np.uint64) ^ partner.view(np.uint64)
        if (diff == diff[0]).all() and np.isfinite(partner).all():
            lags[j] = p, bool(diff[0])
    return lags


def _write_table(path, header, blocks, comments=()) -> None:
    """Write a header, one row per index of `blocks`, then '# ' comments.

    Each block is an array of N rows with one column (1-d) or several
    (2-d).  Float blocks are written at 17 significant digits, integer
    and boolean blocks as %d, and anything else (labels) as text.  Every
    chunk goes through one row format: a column folded over the chunk is
    formatted once into it; a lag column (`_chunk_lags`) and its partner
    enter it as text, the lag's being the partner's one row down with
    its first row formatted itself; every other column enters it as
    values, formatted by per-row `%`.
    """
    blocks = [np.asarray(b) for b in blocks]
    blocks = [b[:, None] if b.ndim == 1 else b for b in blocks]
    if len({b.shape[0] for b in blocks}) != 1:
        raise ValueError(f"table columns differ in length: {[b.shape[0] for b in blocks]}")
    N = blocks[0].shape[0]
    chunks = -(-N // _CHUNK_ROWS)
    # labels are never folded: their text may hold a '%'
    folds = np.concatenate([_chunk_folds(b, chunks) if b.dtype.kind in _FORMATS
                            else np.zeros((chunks, b.shape[1]), dtype=bool) for b in blocks],
                           axis=1).tolist()
    formats = [_FORMATS.get(b.dtype.kind, "%s") for b in blocks for _ in range(b.shape[1])]
    columns = [column for b in blocks for column in b.T]
    floats = [j for j, column in enumerate(columns) if column.dtype == np.float64]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start, folded in zip(range(0, N, _CHUNK_ROWS), folds):
            stop = min(start + _CHUNK_ROWS, N)
            lags = _chunk_lags(columns, floats, folded, start, stop)
            partners = {p for p, _ in lags.values()}
            row_fmt, cells, texts = [], [], {}
            for j, (column, fmt, same) in enumerate(zip(columns, formats, folded)):
                if same:
                    row_fmt.append(fmt % column[start].item())
                    if j in partners:
                        texts[j] = [row_fmt[-1]] * (stop - start)
                    continue
                if j in lags:
                    p, negated = lags[j]
                    text = texts[p][:-1]
                    if negated:
                        text = [s[1:] if s[0] == "-" else "-" + s for s in text]
                    texts[j] = [fmt % column[start].item(), *text]
                elif j in partners:
                    texts[j] = [fmt % value for value in column[start:stop].tolist()]
                else:
                    row_fmt.append(fmt)
                    cells.append(column[start:stop].tolist())
                    continue
                row_fmt.append("%s")
                cells.append(texts[j])
            row_fmt = ",".join(row_fmt) + "\n"
            rows = zip(*cells) if cells else repeat((), stop - start)  # all folded
            fh.writelines(row_fmt % row for row in rows)
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


def _first_break(table, names, t_float=True):
    """The first break of the dataset contract in `table`, columns `names`
    with t first: (row, column or None, message), or None.  The rules, in
    turn, each at its first row: every value finite; t integral, and within
    int64 where `t_float` marks it held only as a float; then, where their
    columns are present, v_lo <= v_hi, v_true between them, delta_lo_i <=
    delta_hi_i."""
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        i, j = bad[0]
        return i, names[j], f"non-finite value {table[i, j]:g}"
    t = table[:, 0]
    if (bad := np.flatnonzero(t != np.trunc(t))).size:
        return bad[0], "t", f"t must be an integer, got {float(t[bad[0]])!r}"
    if (bad := np.flatnonzero((np.abs(t) >= 2.0**63) & t_float)).size:
        return bad[0], "t", f"t out of the int64 range, got {t[bad[0]]:g}"
    at = {name: j for j, name in enumerate(names)}
    if "v_lo" not in at:
        return None
    lo, hi = table[:, at["v_lo"]], table[:, at["v_hi"]]
    if (bad := np.flatnonzero(lo > hi)).size:
        return bad[0], None, f"v_lo={lo[bad[0]]:g} exceeds v_hi={hi[bad[0]]:g}"
    if "v_true" in at:
        v = table[:, at["v_true"]]
        if (bad := np.flatnonzero((v < lo) | (v > hi))).size:
            i = bad[0]
            return i, "v_true", f"v_true={v[i]:g} outside its bounds [{lo[i]:g}, {hi[i]:g}]"
    if "delta_lo_1" in at:
        a, b = at["delta_lo_1"], at["delta_hi_1"]  # n columns each, side by side
        if (bad := np.argwhere(table[:, a:b] > table[:, b : 2 * b - a])).size:
            i, j = bad[0]
            return i, None, (f"delta_lo_{j + 1}={table[i, a + j]:g} exceeds "
                             f"delta_hi_{j + 1}={table[i, b + j]:g}")
    return None


def _check(table, names, where, t_float=True) -> None:
    """Refuse the first break of `table`, located as where(row)[, column]."""
    if broken := _first_break(table, names, t_float):
        i, column, message = broken
        raise ValueError(where(i) + (f", column '{column}'" if column else "") + f": {message}")


def _t_column(t) -> np.ndarray:
    """t as int64, refusing at its row a t that is no int64, which the cast
    would truncate, wrap or fail on without naming it."""
    t = np.asarray(t)
    if t.dtype.kind == "f":
        _check(t.reshape(-1, 1), ["t"], "row {}".format)
    elif t.dtype.kind in "uO":  # uint64, or Python ints past it
        for i, value in enumerate(t.tolist()):
            if not -2**63 <= value < 2**63:
                raise ValueError(f"row {i}, column 't': t out of the int64 range, got {value}")
    return np.asarray(t, dtype=np.int64)


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
        self.t = _t_column(self.t)
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
        """Refuse the first break of the dataset contract, naming its row."""
        _check(np.column_stack(self._blocks()), self.columns(), "row {}".format, t_float=False)

    def columns(self) -> list[str]:
        return [
            name
            for field, column, grouped in _DATASET_SCHEMA
            if getattr(self, field) is not None
            for name in _column_names(column, grouped, self.n)
        ]

    def _blocks(self) -> list:
        """The arrays of the present fields, in column order."""
        blocks = (getattr(self, field) for field, _, _ in _DATASET_SCHEMA)
        return [b for b in blocks if b is not None]

    def to_csv(self, path) -> None:
        _write_table(path, self.columns(), self._blocks())

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

        _check(data, names, lambda i: f"{path}: line {linenos[i]}", t_from_float)
        t[t_from_float] = data[t_from_float, 0]
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
    t = _t_column(t)
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
