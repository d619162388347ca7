import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import rowwise_write_table
from ivrls.data import (_CHUNK_ROWS, Dataset, _chunk_folds, _chunk_lags, _write_table,
                        write_estimates_csv)


def make_dataset(rng, N=12, n=3, with_v=True, with_theta=True, with_delta=False):
    X = rng.normal(size=(N, n))
    v = rng.uniform(-0.2, 0.2, size=N)
    kwargs = {}
    if with_v:
        kwargs["v"] = v
    if with_theta:
        kwargs["theta_true"] = rng.normal(size=(N, n))
    if with_delta:
        lo = -rng.random((N, n)) * 0.1
        kwargs["delta_low"] = lo
        kwargs["delta_high"] = lo + rng.random((N, n)) * 0.2
    return Dataset(
        t=np.arange(1, N + 1),
        X=X,
        y=rng.normal(size=N),
        v_low=np.full(N, -0.2),
        v_high=np.full(N, 0.2),
        **kwargs,
    )


def test_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(1)
    for with_v, with_theta, with_delta in (
        (False, False, False),
        (True, False, False),
        (True, True, False),
        (True, True, True),
    ):
        ds = make_dataset(rng, with_v=with_v, with_theta=with_theta,
                          with_delta=with_delta)
        path = tmp_path / "ds.csv"
        ds.to_csv(path)
        back = Dataset.from_csv(path)
        # 17 significant digits round-trip doubles exactly
        np.testing.assert_array_equal(back.t, ds.t)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)
        np.testing.assert_array_equal(back.v_low, ds.v_low)
        np.testing.assert_array_equal(back.v_high, ds.v_high)
        for name in ("v", "theta_true", "delta_low", "delta_high"):
            a, b = getattr(ds, name), getattr(back, name)
            if a is None:
                assert b is None
            else:
                np.testing.assert_array_equal(a, b)


def test_header_layout(tmp_path):
    rng = np.random.default_rng(2)
    ds = make_dataset(rng, N=2, n=2, with_v=True, with_theta=True, with_delta=True)
    path = tmp_path / "ds.csv"
    ds.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == (
        "t,y,x_1,x_2,v_lo,v_hi,v_true,theta_true_1,theta_true_2,"
        "delta_lo_1,delta_lo_2,delta_hi_1,delta_hi_2"
    )


def test_missing_required_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,y,x_1,v_lo\n1,0,0,0\n")
    with pytest.raises(ValueError, match="missing required column 'v_hi'"):
        Dataset.from_csv(path)


def test_noncontiguous_regressor_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,y,x_1,x_3,v_lo,v_hi\n1,0,0,0,0,0\n")
    with pytest.raises(ValueError, match="x_1..x_n"):
        Dataset.from_csv(path)


def test_inverted_noise_bounds_rejected_with_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,y,x_1,v_lo,v_hi\n1,0,0,-0.1,0.1\n2,0,0,0.2,-0.2\n")
    with pytest.raises(ValueError, match="line 3"):
        Dataset.from_csv(path)


def test_ragged_row_rejected_with_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,y,x_1,v_lo,v_hi\n1,0,0,-0.1,0.1\n2,0,0,-0.1\n")
    with pytest.raises(ValueError, match="line 3"):
        Dataset.from_csv(path)


def test_unparsable_field_names_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,y,x_1,v_lo,v_hi\n1,zero,0,-0.1,0.1\n")
    with pytest.raises(ValueError, match="column 'y'"):
        Dataset.from_csv(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("nan,0,0,-0.1,0.1", "line 3, column 't': non-finite value nan"),
        ("1.5,0,0,-0.1,0.1", "line 3, column 't': t must be an integer, got 1.5"),
        ("2,inf,0,-0.1,0.1", "line 3, column 'y': non-finite value inf"),
        ("2,0,-inf,-0.1,0.1", "line 3, column 'x_1': non-finite value -inf"),
        ("2,0,0,-0.1,nan", "line 3, column 'v_hi': non-finite value nan"),
    ],
)
def test_non_finite_or_fractional_values_rejected_with_line_and_column(
    tmp_path, row, message
):
    path = tmp_path / "bad.csv"
    path.write_text(f"t,y,x_1,v_lo,v_hi\n1,0,0,-0.1,0.1\n{row}\n")
    with pytest.raises(ValueError, match=message):
        Dataset.from_csv(path)


def test_comments_blank_lines_and_crlf_accepted(tmp_path):
    rng = np.random.default_rng(4)
    ds = make_dataset(rng, N=5, n=2, with_delta=True)
    path = tmp_path / "ds.csv"
    ds.to_csv(path)
    lines = path.read_text().splitlines()
    noisy = ["# written by hand", lines[0], "", lines[1], "# note", lines[2]]
    noisy += ["", ""] + lines[3:]
    path.write_bytes(("\r\n".join(noisy) + "\r\n").encode())
    back = Dataset.from_csv(path)
    for name in ("t", "X", "y", "v_low", "v_high", "v", "theta_true",
                 "delta_low", "delta_high"):
        np.testing.assert_array_equal(getattr(back, name), getattr(ds, name))
    # reported line numbers count the skipped lines
    cells = noisy[-1].split(",")
    cells[1] = "nan"
    noisy[-1] = ",".join(cells)
    path.write_text("\n".join(noisy) + "\n")
    with pytest.raises(ValueError, match=f"line {len(noisy)}, column 'y'"):
        Dataset.from_csv(path)


def test_roundtrip_longer_than_one_formatting_chunk(tmp_path):
    rng = np.random.default_rng(5)
    ds = make_dataset(rng, N=2 * _CHUNK_ROWS + 3, n=3, with_delta=True)
    path = tmp_path / "ds.csv"
    ds.to_csv(path)
    assert len(path.read_text().splitlines()) == 1 + ds.N
    back = Dataset.from_csv(path)
    np.testing.assert_array_equal(back.t, ds.t)
    for name in ("X", "y", "v_low", "v_high", "v", "theta_true",
                 "delta_low", "delta_high"):
        a, b = getattr(ds, name), getattr(back, name)
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def _mixed_table(N):
    """A table with a float column constant in the first chunk only, one
    holding 0.0 then -0.0 in a chunk, a constant inf and nan, varying and
    constant int and bool columns, and labels that contain '%'."""
    rng = np.random.default_rng(N)
    floats = np.zeros((N, 5))
    floats[:, 0] = np.where(np.arange(N) < _CHUNK_ROWS, 0.25, rng.normal(size=N))
    floats[N // 2 + 5 :, 1] = -0.0
    floats[:, 2] = rng.normal(size=N)
    floats[:, 3] = np.inf
    floats[:, 4] = np.nan
    labels = np.array(["50%", "a%sb", "%d", "%%"])[np.arange(N) % 4]
    blocks = [np.arange(1, N + 1), floats, np.full(N, 7), np.arange(N) % 3 == 0,
              np.ones(N, dtype=bool), labels, np.full(N, "m%20")]
    header = ["t", *(f"f_{j}" for j in range(1, 6)), "count", "flag", "on", "label", "mode"]
    return header, blocks


def _constant_table(N):
    """Every column, of every kind but labels, constant over the whole table."""
    blocks = [np.full(N, 3), np.full((N, 2), -0.5), np.full(N, -0.0), np.zeros(N, dtype=bool)]
    return ["t", "a_1", "a_2", "z", "flag"], blocks


def _lag(column, first):
    """`column` one row down, `first` on top."""
    return np.concatenate([[first], column[:-1]])[: len(column)]


def _lagged_table(N):
    """Lag columns as in an ARX log, and their edge cases.  Floats, in
    order: y; x_1 = -y and x_2 = x_1, each one row down (a chain); z holding
    0.0, -0.0 and 1.5, and w = -z one row down; s, inf and nan (of both
    signs) in the first and third chunks only, and u = -s one row down,
    whose negated nan prints as 'nan', not '-nan'; b = x_2 one row down but
    for row 200, mid-chunk; f folded over the first chunk, and g = f one
    row down but for row 0."""
    rng = np.random.default_rng(N + 1)
    y = rng.normal(size=N)
    x = np.empty((N, 2))
    x[:, 0] = -_lag(y, 0.0)
    x[:, 1] = _lag(x[:, 0], -0.0)
    z = rng.choice([0.0, -0.0, 1.5], size=N)
    s = rng.normal(size=N)
    for row, value in [(3, np.nan), (50, -np.nan), (260, np.inf), (270, -np.inf)]:
        s[row : row + 1] = value
    b = _lag(x[:, 1], 2.0)
    b[200:201] = 0.125
    f = np.where(np.arange(N) < _CHUNK_ROWS, 0.25, rng.normal(size=N))
    floats = np.column_stack([z, -_lag(z, 1.0), s, -_lag(s, 0.0), b, f, _lag(f, 9.0)])
    blocks = [np.arange(1, N + 1), y, x, floats, np.array(["a%", "b"] * N)[:N]]
    header = ["t", "y", "x_1", "x_2", "z", "w", "s", "u", "b", "f", "g", "label"]
    return header, blocks


@pytest.mark.parametrize("N", [0, 1, 127, 128, 129, 300])
@pytest.mark.parametrize("table", [_mixed_table, _constant_table, _lagged_table])
def test_the_writer_writes_the_bytes_of_the_row_by_row_oracle(table, N, tmp_path):
    header, blocks = table(N)
    _write_table(tmp_path / "table.csv", header, blocks, ["audit x=1", "100% of rows"])
    rowwise_write_table(tmp_path / "oracle.csv", header, blocks, ["audit x=1", "100% of rows"])
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_a_column_is_folded_only_over_chunks_where_its_bits_stay_the_same():
    N = 2 * _CHUNK_ROWS + 1
    _, blocks = _mixed_table(N)
    folds = _chunk_folds(blocks[1], 3)
    # f_1 is constant in the first chunk only; f_2 turns from 0.0 to -0.0
    # inside the second chunk; inf and nan keep their bits; the last
    # chunk has one row, so every column of it is constant
    assert folds.tolist() == [[True, True, False, True, True],
                              [False, False, False, True, True],
                              [True, True, True, True, True]]
    assert _chunk_folds(blocks[0][:, None], 3)[:, 0].tolist() == [False, False, True]


def test_a_column_lags_only_over_chunks_where_it_holds_its_partners_text():
    header, blocks = _lagged_table(300)
    columns = [column for b in blocks for column in (b.T if b.ndim == 2 else [b])]
    floats = list(range(1, 11))  # y..g: the float64 columns
    folded = [False] * 12
    lags = [_chunk_lags(columns, floats, folded, start, min(start + _CHUNK_ROWS, 300))
            for start in range(0, 300, _CHUNK_ROWS)]
    named = [{header[j]: (header[p], negated) for j, (p, negated) in chunk.items()}
             for chunk in lags]
    chain = {"x_1": ("y", True), "x_2": ("x_1", False), "w": ("z", True), "g": ("f", False)}
    # u lags s only in the second chunk, where s is finite, and b lags x_2
    # but in the second chunk, which row 200 breaks
    assert named == [{**chain, "b": ("x_2", False)},
                     {**chain, "u": ("s", True)},
                     {**chain, "b": ("x_2", False)}]
    # a folded column is never a lag, but stays a partner
    folded[header.index("x_2")] = True
    assert _chunk_lags(columns, floats, folded, 0, _CHUNK_ROWS)[header.index("b")] == (3, False)
    assert header.index("x_2") not in _chunk_lags(columns, floats, folded, 0, _CHUNK_ROWS)
    # a chunk of one row has no lags
    assert _chunk_lags(columns, floats, folded, 299, 300) == {}


def test_the_writer_holds_a_few_chunks_not_the_table():
    """Writing 10^4 rows of 29 float columns (2.3 MB as float64, with two
    lag columns) peaks at a few chunks of Python floats and their text,
    not at a copy of the table."""
    rng = np.random.default_rng(0)
    N = 10_000
    y, floats = rng.normal(size=N), rng.normal(size=(N, 28))
    floats[:, 0], floats[:, 1] = -_lag(y, 0.0), _lag(-_lag(y, 0.0), 0.0)
    chunk = _CHUNK_ROWS * 29 * 32  # a float object and its list slot per value
    tracemalloc.start()
    try:
        _write_table(os.devnull, ["t", "y", *(f"x_{j}" for j in range(1, 29))],
                     [np.arange(N), y, floats])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * chunk, (peak, chunk)


def test_partial_optional_group_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,y,x_1,x_2,v_lo,v_hi,theta_true_1\n1,0,0,0,-0.1,0.1,0\n")
    with pytest.raises(ValueError, match="incomplete column group"):
        Dataset.from_csv(path)


def test_validate_checks_v_within_bounds():
    ds = Dataset(
        t=[1],
        X=[[0.0]],
        y=[0.0],
        v_low=[-0.1],
        v_high=[0.1],
        v=[0.5],
    )
    message = "row 0, column 'v_true': v_true=0.5 outside its bounds [-0.1, 0.1]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ds.validate()


def test_validate_rejects_nan_values_naming_the_rows():
    ds = Dataset(t=[1, 2, 3], X=[[0.0, 0.0]] * 3, y=[0.0] * 3, v_low=[-0.1] * 3,
                 v_high=[0.1] * 3, delta_low=[[-0.1, -0.1]] * 3, delta_high=[[0.1, 0.1]] * 3)
    ds.validate()
    ds.delta_low[2] = 1.0
    ds.delta_high[1, 1] = np.nan
    # the first break of the first rule broken, as `from_csv` words it, at a 0-based row
    with pytest.raises(ValueError, match=r"^row 1, column 'delta_hi_2': non-finite value nan$"):
        ds.validate()
    ds.delta_high[1, 1] = 0.1
    with pytest.raises(ValueError, match=r"^row 2: delta_lo_1=1 exceeds delta_hi_1=0.1$"):
        ds.validate()
    ds.v_high[2] = np.nan
    with pytest.raises(ValueError, match=r"^row 2, column 'v_hi': non-finite value nan$"):
        ds.validate()
    ds.v_high[2] = -0.2
    with pytest.raises(ValueError, match=r"^row 2: v_lo=-0.1 exceeds v_hi=-0.2$"):
        ds.validate()
    ds.v_high[2] = 0.1
    ds.X[0, 1] = np.inf  # every value, not only the bounds
    with pytest.raises(ValueError, match=r"^row 0, column 'x_2': non-finite value inf$"):
        ds.validate()
    ds.X[0, 1] = 0.0
    ds.v = np.array([0.0, np.nan, 0.0])
    with pytest.raises(ValueError, match=r"^row 1, column 'v_true': non-finite value nan$"):
        ds.validate()


@pytest.mark.filterwarnings("error")  # the int64 cast warned on a nan t
@pytest.mark.parametrize("t, message", [
    ([1, 1.5, 3], "row 1, column 't': t must be an integer, got 1.5"),
    ([np.nan, 2, 3], "row 0, column 't': non-finite value nan"),
    ([1, 2, 1e19], "row 2, column 't': t out of the int64 range, got 1e+19"),
    ([1, -2.0**63, 3], "row 1, column 't': t out of the int64 range, got -9.22337e+18"),
])
def test_a_float_t_that_is_no_int64_is_refused_before_the_cast(t, message):
    columns = dict(X=np.zeros((3, 1)), y=np.zeros(3), v_low=np.zeros(3), v_high=np.zeros(3))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Dataset(t=t, **columns)
    # an integral float t is taken by value
    assert Dataset(t=[1.0, 2e0, 3.0], **columns).t.tolist() == [1, 2, 3]


@pytest.mark.parametrize("t, message", [
    ([2**63], "row 0, column 't': t out of the int64 range, got 9223372036854775808"),
    (np.array([1, 2**63, 3], dtype=np.uint64),
     "row 1, column 't': t out of the int64 range, got 9223372036854775808"),
    ([1, -2**63 - 1, 3], "row 1, column 't': t out of the int64 range, got -9223372036854775809"),
    ([1, 2, 2**64], "row 2, column 't': t out of the int64 range, got 18446744073709551616"),
])
def test_an_integer_t_past_int64_is_refused_naming_its_row(t, message):
    N = len(t)
    columns = dict(X=np.zeros((N, 1)), y=np.zeros(N), v_low=np.zeros(N), v_high=np.zeros(N))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Dataset(t=t, **columns)
    # the largest int64 is kept exactly, from any integer type
    top = np.array([2**63 - 1] * N, dtype=np.uint64)
    assert Dataset(t=top, **columns).t.tolist() == [2**63 - 1] * N


def test_write_estimates_csv_refuses_a_fractional_t_before_writing(tmp_path):
    zeros = np.zeros((2, 1))
    path = tmp_path / "est.csv"
    with pytest.raises(ValueError, match=r"^row 0, column 't': t must be an integer, got 1\.5$"):
        write_estimates_csv(path, [1.5, 2.7], zeros, zeros, zeros, zeros, zeros)
    assert not path.exists()
    write_estimates_csv(path, [1.0, 2.0], zeros, zeros, zeros, zeros, zeros)
    assert [line.split(",")[0] for line in path.read_text().splitlines()[1:]] == ["1", "2"]


def test_delta_groups_must_come_together():
    with pytest.raises(ValueError, match="together"):
        Dataset(
            t=[1],
            X=[[0.0]],
            y=[0.0],
            v_low=[-0.1],
            v_high=[0.1],
            delta_low=[[0.0]],
        )


def test_write_estimates_csv_layout(tmp_path):
    rng = np.random.default_rng(3)
    N, n = 4, 2
    arrays = {k: rng.normal(size=(N, n)) for k in
              ("point", "center", "radius", "lower", "upper", "mlo", "mhi")}
    path = tmp_path / "est.csv"
    write_estimates_csv(
        path,
        np.arange(1, N + 1),
        arrays["point"],
        arrays["center"],
        arrays["radius"],
        arrays["lower"],
        arrays["upper"],
        mono_lower=arrays["mlo"],
        mono_upper=arrays["mhi"],
        inconsistent=np.array([0, 0, 1, 1]),
        comments=["audit raw_contained=1"],
    )
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "t,theta_hat_1,theta_hat_2,c_1,c_2,r_1,r_2,lo_1,lo_2,hi_1,hi_2,"
        "mono_lo_1,mono_lo_2,mono_hi_1,mono_hi_2,inconsistent"
    )
    assert len(lines) == 1 + N + 1
    assert lines[-1].startswith("# audit")
    assert lines[1].split(",")[0] == "1"
    assert lines[3].split(",")[-1] == "1"
    # values survive at full precision
    assert float(lines[1].split(",")[1]) == arrays["point"][0, 0]


def test_write_estimates_csv_without_mono(tmp_path):
    N, n = 3, 1
    zeros = np.zeros((N, n))
    path = tmp_path / "est.csv"
    write_estimates_csv(path, np.arange(N), zeros, zeros, zeros, zeros, zeros)
    header = path.read_text().splitlines()[0]
    assert "mono" not in header
    assert header.endswith("inconsistent")
    with pytest.raises(ValueError, match="differ in length"):
        write_estimates_csv(path, np.arange(N - 1), zeros, zeros, zeros, zeros, zeros)
    with pytest.raises(ValueError, match="differ in length"):
        write_estimates_csv(path, np.arange(N), zeros, zeros, zeros, zeros, zeros,
                            inconsistent=np.zeros(N + 1, dtype=int))


SPECIAL_VALUES = [0.1, -0.0, 5e-324, 1.7976931348623157e308, -1.0 / 3.0, 1e22, 0.0]


def _estimate_blocks(N, n, rng):
    blocks = [rng.normal(size=(N, n)) for _ in range(7)]
    flat = blocks[0].reshape(-1)
    flat[: len(SPECIAL_VALUES)] = SPECIAL_VALUES
    blocks[5].reshape(-1)[-len(SPECIAL_VALUES):] = SPECIAL_VALUES
    return blocks


def test_write_estimates_csv_roundtrips_every_block_exactly(tmp_path):
    rng = np.random.default_rng(6)
    N, n = 2 * _CHUNK_ROWS + 5, 3
    blocks = _estimate_blocks(N, n, rng)
    t = np.arange(1, N + 1)
    counts = rng.integers(0, 40, size=N)
    path = tmp_path / "est.csv"
    write_estimates_csv(path, t, *blocks[:5], mono_lower=blocks[5],
                        mono_upper=blocks[6], inconsistent=counts)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + N
    table = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(table[:, 0], t)
    np.testing.assert_array_equal(table[:, -1], counts)
    for k, block in enumerate(blocks):
        back = table[:, 1 + k * n : 1 + (k + 1) * n]
        np.testing.assert_array_equal(back.view(np.uint64), block.view(np.uint64))


def test_write_estimates_csv_float_format_is_17_significant_digits(tmp_path):
    N, n = len(SPECIAL_VALUES), 1
    values = np.array(SPECIAL_VALUES).reshape(N, n)
    path = tmp_path / "est.csv"
    write_estimates_csv(path, np.arange(N), values, values, values, values, values,
                        inconsistent=np.arange(N) * 7)
    for i, line in enumerate(path.read_text().splitlines()[1:]):
        cells = line.split(",")
        expected = format(SPECIAL_VALUES[i], ".17g")
        assert cells == [str(i)] + [expected] * 5 + [str(7 * i)]
    assert path.read_text().splitlines()[1].split(",")[1] == "0.10000000000000001"


def test_t_roundtrips_as_an_exact_integer(tmp_path):
    rng = np.random.default_rng(6)
    ds = replace(make_dataset(rng, N=3, n=2),
                 t=[9007199254740993, 9007199254740994, 2**63 - 1])
    path = tmp_path / "ds.csv"
    ds.to_csv(path)
    text = path.read_text().splitlines()
    assert [line.split(",")[0] for line in text[1:]] == [
        "9007199254740993", "9007199254740994", "9223372036854775807"]
    back = Dataset.from_csv(path)
    assert back.t.dtype == np.int64
    assert back.t.tolist() == [9007199254740993, 9007199254740994, 2**63 - 1]
    back.to_csv(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_t_written_as_a_float_is_read_by_value(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("t,y,x_1,v_lo,v_hi\n1.0,0,0,-0.1,0.1\n2e0,0,0,-0.1,0.1\n3,0,0,-0.1,0.1\n")
    back = Dataset.from_csv(path)
    assert back.t.dtype == np.int64 and back.t.tolist() == [1, 2, 3]
    path.write_text("t,y,x_1,v_lo,v_hi\n1,0,0,-0.1,0.1\n9223372036854775808,0,0,-0.1,0.1\n")
    with pytest.raises(ValueError, match="line 3, column 't': t out of the int64 range"):
        Dataset.from_csv(path)


def _read(text):
    def read(path):
        path.write_text(text)
        Dataset.from_csv(path)
    return read


def _estimates(**kwargs):
    columns = dict(point=np.zeros((2, 1)), center=np.zeros((2, 1)), radius=np.zeros((2, 1)),
                   lower=np.zeros((2, 1)), upper=np.zeros((2, 1)))
    return lambda path: write_estimates_csv(path, [1, 2], **{**columns, **kwargs})


@pytest.mark.parametrize("call, message", [
    (_read("t,y,x_1,x_1,v_lo,v_hi\n"), "{path}: duplicate column names in header"),
    (_read("t,y,x_1,v_lo,v_hi,delta_lo_1\n"),
     "{path}: delta_lo_* and delta_hi_* must appear together"),
    (_read("# a comment and nothing else\n\n"), "{path}: empty file"),
    (lambda path: Dataset(t=[1, 2], X=np.zeros(2), y=np.zeros(2), v_low=np.zeros(2),
                          v_high=np.zeros(2)), "X must be (2, n), got (2,)"),
    (lambda path: Dataset(t=[1, 2], X=np.zeros((2, 1)), y=np.zeros(3), v_low=np.zeros(2),
                          v_high=np.zeros(2)), "y must have shape (2,), got (3,)"),
    (_estimates(mono_lower=np.zeros((2, 1))),
     "mono_lower and mono_upper must be given together"),
    (_estimates(center=np.zeros((3, 1))), "c must have shape (2, 1), got (3, 1)"),
    (_read("t,y,x_1,v_lo,v_hi\n# no samples\n"), "{path}: no data rows"),
    (_read("t,y,x_1,v_lo,v_hi,v_true\n1,0,0,-0.1,0.1,0\n2,0,0,-0.1,0.1,0.5\n"),
     "{path}: line 3, column 'v_true': v_true=0.5 outside its bounds [-0.1, 0.1]"),
    (_read("t,y,x_1,x_2,v_lo,v_hi,delta_lo_1,delta_lo_2,delta_hi_1,delta_hi_2\n"
           "# the second increment's bounds are swapped\n1,0,0,0,-0.1,0.1,-1,0.2,1,-0.2\n"),
     "{path}: line 3: delta_lo_2=0.2 exceeds delta_hi_2=-0.2"),
])
def test_a_malformed_table_is_refused_with_its_cause(call, message, tmp_path):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(path=path))}$"):
        call(path)
