"""Report emission: arrays, the finiteness check and factor CSVs."""
import csv
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dwkit import report
from dwkit.errors import DwkitError


def emitted(body, outdir):
    paths = report.emit_report(body, outdir)
    return [open(paths[k], "rb").read() for k in ("json", "txt")]


def test_arrays_emit_as_their_elements(tmp_path):
    values = np.array([0.5, -0.0, 1e-300, 3.0])
    matrix = np.arange(6, dtype=float).reshape(2, 3) / 7
    as_arrays = {"v": values, "m": matrix, "i": np.array([1, -2])}
    as_lists = {"v": [np.float64(v) for v in values],
                "m": [list(row) for row in matrix],
                "i": [np.int64(1), np.int64(-2)]}
    assert emitted(as_arrays, tmp_path / "a") == \
        emitted(as_lists, tmp_path / "b")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_array_element_is_named(tmp_path, bad):
    with pytest.raises(DwkitError, match=r"report\.loadings\.1\.0 is"):
        report.emit_report({"loadings": np.array([[1.0, 2.0], [bad, 3.0]])},
                           tmp_path)
    assert not (tmp_path / "report.json").exists()


FLOATS = st.floats(allow_nan=True, allow_infinity=True, width=64)


@given(st.lists(st.tuples(FLOATS, FLOATS, FLOATS), max_size=6),
       st.sampled_from([["x", "y", "fitted"], ["a,b", 'q"uote', "fitted"]]))
def test_write_csv_equals_csv_writer(tmp_path_factory, rows, header):
    tmp = tmp_path_factory.mktemp("csv")
    report.write_csv(tmp / "got.csv", header,
                     [map(repr, col) for col in zip(*rows)] if rows
                     else [[], [], []])
    with open(tmp / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()
