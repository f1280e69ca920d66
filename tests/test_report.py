"""Report emission: arrays, the finiteness check and factor CSVs, and the
equivalence of report.json with ``json.dumps``, of report.txt with the
straightforward rendering kept here as the oracle, and of factor CSVs with
``csv.writer``."""
import csv
import json
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_in_flat_list_in_dict_is_named(tmp_path, bad):
    body = {"fit": {"note": "x", "values": [0.5, bad, 2.0]}}
    with pytest.raises(DwkitError, match=r"report\.fit\.values\.1 is"):
        report.emit_report(body, tmp_path)
    assert not (tmp_path / "report.json").exists()


def oracle_render(value, indent=0):
    """report.txt's lines as the report module wrote them before it shared
    float texts with report.json: one line per scalar, walked plainly."""
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key in value:
            v = value[key]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{key}:")
                lines.extend(oracle_render(v, indent + 1))
            else:
                lines.append(f"{pad}{key}: {oracle_scalar(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(oracle_render(v, indent + 1))
            else:
                lines.append(f"{pad}- {oracle_scalar(v)}")
    else:
        lines.append(f"{pad}{oracle_scalar(value)}")
    return lines


def oracle_scalar(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, dict)) and not v:
        return "(none)"
    return str(v)


def written(path, text):
    """The bytes of ``text`` written as the report module writes a file."""
    with open(path, "w") as fh:
        fh.write(text)
    return path.read_bytes()


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                               1e-310, 1.7976931348623157e308, 0.1])
SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
           | st.floats(allow_nan=False, allow_infinity=False) | EDGE_FLOATS
           | st.text(max_size=6))
# keys and strings draw from all of Unicode but surrogates, so non-ASCII
# ones (escaped in report.json, as they are in report.txt) are common
KEYS = st.text(max_size=5)
TREES = st.recursive(
    SCALARS | st.lists(EDGE_FLOATS | st.floats(allow_nan=False,
                                               allow_infinity=False)),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(KEYS, children, max_size=4)),
    max_leaves=24)
REPORTS = st.dictionaries(KEYS, TREES, max_size=5)


@given(REPORTS)
def test_report_json_equals_json_dumps(tmp_path_factory, body):
    tmp = tmp_path_factory.mktemp("report")
    got, _ = emitted(body, tmp / "out")
    want = json.dumps(body, sort_keys=True, indent=2, allow_nan=False)
    assert got == written(tmp / "want.json", want + "\n")


@given(REPORTS)
def test_report_txt_equals_render(tmp_path_factory, body):
    tmp = tmp_path_factory.mktemp("report")
    _, got = emitted(body, tmp / "out")
    want = "\n".join(oracle_render(body)) + "\n"
    assert got == written(tmp / "want.txt", want)


@st.composite
def reports_with_one_non_finite(draw):
    """A report holding one NaN or infinity at a drawn place: as a float,
    as a numpy scalar or in a row of an array.  Returns the report, the
    keys and indices that lead to the value, and the value."""
    body = draw(REPORTS)
    bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    form = draw(st.sampled_from(["float", "numpy scalar", "array row"]))
    if form == "float":
        value, inner = bad, []
    elif form == "numpy scalar":
        value, inner = np.float64(bad), []
    else:
        rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        inner = [draw(st.integers(0, rows - 1)),
                 draw(st.integers(0, cols - 1))]
        value = np.arange(rows * cols, dtype=float).reshape(rows, cols) / 7
        value[tuple(inner)] = bad
    # go down through dicts and lists, then put the value in the last one
    path, node = [], body
    while True:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        nested = [key for key, v in items if isinstance(v, (dict, list))]
        if not nested or draw(st.booleans()):
            break
        path.append(draw(st.sampled_from(nested)))
        node = node[path[-1]]
    if isinstance(node, dict):
        key = draw(KEYS | st.sampled_from(list(node)) if node else KEYS)
        node[key] = value
    else:
        key = draw(st.integers(0, len(node)))
        node.insert(key, value)
    return body, [*path, key, *inner], bad


@given(reports_with_one_non_finite())
def test_non_finite_anywhere_is_named(tmp_path_factory, case):
    body, path, bad = case
    outdir = tmp_path_factory.mktemp("report") / "out"
    with pytest.raises(DwkitError) as raised:
        report.emit_report(body, outdir)
    where = "".join(f".{key}" for key in path)
    assert str(raised.value) == (f"report{where} is {bad}, which "
                                 f"report.json cannot hold")
    assert not outdir.exists()


FLOATS = st.floats(allow_nan=True, allow_infinity=True, width=64)
# a column of few distinct values: both zeros, both infinities, NaN
FEW = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0,
                       5e-324])


@st.composite
def float_columns(draw, count=3):
    """``count`` float columns of one length, each drawn from all floats
    or from a few values; long enough for the few to repeat."""
    n = draw(st.integers(0, 90))
    return [draw(st.lists(draw(st.sampled_from([FLOATS, FEW])),
                          min_size=n, max_size=n)) for _ in range(count)]


@given(float_columns(1))
def test_float_texts_equal_repr(columns):
    values = columns[0]
    assert report.float_texts(np.array(values)) == list(map(repr, values))


@given(float_columns(),
       st.sampled_from([["x", "y", "fitted"], ["a,b", 'q"uote', "fitted"]]))
def test_write_csv_equals_csv_writer(tmp_path_factory, columns, header):
    """Float arrays are formatted by write_csv; a list of texts, as the
    response column is, is written as it is."""
    tmp = tmp_path_factory.mktemp("csv")
    x, y, fitted = columns
    report.write_csv(tmp / "got.csv", header,
                     [np.array(x), report.float_texts(np.array(y)),
                      np.array(fitted)])
    with open(tmp / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(x, y, fitted))
    assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()
