import csv
import io
import random
import tracemalloc

import numpy as np
import pytest

from qutsparse import data
from qutsparse.data import DataError, load_training


def write_with_missing(path, token):
    """40 rows of x0..x5,y: three missing cells in x1, x2 constant, x5
    missing throughout; ``token`` marks every missing cell."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 6))
    y = X[:, 0] + rng.normal(size=40)
    with open(path, "w") as fh:
        fh.write("x0,x1,x2,x3,x4,x5,y\n")
        for i in range(40):
            cells = [repr(float(v)) for v in X[i]] + [repr(float(y[i]))]
            if i in (3, 11, 27):
                cells[1] = token
            cells[2] = "7.5"
            cells[5] = token
            fh.write(",".join(cells) + "\n")


def test_fast_path_and_fallback_give_equal_datasets(tmp_path, monkeypatch):
    # np.loadtxt takes "nan", so that file is parsed in one pass; it rejects
    # "NA", so that file goes through the per-column parser.
    calls = []
    parse_column = data._parse_column

    def counting(rows, j, name, start_row):
        calls.append(name)
        return parse_column(rows, j, name, start_row)

    monkeypatch.setattr(data, "_parse_column", counting)
    datasets, parsed = {}, {}
    for token in ("nan", "NA"):
        path = tmp_path / ("%s.csv" % token)
        write_with_missing(path, token)
        calls.clear()
        datasets[token] = load_training(str(path), "y")
        parsed[token] = list(calls)

    fast, fallback = datasets["nan"], datasets["NA"]
    assert parsed["nan"] == []
    assert parsed["NA"] == ["y", "x0", "x1", "x2", "x3", "x4", "x5"]
    for field in ("X", "Y", "mean", "std"):
        np.testing.assert_array_equal(getattr(fast, field), getattr(fallback, field))
    assert fast.feature_names == fallback.feature_names == ["x0", "x1", "x3", "x4"]
    assert fast.indices == fallback.indices == [0, 1, 3, 4]
    assert fast.dropped == fallback.dropped == ["x2", "x5"]
    assert fast.imputed == fallback.imputed == 3


HEADER = ["a", "b", "c", "y"]
LABELS = ["red", " green ", "blue"]
CLASSIFY = {"task_kind": "classification"}


def csv_text(cells=(), target=None, header=HEADER, end="\n"):
    """A 12-row CSV with columns a, b, c, y of %.17g normals.  ``target``
    replaces y by those tokens, cycled; ``cells`` maps (data row, column)
    to a token that overrides it; ``header=None`` leaves the header out."""
    rng = np.random.default_rng(3)
    rows = [["%.17g" % v for v in row] for row in rng.normal(size=(12, 4))]
    for i, row in enumerate(rows):
        if target is not None:
            row[3] = target[i % len(target)]
    for (i, j), tok in dict(cells).items():
        rows[i][j] = tok
    lines = ([header] if header else []) + rows
    return "".join(",".join(r) + end for r in lines)


def with_line(text, k, line):
    """text with line inserted before its k-th line (0 = first)."""
    lines = text.splitlines(keepends=True)
    return "".join(lines[:k] + [line] + lines[k:])


# (case, file text, load_training arguments, whether np.loadtxt reads it)
INGESTION_CASES = [
    ("bom", "\ufeff" + csv_text(), {}, True),
    ("crlf", csv_text(end="\r\n"), {}, True),
    ("blank line in the middle", with_line(csv_text(), 4, "\n"), {}, True),
    ("blank first line", with_line(csv_text(), 0, "\n"), {}, False),
    ("only commas before a numeric header",
     with_line(csv_text(header=["1", "2", "3", "4"]), 0, ",,,\n"), {"target": "3"}, False),
    ("row of only commas", with_line(csv_text(), 5, ",,,\n"), {}, False),
    ("padded cells", csv_text({(0, 0): "  1.5 ", (2, 1): "\t-2 "},
                              header=[" a ", "b", "c\t", " y"]), {}, True),
    ("nan cells", csv_text({(1, 0): "nan", (4, 0): "NaN"}), {}, True),
    # np.loadtxt reads inf and 1e999; the cell reader names the first infinite cell
    ("inf cells", csv_text({(2, 3): "inf", (5, 3): "-Infinity", (3, 1): "1e999"}), {}, False),
    ("NA and empty cells", csv_text({(1, 0): "NA", (4, 2): ""}), {}, False),
    ("underscore digits", csv_text({(3, 1): "1_0"}), {}, False),
    ("quoted number", csv_text({(3, 1): '"2.5"'}), {}, False),
    ("quoted header and label", csv_text(target=['"red"', "green"], header=['"a"', "b", "c", "y"]),
     CLASSIFY, False),
    ("cr line ends", csv_text(end="\r"), {}, True),
    ("mixed line ends", with_line("".join(line + ("\r", "\r\n", "\n")[k % 3] for k, line
                                          in enumerate(csv_text().splitlines())), 4, "\r"),
     {}, True),
    ("ragged row", csv_text({(5, 2): "1,2"}), {}, False),
    ("header wider than the rows", csv_text(header=HEADER + ["z"]), {}, False),
    ("header only", "a,b,c,y\n", {}, False),
    ("repeated header name", csv_text(header=["a", " a", "b", "y"]), {}, False),
    ("no header, index target", csv_text(header=None),
     {"target": "3", "has_header": False}, True),
    ("three labels", csv_text(target=LABELS), CLASSIFY, True),
    ("labels 1 and 1.0", csv_text(target=["1", "1.0"]), CLASSIFY, True),
    ("missing label", csv_text({(7, 3): "NA"}, target=LABELS), CLASSIFY, False),
    ("nan regression target", with_line(csv_text({(7, 3): "nan"}), 3, "\n"), {}, False),
]


def load_outcome(path, kwargs):
    """The Dataset load_training gives, or its DataError message."""
    try:
        return load_training(str(path), **kwargs)
    except DataError as exc:
        return str(exc)


@pytest.mark.parametrize("text,kwargs,one_pass", [c[1:] for c in INGESTION_CASES],
                         ids=[c[0] for c in INGESTION_CASES])
def test_one_pass_and_cell_reader_agree(tmp_path, monkeypatch, text, kwargs, one_pass):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    kwargs = {"target": "y", **kwargs}
    args = (kwargs["target"], kwargs.get("has_header", True),
            kwargs.get("task_kind", "regression"))
    assert (data._loadtxt_table(data._read_text(path), *args) is not None) == one_pass

    got = load_outcome(path, kwargs)
    monkeypatch.setattr(data, "_loadtxt_table", lambda *a: None)
    want = load_outcome(path, kwargs)
    if isinstance(want, str):
        assert got == want
        return
    for name in ("X", "Y", "mean", "std"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    for name in ("feature_names", "indices", "dropped", "imputed", "labels"):
        assert getattr(got, name) == getattr(want, name), name


def test_labels_stay_text_and_missing_targets_name_their_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(csv_text(target=["1.0", "1"]))
    assert load_training(str(path), "y", task_kind="classification").labels == ["1", "1.0"]
    path.write_text(with_line(csv_text({(7, 3): "nan"}), 3, "\n"))
    with pytest.raises(DataError, match=r"^column 'y', row 9: missing target value$"):
        load_training(str(path), "y")
    path.write_text(csv_text({(7, 3): "NA"}, target=LABELS))
    with pytest.raises(DataError, match=r"^column 'y', row 9: missing target value$"):
        load_training(str(path), "y", task_kind="classification")


@pytest.mark.parametrize("column,token", [("b", "1e999"), ("y", "-Infinity")])
def test_an_infinite_cell_is_named_by_every_reader(tmp_path, column, token):
    path = tmp_path / "t.csv"
    path.write_text(csv_text({(3, HEADER.index(column)): token}))
    message = "^column %r, row 5: infinite value %r$" % (column, token)
    with pytest.raises(DataError, match=message):
        load_training(str(path), "y")
    with pytest.raises(DataError, match=message):
        data.ScoringFile(str(path), target="y").columns(
            [{"name": column, "index": 1, "mean": 0.0, "std": 1.0}])


def write_big(path, task_kind="regression", na_cell=False):
    """A 2500-row CSV of x0..x39 and y, over 2 MB; ``na_cell`` puts one NA
    in x1, which sends load_training to the cell reader."""
    rng = np.random.default_rng(11)
    X = rng.normal(size=(2500, 40))
    if task_kind == "regression":
        y = ["%.17g" % v for v in X[:, 0] + rng.normal(size=2500)]
    else:
        y = np.array(["a", "b", "c"])[np.digitize(X[:, 0], [-0.5, 0.5])]
    with open(path, "w") as fh:
        fh.write(",".join(["x%d" % j for j in range(40)] + ["y"]) + "\n")
        for i, (row, target) in enumerate(zip(X, y)):
            cells = ["%.17g" % v for v in row] + [target]
            if na_cell and i == 7:
                cells[1] = "NA"
            fh.write(",".join(cells) + "\n")
    size = path.stat().st_size
    assert size > 2_000_000
    return size


def traced_peak(fn):
    """(fn(), the tracemalloc peak of the call in bytes)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("task_kind", ["regression", "classification"])
def test_one_pass_reader_peaks_below_three_times_the_file(tmp_path, monkeypatch, task_kind):
    # the text plus the table is about 2x the file; a copy of the body, or
    # the 4 bytes per character of an io.StringIO, would pass 3x
    path = tmp_path / "big.csv"
    size = write_big(path, task_kind)

    def cell_reader(*args):
        pytest.fail("the file was read cell by cell")

    monkeypatch.setattr(data, "_cell_table", cell_reader)
    ds, peak = traced_peak(lambda: load_training(str(path), "y", task_kind=task_kind))
    assert ds.X.shape == (2500, 40)
    assert peak < 3 * size, "peak %.2fx the file" % (peak / size)


@pytest.mark.parametrize("reader", ["ScoringFile", "load_training fallback"])
def test_cell_reader_peaks_below_six_times_the_file(tmp_path, reader):
    # the text and one str per cell stay near 5x the file; a whole copy of
    # the text in an io.StringIO, at 4 bytes per character, passes 6x
    path = tmp_path / "big.csv"
    size = write_big(path, na_cell=True)
    if reader == "ScoringFile":
        out, peak = traced_peak(lambda: data.ScoringFile(str(path), target="y"))
        assert len(out.rows) == 2500
    else:
        out, peak = traced_peak(lambda: load_training(str(path), "y"))
        assert out.X.shape == (2500, 40) and out.imputed == 1
    assert peak < 6 * size, "peak %.2fx the file" % (peak / size)


def csv_outcome(lines):
    """The rows csv.reader makes of lines, or its error message."""
    try:
        return list(csv.reader(lines))
    except csv.Error as exc:
        return "csv.Error: %s" % exc


def test_lines_split_as_stringio_and_csv_do():
    # io.StringIO(text, newline="") is the line rule csv.reader is
    # documented against; _lines must cut every text where it does
    rng = random.Random(20)
    tokens = ["a", ",", "1", " ", '"', "\r", "\n", "\r\n"]
    for _ in range(10_000):
        text = "".join(rng.choice(tokens) for _ in range(rng.randrange(25)))
        want = list(io.StringIO(text, newline=""))
        assert list(data._lines(text)) == want, repr(text)
        assert csv_outcome(data._lines(text)) == csv_outcome(want), repr(text)
    text = "x\r\ny\rz\n\r\r\nw"
    assert list(data._lines(text, 3)) == ["y\r", "z\n", "\r", "\r\n", "w"]
