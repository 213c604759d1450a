"""CSV ingestion and standardization for the command-line tools.

Comma-separated, '.' decimal, UTF-8, optional header row.  Feature
columns are centered and scaled to unit standard deviation (ddof 0) with
the original statistics kept for prediction-time reuse, so a model
applied to new data never depends on that file's own column statistics.
Missing feature cells are imputed by the column mean; constant columns
are dropped.  The target column is named (header required) or given as
a 0-based index, parsed as floats for regression and kept as strings
for classification.

A training file is read in one of two ways, with the same Dataset or the
same DataError either way.  A file whose cells are all finite numbers or
nan apart from the classification labels, with no quote character and no
blank first line, is parsed in one np.loadtxt pass.
Every other file (missing tokens, ragged rows, quoted cells, '1_0', a
missing target value, ...) is read cell by cell with the csv module and
float(); that reader is the reference and raises every DataError.
Prediction and held-out files are always read cell by cell.

Both readers take the lines from _lines, one rule for LF, CRLF and lone
CR ends that slices them from the text one at a time.  At its peak the
one-pass reader holds the text plus the table, about 1.4 times the file's
size, and load_training lets the text go once the table is parsed; the
cell reader holds one str per cell, about five times.
"""

import csv
import re
from dataclasses import dataclass, field

import numpy as np

MISSING_TOKENS = frozenset(["", "na", "nan", "null", "none"])
CONSTANT_TOL = 1e-12
_NON_SPACE = re.compile(r"\S")


class DataError(Exception):
    """Unusable input file: unreadable, ragged, non-numeric, or missing
    required columns."""


@dataclass
class Dataset:
    X: np.ndarray
    Y: np.ndarray
    feature_names: list
    indices: list
    mean: np.ndarray
    std: np.ndarray
    dropped: list = field(default_factory=list)
    imputed: int = 0
    labels: list = None


def _read_text(path):
    """The whole file as text: a leading byte-order mark dropped, line ends
    kept as they are."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError("cannot read %s: %s" % (path, exc)) from exc
    except UnicodeDecodeError as exc:
        raise DataError("%s is not UTF-8 text: %s" % (path, exc)) from exc


def _rows(text, path):
    """All rows of CSV text as lists of stripped strings; rows with no
    non-empty cell are skipped."""
    rows = [[cell.strip() for cell in row] for row in csv.reader(_lines(text))]
    rows = [r for r in rows if r and any(c != "" for c in r)]
    if not rows:
        raise DataError("%s: no rows" % path)
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(
                "%s: row %d has %d fields, expected %d" % (path, i + 1, len(row), width)
            )
    return rows


def _split_header(rows, path, has_header):
    """(column names, data rows, file row number of the first data row);
    without a header the names are x0, x1, ...  A header name that appears
    twice is an error: a name would pick either column."""
    if has_header:
        names, data, start_row = rows[0], rows[1:], 2
        if len(set(names)) < len(names):
            repeated = next(name for j, name in enumerate(names) if name in names[:j])
            raise DataError("%s: header name %r appears more than once" % (path, repeated))
    else:
        names, data, start_row = ["x%d" % j for j in range(len(rows[0]))], rows, 1
    if not data:
        raise DataError("%s: no data rows" % path)
    return names, data, start_row


def _table(path, has_header):
    return _split_header(_rows(_read_text(path), path), path, has_header)


def _is_missing(tok):
    return tok.lower() in MISSING_TOKENS


def _parse_column(rows, j, name, start_row):
    """Floats with NaN at missing cells; any other cell must be a finite number."""
    out = np.empty(len(rows))
    for i, row in enumerate(rows):
        tok = row[j]
        if _is_missing(tok):
            out[i] = np.nan
            continue
        try:
            out[i] = value = float(tok)
        except ValueError:
            raise DataError(
                "column %r, row %d: non-numeric value %r" % (name, start_row + i, tok)
            ) from None
        if abs(value) == np.inf:
            raise DataError("column %r, row %d: infinite value %r" % (name, start_row + i, tok))
    return out


def _resolve_target(target, names, has_header, n_cols):
    if isinstance(target, int) or (isinstance(target, str) and target.lstrip("-").isdigit()):
        idx = int(target)
        if not 0 <= idx < n_cols:
            raise DataError("target index %d out of range for %d columns" % (idx, n_cols))
        return idx
    if not has_header:
        raise DataError("target given by name (%r) but the file has no header" % target)
    if target not in names:
        raise DataError("target column %r not in header %r" % (target, names))
    return names.index(target)


def _target_values(data, j, name, start_row, task_kind):
    """Column j as floats for regression or label strings for
    classification; a missing cell is an error."""
    if task_kind == "regression":
        vals = _parse_column(data, j, name, start_row)
        missing = np.isnan(vals)
    else:
        vals = [row[j] for row in data]
        missing = [_is_missing(tok) for tok in vals]
    if np.any(missing):
        row = start_row + int(np.argmax(missing))
        raise DataError("column %r, row %d: missing target value" % (name, row))
    return vals


def _coded_target(y, task_kind):
    """(Y, labels): the regression target as one column, or the labels
    one-hot coded in sorted order."""
    if task_kind == "regression":
        return y.reshape(-1, 1), None
    labels = sorted(set(y))
    if len(labels) < 2:
        raise DataError("classification target has a single label %r" % labels[0])
    lut = {lab: k for k, lab in enumerate(labels)}
    Y = np.zeros((len(y), len(labels)))
    Y[np.arange(len(y)), [lut[tok] for tok in y]] = 1.0
    return Y, labels


def _cell_table(text, path, target, has_header, task_kind):
    """(names, target index, Y, labels, raw features with NaN at missing
    cells), read cell by cell.  The reference reader: it raises every
    DataError a training file can give, in the order its checks run."""
    names, data, start_row = _split_header(_rows(text, path), path, has_header)
    n_cols = len(names)
    if n_cols < 2:
        raise DataError("%s: need a target and at least one feature column" % path)
    t_idx = _resolve_target(target, names, has_header, n_cols)
    y = _target_values(data, t_idx, names[t_idx], start_row, task_kind)
    Y, labels = _coded_target(y, task_kind)
    feat_idx = [j for j in range(n_cols) if j != t_idx]
    X = np.empty((len(data), len(feat_idx)))
    for k, j in enumerate(feat_idx):
        X[:, k] = _parse_column(data, j, names[j], start_row)
    return names, t_idx, Y, labels, X


def _lines(text, start=0):
    """The lines of text from offset start on, each with its line end (LF,
    CRLF or a lone CR), as io.StringIO(text, newline="") and the csv module
    split them, sliced out one at a time: the text is never copied whole."""
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        # a CR before the line's last character ends it, unless an LF follows
        cr = text.find("\r", start, end - 1)
        if cr >= 0 and text[cr + 1] != "\n":
            end = cr + 1
        yield text[start:end]
        start = end


def _loadtxt_table(text, target, has_header, task_kind):
    """What _cell_table returns, from one np.loadtxt pass; None for a file
    that pass might read differently or that load_training rejects.

    That is a file with a quote character, a blank first line, a cell
    float() takes and loadtxt does not (a missing token, '1_0'), ragged
    rows, no data rows, a repeated header name, a target that does not name
    a column, a missing target value or an infinite cell.  Labels are coded
    by a converter and stay text, so '1' and '1.0' are two labels.
    """
    if '"' in text:
        return None
    first = next(_lines(text), "")
    cells = [c.strip() for c in first.split(",")]
    if not any(cells):
        return None
    if has_header:
        names, start = cells, len(first)
    else:
        names, start = ["x%d" % j for j in range(len(cells))], 0
    if len(names) < 2 or len(set(names)) < len(names) or not _NON_SPACE.search(text, start):
        return None
    try:
        t_idx = _resolve_target(target, names, has_header, len(names))
    except DataError:
        return None
    converters, codes = None, {}
    if task_kind != "regression":
        def code(cell):
            tok = cell.strip()
            if _is_missing(tok):
                raise ValueError("missing label")
            return codes.setdefault(tok, len(codes))

        converters = {t_idx: code}
    try:
        table = np.loadtxt(_lines(text, start), delimiter=",", comments=None, ndmin=2,
                           converters=converters)
    except ValueError:
        return None
    if table.shape[1] != len(names) or np.isinf(table).any():
        return None
    y = np.ascontiguousarray(table[:, t_idx])
    if task_kind != "regression":
        seen = list(codes)
        y = [seen[int(c)] for c in y]
    elif np.isnan(y).any():  # the cell reader names the row
        return None
    Y, labels = _coded_target(y, task_kind)
    return names, t_idx, Y, labels, np.delete(table, t_idx, axis=1)


def load_training(path, target, has_header=True, task_kind="regression"):
    """Ingest a training CSV into a standardized Dataset.

    Feature standardization uses this file's own statistics; the target
    is left on its original scale.  Missing target cells are an error.
    """
    text = _read_text(path)
    names, t_idx, Y, labels, X = (_loadtxt_table(text, target, has_header, task_kind)
                                  or _cell_table(text, path, target, has_header, task_kind))
    del text
    feat_idx = [j for j in range(len(names)) if j != t_idx]
    n_rows = X.shape[0]
    miss = np.isnan(X)
    n_miss = miss.sum(axis=0)
    for k in np.flatnonzero((n_miss > 0) & (n_miss < n_rows)):
        col = X[:, k]
        col[miss[:, k]] = col[~miss[:, k]].mean()
    imputed = int(n_miss[n_miss < n_rows].sum())
    # an all-missing column has a NaN std, so it is dropped by its count
    drop = (n_miss == n_rows) | (X.std(axis=0) < CONSTANT_TOL)
    keep = np.flatnonzero(~drop).tolist()
    dropped = [names[feat_idx[k]] for k in np.flatnonzero(drop)]
    if not keep:
        raise DataError("%s: no usable feature columns" % path)
    X = X.take(keep, axis=1)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    X -= mean
    X /= std
    return Dataset(
        X=X,
        Y=Y,
        feature_names=[names[feat_idx[k]] for k in keep],
        indices=[feat_idx[k] for k in keep],
        mean=mean,
        std=std,
        dropped=dropped,
        imputed=imputed,
        labels=labels,
    )


class ScoringFile:
    """A CSV to score with a stored model, read once.

    Reading it checks all that needs no model: the file is readable UTF-8
    with rows of one width and, given a ``target``, that column exists,
    has no missing value and, given the training ``labels`` too, no other
    label.  y is that column as load_training reads it but without the
    one-hot coding: floats for regression, label strings for
    classification; without a target, y is None.  columns() parses the
    feature columns a model selects, and no other.
    """

    def __init__(self, path, has_header=True, target=None, task_kind="regression", labels=None):
        self.path, self.has_header = path, has_header
        self.names, self.rows, self.start_row = _table(path, has_header)
        self.y = None
        if target is not None:
            j = _resolve_target(target, self.names, has_header, len(self.names))
            self.y = _target_values(self.rows, j, self.names[j], self.start_row, task_kind)
            unseen = sorted(set(self.y) - set(labels)) if labels is not None else ()
            if unseen:
                raise DataError("%s: unseen label %r" % (path, unseen[0]))

    def columns(self, selected):
        """(X, n_imputed) for ``selected``, a list of dicts with name, index,
        mean, and std as written into the model file.  Columns are matched
        by name when the file has a header and by original position
        otherwise.  X holds them standardized by these STORED statistics,
        missing cells imputed with the stored mean."""
        names, cols, imputed = self.names, [], 0
        for feat in selected:
            if self.has_header:
                if feat["name"] not in names:
                    missing = [f["name"] for f in selected if f["name"] not in names]
                    raise DataError("%s: missing feature columns %r" % (self.path, missing))
                j = names.index(feat["name"])
            else:
                j = int(feat["index"])
                if j >= len(names):
                    raise DataError(
                        "%s: feature %r expects column %d but file has %d columns"
                        % (self.path, feat["name"], j, len(names))
                    )
            col = _parse_column(self.rows, j, feat["name"], self.start_row)
            miss = np.isnan(col)
            if miss.any():
                imputed += int(miss.sum())
                col[miss] = feat["mean"]
            cols.append((col - feat["mean"]) / feat["std"])
        X = np.column_stack(cols) if cols else np.zeros((len(self.rows), 0))
        return X, imputed
