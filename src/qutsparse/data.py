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
same DataError either way.  A file whose cells are all numbers (nan and
inf included) apart from the classification labels, with no quote
character, no blank first line and LF or CRLF line ends, is parsed in one
np.loadtxt pass.  Every other file (missing tokens, ragged rows, quoted
cells, '1_0', a missing target value, ...) is read cell by cell with the
csv module and float(); that reader is the reference and raises every
DataError.  Prediction and held-out files are always read cell by cell.
"""

import csv
import io
from dataclasses import dataclass, field

import numpy as np

MISSING_TOKENS = frozenset(["", "na", "nan", "null", "none"])
CONSTANT_TOL = 1e-12


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
    rows = [[cell.strip() for cell in row] for row in csv.reader(io.StringIO(text, newline=""))]
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
    without a header the names are x0, x1, ..."""
    if has_header:
        names, data, start_row = rows[0], rows[1:], 2
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
    """Floats with NaN at missing cells; raises on other non-numeric."""
    out = np.empty(len(rows))
    for i, row in enumerate(rows):
        tok = row[j]
        if _is_missing(tok):
            out[i] = np.nan
            continue
        try:
            out[i] = float(tok)
        except ValueError:
            raise DataError(
                "column %r, row %d: non-numeric value %r" % (name, start_row + i, tok)
            ) from None
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


def _loadtxt_table(text, target, has_header, task_kind):
    """What _cell_table returns, from one np.loadtxt pass; None for a file
    that pass might read differently or that load_training rejects.

    That is a file with a quote character, a blank first line or a line
    end other than LF and CRLF, a cell float() takes and loadtxt does not
    (a missing token, '1_0'), ragged rows, no data rows, a target that does
    not name a column, or a missing target value.  Classification labels are coded by a
    converter and stay text, so '1' and '1.0' are two labels.
    """
    if '"' in text:
        return None
    first, _, rest = text.partition("\n")
    first = first.rstrip("\r")
    cells = [c.strip() for c in first.split(",")]
    if "\r" in first or not any(cells):
        return None
    if has_header:
        names, body = cells, rest
    else:
        names, body = ["x%d" % j for j in range(len(cells))], text
    if len(names) < 2 or not body.strip():
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
        table = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2,
                           converters=converters)
    except ValueError:
        return None
    if table.shape[1] != len(names):
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
    X = (X - mean) / std
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


def load_scoring(path, selected, has_header=True, target=None, task_kind="regression"):
    """A CSV to score with a stored model, read once: (X, n_imputed, y).

    ``selected`` is a list of dicts with name, index, mean, and std as
    written into the model file.  Columns are matched by name when the
    file has a header and by original position otherwise.  X holds them
    standardized by these STORED statistics, missing cells imputed with
    the stored mean.  With a ``target``, y is that column as load_training
    reads it but without the one-hot coding: floats for regression, label
    strings for classification; without one, y is None.  No other column
    is read.
    """
    names, data, start_row = _table(path, has_header)
    cols, imputed = [], 0
    for feat in selected:
        if has_header:
            if feat["name"] not in names:
                missing = [f["name"] for f in selected if f["name"] not in names]
                raise DataError("%s: missing feature columns %r" % (path, missing))
            j = names.index(feat["name"])
        else:
            j = int(feat["index"])
            if j >= len(names):
                raise DataError(
                    "%s: feature %r expects column %d but file has %d columns"
                    % (path, feat["name"], j, len(names))
                )
        col = _parse_column(data, j, feat["name"], start_row)
        miss = np.isnan(col)
        if miss.any():
            imputed += int(miss.sum())
            col[miss] = feat["mean"]
        cols.append((col - feat["mean"]) / feat["std"])
    X = np.column_stack(cols) if cols else np.zeros((len(data), 0))
    if target is None:
        return X, imputed, None
    j = _resolve_target(target, names, has_header, len(names))
    return X, imputed, _target_values(data, j, names[j], start_row, task_kind)
