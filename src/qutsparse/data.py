"""CSV ingestion and standardization for the command-line tools.

Comma-separated, '.' decimal, UTF-8, optional header row.  Feature
columns are centered and scaled to unit sample standard deviation with
the original statistics kept for prediction-time reuse, so a model
applied to new data never depends on that file's own column statistics.
Missing feature cells are imputed by the column mean; constant columns
are dropped.  The target column is named (header required) or given as
a 0-based index, parsed as floats for regression and kept as strings
for classification.
"""

import csv
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


def read_rows(path):
    """All rows of a CSV file as lists of stripped strings."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [[cell.strip() for cell in row] for row in csv.reader(fh)]
    except OSError as exc:
        raise DataError("cannot read %s: %s" % (path, exc)) from exc
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


def _table(path, has_header):
    """(column names, data rows, file row number of the first data row);
    without a header the names are x0, x1, ..."""
    rows = read_rows(path)
    if has_header:
        names, data, start_row = rows[0], rows[1:], 2
    else:
        names, data, start_row = ["x%d" % j for j in range(len(rows[0]))], rows, 1
    if not data:
        raise DataError("%s: no data rows" % path)
    return names, data, start_row


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


def load_training(path, target, has_header=True, task_kind="regression"):
    """Ingest a training CSV into a standardized Dataset.

    Feature standardization uses this file's own statistics; the target
    is left on its original scale.  Missing target cells are an error.
    """
    names, data, start_row = _table(path, has_header)
    n_cols = len(names)
    if n_cols < 2:
        raise DataError("%s: need a target and at least one feature column" % path)
    t_idx = _resolve_target(target, names, has_header, n_cols)

    y = _target_values(data, t_idx, names[t_idx], start_row, task_kind)
    labels = None
    if task_kind == "regression":
        Y = y.reshape(-1, 1)
    else:
        labels = sorted(set(y))
        if len(labels) < 2:
            raise DataError("classification target has a single label %r" % labels[0])
        lut = {lab: k for k, lab in enumerate(labels)}
        Y = np.zeros((len(data), len(labels)))
        for i, tok in enumerate(y):
            Y[i, lut[tok]] = 1.0

    feat_idx = [j for j in range(n_cols) if j != t_idx]
    X = np.empty((len(data), len(feat_idx)))
    try:
        for i, row in enumerate(data):
            X[i] = [float(row[j]) for j in feat_idx]
    except ValueError:  # a missing token or a bad cell; _parse_column knows which
        for k, j in enumerate(feat_idx):
            X[:, k] = _parse_column(data, j, names[j], start_row)
    keep, dropped, imputed = [], [], 0
    for k, j in enumerate(feat_idx):
        col = X[:, k]
        miss = np.isnan(col)
        if miss.all():
            dropped.append(names[j])
            continue
        if miss.any():
            imputed += int(miss.sum())
            col[miss] = col[~miss].mean()
        if col.std() < CONSTANT_TOL:
            dropped.append(names[j])
            continue
        keep.append(k)
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


def load_target(path, target, has_header=True, task_kind="regression"):
    """The target column of a held-out file, as load_training reads it
    but without the one-hot coding: floats for regression, label strings
    for classification.  No other column is read."""
    names, data, start_row = _table(path, has_header)
    j = _resolve_target(target, names, has_header, len(names))
    return _target_values(data, j, names[j], start_row, task_kind)


def load_features(path, selected, has_header=True):
    """Feature matrix for prediction, standardized by STORED statistics.

    ``selected`` is a list of dicts with name, index, mean, and std as
    written into the model file.  Columns are matched by name when the
    file has a header and by original position otherwise.  Missing cells
    are imputed with the stored mean.  Returns (X, n_imputed).
    """
    names, data, start_row = _table(path, has_header)
    if not selected:
        return np.zeros((len(data), 0)), 0
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
    return np.column_stack(cols), imputed
