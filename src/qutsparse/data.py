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


def load_training(path, target, has_header=True, task_kind="regression"):
    """Ingest a training CSV into a standardized Dataset.

    Feature standardization uses this file's own statistics; the target
    is left on its original scale.  Missing target cells are an error.
    """
    rows = read_rows(path)
    n_cols = len(rows[0])
    if n_cols < 2:
        raise DataError("%s: need a target and at least one feature column" % path)
    if has_header:
        names = rows[0]
        data = rows[1:]
        start_row = 2
    else:
        names = ["x%d" % j for j in range(n_cols)]
        data = rows
        start_row = 1
    if not data:
        raise DataError("%s: no data rows" % path)
    t_idx = _resolve_target(target, names, has_header, n_cols)

    labels = None
    if task_kind == "regression":
        yraw = _parse_column(data, t_idx, names[t_idx], start_row)
        if np.isnan(yraw).any():
            row = start_row + int(np.flatnonzero(np.isnan(yraw))[0])
            raise DataError("column %r, row %d: missing target value" % (names[t_idx], row))
        Y = yraw.reshape(-1, 1)
    else:
        toks = [row[t_idx] for row in data]
        for i, tok in enumerate(toks):
            if _is_missing(tok):
                raise DataError(
                    "column %r, row %d: missing target value" % (names[t_idx], start_row + i)
                )
        labels = sorted(set(toks))
        if len(labels) < 2:
            raise DataError("classification target has a single label %r" % labels[0])
        lut = {lab: k for k, lab in enumerate(labels)}
        Y = np.zeros((len(data), len(labels)))
        for i, tok in enumerate(toks):
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


def load_features(path, selected, has_header=True):
    """Feature matrix for prediction, standardized by STORED statistics.

    ``selected`` is a list of dicts with name, index, mean, and std as
    written into the model file.  Columns are matched by name when the
    file has a header and by original position otherwise.  Missing cells
    are imputed with the stored mean.  Returns (X, n_imputed).
    """
    if not selected:
        rows = read_rows(path)
        n = len(rows) - 1 if has_header else len(rows)
        if n < 1:
            raise DataError("%s: no data rows" % path)
        return np.zeros((n, 0)), 0
    rows = read_rows(path)
    n_cols = len(rows[0])
    if has_header:
        names = rows[0]
        data = rows[1:]
        start_row = 2
    else:
        names = None
        data = rows
        start_row = 1
    if not data:
        raise DataError("%s: no data rows" % path)
    cols, imputed = [], 0
    for feat in selected:
        if names is not None:
            if feat["name"] not in names:
                missing = [f["name"] for f in selected if f["name"] not in names]
                raise DataError("%s: missing feature columns %r" % (path, missing))
            j = names.index(feat["name"])
            label = feat["name"]
        else:
            j = int(feat["index"])
            if j >= n_cols:
                raise DataError(
                    "%s: feature %r expects column %d but file has %d columns"
                    % (path, feat["name"], j, n_cols)
                )
            label = feat["name"]
        col = _parse_column(data, j, label, start_row)
        miss = np.isnan(col)
        if miss.any():
            imputed += int(miss.sum())
            col[miss] = feat["mean"]
        cols.append((col - feat["mean"]) / feat["std"])
    return np.column_stack(cols), imputed
