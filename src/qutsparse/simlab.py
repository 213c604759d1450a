"""Synthetic sparse-regression experiment engine.

Generates s-sparse datasets (linear, paired absolute differences, or a
nested absolute difference), runs independent generate/fit/score trials
over a sparsity grid, and aggregates exact-support recovery, false
discovery, true positive rate, and test error.  Every trial derives its
own seed from (base seed, s, run index), so any cell can be recomputed
in isolation and results are identical for any parallelism degree or
resume boundary.  Sweeps append one JSON line per finished trial and
rebuild the summary CSV from the sorted record set.
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import DataError
from .losses import TaskSpec
from .network import Architecture, forward
from .trainer import TrainConfig, fit

SCENARIO_KINDS = ("linear", "absdiff", "nestedabs")

_REGRESSION = TaskSpec("regression", 1)


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str
    n: int
    p: int
    s: int
    n_test: int = 1000
    n_runs: int = 25
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError("unknown scenario kind %r" % (self.kind,))
        if self.n < 2 or self.p < 1 or self.n_test < 1 or self.n_runs < 1:
            raise ValueError("n, p, n_test, n_runs must be positive (n >= 2)")
        if not 0 <= self.s <= self.p:
            raise ValueError("s must lie in [0, p]")
        if self.kind == "absdiff" and self.s % 2 != 0:
            raise ValueError("absdiff needs an even s")
        if self.kind == "nestedabs" and self.s not in (0, 4):
            raise ValueError("nestedabs needs s = 4 (or 0 for the null)")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def _mu_star(kind, Xs):
    """Noiseless response on the support columns (sorted order, paired
    consecutively for absdiff)."""
    if Xs.shape[1] == 0:
        return np.zeros(Xs.shape[0])
    if kind == "absdiff":
        total = np.zeros(Xs.shape[0])
        for i in range(0, Xs.shape[1], 2):
            total += 10.0 * np.abs(Xs[:, i + 1] - Xs[:, i])
        return total
    if kind == "nestedabs":
        return 10.0 * np.abs(
            np.abs(Xs[:, 1] - Xs[:, 0]) - np.abs(Xs[:, 3] - Xs[:, 2])
        )
    raise ValueError(kind)


def _trial_seeds(spec, run_index):
    ss = np.random.SeedSequence([int(spec.seed), int(spec.s), int(run_index)])
    data_ss, fit_ss = ss.spawn(2)
    fit_seed = int(fit_ss.generate_state(1, np.uint32)[0])
    return data_ss, fit_seed


def generate(spec, run_index):
    """One dataset draw: (X, Y, X_test, mu_star_test, support).

    X entries are i.i.d. standard normal, the support is s columns drawn
    uniformly without replacement (returned sorted), noise is standard
    normal, and the test inputs are an independent draw returned with
    noiseless response values.
    """
    data_ss, _ = _trial_seeds(spec, run_index)
    rng = np.random.default_rng(data_ss)
    X = rng.normal(size=(spec.n, spec.p))
    support = np.sort(rng.choice(spec.p, size=spec.s, replace=False)).astype(int)
    if spec.kind == "linear" and spec.s > 0:
        beta = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], size=spec.s)
        mu_train = X[:, support] @ beta
    else:
        beta = None
        mu_train = _mu_star(spec.kind, X[:, support])
    e = rng.standard_normal(spec.n)
    Y = (mu_train + e)[:, None]
    X_test = rng.normal(size=(spec.n_test, spec.p))
    if spec.kind == "linear" and spec.s > 0:
        mu_test = X_test[:, support] @ beta
    else:
        mu_test = _mu_star(spec.kind, X_test[:, support])
    return X, Y, X_test, mu_test, support


def run_trial(spec, run_index, hidden=(), activation="relu", alpha=0.05, n_mc=1000):
    """Generate, standardize by train statistics, fit, and score one trial."""
    X, Y, X_test, mu_test, support = generate(spec, run_index)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    Xs = (X - mean) / std
    _, fit_seed = _trial_seeds(spec, run_index)
    arch = Architecture(spec.p, tuple(hidden), 1, activation)
    cfg = TrainConfig(seed=fit_seed, alpha=alpha, n_mc=n_mc)
    res = fit(Xs, Y, _REGRESSION, arch, cfg)
    sel = res.selected  # the pruned network reads only these test columns
    pred = forward(res.params, res.arch, (X_test[:, sel] - mean[sel]) / std[sel])[:, 0]
    l2_hat = float(np.mean((pred - mu_test) ** 2))
    return {
        "s": int(spec.s),
        "run": int(run_index),
        "true_support": [int(j) for j in support],
        "estimated_support": [int(j) for j in res.selected],
        "l2_hat": l2_hat,
        "run_seed": fit_seed,
        "status": res.status,
    }


def metrics(records):
    """Aggregate one sparsity level's successful trial records."""
    if not records:
        raise ValueError("no records to aggregate")
    pesr = fdr = tpr = l2 = 0.0
    for rec in records:
        true = set(rec["true_support"])
        est = set(rec["estimated_support"])
        pesr += est == true
        fdr += len(est - true) / max(len(est), 1)
        if true:
            tpr += len(est & true) / len(true)
        else:
            tpr += 1.0 if not est else 0.0
        l2 += rec["l2_hat"]
    k = len(records)
    return {
        "pesr": pesr / k,
        "fdr": fdr / k,
        "tpr": tpr / k,
        "mean_l2": l2 / k,
    }


def _worker(cell, hidden, activation, alpha, n_mc):
    spec, run_index = cell
    try:
        return run_trial(spec, run_index, hidden=hidden, activation=activation,
                         alpha=alpha, n_mc=n_mc)
    except Exception as exc:  # recorded, excluded from aggregates
        return {"s": int(spec.s), "run": int(run_index), "error": str(exc)}


def aggregate(records, s_grid, n_runs):
    """Per-s summary rows from the full (possibly failure-bearing) record set."""
    rows = []
    for s in s_grid:
        good = [r for r in records if r["s"] == s and "error" not in r]
        failures = sum(1 for r in records if r["s"] == s and "error" in r)
        if good:
            agg = metrics(good)
        else:
            agg = {"pesr": float("nan"), "fdr": float("nan"),
                   "tpr": float("nan"), "mean_l2": float("nan")}
        row = {"s": int(s), "n_runs": int(n_runs), "failures": failures}
        row.update(agg)
        rows.append(row)
    return rows


CSV_COLUMNS = ("s", "n_runs", "pesr", "fdr", "tpr", "mean_l2", "failures")


def write_csv(rows, path):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            cells = []
            for col in CSV_COLUMNS:
                v = row[col]
                if isinstance(v, float):
                    cells.append(repr(float(v)))
                else:
                    cells.append(str(int(v)))
            fh.write(",".join(cells) + "\n")


def _record_key(rec):
    return (rec["s"], rec["run"])


def _read_records(path):
    """The trial records of an earlier run's records file, keyed by (s, run).

    A last line without its newline, as a run killed mid-write leaves it,
    is cut off the file so that its trial runs again; any other line that
    is not a trial record is a DataError, raised before the file changes.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except FileNotFoundError:
        return {}
    body, _, torn = text.rpartition(b"\n")
    done = {}
    for number, line in enumerate(body.split(b"\n"), 1):
        if line.strip():
            try:
                rec = json.loads(line)
                done[_record_key(rec)] = rec
            except (ValueError, TypeError, KeyError):
                raise DataError("%s, line %d: not a trial record: %r"
                                % (path, number, line[:80])) from None
    if torn:
        os.truncate(path, len(text) - len(torn))
    return done


def sweep(kind, n, p, s_grid, hidden=(), activation="relu", n_runs=25,
          n_test=1000, seed=0, alpha=0.05, n_mc=1000, jobs=1,
          records_path=None, resume=False):
    """Run the full grid and return (rows, records).

    With a records_path the sweep appends one JSON line per finished
    trial and, on resume, skips any (s, run) cell already present.  The
    summary rows are always rebuilt from the sorted records of this grid,
    so the CSV is byte-identical for any jobs value or resume split.
    """
    s_grid = sorted(set(int(s) for s in s_grid))
    specs = [ScenarioSpec(kind=kind, n=n, p=p, s=s, n_test=n_test, n_runs=n_runs, seed=seed)
             for s in s_grid]

    done = _read_records(records_path) if records_path is not None and resume else {}
    grid = [(spec, run) for spec in specs for run in range(n_runs)]
    kept = [done[spec.s, run] for spec, run in grid if (spec.s, run) in done]
    cells = [(spec, run) for spec, run in grid if (spec.s, run) not in done]
    trial = partial(_worker, hidden=tuple(hidden), activation=activation,
                    alpha=alpha, n_mc=n_mc)

    fresh = []
    with ExitStack() as stack:
        sink = None
        if records_path is not None:
            sink = stack.enter_context(open(records_path, "a" if resume else "w"))
        mapper = map
        if jobs > 1 and cells:
            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=jobs)).map
        for rec in mapper(trial, cells):
            fresh.append(rec)
            if sink is not None:
                sink.write(json.dumps(rec, sort_keys=True) + "\n")
                sink.flush()

    records = sorted(kept + fresh, key=_record_key)
    rows = aggregate(records, s_grid, n_runs)
    return rows, records
