"""Synthetic sparse-regression experiment engine.

Generates s-sparse datasets (linear, paired absolute differences, or a
nested absolute difference), runs independent generate/fit/score trials
over a sparsity grid, and aggregates exact-support recovery, false
discovery, true positive rate, and test error.  Every trial derives its
own seed from (base seed, s, run index), so any cell can be recomputed
in isolation and results are identical for any parallelism degree or
resume boundary.  Sweeps write one JSON line per finished trial, after
the records a resuming caller read with read_records, and rebuild the
summary CSV from the sorted record set.
"""

import csv
import json
import os
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
        for name, low in (("n", 2), ("p", 1), ("n_test", 1), ("n_runs", 1), ("seed", 0)):
            value = getattr(self, name)
            if value < low:
                raise ValueError("%s must be an integer >= %d, got %s" % (name, low, value))
        if not 0 <= self.s <= self.p:
            raise ValueError("s must lie in [0, %s], got %s" % (self.p, self.s))
        if self.kind == "absdiff" and self.s % 2 != 0:
            raise ValueError("absdiff needs an even s, got %s" % self.s)
        if self.kind == "nestedabs" and self.s not in (0, 4):
            raise ValueError("nestedabs needs s = 4 (or 0 for the null), got %s" % self.s)


def _mu_star(kind, Xs, beta=None):
    """Noiseless response on the support columns (sorted order, paired
    consecutively for absdiff); beta holds the linear coefficients."""
    if Xs.shape[1] == 0:
        return np.zeros(Xs.shape[0])
    if kind == "linear":
        return Xs @ beta
    if kind == "absdiff":
        total = np.zeros(Xs.shape[0])
        for i in range(0, Xs.shape[1], 2):
            total += 10.0 * np.abs(Xs[:, i + 1] - Xs[:, i])
        return total
    # nestedabs, the one kind left: ScenarioSpec admits no other
    return 10.0 * np.abs(
        np.abs(Xs[:, 1] - Xs[:, 0]) - np.abs(Xs[:, 3] - Xs[:, 2])
    )


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
    beta = None
    if spec.kind == "linear" and spec.s > 0:
        beta = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], size=spec.s)
    e = rng.standard_normal(spec.n)
    Y = (_mu_star(spec.kind, X[:, support], beta) + e)[:, None]
    X_test = rng.normal(size=(spec.n_test, spec.p))
    return X, Y, X_test, _mu_star(spec.kind, X_test[:, support], beta), support


def run_trial(spec, run_index, hidden=(), activation="relu", alpha=0.05, n_mc=1000):
    """Generate, standardize by train statistics, fit, and score one trial."""
    X, Y, X_test, mu_test, support = generate(spec, run_index)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
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
    """Aggregate one sparsity level's successful trial records; NaN for
    every metric when there are none."""
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
    k = len(records) or float("nan")
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


def aggregate(records, specs):
    """One summary row per spec from the full (possibly failure-bearing) record set."""
    rows = []
    for spec in specs:
        good = [r for r in records if r["s"] == spec.s and "error" not in r]
        failures = sum(1 for r in records if r["s"] == spec.s and "error" in r)
        row = {"s": spec.s, "n_runs": spec.n_runs, "failures": failures}
        row.update(metrics(good))
        rows.append(row)
    return rows


CSV_COLUMNS = ("s", "n_runs", "pesr", "fdr", "tpr", "mean_l2", "failures")


def write_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([row[col] for col in CSV_COLUMNS] for row in rows)


def _record_key(rec):
    return (rec["s"], rec["run"])


def read_records(path):
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


def sweep(specs, hidden=(), activation="relu", alpha=0.05, n_mc=1000, jobs=1,
          records_path=None, done=None):
    """Run trials 0 to n_runs - 1 of each spec (one scenario, distinct s)
    and return (rows, records), one row per spec in their order.

    done holds the records to keep, keyed by (s, run), as read_records
    returns them: the sweep runs only the other cells and appends their
    records to records_path, which it starts afresh when done is None.
    The summary rows are always rebuilt from the sorted records of this
    grid, so the CSV is byte-identical for any jobs value or resume split.
    """
    mode = "w" if done is None else "a"
    done = done or {}
    grid = [(spec, run) for spec in specs for run in range(spec.n_runs)]
    kept = [done[spec.s, run] for spec, run in grid if (spec.s, run) in done]
    cells = [(spec, run) for spec, run in grid if (spec.s, run) not in done]
    trial = partial(_worker, hidden=tuple(hidden), activation=activation,
                    alpha=alpha, n_mc=n_mc)

    fresh = []
    with ExitStack() as stack:
        sink = None
        if records_path is not None:
            sink = stack.enter_context(open(records_path, mode))
        mapper = map
        if jobs > 1 and cells:
            # imported only here: concurrent.futures.process loads multiprocessing,
            # logging and socket, 16-34 ms and 1.2-1.9 MB resident on a 2-core
            # x86-64 host, which qut, fit, predict and a one-worker sweep would
            # pay for a pool they never start
            from concurrent.futures import ProcessPoolExecutor

            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=jobs)).map
        for rec in mapper(trial, cells):
            fresh.append(rec)
            if sink is not None:
                sink.write(json.dumps(rec, sort_keys=True) + "\n")
                sink.flush()

    records = sorted(kept + fresh, key=_record_key)
    rows = aggregate(records, specs)
    return rows, records
