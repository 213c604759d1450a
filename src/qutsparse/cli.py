"""Command-line interface: qut, fit, predict, simulate.

Every command is deterministic given --seed, and simulate's results are
independent of its --jobs.  Exit codes are a stable contract: 0 success,
2 usage, 3 data, 4 numerical, 5 iteration budget exhausted (the model
file is still written).
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from .data import DataError, load_features, load_training
from .losses import TaskSpec
from .network import ACTIVATIONS, Architecture, forward, params_from_dict, params_to_dict
from .qut import compute_qut
from .simlab import CSV_COLUMNS, ScenarioSpec, sweep, write_csv, write_manifest
from .trainer import STATUS_MAX_ITERS, TrainConfig, fit

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_BUDGET = 5


class NumericalError(Exception):
    """A computed quantity came out non-finite."""


class UsageError(Exception):
    """An option value, from a flag or the config file, is out of range."""


def _opt_float(v):
    return None if v is None else float(v)


def _timestamp():
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _hidden_type(text):
    text = text.strip()
    if text in ("", "none"):
        return ()
    try:
        widths = tuple(int(w) for w in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated widths, got %r" % text)
    if any(w < 1 for w in widths):
        raise argparse.ArgumentTypeError("hidden widths must be positive")
    return widths


def _s_grid_type(text):
    vals = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if ":" in part:
                nums = [int(x) for x in part.split(":")]
                if len(nums) == 2:
                    lo, step, hi = nums[0], 1, nums[1]
                elif len(nums) == 3:
                    lo, step, hi = nums
                else:
                    raise ValueError
                if step < 1 or hi < lo:
                    raise ValueError
                vals.extend(range(lo, hi + 1, step))
            else:
                vals.append(int(part))
        except ValueError:
            raise argparse.ArgumentTypeError(
                "bad sparsity grid %r; use '0,1,5', '0:25', or '0:2:20'" % text
            ) from None
    if not vals:
        raise argparse.ArgumentTypeError("empty sparsity grid")
    return sorted(set(vals))


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise DataError("cannot read config %s: %s" % (path, exc)) from exc
    except ValueError as exc:
        raise DataError("config %s is not valid JSON: %s" % (path, exc)) from exc
    if not isinstance(cfg, dict):
        raise DataError("config %s must hold a JSON object" % path)
    return cfg


def _resolve(args, config, key, default):
    """CLI flag if given, else config file entry, else the default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in config:
        return config[key]
    return default


def _checked(args, config, key, default, kind, ok, rule):
    """Resolve an option as _resolve does and convert it with kind;
    UsageError unless ok(value)."""
    raw = _resolve(args, config, key, default)
    try:
        val = kind(raw)
    except (TypeError, ValueError):
        val = None
    if val is None or not ok(val):
        raise UsageError("--%s must be %s, got %r" % (key.replace("_", "-"), rule, raw))
    return val


def _qut_options(args, config):
    """The null quantile level and Monte Carlo draw count."""
    alpha = _checked(args, config, "alpha", 0.05, float, lambda a: 0.0 < a < 1.0,
                     "a number in (0, 1)")
    n_mc = _checked(args, config, "n_mc", 1000, int, lambda k: k >= 1, "an integer >= 1")
    return alpha, n_mc


def _seed(args, config):
    """The base seed: --seed, else the config file's, else 0."""
    return _checked(args, config, "seed", 0, int, lambda k: k >= 0, "an integer >= 0")


def _widths(value):
    """Hidden widths from --hidden (a tuple) or a config list; None otherwise."""
    return tuple(int(w) for w in value) if isinstance(value, (list, tuple)) else None


def _net_options(args, config, hidden_default):
    """The hidden widths and the activation."""
    hidden = _checked(args, config, "hidden", hidden_default, _widths,
                      lambda ws: all(w >= 1 for w in ws), "a list of positive widths")
    activation = _checked(args, config, "activation", "relu", str,
                          lambda a: a in ACTIVATIONS, "one of %s" % ", ".join(ACTIVATIONS))
    return hidden, activation


def _out_path(args, name):
    os.makedirs(args.output_dir, exist_ok=True)
    return os.path.join(args.output_dir, name)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ingest(args, config):
    task_kind = _checked(args, config, "task", "regression", str,
                         lambda t: t in ("regression", "classification"),
                         "regression or classification")
    hidden, activation = _net_options(args, config, (20,))
    has_header = not args.no_header
    ds = load_training(args.data, args.target, has_header=has_header, task_kind=task_kind)
    for name in ds.dropped:
        print("warning: dropped constant column %r" % name, file=sys.stderr)
    if ds.imputed:
        print("imputed %d missing cells by column mean" % ds.imputed, file=sys.stderr)
    task = TaskSpec(task_kind, ds.Y.shape[1])
    arch = Architecture(ds.X.shape[1], hidden, task.n_outputs, activation)
    return ds, task, arch


def _selected_entries(ds, selected):
    return [
        {
            "name": ds.feature_names[k],
            "index": ds.indices[k],
            "mean": float(ds.mean[k]),
            "std": float(ds.std[k]),
        }
        for k in selected
    ]


def cmd_qut(args):
    config = _load_config(args.config)
    alpha, n_mc = _qut_options(args, config)
    seed = _seed(args, config)
    ds, task, arch = _ingest(args, config)
    est = compute_qut(ds.X, ds.Y, task, arch, alpha=alpha, n_mc=n_mc, seed=seed)
    if not np.isfinite(est.lambda_qut):
        raise NumericalError("lambda came out %r" % est.lambda_qut)
    payload = est.to_dict()
    payload.update(
        {
            "format_version": FORMAT_VERSION,
            "arch": {"hidden": list(arch.hidden), "activation": arch.activation},
            "data": {
                "file": os.path.basename(args.data),
                "n": int(ds.X.shape[0]),
                "p": int(ds.X.shape[1]),
                "task": task.kind,
            },
            "created_at": _timestamp(),
        }
    )
    path = _out_path(args, "qut.json")
    _write_json(path, payload)
    print("lambda_qut = %r  (alpha=%g, n_mc=%d)" % (est.lambda_qut, alpha, n_mc))
    print("wrote %s" % path)
    return EXIT_OK


def cmd_fit(args):
    config = _load_config(args.config)
    alpha, n_mc = _qut_options(args, config)
    max_phase_iters = _checked(args, config, "max_phase_iters", 5000, int,
                               lambda k: k >= 1, "an integer >= 1")
    seed = _seed(args, config)
    ds, task, arch = _ingest(args, config)
    train_cfg = TrainConfig(alpha=alpha, n_mc=n_mc, max_phase_iters=max_phase_iters,
                            seed=seed)
    res = fit(ds.X, ds.Y, task, arch, config=train_cfg)
    if not np.isfinite(res.train_loss):
        raise NumericalError("training loss came out %r" % res.train_loss)

    selected = _selected_entries(ds, res.selected)
    run_config = {
        "task": task.kind,
        "hidden": list(arch.hidden),
        "activation": arch.activation,
        "alpha": train_cfg.alpha,
        "n_mc": train_cfg.n_mc,
        "max_phase_iters": train_cfg.max_phase_iters,
        "seed": seed,
    }
    model = {
        "format_version": FORMAT_VERSION,
        "task": task.kind,
        "labels": ds.labels,
        "network": params_to_dict(res.params, res.arch),
        "selected": selected,
        "lambda_qut": float(res.lambda_qut),
        "status": res.status,
        "train_loss": float(res.train_loss),
        "phases": [
            {
                "name": ph.name,
                "lam": _opt_float(ph.lam),
                "nu": _opt_float(ph.nu),
                "iterations": int(ph.iterations),
                "initial_cost": _opt_float(ph.initial_cost),
                "final_cost": _opt_float(ph.final_cost),
            }
            for ph in res.phases
        ],
        "config": run_config,
        "imputed_cells": ds.imputed,
        "dropped_columns": ds.dropped,
        "created_at": _timestamp(),
    }
    path = _out_path(args, "model.json")
    _write_json(path, model)

    print("lambda_qut = %r" % res.lambda_qut)
    print("status     = %s" % res.status)
    print("train_loss = %r" % res.train_loss)
    names = [e["name"] for e in selected]
    print("selected %d feature(s): %s" % (len(names), ", ".join(names) if names else "(none)"))
    for ph in res.phases:
        print(
            "  phase %-8s lam=%-12s nu=%-5s iters=%-5d cost %s -> %s"
            % (
                ph.name,
                "-" if ph.lam is None else "%.6g" % ph.lam,
                "-" if ph.nu is None else "%.2g" % ph.nu,
                ph.iterations,
                "-" if ph.initial_cost is None else "%.6g" % ph.initial_cost,
                "-" if ph.final_cost is None else "%.6g" % ph.final_cost,
            )
        )
    print("wrote %s" % path)

    if args.test_file is not None:
        _report_holdout(args, model, task, ds)
    return EXIT_BUDGET if res.status == STATUS_MAX_ITERS else EXIT_OK


def _report_holdout(args, model, task, ds):
    params, arch = params_from_dict(model["network"])
    X, imputed = load_features(args.test_file, model["selected"], has_header=not args.no_header)
    if imputed:
        print("test file: imputed %d missing cells" % imputed, file=sys.stderr)
    pred = forward(params, arch, X)
    rows = load_training(
        args.test_file,
        args.target,
        has_header=not args.no_header,
        task_kind=task.kind,
    )
    if task.kind == "classification":
        for lab in rows.labels:
            if lab not in model["labels"]:
                raise DataError("test file has unseen label %r" % lab)
        want = [rows.labels[k] for k in np.argmax(rows.Y, axis=1)]
        got = [model["labels"][k] for k in np.argmax(pred, axis=1)]
        acc = float(np.mean([g == w for g, w in zip(got, want)]))
        print("test accuracy = %.4f  (%d rows)" % (acc, len(got)))
    else:
        resid = rows.Y - pred
        print("test rmse = %r  (%d rows)" % (float(np.sqrt(np.mean(resid ** 2))), len(resid)))


def _softmax(pred):
    m = np.max(pred, axis=1, keepdims=True)
    e = np.exp(pred - m)
    return e / e.sum(axis=1, keepdims=True)


def cmd_predict(args):
    try:
        with open(args.model) as fh:
            model = json.load(fh)
    except OSError as exc:
        raise DataError("cannot read model %s: %s" % (args.model, exc)) from exc
    except ValueError as exc:
        raise DataError("model %s is not valid JSON: %s" % (args.model, exc)) from exc
    if model.get("format_version") != FORMAT_VERSION:
        raise DataError("model %s has unsupported format_version %r"
                        % (args.model, model.get("format_version")))
    params, arch = params_from_dict(model["network"])
    X, imputed = load_features(args.data, model["selected"], has_header=not args.no_header)
    if imputed:
        print("imputed %d missing cells with stored means" % imputed, file=sys.stderr)
    pred = forward(params, arch, X)
    if not np.all(np.isfinite(pred)):
        raise NumericalError("predictions came out non-finite")

    path = _out_path(args, "predictions.csv")
    with open(path, "w") as fh:
        if model["task"] == "classification":
            labels = model["labels"]
            fh.write(",".join(["label"] + ["p_%s" % lab for lab in labels]) + "\n")
            probs = _softmax(pred)
            for i in range(pred.shape[0]):
                lab = labels[int(np.argmax(pred[i]))]
                fh.write(",".join([lab] + [repr(float(v)) for v in probs[i]]) + "\n")
        else:
            cols = ["y_hat"] if pred.shape[1] == 1 else [
                "y_hat_%d" % j for j in range(pred.shape[1])
            ]
            fh.write(",".join(cols) + "\n")
            for i in range(pred.shape[0]):
                fh.write(",".join(repr(float(v)) for v in pred[i]) + "\n")
    print("wrote %s (%d rows)" % (path, pred.shape[0]))
    return EXIT_OK


def cmd_simulate(args):
    config = _load_config(args.config)
    n, p = args.n, args.p
    hidden, activation = _net_options(args, config, ())
    n_runs = _checked(args, config, "runs", 25, int, lambda k: k >= 1, "an integer >= 1")
    n_test = _checked(args, config, "n_test", 1000, int, lambda k: k >= 1, "an integer >= 1")
    alpha, n_mc = _qut_options(args, config)
    seed = _seed(args, config)
    jobs = _checked(args, config, "jobs", os.cpu_count() or 1, int, lambda k: k >= 1,
                    "an integer >= 1")
    try:
        for s in args.s:
            ScenarioSpec(args.kind, n, p, s, n_test=n_test, n_runs=n_runs, seed=seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    records_path = _out_path(args, "sweep_records.jsonl")
    t0 = time.monotonic()
    rows, _records = sweep(
        args.kind, n, p, args.s,
        hidden=hidden, activation=activation, n_runs=n_runs, n_test=n_test,
        seed=seed, alpha=alpha, n_mc=n_mc, jobs=jobs,
        records_path=records_path, resume=args.resume,
    )
    wall = time.monotonic() - t0

    csv_path = _out_path(args, "sweep.csv")
    write_csv(rows, csv_path)
    write_manifest(
        _out_path(args, "sweep_manifest.json"),
        args.kind, n, p, args.s, hidden, activation, n_runs, n_test,
        seed, alpha, n_mc, jobs, wall,
    )

    print(" ".join("%10s" % c for c in CSV_COLUMNS))
    for row in rows:
        print(
            "%10d %10d %10.3f %10.3f %10.3f %10.4g %10d"
            % (row["s"], row["n_runs"], row["pesr"], row["fdr"], row["tpr"],
               row["mean_l2"], row["failures"])
        )
    print("wrote %s" % csv_path)
    return EXIT_OK


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="base seed (default 0)")
    common.add_argument("--config", default=None, help="JSON file with option defaults")
    common.add_argument("--output-dir", default=".", help="directory for output files")

    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("data", help="CSV file")
    dataset.add_argument("--target", required=True,
                         help="target column name (header) or 0-based index")
    dataset.add_argument("--no-header", action="store_true",
                         help="the file has no header row")
    dataset.add_argument("--task", choices=("regression", "classification"), default=None)
    dataset.add_argument("--hidden", type=_hidden_type, default=None,
                         help="comma-separated hidden widths; 'none' for a linear net"
                              " (default 20)")
    dataset.add_argument("--activation", choices=("relu", "leaky_relu", "softplus"),
                         default=None)
    dataset.add_argument("--alpha", type=float, default=None,
                         help="null quantile level (default 0.05)")
    dataset.add_argument("--n-mc", dest="n_mc", type=int, default=None,
                         help="Monte Carlo draws for the null quantile (default 1000)")

    parser = argparse.ArgumentParser(
        prog="qutsparse",
        description="Sparse-input neural networks with an automatic regularization level.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_qut = sub.add_parser("qut", parents=[common, dataset],
                           help="compute the regularization level for a dataset")
    p_qut.set_defaults(func=cmd_qut)

    p_fit = sub.add_parser("fit", parents=[common, dataset],
                           help="train a sparse network and write a model file")
    p_fit.add_argument("--test-file", default=None,
                       help="held-out CSV scored after training")
    p_fit.add_argument("--max-phase-iters", dest="max_phase_iters", type=int, default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", parents=[common],
                            help="apply a model file to a feature CSV")
    p_pred.add_argument("model", help="model.json written by fit")
    p_pred.add_argument("data", help="CSV file with the selected feature columns")
    p_pred.add_argument("--no-header", action="store_true")
    p_pred.set_defaults(func=cmd_predict)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run a synthetic support-recovery sweep")
    p_sim.add_argument("kind", choices=("linear", "absdiff", "nestedabs"))
    p_sim.add_argument("--n", type=int, required=True, help="training rows per trial")
    p_sim.add_argument("--p", type=int, required=True, help="feature count")
    p_sim.add_argument("--s", type=_s_grid_type, required=True,
                       help="sparsity grid: '0,1,5', '0:25', or '0:2:20'")
    p_sim.add_argument("--runs", type=int, default=None, help="trials per grid point")
    p_sim.add_argument("--n-test", dest="n_test", type=int, default=None)
    p_sim.add_argument("--hidden", type=_hidden_type, default=None,
                       help="hidden widths (default: none, a linear net)")
    p_sim.add_argument("--activation", choices=("relu", "leaky_relu", "softplus"),
                       default=None)
    p_sim.add_argument("--alpha", type=float, default=None)
    p_sim.add_argument("--n-mc", dest="n_mc", type=int, default=None)
    p_sim.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: available cores)")
    p_sim.add_argument("--resume", action="store_true",
                       help="skip trials already present in sweep_records.jsonl")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
