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
from collections import namedtuple

import numpy as np

from .data import DataError, load_scoring, load_training
from .losses import TaskSpec
from .network import ACTIVATIONS, Architecture, forward, params_from_dict, params_to_dict
from .qut import compute_qut
from .simlab import CSV_COLUMNS, SCENARIO_KINDS, ScenarioSpec, sweep, write_csv
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
    """An option value, from a flag or the config file, is out of range, or a
    config key names no option."""


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


def _read_json(path, what):
    """The JSON object in the file at path, which holds a config, a model or
    a sweep manifest (what); DataError when it holds anything else."""
    try:
        with open(path) as fh:
            value = json.load(fh)
    except OSError as exc:
        raise DataError("cannot read %s %s: %s" % (what, path, exc)) from exc
    except ValueError as exc:
        raise DataError("%s %s is not valid JSON: %s" % (what, path, exc)) from exc
    if not isinstance(value, dict):
        raise DataError("%s %s must hold a JSON object" % (what, path))
    return value


def _load_config(path):
    return {} if path is None else _read_json(path, "config")


def _real(value):
    """value as a float; ValueError for a string or a bool, which a JSON
    config may hold but no numeric option takes."""
    if isinstance(value, (str, bool)):
        raise ValueError("not a number: %r" % (value,))
    return float(value)


def _integer(value):
    """value as an int; ValueError for a string, a bool or a number with a
    fractional part."""
    if isinstance(value, (str, bool)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("not an integer: %r" % (value,))
    return int(value)


def _widths(value):
    """Hidden widths from --hidden (a tuple) or a config list."""
    if not isinstance(value, (list, tuple)):
        raise ValueError("not a list: %r" % (value,))
    return tuple(_integer(w) for w in value)


# One row per option: the flag's argparse type, the converter applied to
# the flag, config or default value, the check on the converted value, the
# rule a usage error states, the default, the help text and, for an option
# with a fixed set of values, those values.  The config keys are exactly
# these names; the flag is --name with '-' for '_'.
Option = namedtuple("Option", "flag_type convert check rule default help choices",
                    defaults=(None,))

TASKS = ("regression", "classification")


def _count(default, help):
    """A row for an integer option that must be at least 1."""
    return Option(int, _integer, lambda k: k >= 1, "an integer >= 1", default, help)


OPTIONS = {
    "seed": Option(int, _integer, lambda k: k >= 0, "an integer >= 0", 0, "base seed"),
    "task": Option(str, str, TASKS.__contains__, "regression or classification",
                   "regression", "kind of target", TASKS),
    "hidden": Option(_hidden_type, _widths, lambda ws: all(w >= 1 for w in ws),
                     "a list of positive widths", (20,),
                     "comma-separated hidden widths; 'none' for a linear net"),
    "activation": Option(str, str, ACTIVATIONS.__contains__,
                         "one of %s" % ", ".join(ACTIVATIONS), "relu",
                         "hidden-layer activation", ACTIVATIONS),
    "alpha": Option(float, _real, lambda a: 0.0 < a < 1.0, "a number in (0, 1)", 0.05,
                    "null quantile level"),
    "n_mc": _count(1000, "Monte Carlo draws for the null quantile"),
    "max_phase_iters": _count(5000, "iteration budget of each training phase"),
    "runs": _count(25, "trials per grid point"),
    "n_test": _count(1000, "test rows per trial"),
    "jobs": _count(os.cpu_count() or 1, "worker processes"),
}

_QUT_OPTIONS = ("seed", "task", "hidden", "activation", "alpha", "n_mc")
COMMAND_OPTIONS = {
    "qut": _QUT_OPTIONS,
    "fit": _QUT_OPTIONS + ("max_phase_iters",),
    "simulate": ("seed", "hidden", "activation", "alpha", "n_mc", "runs", "n_test", "jobs"),
}
# simulate fits a linear network unless --hidden says otherwise
COMMAND_DEFAULTS = {"simulate": {"hidden": ()}}


def _options(args, config, command):
    """Every option of command, from its flag, else the config, else its default.

    UsageError for a config key that names no option (of any command, so
    one file serves them all) and for a value that fails its check.
    """
    unknown = sorted(set(config) - set(OPTIONS))
    if unknown:
        raise UsageError("unknown config key(s): %s" % ", ".join(map(repr, unknown)))
    defaults = COMMAND_DEFAULTS.get(command, {})
    opts = {}
    for name in COMMAND_OPTIONS[command]:
        opt = OPTIONS[name]
        raw = getattr(args, name)
        if raw is None:
            raw = config.get(name, defaults.get(name, opt.default))
        try:
            opts[name] = opt.convert(raw)
            ok = opt.check(opts[name])
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise UsageError("--%s must be %s, got %r" % (name.replace("_", "-"), opt.rule, raw))
    return opts


def _out_path(args, name):
    os.makedirs(args.output_dir, exist_ok=True)
    return os.path.join(args.output_dir, name)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ingest(args, opts):
    ds = load_training(args.data, args.target, has_header=not args.no_header,
                       task_kind=opts["task"])
    for name in ds.dropped:
        print("warning: dropped constant column %r" % name, file=sys.stderr)
    if ds.imputed:
        print("imputed %d missing cells by column mean" % ds.imputed, file=sys.stderr)
    task = TaskSpec(opts["task"], ds.Y.shape[1])
    arch = Architecture(ds.X.shape[1], opts["hidden"], task.n_outputs, opts["activation"])
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
    opts = _options(args, _load_config(args.config), "qut")
    ds, task, arch = _ingest(args, opts)
    est = compute_qut(ds.X, ds.Y, task, arch, alpha=opts["alpha"], n_mc=opts["n_mc"],
                      seed=opts["seed"])
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
    print("lambda_qut = %r  (alpha=%g, n_mc=%d)" % (est.lambda_qut, opts["alpha"], opts["n_mc"]))
    print("wrote %s" % path)
    return EXIT_OK


def cmd_fit(args):
    opts = _options(args, _load_config(args.config), "fit")
    ds, task, arch = _ingest(args, opts)
    train_cfg = TrainConfig(alpha=opts["alpha"], n_mc=opts["n_mc"],
                            max_phase_iters=opts["max_phase_iters"], seed=opts["seed"])
    res = fit(ds.X, ds.Y, task, arch, config=train_cfg)
    if not np.isfinite(res.train_loss):
        raise NumericalError("training loss came out %r" % res.train_loss)

    selected = _selected_entries(ds, res.selected)
    # every data error of the held-out file comes before model.json is written
    holdout = None if args.test_file is None else _score_holdout(args, res, selected, ds.labels)
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
                "stop": ph.stop,
            }
            for ph in res.phases
        ],
        "config": opts,
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
    if holdout is not None:
        print(holdout)
    return EXIT_BUDGET if res.status == STATUS_MAX_ITERS else EXIT_OK


def _score_holdout(args, res, selected, labels):
    """The report line of --test-file, from one read of the file: only the
    columns predict reads, plus the target column.  labels are the training
    labels, None for regression."""
    X, imputed, y = load_scoring(args.test_file, selected, has_header=not args.no_header,
                                 target=args.target, task_kind=res.task.kind)
    if imputed:
        print("test file: imputed %d missing cells" % imputed, file=sys.stderr)
    pred = forward(res.params, res.arch, X)
    if labels is None:
        resid = y.reshape(-1, 1) - pred
        return "test rmse = %r  (%d rows)" % (float(np.sqrt(np.mean(resid ** 2))), len(resid))
    unseen = sorted(set(y) - set(labels))
    if unseen:
        raise DataError("test file has unseen label %r" % unseen[0])
    got = [labels[k] for k in np.argmax(pred, axis=1)]
    acc = float(np.mean([g == w for g, w in zip(got, y)]))
    return "test accuracy = %.4f  (%d rows)" % (acc, len(got))


def _softmax(pred):
    m = np.max(pred, axis=1, keepdims=True)
    e = np.exp(pred - m)
    return e / e.sum(axis=1, keepdims=True)


def cmd_predict(args):
    model = _read_json(args.model, "model")
    if model.get("format_version") != FORMAT_VERSION:
        raise DataError("model %s has unsupported format_version %r"
                        % (args.model, model.get("format_version")))
    required = ("network", "selected", "task") + (
        ("labels",) if model.get("task") == "classification" else ())
    missing = [key for key in required if key not in model]
    if missing:
        raise DataError("model %s lacks %s" % (args.model, ", ".join(map(repr, missing))))
    try:
        params, arch = params_from_dict(model["network"])
    except (TypeError, ValueError) as exc:
        raise DataError("model %s: bad network: %s" % (args.model, exc)) from exc
    X, imputed, _ = load_scoring(args.data, model["selected"], has_header=not args.no_header)
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


# The manifest fields of the options that change a trial.  --resume may
# change the sparsity levels and the run count of a sweep, but a change of
# any of these would mix two experiments in one records file.
TRIAL_FIELDS = (("scenario", ("kind", "n", "p", "n_test", "seed")),
                ("arch", ("hidden", "activation")), ("config", ("alpha", "n_mc")))


def _check_resume(path, manifest):
    """UsageError when the sweep manifest at path, if there is one, records
    another value of a trial option than manifest."""
    if not os.path.exists(path):
        return
    old = _read_json(path, "manifest")
    try:
        changed = ["%s %r there, %r here" % (key, old[sec][key], manifest[sec][key])
                   for sec, keys in TRIAL_FIELDS for key in keys
                   if old[sec][key] != manifest[sec][key]]
    except (KeyError, TypeError) as exc:
        raise DataError("manifest %s lacks field %s" % (path, exc)) from exc
    if changed:
        raise UsageError("--resume into a sweep of another scenario (%s): %s"
                         % (path, "; ".join(changed)))


def cmd_simulate(args):
    opts = _options(args, _load_config(args.config), "simulate")
    n, p, n_runs = args.n, args.p, opts["runs"]
    try:
        for s in args.s:
            ScenarioSpec(args.kind, n, p, s, n_test=opts["n_test"], n_runs=n_runs,
                         seed=opts["seed"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    manifest = {
        "format_version": 1,
        "scenario": {"kind": args.kind, "n": n, "p": p, "s_grid": args.s,
                     "n_test": opts["n_test"], "n_runs": n_runs, "seed": opts["seed"]},
        "arch": {"hidden": list(opts["hidden"]), "activation": opts["activation"]},
        "config": {"alpha": opts["alpha"], "n_mc": opts["n_mc"]},
        "jobs": opts["jobs"],
    }
    manifest_path = _out_path(args, "sweep_manifest.json")
    if args.resume:
        _check_resume(manifest_path, manifest)
    records_path = _out_path(args, "sweep_records.jsonl")
    t0 = time.monotonic()
    rows, _records = sweep(
        args.kind, n, p, args.s,
        hidden=opts["hidden"], activation=opts["activation"], n_runs=n_runs,
        n_test=opts["n_test"], seed=opts["seed"], alpha=opts["alpha"], n_mc=opts["n_mc"],
        jobs=opts["jobs"], records_path=records_path, resume=args.resume,
    )
    wall = time.monotonic() - t0

    csv_path = _out_path(args, "sweep.csv")
    write_csv(rows, csv_path)
    manifest.update(wall_time_s=wall, created_at=_timestamp())
    _write_json(manifest_path, manifest)

    print(" ".join("%10s" % c for c in CSV_COLUMNS))
    for row in rows:
        print(
            "%10d %10d %10.3f %10.3f %10.3f %10.4g %10d"
            % (row["s"], row["n_runs"], row["pesr"], row["fdr"], row["tpr"],
               row["mean_l2"], row["failures"])
        )
    print("wrote %s" % csv_path)
    return EXIT_OK


def _add_options(parser, command):
    """--config and a flag for each table option of command."""
    parser.add_argument("--config", default=None, help="JSON file with option defaults")
    for name in COMMAND_OPTIONS[command]:
        opt = OPTIONS[name]
        default = COMMAND_DEFAULTS.get(command, {}).get(name, opt.default)
        if isinstance(default, tuple):
            default = ",".join(map(str, default)) or "none"
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=opt.flag_type,
                            choices=opt.choices, default=None,
                            help="%s (default %s)" % (opt.help, default))


def build_parser():
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output-dir", default=".", help="directory for output files")

    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("data", help="CSV file")
    dataset.add_argument("--target", required=True,
                         help="target column name (header) or 0-based index")
    dataset.add_argument("--no-header", action="store_true",
                         help="the file has no header row")

    parser = argparse.ArgumentParser(
        prog="qutsparse",
        description="Sparse-input neural networks with an automatic regularization level.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_qut = sub.add_parser("qut", parents=[output, dataset],
                           help="compute the regularization level for a dataset")
    p_qut.set_defaults(func=cmd_qut)

    p_fit = sub.add_parser("fit", parents=[output, dataset],
                           help="train a sparse network and write a model file")
    p_fit.add_argument("--test-file", default=None,
                       help="held-out CSV scored after training")
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", parents=[output],
                            help="apply a model file to a feature CSV")
    p_pred.add_argument("model", help="model.json written by fit")
    p_pred.add_argument("data", help="CSV file with the selected feature columns")
    p_pred.add_argument("--no-header", action="store_true")
    p_pred.set_defaults(func=cmd_predict)

    p_sim = sub.add_parser("simulate", parents=[output],
                           help="run a synthetic support-recovery sweep")
    p_sim.add_argument("kind", choices=SCENARIO_KINDS)
    p_sim.add_argument("--n", type=int, required=True, help="training rows per trial")
    p_sim.add_argument("--p", type=int, required=True, help="feature count")
    p_sim.add_argument("--s", type=_s_grid_type, required=True,
                       help="sparsity grid: '0,1,5', '0:25', or '0:2:20'")
    p_sim.add_argument("--resume", action="store_true",
                       help="skip trials already present in sweep_records.jsonl")
    p_sim.set_defaults(func=cmd_simulate)

    for command, p in (("qut", p_qut), ("fit", p_fit), ("simulate", p_sim)):
        _add_options(p, command)
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
