import argparse
import csv
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from qutsparse import cli, data, simlab, trainer
from qutsparse.cli import (
    EXIT_BUDGET,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    _s_grid_type,
    main,
)
from qutsparse.network import forward, params_from_dict
from qutsparse.trainer import STOP_BUDGET


def write_csv_file(path, header, rows):
    with open(path, "w") as fh:
        if header:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def make_regression_csv(path, n=60, p=8, signal_col=4, seed=0, header=True):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = 3.0 * X[:, signal_col] + rng.normal(size=n)
    names = ["f%d" % j for j in range(p)] + ["y"]
    rows = [[repr(float(v)) for v in X[i]] + [repr(float(y[i]))] for i in range(n)]
    write_csv_file(path, names if header else None, rows)
    return names


def strip_timestamp(path):
    return [l for l in open(path).read().splitlines() if "created_at" not in l]


def assert_usage_error(rc, capsys, out_file):
    """Exit 2, one 'usage error:' line on stderr, no output file."""
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    assert not out_file.exists()


def bad_option_args(tmp_path, case):
    """CLI arguments for one bad-option case: a flag, or a config file."""
    if isinstance(case, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(case))
        return ["--config", str(cfg)]
    return list(case)


def case_id(case):
    if isinstance(case, dict):
        return "config-" + ",".join("%s=%s" % kv for kv in case.items())
    return "%s=%s" % (case[0].lstrip("-"), case[1])


BAD_QUT_OPTIONS = [("--alpha", "2"), ("--alpha", "0"), ("--n-mc", "0"), {"alpha": 1.5},
                   {"n_mc": -3}, {"alpha": "high"}]
# network flags that argparse parses and the option table rejects
BAD_NETWORK_FLAGS = [("--activation", "tanh"), ("--hidden", "0"), ("--hidden", "20,-1")]
# seed, network and task options of qut and fit
BAD_DATASET_OPTIONS = [("--seed", "-1"), {"hidden": "20"}, {"hidden": 20},
                       {"activation": "tanh"}, {"task": "foo"},
                       ("--task", "foo")] + BAD_NETWORK_FLAGS


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    d = tmp_path_factory.mktemp("trained")
    train = d / "train.csv"
    make_regression_csv(train, seed=0)
    rc = main(["fit", str(train), "--target", "y", "--hidden", "20",
               "--n-mc", "150", "--seed", "1", "--output-dir", str(d)])
    assert rc == EXIT_OK
    model = json.load(open(d / "model.json"))
    return d, train, model


class TestGridParsing:
    def test_forms(self):
        assert _s_grid_type("0,1,5") == [0, 1, 5]
        assert _s_grid_type("0:4") == [0, 1, 2, 3, 4]
        assert _s_grid_type("0:2:6") == [0, 2, 4, 6]
        assert _s_grid_type("3,0:2") == [0, 1, 2, 3]

    @pytest.mark.parametrize("text, want", [
        ("5", [5]), ("2:2", [2]), (" 3 , 1:2 ", [1, 2, 3]), ("0:25,", list(range(26))),
        ("1,1,1:2", [1, 2])])
    def test_level_is_a_one_point_range(self, text, want):
        # empty parts are skipped and repeated levels kept once
        assert _s_grid_type(text) == want

    @pytest.mark.parametrize("text, message", [
        (",", "empty sparsity grid"), ("", "empty sparsity grid"),
        ("1:2:3:4", "bad sparsity grid"), ("3:", "bad sparsity grid"),
        ("0:0:5", "bad sparsity grid")])
    def test_bad_grid_message(self, text, message):
        with pytest.raises(argparse.ArgumentTypeError, match=message):
            _s_grid_type(text)

    def test_bad_grid_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "linear", "--n", "40", "--p", "8", "--s", "5:1",
                  "--output-dir", str(tmp_path)])
        assert exc.value.code == 2


class TestQut:
    def test_idempotent_modulo_timestamp(self, tmp_path):
        train = tmp_path / "train.csv"
        make_regression_csv(train)
        for sub in ("a", "b"):
            rc = main(["qut", str(train), "--target", "y", "--hidden", "20",
                       "--n-mc", "100", "--seed", "3",
                       "--output-dir", str(tmp_path / sub)])
            assert rc == EXIT_OK
        assert strip_timestamp(tmp_path / "a" / "qut.json") == strip_timestamp(
            tmp_path / "b" / "qut.json"
        )

    def test_alpha_monotone(self, tmp_path):
        train = tmp_path / "train.csv"
        make_regression_csv(train)
        lams = {}
        for alpha in ("0.5", "0.05"):
            rc = main(["qut", str(train), "--target", "y", "--hidden", "20",
                       "--n-mc", "200", "--seed", "0", "--alpha", alpha,
                       "--output-dir", str(tmp_path / alpha)])
            assert rc == EXIT_OK
            lams[alpha] = json.load(open(tmp_path / alpha / "qut.json"))["lambda_qut"]
        assert lams["0.5"] <= lams["0.05"]

    def test_config_seed_and_flag_precedence(self, tmp_path):
        train = tmp_path / "train.csv"
        make_regression_csv(train)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5}))
        runs = {"none": [], "config": ["--config", str(cfg)], "flag": ["--seed", "5"],
                "both": ["--config", str(cfg), "--seed", "0"]}
        lams = {}
        for name, extra in runs.items():
            rc = main(["qut", str(train), "--target", "y", "--n-mc", "100",
                       "--output-dir", str(tmp_path / name)] + extra)
            assert rc == EXIT_OK
            out = json.load(open(tmp_path / name / "qut.json"))
            lams[name] = (out["seed"], out["lambda_qut"])
        assert lams["config"] == lams["flag"] and lams["config"][0] == 5
        assert lams["both"] == lams["none"] and lams["none"][0] == 0
        assert lams["config"][1] != lams["none"][1]

    @pytest.mark.parametrize("case", BAD_QUT_OPTIONS + BAD_DATASET_OPTIONS, ids=case_id)
    def test_bad_option_is_usage_error(self, tmp_path, capsys, case):
        train = tmp_path / "train.csv"
        make_regression_csv(train)
        rc = main(["qut", str(train), "--target", "y", "--output-dir", str(tmp_path / "out")]
                  + bad_option_args(tmp_path, case))
        assert_usage_error(rc, capsys, tmp_path / "out" / "qut.json")

    TRAINING_FAULTS = [
        ("missing", ["--target", "y"], "cannot read "),
        ("blank-lines", ["--target", "y"], ": no rows"),
        ("five-columns", ["--target", "9"], "target index 9 out of range for 5 columns"),
        ("no-header", ["--target", "y", "--no-header"],
         "target given by name ('y') but the file has no header"),
        ("one-label", ["--target", "y", "--task", "classification"], "has a single label"),
        ("one-column", ["--target", "y"], "need a target and at least one feature column"),
        ("constant-features", ["--target", "y"], "no usable feature columns"),
        ("config-missing", ["--target", "y"], "cannot read config "),
        ("config-not-json", ["--target", "y"], "is not valid JSON"),
    ]

    @pytest.mark.parametrize("fault,args,named", TRAINING_FAULTS,
                             ids=[fault for fault, _, _ in TRAINING_FAULTS])
    def test_bad_training_file_is_data_error(self, tmp_path, capsys, fault, args, named):
        train = tmp_path / "train.csv"
        if fault == "blank-lines":
            train.write_text("\n \n\n")
        elif fault == "one-label":
            write_csv_file(train, ["a", "b", "y"], [[i, i * i % 7, "x"] for i in range(10)])
        elif fault == "one-column":
            write_csv_file(train, ["y"], [[i] for i in range(10)])
        elif fault == "constant-features":
            write_csv_file(train, ["a", "b", "y"], [[1, 2, i] for i in range(10)])
        elif fault != "missing":
            make_regression_csv(train, p=4, signal_col=0)
        if fault.startswith("config-"):
            if fault == "config-not-json":
                (tmp_path / "cfg.json").write_text("{")
            args = args + ["--config", str(tmp_path / "cfg.json")]
        rc = main(["qut", str(train), "--output-dir", str(tmp_path / "out")] + args)
        err = capsys.readouterr().err
        assert rc == EXIT_DATA and err.startswith("data error: ") and err.count("\n") == 1, err
        assert named in err, err
        assert not (tmp_path / "out" / "qut.json").exists()

    def test_nonnumeric_cell_names_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        write_csv_file(bad, ["a", "b", "y"], [[1.0, 2.0, 3.0], [1.5, "oops", 0.5]])
        rc = main(["qut", str(bad), "--target", "y", "--output-dir", str(tmp_path)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "'b'" in err and "row 3" in err and "oops" in err


class TestFit:
    def test_model_contents(self, trained):
        d, train, model = trained
        assert model["format_version"] == 1
        assert model["status"] == "Converged"
        assert [e["name"] for e in model["selected"]] == ["f4"]
        assert model["task"] == "regression"
        assert model["labels"] is None
        net = model["network"]
        assert net["input_dim"] == len(model["selected"])
        assert model["config"]["seed"] == 1

    def test_missing_values_imputed(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        make_regression_csv(train, n=50, p=4, signal_col=1, seed=2)
        lines = open(train).read().splitlines()
        parts = lines[1].split(",")
        parts[0] = "NA"
        lines[1] = ",".join(parts)
        parts = lines[2].split(",")
        parts[2] = ""
        lines[2] = ",".join(parts)
        train.write_text("\n".join(lines) + "\n")
        rc = main(["fit", str(train), "--target", "y", "--hidden", "none",
                   "--n-mc", "100", "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK
        assert "imputed 2 missing cells" in capsys.readouterr().err
        assert json.load(open(tmp_path / "model.json"))["imputed_cells"] == 2

    def test_constant_column_dropped(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        names = make_regression_csv(train, n=50, p=4, signal_col=1, seed=2)
        lines = open(train).read().splitlines()
        out = [lines[0].replace("f3", "const")]
        for l in lines[1:]:
            parts = l.split(",")
            parts[3] = "7.5"
            out.append(",".join(parts))
        train.write_text("\n".join(out) + "\n")
        rc = main(["fit", str(train), "--target", "y", "--hidden", "none",
                   "--n-mc", "100", "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK
        assert "const" in capsys.readouterr().err
        model = json.load(open(tmp_path / "model.json"))
        assert model["dropped_columns"] == ["const"]

    def test_target_by_index_no_header(self, tmp_path):
        train = tmp_path / "train.csv"
        make_regression_csv(train, n=50, p=4, signal_col=0, seed=3, header=False)
        rc = main(["fit", str(train), "--target", "4", "--no-header",
                   "--hidden", "none", "--n-mc", "100", "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK
        model = json.load(open(tmp_path / "model.json"))
        assert [e["name"] for e in model["selected"]] == ["x0"]

    def test_budget_exit_still_writes_model(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        make_regression_csv(train, seed=4)
        rc = main(["fit", str(train), "--target", "y", "--hidden", "20",
                   "--n-mc", "100", "--max-phase-iters", "2",
                   "--output-dir", str(tmp_path)])
        assert rc == EXIT_BUDGET
        assert json.load(open(tmp_path / "model.json"))["status"] == "MaxIters"

    @pytest.mark.parametrize("case", BAD_QUT_OPTIONS + BAD_DATASET_OPTIONS + [
        ("--max-phase-iters", "-1"), ("--max-phase-iters", "0"), {"max_phase_iters": 0},
    ], ids=case_id)
    def test_bad_option_is_usage_error(self, tmp_path, capsys, case):
        train = tmp_path / "train.csv"
        make_regression_csv(train)
        rc = main(["fit", str(train), "--target", "y", "--output-dir", str(tmp_path / "out")]
                  + bad_option_args(tmp_path, case))
        assert_usage_error(rc, capsys, tmp_path / "out" / "model.json")

    def test_nonfinite_data_is_numerical_error(self, tmp_path):
        train = tmp_path / "train.csv"
        rng = np.random.default_rng(0)
        rows = [[repr(float(v)) for v in rng.normal(size=3)] + ["1e200"]
                for _ in range(30)]
        write_csv_file(train, ["a", "b", "c", "y"], rows)
        with pytest.warns(RuntimeWarning, match="overflow"):
            rc = main(["fit", str(train), "--target", "y", "--hidden", "none",
                       "--n-mc", "50", "--max-phase-iters", "5",
                       "--output-dir", str(tmp_path)])
        assert rc == EXIT_NUMERIC

    @pytest.mark.parametrize("budget", [None, "3", "empty"])
    def test_model_records_each_phase_stop(self, tmp_path, monkeypatch, budget):
        results = []

        def recording_fit(*args, **kwargs):
            results.append(trainer.fit(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "fit", recording_fit)
        train = tmp_path / "train.csv"
        if budget == "empty":
            # a pure-noise target selects no feature, so the refit is skipped
            rng = np.random.default_rng(11)
            rows = [[repr(float(v)) for v in rng.normal(size=6)] for _ in range(50)]
            write_csv_file(train, ["a", "b", "c", "d", "e", "y"], rows)
            argv = ["fit", str(train), "--target", "y", "--hidden", "20", "--n-mc", "200"]
        else:
            make_regression_csv(train, n=50, p=4, signal_col=1, seed=6)
            argv = ["fit", str(train), "--target", "y", "--hidden", "5", "--n-mc", "100"]
            if budget is not None:
                argv += ["--max-phase-iters", budget]
        main(argv + ["--output-dir", str(tmp_path)])
        model = json.load(open(tmp_path / "model.json"))
        assert model["phases"] == [asdict(ph) for ph in results[0].phases]
        stops = [ph.stop for ph in results[0].phases]
        assert (STOP_BUDGET in stops) == (budget == "3")
        # the refit record holds the training loss, and no cost is missing
        assert results[0].train_loss == results[0].phases[-1].final_cost
        assert model["train_loss"] == model["phases"][-1]["final_cost"]
        assert all(isinstance(ph[k], float) for ph in model["phases"]
                   for k in ("initial_cost", "final_cost"))
        if budget == "empty":
            # the skipped refit records the constant model's loss
            assert model["selected"] == []
            assert model["phases"][-1] == {
                "name": "refit", "lam": 0.0, "nu": None, "iterations": 0,
                "initial_cost": model["train_loss"], "final_cost": model["train_loss"],
                "stop": "converged"}

    def test_config_file_defaults_and_override(self, tmp_path):
        train = tmp_path / "train.csv"
        make_regression_csv(train, n=50, p=4, signal_col=1, seed=5)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hidden": [], "n_mc": 100, "alpha": 0.05, "seed": 5}))
        rc = main(["fit", str(train), "--target", "y", "--config", str(cfg),
                   "--output-dir", str(tmp_path / "a")])
        assert rc == EXIT_OK
        model = json.load(open(tmp_path / "a" / "model.json"))
        assert model["config"]["hidden"] == []
        assert model["config"]["n_mc"] == 100
        assert model["config"]["seed"] == 5
        rc = main(["fit", str(train), "--target", "y", "--config", str(cfg),
                   "--n-mc", "120", "--seed", "2", "--output-dir", str(tmp_path / "b")])
        assert rc == EXIT_OK
        model = json.load(open(tmp_path / "b" / "model.json"))
        assert model["config"]["n_mc"] == 120
        assert model["config"]["seed"] == 2


@pytest.mark.parametrize("task", ["regression", "3-class"])
def test_qut_and_fit_share_the_level_of_one_seed(tmp_path, task):
    train = tmp_path / "train.csv"
    if task == "regression":
        make_regression_csv(train)
        args = ["--target", "y", "--hidden", "20"]
    else:
        rng = np.random.default_rng(3)
        X = rng.normal(size=(90, 5))
        labels = np.array(["lo", "mid", "hi"])[np.digitize(X[:, 1], [-0.5, 0.5])]
        write_csv_file(train, ["a", "b", "c", "d", "e", "klass"],
                       [[repr(float(v)) for v in x] + [k] for x, k in zip(X, labels)])
        args = ["--target", "klass", "--task", "classification", "--hidden", "10"]
    for command in ("qut", "fit"):
        rc = main([command, str(train)] + args + ["--n-mc", "200", "--seed", "7",
                                                  "--output-dir", str(tmp_path / command)])
        assert rc in (EXIT_OK, EXIT_BUDGET)
    level = json.load(open(tmp_path / "qut" / "qut.json"))["lambda_qut"]
    assert json.load(open(tmp_path / "fit" / "model.json"))["lambda_qut"] == level


@pytest.fixture(scope="module")
def cls_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cls")
    rng = np.random.default_rng(0)

    def emit(path, n):
        X = rng.normal(size=(n, 5))
        lab = np.where(X[:, 2] > 0, "pos", "neg")
        rows = [[repr(float(v)) for v in X[i]] + [lab[i]] for i in range(n)]
        write_csv_file(path, ["a", "b", "c", "d", "e", "klass"], rows)

    emit(d / "train.csv", 120)
    emit(d / "test.csv", 60)
    return d


class TestClassification:
    def test_end_to_end(self, cls_files, capsys):
        d = cls_files
        rc = main(["fit", str(d / "train.csv"), "--target", "klass",
                   "--task", "classification", "--hidden", "10",
                   "--n-mc", "100", "--test-file", str(d / "test.csv"),
                   "--output-dir", str(d)])
        assert rc in (EXIT_OK, EXIT_BUDGET)
        out = capsys.readouterr().out
        assert "test accuracy" in out
        acc = float(out.split("test accuracy = ")[1].split()[0])
        assert acc > 0.8
        model = json.load(open(d / "model.json"))
        assert model["labels"] == ["neg", "pos"]
        assert [e["name"] for e in model["selected"]] == ["c"]

        rc = main(["predict", str(d / "model.json"), str(d / "test.csv"),
                   "--output-dir", str(d)])
        assert rc == EXIT_OK
        rows = list(csv.reader(open(d / "predictions.csv")))
        assert rows[0] == ["label", "p_neg", "p_pos"]
        for row in rows[1:]:
            assert row[0] in ("neg", "pos")
            ps = [float(v) for v in row[1:]]
            assert sum(ps) == pytest.approx(1.0)
            assert row[0] == ("neg", "pos")[int(np.argmax(ps))]

    def test_labels_that_need_quoting_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(90, 3))
        labels = np.array(["a,b", 'q"x', "c"])[np.digitize(X[:, 0] + rng.normal(size=90),
                                                             [-0.5, 0.5])]
        train = tmp_path / "train.csv"
        with open(train, "w", newline="") as fh:
            csv.writer(fh).writerows([["u", "v", "w", "klass"]] + [
                [repr(float(v)) for v in X[i]] + [labels[i]] for i in range(90)])
        rc = main(["fit", str(train), "--target", "klass", "--task", "classification",
                   "--hidden", "none", "--n-mc", "100", "--max-phase-iters", "300",
                   "--output-dir", str(tmp_path)])
        assert rc in (EXIT_OK, EXIT_BUDGET)
        model = json.load(open(tmp_path / "model.json"))
        assert model["labels"] == ["a,b", "c", 'q"x']
        assert main(["predict", str(tmp_path / "model.json"), str(train),
                     "--output-dir", str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "predictions.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label"] + ["p_" + lab for lab in model["labels"]]
        assert len(rows) == 91 and all(len(row) == 4 for row in rows)
        assert {row[0] for row in rows[1:]} <= set(model["labels"])


class TestPredict:
    def test_roundtrip_on_training_file(self, trained, tmp_path):
        d, train, model = trained
        rc = main(["predict", str(d / "model.json"), str(train),
                   "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK
        preds = open(tmp_path / "predictions.csv").read()
        assert preds.splitlines()[0] == "y_hat"
        assert len(preds.splitlines()) == 61

    def test_permuting_other_columns_is_invisible(self, trained, tmp_path):
        d, train, model = trained
        rows = list(csv.reader(open(train)))
        header, data = rows[0], rows[1:]
        order = [3, 0, 7, 4, 1, 6, 2, 5, 8]
        with open(tmp_path / "perm.csv", "w") as fh:
            fh.write(",".join(header[j] for j in order) + "\n")
            for row in data:
                fh.write(",".join(row[j] for j in order) + "\n")
        main(["predict", str(d / "model.json"), str(train),
              "--output-dir", str(tmp_path / "a")])
        main(["predict", str(d / "model.json"), str(tmp_path / "perm.csv"),
              "--output-dir", str(tmp_path / "b")])
        assert (tmp_path / "a" / "predictions.csv").read_bytes() == (
            tmp_path / "b" / "predictions.csv"
        ).read_bytes()

    def test_missing_column_named(self, trained, tmp_path, capsys):
        d, train, model = trained
        rows = list(csv.reader(open(train)))
        with open(tmp_path / "short.csv", "w") as fh:
            fh.write(",".join(c for c in rows[0] if c != "f4") + "\n")
            for row in rows[1:]:
                fh.write(",".join(v for v, c in zip(row, rows[0]) if c != "f4") + "\n")
        rc = main(["predict", str(d / "model.json"), str(tmp_path / "short.csv"),
                   "--output-dir", str(tmp_path)])
        assert rc == EXIT_DATA
        assert "f4" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [("--seed", "-5"), ("--config", "/nonexistent")],
                             ids=lambda o: o[0])
    def test_fit_only_options_are_usage_errors(self, trained, tmp_path, option):
        d, train, model = trained
        with pytest.raises(SystemExit) as exc:
            main(["predict", str(d / "model.json"), str(train),
                  "--output-dir", str(tmp_path)] + list(option))
        assert exc.value.code == EXIT_USAGE
        assert not (tmp_path / "predictions.csv").exists()

    @pytest.mark.parametrize("drop,missing", [
        ("all", ["network", "selected", "task"]), ("network", ["network"]),
        ("selected", ["selected"]), ("task", ["task"]), ("labels", ["labels"]), ("list", []),
    ], ids=lambda c: c if isinstance(c, str) else None)
    def test_incomplete_model_is_data_error(self, trained, tmp_path, capsys, drop, missing):
        d, train, model = trained
        if drop == "all":
            model = {"format_version": 1}
        elif drop == "list":
            model = [model]
        elif drop == "labels":
            model = {k: v for k, v in model.items() if k != "labels"}
            model["task"] = "classification"
        else:
            model = {k: v for k, v in model.items() if k != drop}
        (tmp_path / "bad.json").write_text(json.dumps(model))
        rc = main(["predict", str(tmp_path / "bad.json"), str(train),
                   "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA and err.startswith("data error: ")
        assert all(repr(key) in err for key in missing), err
        assert not (tmp_path / "predictions.csv").exists()

    @pytest.mark.parametrize("fault,named", [
        ("empty", ["'input_dim'", "'hidden'", "'w1'", "'intercept'"]),
        ("no-w1", ["'w1'"]),
        ("w1-size", ["w1 has"]),
        ("deep-shape", ["deep has shapes"]),
        ("not-object", ["bad network: expected an object"]),
        ("w1-nan", ["non-finite"]),
        ("intercept-inf", ["non-finite"]),
    ])
    def test_bad_network_is_data_error(self, trained, tmp_path, capsys, fault, named):
        d, train, model = trained
        net = dict(model["network"])
        if fault == "empty":
            net = {}
        elif fault == "no-w1":
            del net["w1"]
        elif fault == "w1-size":
            net["w1"] = net["w1"][:-1]
        elif fault == "deep-shape":
            net["deep"] = [[row[:-1] for row in net["deep"][0]]] + net["deep"][1:]
        elif fault == "w1-nan":
            w1 = np.array(net["w1"])
            w1.flat[0] = np.nan
            net["w1"] = w1.tolist()
        elif fault == "intercept-inf":
            net["intercept"] = [np.inf] * len(net["intercept"])
        else:
            net = [net]
        (tmp_path / "bad.json").write_text(json.dumps(dict(model, network=net)))
        rc = main(["predict", str(tmp_path / "bad.json"), str(train),
                   "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA and err.startswith("data error: ") and err.count("\n") == 1, err
        assert all(text in err for text in named), err
        assert not (tmp_path / "predictions.csv").exists()

    @pytest.mark.parametrize("fault,named", [
        ("no-mean", "selected"), ("string-mean", "selected"), ("selected-int", "selected"),
        ("selected-names", "selected"), ("extra-selected", "selected"), ("bogus-task", "task"),
        ("label-count", "labels"), ("label-int", "labels"), ("std-zero", "selected"),
        ("std-nan", "selected"), ("std-negative", "selected"), ("mean-inf", "selected"),
        ("mean-huge-int", "selected"),
    ])
    def test_bad_model_fields_are_data_errors(self, trained, tmp_path, capsys, fault, named):
        d, train, model = trained
        model = json.loads(json.dumps(model))
        selected = model["selected"]
        assert selected
        if fault == "no-mean":
            for entry in selected:
                del entry["mean"]
        elif fault == "string-mean":
            selected[0]["mean"] = str(selected[0]["mean"])
        elif fault == "selected-int":
            model["selected"] = 5
        elif fault == "selected-names":
            model["selected"] = [entry["name"] for entry in selected]
        elif fault == "extra-selected":
            selected.append(dict(selected[0]))
        elif fault == "bogus-task":
            model["task"] = "bogus"
        elif fault.startswith("std-"):
            selected[0]["std"] = {"std-zero": 0.0, "std-nan": np.nan, "std-negative": -1.0}[fault]
        elif fault == "mean-inf":
            selected[0]["mean"] = np.inf
        elif fault == "mean-huge-int":  # no float holds it
            selected[0]["mean"] = 10 ** 400
        else:
            model["task"] = "classification"
            model["labels"] = ["a", "b"] if fault == "label-count" else [1]
        (tmp_path / "bad.json").write_text(json.dumps(model))
        rc = main(["predict", str(tmp_path / "bad.json"), str(train),
                   "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA and err.startswith("data error: ") and err.count("\n") == 1, err
        assert named in err, err
        assert not (tmp_path / "predictions.csv").exists()

    @pytest.mark.parametrize("fault,named", [
        ("not-json", "is not valid JSON"), ("format-2", "unsupported format_version 2"),
    ])
    def test_unreadable_model_is_data_error(self, trained, tmp_path, capsys, fault, named):
        d, train, model = trained
        bad = tmp_path / "bad.json"
        bad.write_text("{" if fault == "not-json" else json.dumps(dict(model, format_version=2)))
        rc = main(["predict", str(bad), str(train), "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA and err.startswith("data error: ") and err.count("\n") == 1, err
        assert named in err, err
        assert not (tmp_path / "predictions.csv").exists()

    def test_headerless_file_narrower_than_a_feature_index(self, trained, tmp_path, capsys):
        d, train, model = trained
        index = max(e["index"] for e in model["selected"])
        assert index >= 1
        write_csv_file(tmp_path / "narrow.csv", None, [[0.5] * index] * 5)
        rc = main(["predict", str(d / "model.json"), str(tmp_path / "narrow.csv"),
                   "--no-header", "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert "expects column %d but file has %d columns" % (index, index) in err, err
        assert not (tmp_path / "predictions.csv").exists()

    def test_headerless_file_matched_by_index(self, tmp_path):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        make_regression_csv(train, n=50, p=4, signal_col=2, seed=3, header=False)
        make_regression_csv(test, n=20, p=4, signal_col=2, seed=5, header=False)
        rc = main(["fit", str(train), "--target", "4", "--no-header",
                   "--hidden", "none", "--n-mc", "100", "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK
        model = json.load(open(tmp_path / "model.json"))
        assert [e["index"] for e in model["selected"]] == [2]
        rc = main(["predict", str(tmp_path / "model.json"), str(test), "--no-header",
                   "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK
        rows = np.loadtxt(test, delimiter=",")
        sel = model["selected"]
        X = (rows[:, [e["index"] for e in sel]] - [e["mean"] for e in sel]) / [
            e["std"] for e in sel]
        params, arch = params_from_dict(model["network"])
        got = np.loadtxt(tmp_path / "predictions.csv", delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(got, forward(params, arch, X))

    def test_zero_deep_row_applies_as_zero(self, tmp_path):
        train = tmp_path / "train.csv"
        make_regression_csv(train, n=60, p=4, signal_col=2, seed=3)
        rc = main(["fit", str(train), "--target", "y", "--hidden", "5,3", "--n-mc", "100",
                   "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK
        model = json.load(open(tmp_path / "model.json"))
        deep = model["network"]["deep"]
        assert deep and model["selected"]
        deep[0][0] = [0.0] * len(deep[0][0])
        (tmp_path / "zero.json").write_text(json.dumps(model))
        rc = main(["predict", str(tmp_path / "zero.json"), str(train),
                   "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK
        sel = model["selected"]
        X = np.loadtxt(train, delimiter=",", skiprows=1)[:, [e["index"] for e in sel]]
        X = (X - [e["mean"] for e in sel]) / [e["std"] for e in sel]
        params, arch = params_from_dict(model["network"])
        got = np.loadtxt(tmp_path / "predictions.csv", delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(got, forward(params, arch, X))

    def test_missing_cells_take_the_stored_mean(self, trained, tmp_path, capsys):
        d, train, model = trained
        (entry,) = model["selected"]
        rows = list(csv.reader(train.read_text().splitlines()))
        j = rows[0].index(entry["name"])
        filled = [row[:] for row in rows]
        for i, token in ((2, "NA"), (5, "")):
            rows[i][j] = token
            filled[i][j] = repr(entry["mean"])
        for name, table in (("holes", rows), ("filled", filled)):
            write_csv_file(tmp_path / (name + ".csv"), table[0], table[1:])
            rc = main(["predict", str(d / "model.json"), str(tmp_path / (name + ".csv")),
                       "--output-dir", str(tmp_path / name)])
            assert rc == EXIT_OK
        assert "imputed 2 missing cells with stored means" in capsys.readouterr().err
        assert (tmp_path / "holes" / "predictions.csv").read_bytes() == (
            tmp_path / "filled" / "predictions.csv").read_bytes()

    def test_null_model_constant_predictions(self, tmp_path):
        train = tmp_path / "noise.csv"
        rng = np.random.default_rng(11)
        rows = [[repr(float(v)) for v in rng.normal(size=6)] for _ in range(50)]
        write_csv_file(train, ["a", "b", "c", "d", "e", "y"], rows)
        rc = main(["fit", str(train), "--target", "y", "--hidden", "20",
                   "--n-mc", "200", "--seed", "0", "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK
        model = json.load(open(tmp_path / "model.json"))
        assert model["selected"] == []
        rc = main(["predict", str(tmp_path / "model.json"), str(train),
                   "--output-dir", str(tmp_path)])
        assert rc == EXIT_OK
        vals = {l for l in open(tmp_path / "predictions.csv").read().splitlines()[1:]}
        assert len(vals) == 1


class TestSimulate:
    ARGS = ["--n", "40", "--p", "8", "--runs", "2", "--n-test", "50",
            "--n-mc", "100", "--seed", "0"]

    def test_sweep_outputs(self, tmp_path):
        rc = main(["simulate", "linear", "--s", "0,1", "--jobs", "1",
                   "--output-dir", str(tmp_path)] + self.ARGS)
        assert rc == EXIT_OK
        text = open(tmp_path / "sweep.csv").read()
        assert text.splitlines()[0] == "s,n_runs,pesr,fdr,tpr,mean_l2,failures"
        assert len(text.splitlines()) == 3
        manifest = json.load(open(tmp_path / "sweep_manifest.json"))
        assert manifest["scenario"]["s_grid"] == [0, 1]
        assert manifest["created_at"].endswith("Z")
        assert len(open(tmp_path / "sweep_records.jsonl").read().splitlines()) == 4

    def test_resume_matches_fresh(self, tmp_path):
        fresh = tmp_path / "fresh"
        part = tmp_path / "part"
        rc = main(["simulate", "linear", "--s", "0,1", "--jobs", "1",
                   "--output-dir", str(fresh)] + self.ARGS)
        assert rc == EXIT_OK
        part.mkdir()
        lines = open(fresh / "sweep_records.jsonl").read().splitlines()
        (part / "sweep_records.jsonl").write_text("\n".join(lines[:2]) + "\n")
        rc = main(["simulate", "linear", "--s", "0,1", "--jobs", "1", "--resume",
                   "--output-dir", str(part)] + self.ARGS)
        assert rc == EXIT_OK
        assert (part / "sweep.csv").read_bytes() == (fresh / "sweep.csv").read_bytes()

    def test_warns_of_budget_exits(self, tmp_path, monkeypatch, capsys):
        argv = ["simulate", "linear", "--s", "0", "--jobs", "1"] + self.ARGS
        assert main(argv + ["--output-dir", str(tmp_path / "clean")]) == EXIT_OK
        assert "warning" not in capsys.readouterr().err
        run_trial = simlab.run_trial

        def one_budget_exit(spec, run_index, **kwargs):
            rec = run_trial(spec, run_index, **kwargs)
            return dict(rec, status="MaxIters") if run_index == 0 else rec

        monkeypatch.setattr(simlab, "run_trial", one_budget_exit)
        assert main(argv + ["--output-dir", str(tmp_path / "budget")]) == EXIT_OK
        warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
        assert warnings == ["warning: 1 of 2 trials ended in MaxIters "
                            "(status in sweep_records.jsonl)"]

    RESUME = {"kind": "linear", "--n": "30", "--p": "12", "--s": "0:2", "--runs": "1",
              "--n-mc": "50", "--jobs": "1"}

    def resume_argv(self, out, changes=(), resume=True):
        """The RESUME sweep with changes (pairs of flag or 'kind', and value)
        into out."""
        opts = dict(self.RESUME, **dict(changes))
        argv = ["simulate", opts.pop("kind"), "--output-dir", str(out)]
        return argv + [x for kv in opts.items() for x in kv] + (["--resume"] if resume else [])

    @pytest.fixture(scope="class")
    def swept(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("swept")
        assert main(self.resume_argv(out, resume=False)) == EXIT_OK
        return out

    def test_resume_after_a_torn_record(self, swept, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(swept, out)
        records = out / "sweep_records.jsonl"
        records.write_bytes(records.read_bytes()[:-15])
        (out / "sweep.csv").unlink()
        assert main(self.resume_argv(out)) == EXIT_OK
        assert (out / "sweep.csv").read_bytes() == (swept / "sweep.csv").read_bytes()
        assert sorted(records.read_text().splitlines()) == sorted(
            (swept / "sweep_records.jsonl").read_text().splitlines())

    def test_resume_refuses_a_malformed_record(self, swept, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(swept, out)
        lines = (out / "sweep_records.jsonl").read_text().splitlines(keepends=True)
        (out / "sweep_records.jsonl").write_text(lines[0] + '{"s": 1,\n' + "".join(lines[2:]))
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert main(self.resume_argv(out)) == EXIT_DATA
        assert "line 2: not a trial record" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("changes", [
        [("kind", "absdiff"), ("--s", "0,2")], [("--n", "40")], [("--p", "8")],
        [("--n-test", "40")], [("--seed", "1")], [("--hidden", "3")],
        [("--activation", "softplus")], [("--alpha", "0.1")], [("--n-mc", "60")],
    ], ids=lambda c: c[0][0].lstrip("-"))
    def test_resume_refuses_another_scenario(self, swept, tmp_path, capsys, changes):
        out = tmp_path / "out"
        shutil.copytree(swept, out)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert main(self.resume_argv(out, changes)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: --resume into a sweep of another scenario"), err
        assert "%s " % changes[0][0].lstrip("-").replace("-", "_") in err, err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_killed_first_sweep_leaves_its_identity(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        run_trial, started = simlab.run_trial, []

        def killed_after_one(*args, **kwargs):
            if started:
                raise KeyboardInterrupt
            started.append(args)
            return run_trial(*args, **kwargs)

        monkeypatch.setattr(simlab, "run_trial", killed_after_one)
        with pytest.raises(KeyboardInterrupt):
            main(self.resume_argv(out, resume=False))
        monkeypatch.undo()
        assert len((out / "sweep_records.jsonl").read_text().splitlines()) == 1
        assert (out / "sweep_manifest.json").exists()
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert main(self.resume_argv(out, [("--n", "40"), ("--p", "8")])) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: --resume into a sweep of another scenario"), err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_resume_into_a_manifest_without_arch_is_data_error(self, swept, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(swept, out)
        manifest = json.loads((out / "sweep_manifest.json").read_text())
        del manifest["arch"]
        (out / "sweep_manifest.json").write_text(json.dumps(manifest))
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert main(self.resume_argv(out)) == EXIT_DATA
        assert "lacks field 'arch'" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_resume_into_an_empty_directory_runs_the_grid(self, swept, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        assert main(self.resume_argv(out)) == EXIT_OK
        assert (out / "sweep.csv").read_bytes() == (swept / "sweep.csv").read_bytes()

    def test_failed_trials_are_recorded_and_counted(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(simlab, "run_trial", boom)
        out = tmp_path / "out"
        assert main(self.resume_argv(out, [("--runs", "2")], resume=False)) == EXIT_OK
        records = [json.loads(line) for line in open(out / "sweep_records.jsonl")]
        assert len(records) == 6 and all(rec["error"] == "boom" for rec in records)
        rows = list(csv.DictReader(open(out / "sweep.csv")))
        assert [(row["s"], row["n_runs"], row["failures"]) for row in rows] == [
            ("0", "2", "2"), ("1", "2", "2"), ("2", "2", "2")]
        assert all(np.isnan(float(row[col])) for row in rows
                   for col in ("pesr", "fdr", "tpr", "mean_l2"))

    def test_resume_may_add_and_drop_levels_and_runs(self, swept, tmp_path):
        grown = [("--s", "0:3"), ("--runs", "2")]
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        shutil.copytree(swept, out)
        assert main(self.resume_argv(out, grown)) == EXIT_OK
        assert main(self.resume_argv(fresh, grown, resume=False)) == EXIT_OK
        assert (out / "sweep.csv").read_bytes() == (fresh / "sweep.csv").read_bytes()
        # back to the first grid: the extra records stay in the file, unread
        assert main(self.resume_argv(out)) == EXIT_OK
        assert (out / "sweep.csv").read_bytes() == (swept / "sweep.csv").read_bytes()

    def test_config_seed_and_jobs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "jobs": 2}))
        base = ["simulate", "linear", "--n", "40", "--p", "8", "--s", "0,1", "--runs", "1",
                "--n-test", "50", "--n-mc", "50"]
        runs = {"config": ["--config", str(cfg)], "flags": ["--seed", "5", "--jobs", "1"],
                "both": ["--config", str(cfg), "--seed", "0", "--jobs", "1"]}
        for name, extra in runs.items():
            assert main(base + extra + ["--output-dir", str(tmp_path / name)]) == EXIT_OK
        manifest = {name: json.load(open(tmp_path / name / "sweep_manifest.json"))
                    for name in runs}
        assert (manifest["config"]["scenario"]["seed"], manifest["config"]["jobs"]) == (5, 2)
        assert (manifest["both"]["scenario"]["seed"], manifest["both"]["jobs"]) == (0, 1)
        records = {name: sorted(open(tmp_path / name / "sweep_records.jsonl").read().splitlines())
                   for name in runs}
        assert records["config"] == records["flags"] != records["both"]

    @pytest.mark.parametrize("kind, extra, message", [
        ("linear", ["--s", "0,1", "--n", "1"], "n must be an integer >= 2, got 1"),
        ("linear", ["--s", "9"], "s must lie in [0, 8], got 9"),
        ("absdiff", ["--s", "3"], "absdiff needs an even s, got 3"),
        ("nestedabs", ["--s", "2"], "nestedabs needs s = 4 (or 0 for the null), got 2"),
    ], ids=["n", "s", "absdiff", "nestedabs"])
    def test_invalid_scenario_is_usage_error(self, tmp_path, capsys, kind, extra, message):
        # the extra flags come last, so they override ARGS
        rc = main(["simulate", kind, "--jobs", "1", "--output-dir", str(tmp_path / "out")]
                  + self.ARGS + extra)
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: %s\n" % message
        assert not (tmp_path / "out" / "sweep_manifest.json").exists()

    def test_unknown_kind_is_usage_error(self, tmp_path, capsys):
        rc = main(["simulate", "cubic", "--s", "0,1", "--jobs", "1",
                   "--output-dir", str(tmp_path / "out")] + self.ARGS)
        assert_usage_error(rc, capsys, tmp_path / "out" / "sweep_manifest.json")

    @pytest.mark.parametrize("case", BAD_QUT_OPTIONS + BAD_NETWORK_FLAGS + [
        {"runs": "x"}, {"hidden": ["a"]}, ("--jobs", "0"), ("--jobs", "-3"), ("--n", "1"),
    ], ids=case_id)
    def test_bad_option_is_usage_error(self, tmp_path, capsys, case):
        # no --runs flag, so a config "runs" entry is read
        rc = main(["simulate", "linear", "--n", "40", "--p", "8", "--s", "0,1",
                   "--jobs", "1", "--output-dir", str(tmp_path / "out")]
                  + bad_option_args(tmp_path, case))
        assert_usage_error(rc, capsys, tmp_path / "out" / "sweep_records.jsonl")


# One out-of-range value per option of the table; a new option needs one here.
BAD_VALUE = {"seed": -1, "task": "foo", "hidden": [0], "activation": "tanh", "alpha": 1.0,
             "n_mc": 0, "max_phase_iters": 0, "runs": 0, "n_test": 0, "jobs": 0}
INTEGER_OPTIONS = ("seed", "n_mc", "max_phase_iters", "runs", "n_test", "jobs")
# A valid value of each numeric option written as a JSON string, which is a
# usage error as {"hidden": "20"} is.
NUMERIC_STRING = {"seed": "3", "alpha": "0.5", "n_mc": "100", "max_phase_iters": "50",
                  "runs": "1", "n_test": "50", "jobs": "1"}


def command_argv(command, tmp_path):
    """A valid command line for command, and the output file it would write."""
    out = tmp_path / "out"
    if command == "simulate":
        return (["simulate", "linear", "--n", "40", "--p", "8", "--s", "0,1",
                 "--output-dir", str(out)], out / "sweep_records.jsonl")
    train = tmp_path / "train.csv"
    make_regression_csv(train)
    name = "qut.json" if command == "qut" else "model.json"
    return [command, str(train), "--target", "y", "--output-dir", str(out)], out / name


TABLE_CASES = [(command, {name: value})
               for command, names in cli.COMMAND_OPTIONS.items() for name in names
               for value in [BAD_VALUE[name]] + ([2.5, True] if name in INTEGER_OPTIONS else [])
               + ([NUMERIC_STRING[name]] if name in NUMERIC_STRING else [])]


class TestOptionTable:
    def test_every_option_has_a_bad_value(self):
        assert set(BAD_VALUE) == set(cli.OPTIONS)
        assert {n for n, o in cli.OPTIONS.items() if o.convert is cli._integer} == set(
            INTEGER_OPTIONS)
        assert {n for n, o in cli.OPTIONS.items() if o.flag_type in (int, float)} == set(
            NUMERIC_STRING)

    @pytest.mark.parametrize("command,config", TABLE_CASES,
                             ids=lambda c: c if isinstance(c, str) else case_id(c))
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, command, config):
        argv, out_file = command_argv(command, tmp_path)
        rc = main(argv + bad_option_args(tmp_path, config))
        assert_usage_error(rc, capsys, out_file)

    @pytest.mark.parametrize("command,config", [
        ("qut", {"nmc": 3, "sed": 9}), ("fit", {"hidden": [], "n_mc": 50, "mc": 3}),
        ("simulate", {"n": 40}), ("qut", {"n_mc": 60.9}), ("qut", {"seed": True}),
        ("fit", {"n_mc": 60.9}), ("simulate", {"runs": 1.5}),
    ], ids=lambda c: c if isinstance(c, str) else case_id(c))
    def test_unknown_key_and_non_integer_config(self, tmp_path, capsys, command, config):
        argv, out_file = command_argv(command, tmp_path)
        rc = main(argv + bad_option_args(tmp_path, config))
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE and err.count("\n") == 1 and not out_file.exists()
        bad = [k for k in config if k not in cli.OPTIONS] or list(config)
        assert all(repr(k) in err or "--%s " % k.replace("_", "-") in err for k in bad), err

    def test_integral_float_and_other_commands_keys_accepted(self, tmp_path):
        argv, out_file = command_argv("qut", tmp_path)
        cfg = {"n_mc": 60.0, "seed": 2, "jobs": 3, "runs": 4, "max_phase_iters": 9}
        assert main(argv + bad_option_args(tmp_path, cfg)) == EXIT_OK
        out = json.loads(out_file.read_text())
        assert (out["n_mc"], out["seed"]) == (60, 2)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
    def test_jobs_default_is_the_cores_this_process_may_use(self):
        assert cli.OPTIONS["jobs"].default == len(os.sched_getaffinity(0))
        # a child held to one core defaults to one worker, whatever the machine has
        probe = ("import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                 "from qutsparse import cli; print(cli.OPTIONS['jobs'].default)")
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stdout) == (0, "1\n"), proc.stderr

    def test_message_text(self, tmp_path, capsys):
        argv, _ = command_argv("qut", tmp_path)
        assert main(argv + ["--alpha", "2"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage error: --alpha must be a number in (0, 1), got 2.0\n")

    @pytest.mark.parametrize("command", sorted(cli.COMMAND_OPTIONS))
    def test_help_lists_the_command_options(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for name in cli.OPTIONS:
            flag = re.search(r"--%s\b(?!-)" % name.replace("_", "-"), text)
            assert bool(flag) == (name in cli.COMMAND_OPTIONS[command]), name
        assert "--config" in text

    def test_every_option_has_help_text(self):
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        bare = ["%s %s" % (command, action.dest) for command, p in subparsers.choices.items()
                for action in p._actions if not action.help]
        assert bare == []


class TestHoldout:
    """fit --test-file reads what predict reads, plus the target column."""

    def fit_with_test_file(self, tmp_path, train, test, extra):
        out = tmp_path / "out"
        rc = main(["fit", str(train), "--target", extra[0], "--n-mc", "100",
                   "--test-file", str(test), "--output-dir", str(out)] + extra[1:])
        return rc, out

    @pytest.mark.parametrize("fault", ["not_utf8", "no_target", "unseen_label"])
    def test_checked_before_the_fit(self, trained, cls_files, tmp_path, monkeypatch, capsys,
                                    fault):
        """A held-out fault that the fit does not decide exits 3 before the
        fit starts."""
        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran before the held-out file was checked")

        monkeypatch.setattr(cli, "fit", no_fit)
        test = tmp_path / "test.csv"
        if fault == "unseen_label":
            rows = list(csv.reader((cls_files / "test.csv").read_text().splitlines()))
            write_csv_file(test, rows[0], rows[1:3] + [rows[3][:-1] + ["maybe"]])
            train, extra = cls_files / "train.csv", ["klass", "--task", "classification"]
            message = "unseen label 'maybe'"
        else:
            train, extra = trained[1], ["y"]
            if fault == "not_utf8":
                test.write_bytes(train.read_bytes().replace(b"f0,", b"f\xe90,", 1))
                message = "is not UTF-8 text"
            else:
                rows = [row[:-1] for row in csv.reader(train.read_text().splitlines())]
                write_csv_file(test, rows[0], rows[1:])
                message = "target column 'y' not in header"
        rc, out = self.fit_with_test_file(tmp_path, train, test, extra)
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert err.startswith("data error: ") and message in err, err
        assert not (out / "model.json").exists()

    def test_single_label_test_file(self, cls_files, tmp_path, capsys):
        rows = list(csv.reader((cls_files / "test.csv").read_text().splitlines()))
        test = tmp_path / "pos.csv"
        write_csv_file(test, rows[0], [r for r in rows[1:] if r[-1] == "pos"])
        rc, out = self.fit_with_test_file(tmp_path, cls_files / "train.csv", test,
                                          ["klass", "--task", "classification", "--hidden",
                                           "none"])
        assert rc in (EXIT_OK, EXIT_BUDGET), capsys.readouterr().err
        assert "test accuracy = " in capsys.readouterr().out
        assert main(["predict", str(out / "model.json"), str(test),
                     "--output-dir", str(out)]) == EXIT_OK

    def test_unseen_label_still_rejected(self, cls_files, tmp_path, capsys):
        rows = list(csv.reader((cls_files / "test.csv").read_text().splitlines()))
        test = tmp_path / "new.csv"
        write_csv_file(test, rows[0], rows[1:3] + [rows[3][:-1] + ["maybe"]])
        rc, out = self.fit_with_test_file(tmp_path, cls_files / "train.csv", test,
                                          ["klass", "--task", "classification", "--hidden",
                                           "none"])
        assert rc == EXIT_DATA
        assert "unseen label 'maybe'" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    def test_bad_cell_in_unselected_column(self, trained, tmp_path, capsys):
        d, train, model = trained
        assert "f0" not in [e["name"] for e in model["selected"]]
        rows = list(csv.reader(train.read_text().splitlines()))
        rows[5][0] = "oops"
        test = tmp_path / "test.csv"
        write_csv_file(test, rows[0], rows[1:])
        rc, out = self.fit_with_test_file(tmp_path, train, test,
                                          ["y", "--hidden", "20", "--seed", "1"])
        assert rc == EXIT_OK, capsys.readouterr().err
        assert "test rmse = " in capsys.readouterr().out
        assert main(["predict", str(out / "model.json"), str(test),
                     "--output-dir", str(out)]) == EXIT_OK


    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_one_read_scored_by_the_fitted_network(self, trained, cls_files, tmp_path,
                                                   monkeypatch, capsys, task):
        """The held-out file is read once, and the printed score is the one
        FitResult.predict gives on it, standardized by the training file's
        statistics."""
        if task == "regression":
            train, test = trained[1], tmp_path / "test.csv"
            make_regression_csv(test, n=40, seed=9)
            extra = ["y", "--hidden", "20", "--seed", "1"]
        else:
            train, test = cls_files / "train.csv", cls_files / "test.csv"
            extra = ["klass", "--task", "classification", "--hidden", "10"]
        reads, results = [], []
        read_text = data._read_text
        monkeypatch.setattr(data, "_read_text", lambda path: reads.append(path) or read_text(path))
        monkeypatch.setattr(cli, "fit",
                            lambda *a, **k: results.append(trainer.fit(*a, **k)) or results[-1])
        rc, _ = self.fit_with_test_file(tmp_path, train, test, extra)
        assert rc in (EXIT_OK, EXIT_BUDGET)
        assert [str(path) for path in reads].count(str(test)) == 1

        ds = data.load_training(train, extra[0], task_kind=task)
        rows = list(csv.reader(test.read_text().splitlines()))
        X = np.array([[float(row[j]) for j in ds.indices] for row in rows[1:]])
        y = [row[rows[0].index(extra[0])] for row in rows[1:]]
        pred = results[0].predict((X - ds.mean) / ds.std)
        if task == "regression":
            rmse = float(np.sqrt(np.mean((np.array(y, dtype=float)[:, None] - pred) ** 2)))
            line = "test rmse = %r  (%d rows)" % (rmse, len(y))
        else:
            acc = np.mean(np.array(ds.labels)[np.argmax(pred, axis=1)] == np.array(y))
            line = "test accuracy = %.4f  (%d rows)" % (acc, len(y))
        assert capsys.readouterr().out.splitlines()[-1] == line


class TestRepeatedHeaderName:
    """A header name that appears twice is a data error in every reader:
    exit 3 and one 'data error:' line naming it, no output file."""

    @pytest.fixture
    def twice(self, trained, tmp_path):
        # f0 renamed f4, so the name the model selects picks either column
        path = tmp_path / "twice.csv"
        path.write_text(trained[1].read_text().replace("f0,", "f4,", 1))
        return path

    def assert_data_error(self, rc, capsys, out_file):
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert "header name 'f4' appears more than once" in err, err
        assert not out_file.exists()

    @pytest.mark.parametrize("command,out_name", [("qut", "qut.json"), ("fit", "model.json")])
    def test_training_file(self, twice, tmp_path, capsys, command, out_name):
        out = tmp_path / "out"
        rc = main([command, str(twice), "--target", "y", "--hidden", "none", "--n-mc", "100",
                   "--output-dir", str(out)])
        self.assert_data_error(rc, capsys, out / out_name)

    def test_predict(self, trained, twice, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["predict", str(trained[0] / "model.json"), str(twice),
                   "--output-dir", str(out)])
        self.assert_data_error(rc, capsys, out / "predictions.csv")

    def test_fit_test_file(self, trained, twice, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["fit", str(trained[1]), "--target", "y", "--hidden", "none", "--n-mc", "100",
                   "--test-file", str(twice), "--output-dir", str(out)])
        self.assert_data_error(rc, capsys, out / "model.json")


class TestNotUtf8:
    """A CSV that is not valid UTF-8 is a data error: exit 3 and one
    'data error:' line, no traceback and no output file."""

    @pytest.fixture
    def latin(self, trained, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(trained[1].read_bytes().replace(b"f0,", b"f\xe90,", 1))
        return path

    def assert_data_error(self, rc, capsys, path):
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert "%s is not UTF-8 text" % path in err and "0xe9" in err, err

    def test_qut(self, latin, tmp_path, capsys):
        rc = main(["qut", str(latin), "--target", "y", "--output-dir", str(tmp_path / "out")])
        self.assert_data_error(rc, capsys, latin)
        assert not (tmp_path / "out" / "qut.json").exists()

    def test_fit(self, latin, tmp_path, capsys):
        rc = main(["fit", str(latin), "--target", "y", "--output-dir", str(tmp_path / "out")])
        self.assert_data_error(rc, capsys, latin)
        assert not (tmp_path / "out" / "model.json").exists()

    def test_predict(self, trained, latin, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["predict", str(trained[0] / "model.json"), str(latin),
                   "--output-dir", str(out)])
        self.assert_data_error(rc, capsys, latin)
        assert not (out / "predictions.csv").exists()

    def test_fit_test_file(self, trained, latin, tmp_path, capsys):
        # the held-out file is read and checked before model.json is written
        out = tmp_path / "out"
        rc = main(["fit", str(trained[1]), "--target", "y", "--hidden", "20", "--n-mc", "100",
                   "--test-file", str(latin), "--output-dir", str(out)])
        captured = capsys.readouterr()
        assert "test rmse" not in captured.out
        err = captured.err
        assert rc == EXIT_DATA
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert "%s is not UTF-8 text" % latin in err, err
        assert not (out / "model.json").exists()


class TestInfiniteCell:
    """A cell that parses to an infinity is a data error in every reader:
    exit 3 and one 'data error:' line naming it, no output file."""

    @staticmethod
    def with_cells(trained, path, cells):
        """The training file of trained with row 6 (the 5th data row)
        holding cells, a dict from column name to token."""
        rows = list(csv.reader(trained[1].read_text().splitlines()))
        for column, token in cells.items():
            rows[5][rows[0].index(column)] = token
        write_csv_file(path, rows[0], rows[1:])
        return path

    @staticmethod
    def assert_data_error(rc, capsys, out_file, column, token):
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert err == "data error: column %r, row 6: infinite value %r\n" % (column, token)
        assert not out_file.exists()

    @pytest.mark.parametrize("command,column,token", [
        ("qut", "f4", "inf"), ("qut", "y", "1e999"), ("fit", "f4", "inf"), ("fit", "y", "-inf"),
    ])
    def test_training_file(self, trained, tmp_path, capsys, command, column, token):
        bad = self.with_cells(trained, tmp_path / "bad.csv", {column: token})
        out = tmp_path / "out"
        rc = main([command, str(bad), "--target", "y", "--hidden", "none", "--n-mc", "100",
                   "--output-dir", str(out)])
        name = "qut.json" if command == "qut" else "model.json"
        self.assert_data_error(rc, capsys, out / name, column, token)

    def test_predict(self, trained, tmp_path, capsys):
        assert "f4" in [e["name"] for e in trained[2]["selected"]]
        bad = self.with_cells(trained, tmp_path / "bad.csv", {"f4": "inf"})
        out = tmp_path / "out"
        rc = main(["predict", str(trained[0] / "model.json"), str(bad), "--output-dir", str(out)])
        self.assert_data_error(rc, capsys, out / "predictions.csv", "f4", "inf")

    @pytest.mark.parametrize("cells,named", [({"f4": "inf"}, "f4"),
                                             ({"f4": "inf", "y": "-inf"}, "y")])
    def test_fit_test_file(self, trained, tmp_path, capsys, cells, named):
        bad = self.with_cells(trained, tmp_path / "bad.csv", cells)
        out = tmp_path / "out"
        rc = main(["fit", str(trained[1]), "--target", "y", "--hidden", "none", "--n-mc", "100",
                   "--test-file", str(bad), "--output-dir", str(out)])
        self.assert_data_error(rc, capsys, out / "model.json", named, cells[named])


class TestOutputDir:
    """An --output-dir that cannot be made a directory is a usage error:
    exit 2 and one 'usage error:' line naming it, before the command reads
    or computes anything."""

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    @pytest.mark.parametrize("command", ["qut", "fit", "predict", "simulate"])
    def test_a_regular_file(self, trained, tmp_path, monkeypatch, capsys, command, below):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --output-dir was checked")

        for name in ("_read_json", "load_training", "ScoringFile", "compute_qut", "fit",
                     "sweep"):
            monkeypatch.setattr(cli, name, no_work)
        blocker = tmp_path / "afile"
        blocker.write_text("")
        out = blocker / "sub" if below else blocker
        if command == "predict":
            argv = ["predict", str(trained[0] / "model.json"), str(trained[1])]
        else:
            argv = command_argv(command, tmp_path)[0]
        rc = main(argv + ["--output-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith("usage error: --output-dir %s: " % out) and err.count("\n") == 1, err
        assert blocker.read_text() == ""


# qut, fit, predict and a one-worker simulate in one fresh interpreter; it
# prints their exit codes and which process-pool modules were loaded
POOL_PROBE = """
import json, sys
from qutsparse.cli import main
train, out = sys.argv[1:]
runs = [["qut", train, "--target", "y", "--n-mc", "50", "--output-dir", out + "/qut"],
        ["fit", train, "--target", "y", "--hidden", "none", "--n-mc", "50",
         "--output-dir", out + "/fit"],
        ["predict", out + "/fit/model.json", train, "--output-dir", out + "/predict"],
        ["simulate", "linear", "--n", "30", "--p", "6", "--s", "0:1", "--runs", "1",
         "--n-test", "20", "--n-mc", "50", "--jobs", "1", "--output-dir", out + "/sim"]]
codes = [main(argv) for argv in runs]
print(json.dumps([codes, sorted(m for m in ("concurrent.futures.process", "multiprocessing")
                                if m in sys.modules)]))
"""


def test_one_worker_commands_never_load_the_process_pool(tmp_path):
    train = tmp_path / "train.csv"
    make_regression_csv(train)
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", POOL_PROBE, str(train), str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [EXIT_OK] * 4
    assert loaded == []
