import csv
import json
import re
import shutil

import numpy as np
import pytest

from qutsparse import cli, data, trainer
from qutsparse.cli import (
    EXIT_BUDGET,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    _s_grid_type,
    main,
)
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
# seed, network and task options of qut and fit
BAD_DATASET_OPTIONS = [("--seed", "-1"), {"hidden": "20"}, {"hidden": 20},
                       {"activation": "tanh"}, {"task": "foo"}]


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
        assert model["status"] in ("Converged", "PerfectFit")
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

    @pytest.mark.parametrize("budget", [None, "3"])
    def test_model_records_each_phase_stop(self, tmp_path, monkeypatch, budget):
        results = []

        def recording_fit(*args, **kwargs):
            results.append(trainer.fit(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "fit", recording_fit)
        train = tmp_path / "train.csv"
        make_regression_csv(train, n=50, p=4, signal_col=1, seed=6)
        argv = ["fit", str(train), "--target", "y", "--hidden", "5", "--n-mc", "100",
                "--output-dir", str(tmp_path)]
        main(argv + (["--max-phase-iters", budget] if budget else []))
        model = json.load(open(tmp_path / "model.json"))
        stops = [ph.stop for ph in results[0].phases]
        assert [ph["stop"] for ph in model["phases"]] == stops
        assert (STOP_BUDGET in stops) == (budget is not None)

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
        else:
            net = [net]
        (tmp_path / "bad.json").write_text(json.dumps(dict(model, network=net)))
        rc = main(["predict", str(tmp_path / "bad.json"), str(train),
                   "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA and err.startswith("data error: ") and err.count("\n") == 1, err
        assert all(text in err for text in named), err
        assert not (tmp_path / "predictions.csv").exists()

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

    def test_invalid_scenario_is_usage_error(self, tmp_path, capsys):
        rc = main(["simulate", "absdiff", "--s", "3", "--jobs", "1",
                   "--output-dir", str(tmp_path)] + self.ARGS)
        assert rc == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", BAD_QUT_OPTIONS + [
        {"runs": "x"}, {"hidden": ["a"]}, ("--jobs", "0"), ("--jobs", "-3"),
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


class TestHoldout:
    """fit --test-file reads what predict reads, plus the target column."""

    def fit_with_test_file(self, tmp_path, train, test, extra):
        out = tmp_path / "out"
        rc = main(["fit", str(train), "--target", extra[0], "--n-mc", "100",
                   "--test-file", str(test), "--output-dir", str(out)] + extra[1:])
        return rc, out

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
