import json

import numpy as np
import pytest

from qutsparse.losses import TaskSpec
from qutsparse.network import Architecture
from qutsparse.simlab import (
    ScenarioSpec,
    _mu_star,
    _trial_seeds,
    aggregate,
    generate,
    metrics,
    read_records,
    run_trial,
    sweep,
    write_csv,
)
from qutsparse.trainer import TrainConfig, fit


class TestScenarioSpec:
    def test_valid(self):
        ScenarioSpec("linear", 20, 10, 3)
        ScenarioSpec("absdiff", 20, 10, 4)
        ScenarioSpec("nestedabs", 20, 10, 4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            ScenarioSpec("cubic", 20, 10, 2)
        with pytest.raises(ValueError):
            ScenarioSpec("linear", 20, 10, 11)
        with pytest.raises(ValueError):
            ScenarioSpec("absdiff", 20, 10, 3)
        with pytest.raises(ValueError):
            ScenarioSpec("nestedabs", 20, 10, 2)
        with pytest.raises(ValueError):
            ScenarioSpec("linear", 20, 10, 2, seed=-1)


class TestGenerate:
    def test_null_model(self):
        spec = ScenarioSpec("linear", 50, 10, 0, n_test=20)
        X, Y, Xt, mut, support = generate(spec, 0)
        assert support.size == 0
        assert np.all(mut == 0.0)
        assert abs(Y.mean()) < 0.5 and 0.5 < Y.std() < 1.5

    def test_shapes(self):
        spec = ScenarioSpec("absdiff", 40, 12, 4, n_test=17)
        X, Y, Xt, mut, support = generate(spec, 1)
        assert X.shape == (40, 12) and Y.shape == (40, 1)
        assert Xt.shape == (17, 12) and mut.shape == (17,)
        assert support.size == 4 and np.all(np.diff(support) > 0)

    def test_deterministic_per_cell(self):
        spec = ScenarioSpec("linear", 30, 8, 2, n_test=10, seed=5)
        a = generate(spec, 3)
        b = generate(spec, 3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        c = generate(spec, 4)
        assert not np.array_equal(a[0], c[0])

    def test_noise_is_standard_normal(self):
        # Y minus the recomputed noiseless response must be the e draw.
        spec = ScenarioSpec("nestedabs", 2000, 10, 4, n_test=10)
        X, Y, Xt, mut, support = generate(spec, 0)
        resid = Y[:, 0] - _mu_star("nestedabs", X[:, support])
        assert abs(resid.mean()) < 0.1
        assert abs(resid.std() - 1.0) < 0.1

    def test_x_moments(self):
        spec = ScenarioSpec("linear", 10000, 5, 0, n_test=10)
        X, _, _, _, _ = generate(spec, 0)
        se_mean = 1.0 / np.sqrt(10000)
        assert np.all(np.abs(X.mean(axis=0)) < 4 * se_mean)
        se_var = np.sqrt(2.0 / 10000)
        assert np.all(np.abs(X.var(axis=0) - 1.0) < 4 * se_var)

    def test_linear_coefficients_from_allowed_set(self):
        spec = ScenarioSpec("linear", 200, 10, 3, n_test=10)
        X, Y, Xt, mut, support = generate(spec, 0)
        # mu is exactly linear in the support columns; solve for beta.
        beta, *_ = np.linalg.lstsq(Xt[:, support], mut, rcond=None)
        np.testing.assert_allclose(Xt[:, support] @ beta, mut, atol=1e-8)
        for b in beta:
            assert round(b) == pytest.approx(b, abs=1e-8)
            assert round(b) in (-3, -2, -1, 1, 2, 3)


class TestMuStar:
    def test_absdiff_equal_pair_contributes_zero(self):
        Xs = np.array([[1.5, 1.5, 0.0, 2.0]])
        assert _mu_star("absdiff", Xs)[0] == pytest.approx(20.0)

    def test_absdiff_hand_value(self):
        Xs = np.array([[1.0, 3.0]])
        assert _mu_star("absdiff", Xs)[0] == pytest.approx(20.0)

    def test_nestedabs_hand_value(self):
        Xs = np.array([[0.0, 2.0, 1.0, 1.5]])
        # |2 - 0| = 2, |1.5 - 1| = 0.5, 10*|2 - 0.5| = 15
        assert _mu_star("nestedabs", Xs)[0] == pytest.approx(15.0)

    def test_nestedabs_pair_swap_symmetry(self):
        rng = np.random.default_rng(0)
        Xs = rng.normal(size=(50, 4))
        swapped = Xs[:, [2, 3, 0, 1]]
        np.testing.assert_allclose(
            _mu_star("nestedabs", Xs), _mu_star("nestedabs", swapped), atol=1e-12
        )


class TestMetrics:
    def rec(self, true, est, l2=0.0):
        return {"true_support": true, "estimated_support": est, "l2_hat": l2}

    def test_exact_match(self):
        out = metrics([self.rec([1, 4], [1, 4], 2.0)])
        assert out == {"pesr": 1.0, "fdr": 0.0, "tpr": 1.0, "mean_l2": 2.0}

    def test_one_extra(self):
        out = metrics([self.rec([1], [1, 2])])
        assert out["pesr"] == 0.0
        assert out["fdr"] == pytest.approx(0.5)
        assert out["tpr"] == 1.0

    def test_empty_estimate_nonempty_truth(self):
        out = metrics([self.rec([1], [])])
        assert out["fdr"] == 0.0
        assert out["tpr"] == 0.0
        assert out["pesr"] == 0.0

    def test_null_truth_conventions(self):
        assert metrics([self.rec([], [])])["tpr"] == 1.0
        assert metrics([self.rec([], [3])])["tpr"] == 0.0
        assert metrics([self.rec([], [])])["pesr"] == 1.0

    def test_bounds_random(self):
        rng = np.random.default_rng(1)
        recs = []
        for _ in range(100):
            true = list(rng.choice(10, size=rng.integers(0, 5), replace=False))
            est = list(rng.choice(10, size=rng.integers(0, 5), replace=False))
            recs.append(self.rec([int(i) for i in true], [int(i) for i in est],
                                 float(rng.random())))
        out = metrics(recs)
        for key in ("pesr", "fdr", "tpr"):
            assert 0.0 <= out[key] <= 1.0

    def test_empty_gives_nan(self):
        out = metrics([])
        assert set(out) == {"pesr", "fdr", "tpr", "mean_l2"}
        assert all(np.isnan(v) for v in out.values())


class TestTrials:
    def spec(self, s=1):
        return ScenarioSpec("linear", 40, 8, s, n_test=50, n_runs=2, seed=0)

    def test_run_trial_deterministic(self):
        a = run_trial(self.spec(), 0, n_mc=50)
        b = run_trial(self.spec(), 0, n_mc=50)
        assert a == b

    def test_run_trial_fields(self):
        rec = run_trial(self.spec(), 1, n_mc=50)
        assert set(rec) == {"s", "run", "true_support", "estimated_support",
                            "l2_hat", "run_seed", "status"}
        assert rec["s"] == 1 and rec["run"] == 1
        assert rec["l2_hat"] >= 0.0

    def test_l2_equals_full_width_prediction(self):
        # reference: standardize every test column, let predict read the selected ones
        spec = self.spec()
        X, Y, X_test, mu_test, _ = generate(spec, 1)
        mean, std = X.mean(axis=0), X.std(axis=0)
        cfg = TrainConfig(seed=_trial_seeds(spec, 1)[1], n_mc=50)
        res = fit((X - mean) / std, Y, TaskSpec("regression", 1), Architecture(8, (5,), 1), cfg)
        assert res.selected.size > 0
        pred = res.predict((X_test - mean) / std)[:, 0]
        rec = run_trial(spec, 1, hidden=(5,), n_mc=50)
        assert rec["l2_hat"] == float(np.mean((pred - mu_test) ** 2))

    def specs(self):
        return [self.spec(s=0), self.spec(s=1)]

    def test_sweep_rows_and_cell_recompute(self):
        rows, records = sweep(self.specs(), n_mc=50)
        assert [r["s"] for r in rows] == [0, 1]
        assert all(r["n_runs"] == 2 and r["failures"] == 0 for r in rows)
        # any cell recomputed in isolation matches the sweep's record
        lone = run_trial(self.spec(s=1), 1, n_mc=50)
        match = [r for r in records if r["s"] == 1 and r["run"] == 1]
        assert match == [lone]

    def test_sweep_jobs_invariance(self, tmp_path):
        rows1, _ = sweep(self.specs(), n_mc=50, jobs=1)
        rows2, _ = sweep(self.specs(), n_mc=50, jobs=2)
        assert rows1 == rows2
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(rows1, p1)
        write_csv(rows2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sweep_resume_completes_missing_cells(self, tmp_path):
        rec_path = tmp_path / "records.jsonl"
        rows_full, records_full = sweep(self.specs(), n_mc=50)
        # write only the first record, then resume
        with open(rec_path, "w") as fh:
            fh.write(json.dumps(records_full[0], sort_keys=True) + "\n")
        rows_resumed, records_resumed = sweep(
            self.specs(), n_mc=50, records_path=str(rec_path), done=read_records(rec_path),
        )
        assert rows_resumed == rows_full
        assert records_resumed == records_full
        lines = [json.loads(l) for l in open(rec_path) if l.strip()]
        assert len(lines) == len(records_full)

    def test_failures_counted_and_excluded(self):
        recs = [
            {"s": 0, "run": 0, "true_support": [], "estimated_support": [],
             "l2_hat": 1.0},
            {"s": 0, "run": 1, "error": "boom"},
            {"s": 1, "run": 0, "error": "boom"},
            {"s": 1, "run": 1, "error": "boom"},
        ]
        rows = aggregate(recs, [self.spec(s=0), self.spec(s=1)])
        assert rows[0]["failures"] == 1
        assert rows[0]["pesr"] == 1.0
        assert rows[0]["mean_l2"] == 1.0
        # a level whose every trial failed has no metric to report
        assert rows[1]["failures"] == 2
        assert all(np.isnan(rows[1][key]) for key in ("pesr", "fdr", "tpr", "mean_l2"))

    def test_csv_format(self, tmp_path):
        rows = [{"s": 0, "n_runs": 2, "pesr": 0.5, "fdr": 0.0, "tpr": 1.0,
                 "mean_l2": 1.25, "failures": 0}]
        path = tmp_path / "out.csv"
        write_csv(rows, path)
        text = path.read_text()
        assert text.splitlines()[0] == "s,n_runs,pesr,fdr,tpr,mean_l2,failures"
        assert text.splitlines()[1] == "0,2,0.5,0.0,1.0,1.25,0"
