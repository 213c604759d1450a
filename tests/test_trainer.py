import numpy as np
import pytest

from qutsparse.losses import TaskSpec, loss_value, null_constant
from qutsparse.network import Architecture, forward, init_params
from qutsparse.penalty import prox, solve_threshold
from qutsparse.trainer import (
    STATUS_CONVERGED,
    STATUS_MAX_ITERS,
    STATUS_PERFECT,
    TrainConfig,
    _adam_phase,
    _final_phase,
    default_lambda_fractions,
    fit,
    ista_step,
)

REG = TaskSpec("regression", 1)
CLS3 = TaskSpec("classification", 3)

FRACTIONS = [
    0.2689414213699951,
    0.5,
    0.7310585786300049,
    0.8807970779778824,
    0.9525741268224333,
    0.9820137900379085,
    1.0,
]


def linear_params(p, w=None):
    arch = Architecture(p, (), 1)
    rng = np.random.default_rng(0)
    params = init_params(arch, rng)
    if w is not None:
        params.w1 = np.asarray(w, dtype=float).reshape(1, p)
    return params, arch


class TestSchedule:
    def test_default_fractions(self):
        np.testing.assert_allclose(default_lambda_fractions(), FRACTIONS, rtol=0, atol=1e-15)

    def test_fractions_last_is_one(self):
        assert default_lambda_fractions()[-1] == 1.0

    def test_config_fraction_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lambda_fractions=(0.5, 0.2, 1.0)).fractions()
        with pytest.raises(ValueError):
            TrainConfig(lambda_fractions=(0.2, 0.5, 0.9)).fractions()
        with pytest.raises(ValueError):
            TrainConfig(lambda_fractions=(0.2, 1.0)).fractions()

    def test_config_lengths_must_match(self):
        cfg = TrainConfig(nu_schedule=(0.9, 0.1), lambda_fractions=(0.2, 0.5, 0.8, 1.0))
        with pytest.raises(ValueError):
            cfg.fractions()


class TestIstaStep:
    def test_quadratic_from_zero_reproduces_prox(self):
        # f = 0.5*(theta - y)^2, gradient at 0 is -y; one step of size 1
        # lands the prox of y.
        spec = solve_threshold(0.8, 0.3)
        for y in [0.1, 0.9, 1.7, -2.4, 5.0]:
            params, arch = linear_params(1, [0.0])
            grads = params.copy()
            grads.w1 = np.array([[-y]])
            grads.intercept = np.zeros(1)
            out = ista_step(params, grads, spec, 1.0)
            assert out.w1[0, 0] == pytest.approx(prox(y, spec), abs=1e-12)

    def test_zero_gradient_zero_point_is_fixed(self):
        spec = solve_threshold(1.0, 0.5)
        params, arch = linear_params(3, [0.0, 0.0, 0.0])
        grads = params.copy()
        grads.w1 = np.zeros((1, 3))
        grads.intercept = np.zeros(1)
        out = ista_step(params, grads, spec, 0.7)
        assert np.all(out.w1 == 0.0)

    def test_unpenalized_blocks_take_plain_gradient_steps(self):
        spec = solve_threshold(0.5, 0.5)
        arch = Architecture(2, (3,), 1)
        rng = np.random.default_rng(1)
        params = init_params(arch, rng)
        grads = params.copy()
        grads.w1 = np.zeros_like(params.w1)
        grads.deep = [np.ones_like(params.deep[0])]
        grads.biases = [np.full_like(params.biases[0], 2.0)]
        grads.intercept = np.array([3.0])
        out = ista_step(params, grads, spec, 0.25)
        np.testing.assert_allclose(out.deep[0], params.deep[0] - 0.25, rtol=0, atol=1e-15)
        np.testing.assert_allclose(out.biases[0], params.biases[0] - 0.5, rtol=0, atol=1e-15)
        np.testing.assert_allclose(out.intercept, params.intercept - 0.75, rtol=0, atol=1e-15)


class TestPhases:
    def test_warm_chaining_initial_cost(self):
        rng = np.random.default_rng(3)
        X = rng.normal(0, 1, (40, 6))
        X = (X - X.mean(0)) / X.std(0)
        Y = (X[:, 0] * 2 + rng.standard_normal(40) * 0.3)[:, None]
        arch = Architecture(6, (4,), 1, "softplus")
        params = init_params(arch, rng)
        cfg = TrainConfig(seed=0)
        _adam_phase(params, arch, X, Y, REG, cfg, 0.3, 0.9, cfg.warm_tol, "a")
        from qutsparse.penalty import penalty_value

        expected = loss_value(REG, forward(params, arch, X), Y) + 0.6 * float(
            np.sum(penalty_value(params.w1, 0.7))
        )
        rec, _, _ = _adam_phase(params, arch, X, Y, REG, cfg, 0.6, 0.7, cfg.warm_tol, "b")
        assert rec.initial_cost == pytest.approx(expected, rel=1e-12)

    def test_final_phase_monotone_and_support_stable(self):
        rng = np.random.default_rng(4)
        X = rng.normal(0, 1, (50, 8))
        X = (X - X.mean(0)) / X.std(0)
        Y = (3 * X[:, 2] + rng.standard_normal(50) * 0.5)[:, None]
        arch = Architecture(8, (), 1)
        params = init_params(arch, rng)
        cfg = TrainConfig(seed=0)
        params, rec, _, _ = _final_phase(params, arch, X, Y, REG, 2.0, 0.1, cfg)
        assert rec.final_cost <= rec.initial_cost + 1e-10
        support = params.w1 != 0.0
        params2, rec2, _, _ = _final_phase(params.copy(), arch, X, Y, REG, 2.0, 0.1, cfg)
        assert np.array_equal(params2.w1 != 0.0, support)


    def budget_problem(self):
        rng = np.random.default_rng(5)
        X = rng.normal(0, 1, (40, 6))
        X = (X - X.mean(0)) / X.std(0)
        Y = (2 * X[:, 0] + rng.standard_normal(40) * 0.3)[:, None]
        arch = Architecture(6, (4,), 1, "relu")
        return init_params(arch, rng), arch, X, Y, TrainConfig(seed=0, max_phase_iters=3)

    def test_warm_phase_out_of_budget_reports_every_update(self):
        params, arch, X, Y, cfg = self.budget_problem()
        rec, _, hit_budget = _adam_phase(
            params, arch, X, Y, REG, cfg, 0.3, 0.9, cfg.warm_tol, "warm0"
        )
        assert hit_budget and rec.iterations == 3

    def test_final_phase_out_of_budget_reports_every_update(self):
        params, arch, X, Y, cfg = self.budget_problem()
        _, rec, _, hit_budget = _final_phase(params, arch, X, Y, REG, 0.5, 0.1, cfg)
        assert hit_budget and rec.iterations == 3

    def test_refit_phase_out_of_budget_reports_every_update(self):
        params, arch, X, Y, cfg = self.budget_problem()
        rec, _, hit_budget = _adam_phase(
            params, arch, X, Y, REG, cfg, 0.0, None, cfg.final_tol, "refit"
        )
        assert hit_budget and rec.iterations == 3

class TestFit:
    def make_linear(self, seed=0, n=70, p=25, beta=3.0):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
        X = rng.normal(0, 1, (n, p))
        X = (X - X.mean(0)) / X.std(0)
        Y = (beta * X[:, 4] + rng.standard_normal(n))[:, None]
        return X, Y

    def test_linear_recovers_strong_feature(self):
        X, Y = self.make_linear()
        res = fit(X, Y, REG, Architecture(25, (), 1), TrainConfig(seed=0))
        assert res.selected.tolist() == [4]
        assert res.status == STATUS_CONVERGED

    def test_selected_matches_w1_columns(self):
        X, Y = self.make_linear()
        res = fit(X, Y, REG, Architecture(25, (), 1), TrainConfig(seed=0))
        assert res.params.w1.shape[1] == res.selected.size
        assert np.all(np.abs(res.params.w1).sum(axis=0) > 0)

    def test_deterministic(self):
        X, Y = self.make_linear()
        a = fit(X, Y, REG, Architecture(25, (), 1), TrainConfig(seed=3))
        b = fit(X, Y, REG, Architecture(25, (), 1), TrainConfig(seed=3))
        assert a.lambda_qut == b.lambda_qut
        assert np.array_equal(a.selected, b.selected)
        np.testing.assert_array_equal(a.params.w1, b.params.w1)
        np.testing.assert_array_equal(a.params.intercept, b.params.intercept)

    def test_seed_changes_qut_draws(self):
        X, Y = self.make_linear()
        a = fit(X, Y, REG, Architecture(25, (), 1), TrainConfig(seed=0))
        b = fit(X, Y, REG, Architecture(25, (), 1), TrainConfig(seed=1))
        assert a.lambda_qut != b.lambda_qut

    def test_empty_support_becomes_null_constant(self):
        rng = np.random.default_rng(np.random.SeedSequence([0, 12]))
        X = rng.normal(0, 1, (60, 30))
        X = (X - X.mean(0)) / X.std(0)
        Y = rng.standard_normal((60, 1)) + 5.0
        res = fit(X, Y, REG, Architecture(30, (), 1), TrainConfig(seed=0))
        assert res.selected.size == 0
        np.testing.assert_allclose(res.params.intercept, null_constant(REG, Y), atol=1e-12)
        pred = res.predict(X)
        assert np.all(pred == pred[0])

    def test_budget_exhaustion_reports_max_iters(self):
        X, Y = self.make_linear()
        res = fit(
            X, Y, REG, Architecture(25, (), 1), TrainConfig(seed=0, max_phase_iters=3)
        )
        assert res.status == STATUS_MAX_ITERS

    def test_perfect_fit_status(self):
        # Build Y as the init net's own output so the first warm iteration
        # sees an exactly zero residual.
        rng_data = np.random.default_rng(21)
        X = rng_data.normal(0, 1, (30, 5))
        arch = Architecture(5, (4,), 1, "relu")
        init_rng = np.random.default_rng(np.random.SeedSequence([7, 0]))
        params = init_params(arch, init_rng)
        Y = forward(params, arch, X)
        res = fit(X, Y, REG, arch, TrainConfig(seed=7), lambda_qut=1.0)
        assert res.status == STATUS_PERFECT
        assert [(ph.name, ph.iterations) for ph in res.phases] == [("warm0", 0)]

    def test_warm_phases_use_depth_unscaled_level(self):
        rng = np.random.default_rng(30)
        X = rng.normal(0, 1, (40, 6))
        X = (X - X.mean(0)) / X.std(0)
        Y = rng.standard_normal((40, 1))
        arch = Architecture(6, (3, 4), 1, "relu")  # depth factor sqrt(4) = 2
        res = fit(X, Y, REG, arch, TrainConfig(seed=0, max_phase_iters=5), lambda_qut=10.0)
        warm = [ph for ph in res.phases if ph.name.startswith("warm")]
        assert warm[0].lam == pytest.approx(FRACTIONS[0] * 10.0 / 2.0, rel=1e-12)
        assert warm[-1].lam == pytest.approx(FRACTIONS[5] * 10.0 / 2.0, rel=1e-12)
        final = [ph for ph in res.phases if ph.name == "sparsify"]
        assert final and final[0].lam == 10.0

    def test_classification_fit_runs(self):
        rng = np.random.default_rng(np.random.SeedSequence([0, 13]))
        n = 90
        X = rng.normal(0, 1, (n, 10))
        X = (X - X.mean(0)) / X.std(0)
        labels = (X[:, 2] > 0.5).astype(int) + (X[:, 2] < -0.5) * 2
        Y = np.eye(3)[labels]
        res = fit(X, Y, CLS3, Architecture(10, (), 3), TrainConfig(seed=0))
        assert res.status in (STATUS_CONVERGED, STATUS_MAX_ITERS)
        pred = res.predict(X)
        assert pred.shape == (n, 3)
        if res.selected.size:
            assert 2 in res.selected

    def test_input_validation(self):
        X, Y = self.make_linear()
        with pytest.raises(ValueError):
            fit(X, Y, REG, Architecture(10, (), 1), TrainConfig(seed=0))
        with pytest.raises(ValueError):
            fit(X, Y, REG, Architecture(25, (), 1), TrainConfig(seed=-1))
        with pytest.raises(ValueError):
            fit(X[:1], Y[:1], REG, Architecture(25, (), 1), TrainConfig(seed=0))

    def test_predict_uses_selected_columns(self):
        X, Y = self.make_linear()
        res = fit(X, Y, REG, Architecture(25, (), 1), TrainConfig(seed=0))
        assert res.selected.tolist() == [4]
        X2 = X.copy()
        X2[:, [0, 7, 19]] = 0.0
        np.testing.assert_array_equal(res.predict(X), res.predict(X2))
