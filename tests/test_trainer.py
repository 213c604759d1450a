import numpy as np
import pytest

from qutsparse.losses import TaskSpec, loss_and_grad, loss_value, null_constant
from qutsparse.network import Architecture, backward, forward, forward_cached, init_params
from qutsparse.penalty import prox, prox_vector, solve_threshold
from qutsparse.trainer import (
    FINAL_TOL,
    LAMBDA_FRACTIONS,
    NU_SCHEDULE,
    STATUS_CONVERGED,
    STATUS_MAX_ITERS,
    STATUS_PERFECT,
    STOP_BUDGET,
    STOP_CONVERGED,
    STOP_PERFECT,
    STOP_STALLED,
    WARM_LR,
    WARM_TOL,
    PhaseRecord,
    TrainConfig,
    _Adam,
    _adam_phase,
    _final_phase,
    _status,
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
        np.testing.assert_allclose(LAMBDA_FRACTIONS, FRACTIONS, rtol=0, atol=1e-15)

    def test_fractions_last_is_one(self):
        assert LAMBDA_FRACTIONS[-1] == 1.0

    def test_one_fraction_per_shape_plus_the_exact_phase(self):
        assert len(LAMBDA_FRACTIONS) == len(NU_SCHEDULE) + 1
        assert all(a < b for a, b in zip(LAMBDA_FRACTIONS, LAMBDA_FRACTIONS[1:]))
        assert all(a > b for a, b in zip(NU_SCHEDULE, NU_SCHEDULE[1:]))


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


def blocks(params):
    return [params.w1] + params.deep + params.biases + [params.intercept]


class PerBlockAdam:
    """Adam as it was before the flat buffer: one moment pair per block."""

    def __init__(self, blocks, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(b) for b in blocks]
        self.v = [np.zeros_like(b) for b in blocks]

    def step(self, blocks, grads):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for b, g, m, v in zip(blocks, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            b -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def per_block_ista_step(params, grads, spec, step):
    """The proximal-gradient update as it was before the flat buffer."""
    out = params.copy()
    out.w1 = prox_vector(params.w1 - step * grads.w1, spec, step)
    for o, b, g in zip(blocks(out)[1:], blocks(params)[1:], blocks(grads)[1:]):
        o[...] = b - step * g
    return out


class TestFlatUpdates:
    def test_fused_adam_matches_per_block_loop(self):
        rng = np.random.default_rng(50)
        arch = Architecture(5, (8, 4), 1, "softplus")
        X = rng.normal(0, 1, (30, 5))
        Y = rng.normal(0, 1, (30, 1))
        flat = init_params(arch, rng)
        start = flat.flat.copy()
        ref = flat.copy()
        adam = _Adam(flat.flat.size, WARM_LR)
        ref_adam = PerBlockAdam(blocks(ref), WARM_LR)
        for _ in range(50):
            for p, opt in ((flat, adam), (ref, ref_adam)):
                pred, cache = forward_cached(p, arch, X)
                _, dpred = loss_and_grad(REG, pred, Y)
                g = backward(p, arch, cache, dpred)
                if opt is adam:
                    opt.step(p.flat, g.flat)
                else:
                    opt.step(blocks(p), blocks(g))
            np.testing.assert_array_equal(flat.flat, ref.flat)
        assert np.all(flat.flat != start)

    @pytest.mark.parametrize("hidden", [(), (8, 4)])
    def test_ista_step_matches_per_block_update(self, hidden):
        rng = np.random.default_rng(51)
        arch = Architecture(12, hidden, 1)
        params = init_params(arch, rng)
        grads = params.like(rng.normal(0, 1, params.flat.size))
        for lam, nu, step in ((1.0, 0.1, 0.3), (1.5, 0.7, 0.7), (2.0, 1.0, 0.45)):
            spec = solve_threshold(lam, nu)
            got = ista_step(params, grads, spec, step)
            want = per_block_ista_step(params, grads, spec, step)
            np.testing.assert_array_equal(got.flat, want.flat)
            assert 0 < np.count_nonzero(got.w1) < got.w1.size


class TestPhases:
    def test_warm_chaining_initial_cost(self):
        rng = np.random.default_rng(3)
        X = rng.normal(0, 1, (40, 6))
        X = (X - X.mean(0)) / X.std(0)
        Y = (X[:, 0] * 2 + rng.standard_normal(40) * 0.3)[:, None]
        arch = Architecture(6, (4,), 1, "softplus")
        params = init_params(arch, rng)
        cfg = TrainConfig(seed=0)
        _adam_phase(params, arch, X, Y, REG, cfg, 0.3, 0.9, WARM_TOL, "a")
        from qutsparse.penalty import penalty_value

        expected = loss_value(REG, forward(params, arch, X), Y) + 0.6 * float(
            np.sum(penalty_value(params.w1, 0.7))
        )
        rec = _adam_phase(params, arch, X, Y, REG, cfg, 0.6, 0.7, WARM_TOL, "b")
        assert rec.initial_cost == pytest.approx(expected, rel=1e-12)

    def test_final_phase_monotone_and_support_stable(self):
        rng = np.random.default_rng(4)
        X = rng.normal(0, 1, (50, 8))
        X = (X - X.mean(0)) / X.std(0)
        Y = (3 * X[:, 2] + rng.standard_normal(50) * 0.5)[:, None]
        arch = Architecture(8, (), 1)
        params = init_params(arch, rng)
        cfg = TrainConfig(seed=0)
        params, rec = _final_phase(params, arch, X, Y, REG, 2.0, 0.1, cfg)
        assert rec.final_cost <= rec.initial_cost + 1e-10
        support = params.w1 != 0.0
        params2, rec2 = _final_phase(params.copy(), arch, X, Y, REG, 2.0, 0.1, cfg)
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
        rec = _adam_phase(params, arch, X, Y, REG, cfg, 0.3, 0.9, WARM_TOL, "warm0")
        assert rec.stop == STOP_BUDGET and rec.iterations == 3

    def test_final_phase_out_of_budget_reports_every_update(self):
        params, arch, X, Y, cfg = self.budget_problem()
        _, rec = _final_phase(params, arch, X, Y, REG, 0.5, 0.1, cfg)
        assert rec.stop == STOP_BUDGET and rec.iterations == 3

    def test_refit_phase_out_of_budget_reports_every_update(self):
        params, arch, X, Y, cfg = self.budget_problem()
        rec = _adam_phase(params, arch, X, Y, REG, cfg, 0.0, None, FINAL_TOL, "refit")
        assert rec.stop == STOP_BUDGET and rec.iterations == 3

    def test_warm_phase_converges(self):
        params, arch, X, Y, _ = self.budget_problem()
        cfg = TrainConfig(seed=0)
        rec = _adam_phase(params, arch, X, Y, REG, cfg, 0.3, 0.9, WARM_TOL, "warm0")
        assert rec.stop == STOP_CONVERGED
        assert 0 < rec.iterations < cfg.max_phase_iters

    def test_final_phase_converges(self):
        params, arch, X, Y, _ = self.budget_problem()
        cfg = TrainConfig(seed=0)
        _, rec = _final_phase(params, arch, X, Y, REG, 0.5, 0.1, cfg)
        assert rec.stop == STOP_CONVERGED
        assert 0 < rec.iterations < cfg.max_phase_iters

    def perfect_problem(self, hidden):
        # Y is the start network's own output, so the residual is exactly zero.
        rng = np.random.default_rng(6)
        X = rng.normal(0, 1, (30, 5))
        arch = Architecture(5, hidden, 1)
        params = init_params(arch, rng)
        return params, arch, X, forward(params, arch, X), TrainConfig(seed=0)

    def test_adam_phase_stops_on_perfect_fit(self):
        params, arch, X, Y, cfg = self.perfect_problem((4,))
        w1 = params.w1.copy()
        rec = _adam_phase(params, arch, X, Y, REG, cfg, 0.3, 0.9, WARM_TOL, "warm0")
        assert rec.stop == STOP_PERFECT and rec.iterations == 0
        np.testing.assert_array_equal(params.w1, w1)

    def test_final_phase_stops_on_perfect_fit(self):
        params, arch, X, Y, cfg = self.perfect_problem(())
        out, rec = _final_phase(params, arch, X, Y, REG, 0.5, 0.1, cfg)
        assert rec.stop == STOP_PERFECT and rec.iterations == 0
        assert out is params


class TestStatus:
    @staticmethod
    def records(*stops):
        return [PhaseRecord("p%d" % i, 0.0, None, 0, 0.0, 0.0, s) for i, s in enumerate(stops)]

    def test_status_from_stop_reasons(self):
        assert _status(self.records(STOP_CONVERGED, STOP_STALLED)) == STATUS_CONVERGED
        assert _status(self.records(STOP_CONVERGED, STOP_BUDGET)) == STATUS_MAX_ITERS
        assert _status(self.records(STOP_BUDGET, STOP_PERFECT)) == STATUS_PERFECT


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

    def test_status_follows_the_phase_records(self):
        X, Y = self.make_linear()
        arch = Architecture(25, (), 1)
        for cfg in (TrainConfig(seed=0), TrainConfig(seed=0, max_phase_iters=3)):
            res = fit(X, Y, REG, arch, cfg)
            assert res.status == _status(res.phases)
        assert {ph.stop for ph in res.phases} == {STOP_BUDGET}
        assert res.status == STATUS_MAX_ITERS

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
