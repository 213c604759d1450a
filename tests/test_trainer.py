import numpy as np
import pytest

from qutsparse import trainer
from qutsparse.losses import TaskSpec, loss_and_grad, loss_value, null_constant
from qutsparse.network import Architecture, backward, forward, forward_cached, init_params
from qutsparse.penalty import penalty_slope, penalty_value, prox, prox_vector, solve_threshold
from qutsparse.qut import compute_qut
from qutsparse.trainer import (
    FINAL_TOL,
    LAMBDA_FRACTIONS,
    NU_SCHEDULE,
    STATUS_CONVERGED,
    STATUS_MAX_ITERS,
    STOP_BUDGET,
    STOP_CONVERGED,
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
from test_network import per_block_backward

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
        params.w1[...] = np.asarray(w, dtype=float).reshape(1, p)
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
            grads.w1[...] = -y
            grads.intercept[...] = 0.0
            out = ista_step(params, grads, spec, 1.0)
            assert out.w1[0, 0] == pytest.approx(prox(y, spec), abs=1e-12)

    def test_zero_gradient_zero_point_is_fixed(self):
        spec = solve_threshold(1.0, 0.5)
        params, arch = linear_params(3, [0.0, 0.0, 0.0])
        grads = params.copy()
        grads.w1[...] = 0.0
        grads.intercept[...] = 0.0
        out = ista_step(params, grads, spec, 0.7)
        assert np.all(out.w1 == 0.0)

    def test_unpenalized_blocks_take_plain_gradient_steps(self):
        spec = solve_threshold(0.5, 0.5)
        arch = Architecture(2, (3,), 1)
        rng = np.random.default_rng(1)
        params = init_params(arch, rng)
        grads = params.copy()
        grads.w1[...] = 0.0
        grads.deep[0][...] = 1.0
        grads.biases[0][...] = 2.0
        grads.intercept[...] = 3.0
        out = ista_step(params, grads, spec, 0.25)
        np.testing.assert_allclose(out.deep[0], params.deep[0] - 0.25, rtol=0, atol=1e-15)
        np.testing.assert_allclose(out.biases[0], params.biases[0] - 0.5, rtol=0, atol=1e-15)
        np.testing.assert_allclose(out.intercept, params.intercept - 0.75, rtol=0, atol=1e-15)


def blocks(params):
    return [params.w1, *params.deep, *params.biases, params.intercept]


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
    out.w1[...] = prox_vector(params.w1 - step * grads.w1, spec, step)
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
        adam = _Adam(flat.flat.size)
        ref_adam = PerBlockAdam(blocks(ref), WARM_LR)
        for t in range(1, 51):
            for p, opt in ((flat, adam), (ref, ref_adam)):
                pred, cache = forward_cached(p, arch, X)
                _, dpred = loss_and_grad(REG, pred, Y)
                g = backward(p, arch, cache, dpred)
                if opt is adam:
                    opt.step(p.flat, g.flat, t)
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


def per_block_adam_phase(params, arch, X, Y, task, cfg, lam, nu, tol, name):
    """_adam_phase as a loop over the allocating pieces: the per-block
    backward pass and Adam, penalty_value and penalty_slope called apart,
    and the regression gradient from np.linalg.norm."""
    adam = PerBlockAdam(blocks(params), WARM_LR)
    prev = initial = None
    stop = STOP_BUDGET
    for _ in range(cfg.max_phase_iters):
        pred, cache = forward_cached(params, arch, X)
        if task.kind == "regression":
            R = Y - pred
            ls = float(np.linalg.norm(R))
            dpred = np.zeros_like(pred) if ls == 0.0 else -R / ls
        else:
            ls, dpred = loss_and_grad(task, pred, Y)
        cost = ls
        if nu is not None:
            cost = ls + lam * float(np.sum(penalty_value(params.w1, nu)))
        if initial is None:
            initial = cost
        if prev is not None and abs(cost - prev) / max(1.0, prev) < tol:
            stop = STOP_CONVERGED
            break
        g = per_block_backward(params, arch, cache, dpred)
        if nu is not None:
            g[0] = g[0] + lam * penalty_slope(params.w1, nu)
        adam.step(blocks(params), g)
        prev = cost
    if stop == STOP_BUDGET:
        cost = loss_value(task, forward(params, arch, X), Y)
        if nu is not None:
            cost += lam * float(np.sum(penalty_value(params.w1, nu)))
    return PhaseRecord(name, lam, nu, adam.t, float(initial), float(cost), stop)


class TestWholeLoopOracle:
    @pytest.mark.parametrize("hidden", [(), (6,), (8, 4)])
    @pytest.mark.parametrize("activation", ["relu", "leaky_relu", "softplus"])
    @pytest.mark.parametrize("task", [REG, CLS3], ids=["reg", "cls"])
    def test_adam_phase_equals_per_block_loop(self, hidden, activation, task):
        rng = np.random.default_rng(52)
        X = rng.normal(0, 1, (40, 9))
        if task.kind == "regression":
            Y = (2.0 * X[:, 1] - X[:, 4] + 0.3 * rng.normal(0, 1, 40))[:, None]
        else:
            Y = np.eye(3)[np.digitize(X[:, 1] + 0.5 * rng.normal(0, 1, 40), [-0.5, 0.5])]
        arch = Architecture(9, hidden, task.n_outputs, activation)
        start = init_params(arch, rng)
        cfg = TrainConfig(max_phase_iters=150)
        # a penalized warm phase, then an unpenalized refit from its end point
        for lam, nu, tol in ((0.8, 0.7, WARM_TOL), (0.0, None, FINAL_TOL)):
            got, want = start.copy(), start.copy()
            rec = _adam_phase(got, arch, X, Y, task, cfg, lam, nu, tol, "phase")
            ref = per_block_adam_phase(want, arch, X, Y, task, cfg, lam, nu, tol, "phase")
            assert rec == ref
            assert rec.iterations > 10
            np.testing.assert_array_equal(got.flat, want.flat)
            start = got


def reference_final_phase(params, arch, X, Y, task, lam, nu, cfg):
    """_final_phase pricing each candidate by loss_value and taking the
    gradient of an accepted one by a second loss_and_grad call."""
    spec = solve_threshold(lam, nu)

    def evaluate(p):
        pred, cache = forward_cached(p, arch, X)
        cost = loss_value(task, pred, Y) + lam * float(penalty_value(p.w1, nu).sum())
        return cost, pred, cache

    cur, pred, cache = evaluate(params)
    initial = cur
    step = 1.0
    updates = 0
    stop = STOP_BUDGET
    for _ in range(cfg.max_phase_iters):
        _, dpred = loss_and_grad(task, pred, Y)
        g = backward(params, arch, cache, dpred)
        trial = step
        for k in range(31):
            cand = ista_step(params, g, spec, trial)
            cand_cost, cand_pred, cand_cache = evaluate(cand)
            if cand_cost <= cur + 1e-12 * max(1.0, abs(cur)):
                break
            trial *= 0.5
        else:
            stop = STOP_STALLED
            break
        params, pred, cache = cand, cand_pred, cand_cache
        updates += 1
        improve = (cur - cand_cost) / max(1.0, cur)
        cur = cand_cost
        step = min(2.0 * trial, 2.0 ** 20) if k == 0 else trial
        if improve < FINAL_TOL:
            stop = STOP_CONVERGED
            break
    return params, PhaseRecord("sparsify", lam, nu, updates, float(initial), float(cur), stop)


def final_phase_problem(hidden, task, perfect=False):
    rng = np.random.default_rng(61)
    X = rng.normal(0, 1, (45, 7))
    arch = Architecture(7, hidden, task.n_outputs, "relu")
    params = init_params(arch, rng)
    if perfect:
        Y = forward(params, arch, X)
    elif task.kind == "regression":
        Y = (2.0 * X[:, 1] - X[:, 4] + 0.3 * rng.normal(0, 1, 45))[:, None]
    else:
        Y = np.eye(3)[np.digitize(X[:, 1] + 0.5 * rng.normal(0, 1, 45), [-0.5, 0.5])]
    return params, arch, X, Y


class TestFinalPhaseOracle:
    @pytest.mark.parametrize("budget", [5000, 3])
    @pytest.mark.parametrize("hidden", [(), (5,), (8, 4)])
    @pytest.mark.parametrize("task", [REG, CLS3], ids=["reg", "cls"])
    def test_equals_reference(self, hidden, task, budget):
        params, arch, X, Y = final_phase_problem(hidden, task)
        cfg = TrainConfig(max_phase_iters=budget)
        got, rec = _final_phase(params.copy(), arch, X, Y, task, 1.5, 0.1, cfg)
        want, ref = reference_final_phase(params.copy(), arch, X, Y, task, 1.5, 0.1, cfg)
        assert rec == ref
        assert (rec.stop == STOP_BUDGET) == (budget == 3)
        np.testing.assert_array_equal(got.flat, want.flat)

    @pytest.mark.parametrize("hidden", [(), (5,), (8, 4)])
    def test_equals_reference_on_a_perfect_fit(self, hidden):
        params, arch, X, Y = final_phase_problem(hidden, REG, perfect=True)
        cfg = TrainConfig()
        got, rec = _final_phase(params.copy(), arch, X, Y, REG, 1.5, 0.1, cfg)
        want, ref = reference_final_phase(params.copy(), arch, X, Y, REG, 1.5, 0.1, cfg)
        assert rec == ref
        np.testing.assert_array_equal(got.flat, want.flat)

    @pytest.mark.parametrize("task", [REG, CLS3], ids=["reg", "cls"])
    def test_prices_each_point_once(self, monkeypatch, task):
        calls = {"loss_and_grad": 0, "loss_value": 0, "ista_step": 0}

        def counting(name):
            orig = getattr(trainer, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)
            monkeypatch.setattr(trainer, name, wrapper)

        for name in calls:
            counting(name)
        params, arch, X, Y = final_phase_problem((5,), task)
        _, rec = _final_phase(params, arch, X, Y, task, 1.5, 0.1, TrainConfig())
        assert rec.iterations > 5
        assert calls["ista_step"] > rec.iterations
        assert calls["loss_and_grad"] == calls["ista_step"] + 1
        assert calls["loss_value"] == 0


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

    def test_adam_phase_leaves_a_perfect_fit(self):
        # at a zero residual the loss gives a zero subgradient and the
        # penalty's slope alone moves w1: the phase trades residual for a
        # smaller penalty
        params, arch, X, Y, cfg = self.perfect_problem((4,))
        rec = _adam_phase(params, arch, X, Y, REG, cfg, 0.3, 0.9, WARM_TOL, "warm0")
        assert rec.stop == STOP_CONVERGED and rec.iterations > 0
        assert rec.final_cost < rec.initial_cost

    def test_final_phase_stops_on_perfect_fit(self):
        # a linear model at a zero residual: every prox step costs more
        # residual than it saves in penalty
        params, arch, X, Y, cfg = self.perfect_problem(())
        out, rec = _final_phase(params.copy(), arch, X, Y, REG, 0.5, 0.1, cfg)
        assert rec.stop == STOP_STALLED and rec.iterations == 0
        np.testing.assert_array_equal(out.flat, params.flat)

    def test_final_phase_stops_when_no_step_descends(self):
        # features scaled by 1e10: even the smallest trial step of the
        # line search overshoots (at 1e8 the phase still converges)
        rng = np.random.default_rng(7)
        X = rng.normal(0, 1, (30, 5)) * 1e10
        Y = rng.normal(0, 1, (30, 1))
        arch = Architecture(5, (), 1)
        params = init_params(arch, rng)
        out, rec = _final_phase(params.copy(), arch, X, Y, REG, 0.5, 0.1, TrainConfig(seed=0))
        assert rec.stop == STOP_STALLED and rec.iterations == 0
        assert rec.initial_cost == rec.final_cost
        np.testing.assert_array_equal(out.flat, params.flat)


class TestStatus:
    @staticmethod
    def records(*stops):
        return [PhaseRecord("p%d" % i, 0.0, None, 0, 0.0, 0.0, s) for i, s in enumerate(stops)]

    def test_status_from_stop_reasons(self):
        assert _status(self.records(STOP_CONVERGED, STOP_STALLED)) == STATUS_CONVERGED
        assert _status(self.records(STOP_CONVERGED, STOP_BUDGET)) == STATUS_MAX_ITERS


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

    @pytest.mark.parametrize("hidden", [(), (10,)])
    def test_level_is_compute_qut_at_the_fit_seed(self, hidden):
        X, Y = self.make_linear()
        arch = Architecture(25, hidden, 1)
        for seed in (0, 7, np.int64(2**32 + 1)):
            res = fit(X, Y, REG, arch, TrainConfig(n_mc=200, seed=seed))
            assert res.lambda_qut == compute_qut(X, Y, REG, arch, n_mc=200, seed=seed).lambda_qut

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
        # Y is the init net's own output, so the first warm iteration sees
        # an exactly zero residual; the fit still runs every phase.
        rng_data = np.random.default_rng(21)
        X = rng_data.normal(0, 1, (30, 5))
        arch = Architecture(5, (4,), 1, "relu")
        init_rng = np.random.default_rng(7)
        params = init_params(arch, init_rng)
        Y = forward(params, arch, X)
        res = fit(X, Y, REG, arch, TrainConfig(seed=7), lambda_qut=1.0)
        assert res.status == STATUS_CONVERGED
        names = ["warm%d" % i for i in range(6)] + ["sparsify", "refit"]
        assert [ph.name for ph in res.phases] == names
        assert res.phases[0].iterations > 0

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

    @pytest.mark.parametrize("budget", [-1, 0, 2.5])
    def test_phase_budget_below_one_is_rejected(self, budget):
        X, Y = self.make_linear()
        with pytest.raises(ValueError, match="max_phase_iters"):
            fit(X, Y, REG, Architecture(25, (), 1), TrainConfig(max_phase_iters=budget))

    def test_phase_budget_of_one_runs(self):
        X, Y = self.make_linear()
        res = fit(X, Y, REG, Architecture(25, (), 1), TrainConfig(max_phase_iters=1))
        assert res.status == STATUS_MAX_ITERS
        assert all(ph.iterations <= 1 for ph in res.phases)

    def test_predict_uses_selected_columns(self):
        X, Y = self.make_linear()
        res = fit(X, Y, REG, Architecture(25, (), 1), TrainConfig(seed=0))
        assert res.selected.tolist() == [4]
        X2 = X.copy()
        X2[:, [0, 7, 19]] = 0.0
        np.testing.assert_array_equal(res.predict(X), res.predict(X2))
