import itertools
import json
from math import ceil

import numpy as np
import pytest

from qutsparse.losses import TaskSpec, null_constant
from qutsparse.network import Architecture, forward_cached, backward, init_params, normalize_rows
from qutsparse.losses import loss_and_grad
from qutsparse import qut
from qutsparse.qut import (
    BLOCK,
    QutEstimate,
    _block_statistics,
    _child_states,
    _class_cdf,
    _null_block,
    compute_qut,
    depth_scale,
    null_statistic,
)

REG = TaskSpec("regression", 1)
LIN = Architecture(3, (), 1)


def sample_null(task, Y, rng):
    """One null response draw from rng: the one-draw block of _null_block."""
    return _null_block(_class_cdf(task, Y), Y.shape, [rng])[:, 0, :]


class TestNullStatistic:
    def test_hand_example_identity_design(self):
        X = np.eye(3)
        Y = np.array([[1.0], [2.0], [3.0]])
        assert null_statistic(X, Y, REG, LIN) == pytest.approx(1.0 / np.sqrt(2.0))

    def test_pivotal_under_affine_response_maps(self):
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, (40, 7))
        arch = Architecture(7, (), 1)
        Y = rng.normal(0, 1, (40, 1))
        base = null_statistic(X, Y, REG, arch)
        for _ in range(50):
            a = float(rng.uniform(0.1, 10.0))
            b = float(rng.uniform(-5.0, 5.0))
            got = null_statistic(X, a * Y + b, REG, arch)
            assert got == pytest.approx(base, rel=1e-12)

    def test_classification_uses_centered_response(self):
        # with centered design columns this matches the uncentered form too
        X = np.array([[1.0, -1.0], [-1.0, 1.0], [0.0, 0.0]])
        Y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        task = TaskSpec("classification", 2)
        arch = Architecture(2, (), 2)
        Yc = Y - Y.mean(axis=0)
        expect = np.max(np.sum(np.abs(X.T @ Yc), axis=1))
        assert null_statistic(X, Y, task, arch) == pytest.approx(expect)

    def test_constant_response_rejected(self):
        X = np.eye(3)
        with pytest.raises(ValueError):
            null_statistic(X, np.ones((3, 1)), REG, LIN)


class TestDepthScale:
    def test_linear_and_single_hidden_are_one(self):
        assert depth_scale(Architecture(5, (), 1)) == 1.0
        assert depth_scale(Architecture(5, (20,), 1, "relu")) == 1.0

    def test_second_hidden_width_enters_as_sqrt(self):
        a1 = Architecture(5, (8,), 1, "relu")
        a2 = Architecture(5, (8, 4), 1, "relu")
        assert depth_scale(a2) / depth_scale(a1) == 2.0

    def test_statistic_depth_ratio_exactly_two(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (30, 6))
        Y = rng.normal(0, 1, (30, 1))
        s1 = null_statistic(X, Y, REG, Architecture(6, (8,), 1, "relu"))
        s2 = null_statistic(X, Y, REG, Architecture(6, (8, 4), 1, "relu"))
        assert s2 == 2.0 * s1

    def test_three_hidden(self):
        a = Architecture(5, (16, 9, 4), 1, "softplus")
        assert depth_scale(a) == pytest.approx(6.0)


class TestSampleNull:
    def test_regression_moments(self):
        rng = np.random.default_rng(2)
        Y = np.zeros((4000, 1))
        d = sample_null(REG, Y, rng)
        assert d.shape == (4000, 1)
        assert abs(np.mean(d)) < 0.06
        assert abs(np.std(d) - 1.0) < 0.05

    def test_classification_one_hot_with_observed_proportions(self):
        rng = np.random.default_rng(3)
        task = TaskSpec("classification", 3)
        Y = np.eye(3)[np.r_[np.zeros(600, int), np.ones(300, int), np.full(100, 2)]]
        d = sample_null(task, Y, rng)
        assert d.shape == Y.shape
        np.testing.assert_array_equal(np.sum(d, axis=1), 1.0)
        assert set(np.unique(d)) <= {0.0, 1.0}
        p = np.mean(d, axis=0)
        np.testing.assert_allclose(p, [0.6, 0.3, 0.1], atol=0.06)

    def test_deterministic_by_seed(self):
        Y = np.zeros((50, 1))
        a = sample_null(REG, Y, np.random.default_rng(7))
        b = sample_null(REG, Y, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_class_draws_equal_rng_choice(self):
        # the class draw runs the search inside Generator.choice; its
        # indices must stay those of rng.choice, including for a class of
        # near-zero probability
        gen = np.random.default_rng(13)
        for seed in range(400):
            m = int(gen.integers(2, 7))
            p = gen.dirichlet(np.ones(m))
            if seed % 3 == 0:
                p[gen.integers(m)] = 1e-12
            n = int(gen.integers(1, 300))
            Y = np.tile(p, (n, 1))
            q = Y.mean(axis=0)
            want = np.random.default_rng(seed).choice(m, size=n, p=q / q.sum())
            got = sample_null(TaskSpec("classification", m), Y, np.random.default_rng(seed))
            np.testing.assert_array_equal(got, np.eye(m)[want])


class TestComputeQut:
    def test_deterministic_and_matches_per_draw_reference(self):
        # n_mc=77 leaves a ragged last block of draws
        rng = np.random.default_rng(4)
        n, p, n_mc, seed = 25, 10, 77, 11
        X = rng.normal(0, 1, (n, p))
        labels = np.r_[np.zeros(12, int), np.ones(9, int), np.full(4, 2)]
        cases = [
            (REG, rng.normal(0, 1, (n, 1)), Architecture(p, (), 1)),
            (TaskSpec("classification", 3), np.eye(3)[labels], Architecture(p, (6,), 3)),
            (REG, rng.normal(0, 1, (n, 1)), Architecture(p, (8, 4), 1, "softplus")),
        ]
        for task, Y, arch in cases:
            ref = np.empty(n_mc)
            for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_mc)):
                draw = np.random.default_rng(child)
                if task.kind == "regression":
                    Y0 = draw.standard_normal(Y.shape)
                else:
                    Y0 = np.eye(3)[draw.choice(3, size=n, p=Y.mean(axis=0))]
                Yc = Y0 - Y0.mean(axis=0)
                stat = np.max(np.sum(np.abs(X.T @ Yc), axis=1))
                if task.kind == "regression":
                    stat /= np.linalg.norm(Yc)
                ref[i] = stat * depth_scale(arch)
            a = compute_qut(X, Y, task, arch, n_mc=n_mc, seed=seed)
            b = compute_qut(X, Y, task, arch, n_mc=n_mc, seed=seed)
            np.testing.assert_allclose(a.samples, ref, rtol=1e-12, atol=0.0)
            np.testing.assert_array_equal(a.samples, b.samples)
            assert a.lambda_qut == b.lambda_qut

    def test_quantile_is_plain_order_statistic(self):
        rng = np.random.default_rng(5)
        X = rng.normal(0, 1, (20, 5))
        Y = rng.normal(0, 1, (20, 1))
        arch = Architecture(5, (), 1)
        est = compute_qut(X, Y, REG, arch, alpha=0.05, n_mc=100, seed=0)
        assert est.lambda_qut == np.sort(est.samples)[94]
        est2 = compute_qut(X, Y, REG, arch, alpha=0.3, n_mc=100, seed=0)
        assert est2.lambda_qut == np.sort(est2.samples)[69]

    def test_seed_changes_samples(self):
        rng = np.random.default_rng(6)
        X = rng.normal(0, 1, (20, 5))
        Y = rng.normal(0, 1, (20, 1))
        arch = Architecture(5, (), 1)
        a = compute_qut(X, Y, REG, arch, n_mc=50, seed=1)
        b = compute_qut(X, Y, REG, arch, n_mc=50, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_calibration_on_orthonormal_design(self):
        # fraction of fresh null statistics above the estimated quantile
        # should match alpha
        rng = np.random.default_rng(8)
        Q, _ = np.linalg.qr(rng.normal(0, 1, (50, 50)))
        arch = Architecture(50, (), 1)
        Y = rng.normal(0, 1, (50, 1))
        est = compute_qut(Q, Y, REG, arch, alpha=0.05, n_mc=2000, seed=3)
        fresh_rng = np.random.default_rng(99)
        exceed = 0
        trials = 5000
        for _ in range(trials):
            stat = null_statistic(Q, fresh_rng.standard_normal((50, 1)), REG, arch)
            exceed += stat > est.lambda_qut
        assert exceed / trials == pytest.approx(0.05, abs=0.02)

    def test_validation(self):
        X = np.eye(3)
        Y = np.array([[1.0], [2.0], [3.0]])
        with pytest.raises(ValueError):
            compute_qut(X, Y, REG, LIN, alpha=0.0)
        with pytest.raises(ValueError):
            compute_qut(X, Y, REG, LIN, n_mc=0)
        for seed in (-1, (3, 1), [3], np.int64(-2)):
            with pytest.raises(ValueError, match="seed"):
                compute_qut(X, Y, REG, LIN, seed=seed)

    def test_to_dict(self):
        X = np.eye(3)
        Y = np.array([[1.0], [2.0], [3.0]])
        est = compute_qut(X, Y, REG, LIN, n_mc=10, seed=4)
        d = est.to_dict()
        assert d["n_mc"] == 10 and d["seed"] == 4
        assert len(d["samples"]) == 10
        assert isinstance(d["lambda_qut"], float)

    def test_to_dict_numpy_and_none_seeds(self):
        X = np.eye(3)
        Y = np.array([[1.0], [2.0], [3.0]])
        d = compute_qut(X, Y, REG, LIN, n_mc=10, seed=np.int64(3)).to_dict()
        assert d["seed"] == 3 and type(d["seed"]) is int
        # seed=None records the entropy it drew, which repeats the run
        est = compute_qut(X, Y, REG, LIN, n_mc=10, seed=None)
        d = json.loads(json.dumps(est.to_dict()))
        assert type(d["seed"]) is int
        again = compute_qut(X, Y, REG, LIN, n_mc=10, seed=d["seed"])
        np.testing.assert_array_equal(again.samples, est.samples)


class TestNullDrawStream:
    """Draw i of compute_qut(..., n_mc, seed) comes from
    default_rng(SeedSequence(seed).spawn(n_mc)[i]), bit for bit."""

    # 2**200 has more 32-bit words than SeedSequence's pool of 4
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, np.int64(7), 2**200]

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 1000])
    @pytest.mark.parametrize("seed", SEEDS + [None], ids=repr)
    def test_child_states_match_spawn(self, seed, n):
        ss = np.random.SeedSequence(seed)
        # None: the entropy SeedSequence drew is what compute_qut records
        entropy = ss.entropy
        expect = np.array([c.generate_state(4, np.uint64) for c in ss.spawn(n)])
        got = _child_states(entropy, n)
        assert got.dtype == np.uint64 and got.shape == (n, 4)
        np.testing.assert_array_equal(got, expect)

    def test_samples_bitwise_equal_block_reference(self):
        # 70 draws: three blocks of 23, 23 and 24
        rng = np.random.default_rng(12)
        n, p, n_mc = 40, 15, 70
        X = rng.normal(0, 1, (n, p))
        labels = rng.integers(0, 3, n)
        cases = [
            (REG, rng.normal(0, 1, (n, 1)), Architecture(p, (), 1), 0),
            (TaskSpec("classification", 3), np.eye(3)[labels], Architecture(p, (6,), 3),
             2**33 + 5),
            (TaskSpec("regression", 2), rng.normal(0, 1, (n, 2)),
             Architecture(p, (8, 4), 2, "softplus"), 12345),
        ]
        for task, Y, arch, seed in cases:
            children = np.random.SeedSequence(seed).spawn(n_mc)
            ref = np.empty(n_mc)
            n_blocks = ceil(n_mc / BLOCK)
            for j in range(n_blocks):
                a, b = j * n_mc // n_blocks, (j + 1) * n_mc // n_blocks
                Y0 = np.empty((n, b - a, Y.shape[1]))
                for i, child in enumerate(children[a:b]):
                    Y0[:, i, :] = sample_null(task, Y, np.random.default_rng(child))
                ref[a:b] = _block_statistics(X, Y0, task, arch)
            got = compute_qut(X, Y, task, arch, n_mc=n_mc, seed=seed)
            np.testing.assert_array_equal(got.samples, ref)

    def test_samples_do_not_depend_on_block_size(self, monkeypatch):
        rng = np.random.default_rng(14)
        n, p = 60, 20
        X = rng.normal(0, 1, (n, p))
        cases = [
            (REG, rng.normal(0, 1, (n, 1)), Architecture(p, (10,), 1)),
            (TaskSpec("regression", 2), rng.normal(0, 1, (n, 2)), Architecture(p, (8, 4), 2)),
            (TaskSpec("classification", 3), np.eye(3)[rng.integers(0, 3, n)],
             Architecture(p, (6,), 3)),
        ]
        for (task, Y, arch), n_mc in itertools.product(cases, (65, 70)):
            got = {}
            for block in (3, 7, 32, 64):
                monkeypatch.setattr(qut, "BLOCK", block)
                got[block] = compute_qut(X, Y, task, arch, n_mc=n_mc, seed=3).samples
            for block in (3, 7, 64):
                np.testing.assert_array_equal(got[block], got[32])


class TestGradientBound:
    def test_null_model_gradient_never_exceeds_statistic(self):
        # random null-model second-block parameters; the first-layer
        # gradient stays within the statistic for the same data
        rng = np.random.default_rng(9)
        n, p, h = 30, 12, 6
        X = rng.normal(0, 1, (n, p))
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        Y = rng.normal(0, 1, (n, 1))
        arch = Architecture(p, (h,), 1, "relu")
        lam0 = null_statistic(X, Y, REG, arch)
        ybar = float(np.mean(Y))
        for _ in range(100):
            params = init_params(arch, rng)
            params.w1[:] = 0.0
            params.biases[0][:] = rng.normal(0, 1.5, h)
            params.deep[0][:] = rng.normal(0, 1, (1, h))
            V, _ = normalize_rows(params.deep[0])
            hidden = np.maximum(params.biases[0], 0.0)
            params.intercept[:] = ybar - float((V @ hidden)[0])
            pred, cache = forward_cached(params, arch, X)
            np.testing.assert_allclose(pred, ybar, atol=1e-10)
            _, dpred = loss_and_grad(REG, pred, Y)
            g = backward(params, arch, cache, dpred)
            assert np.max(np.abs(g.w1)) <= lam0 + 1e-8
