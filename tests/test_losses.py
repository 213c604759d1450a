import numpy as np
import pytest

from qutsparse.losses import TaskSpec, loss_and_grad, loss_value, null_constant

REG = TaskSpec("regression", 1)
CLS2 = TaskSpec("classification", 2)

LOG2 = 0.6931471805599453


class TestRegressionLoss:
    def test_known_value(self):
        Y = np.array([[1.0], [2.0], [3.0]])
        pred = np.array([[1.0], [1.0], [1.0]])
        assert loss_value(REG, pred, Y) == pytest.approx(np.sqrt(5.0))

    def test_scale_homogeneous(self):
        # the square-root form scales linearly with the residual scale
        rng = np.random.default_rng(2)
        Y = rng.normal(0, 1, (30, 1))
        pred = rng.normal(0, 1, (30, 1))
        base = loss_value(REG, pred, Y)
        assert loss_value(REG, 3.0 * pred, 3.0 * Y) == pytest.approx(3.0 * base)

    def test_zero_residual(self):
        Y = np.ones((4, 1))
        val, g = loss_and_grad(REG, Y.copy(), Y)
        assert val == 0.0
        assert np.all(g == 0.0)

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(5)
        Y = rng.normal(0, 1, (12, 1))
        pred = rng.normal(0, 1, (12, 1))
        val, g = loss_and_grad(REG, pred, Y)
        h = 1e-6
        for idx in [(0, 0), (5, 0), (11, 0)]:
            up = pred.copy()
            up[idx] += h
            dn = pred.copy()
            dn[idx] -= h
            fd = (loss_value(REG, up, Y) - loss_value(REG, dn, Y)) / (2 * h)
            assert g[idx] == pytest.approx(fd, rel=1e-5)


class TestClassificationLoss:
    def test_known_value_uniform_logits(self):
        # equal logits over 2 classes cost log 2 per sample
        Y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        pred = np.zeros((3, 2))
        assert loss_value(CLS2, pred, Y) == pytest.approx(3 * LOG2)

    def test_shift_invariant_rows(self):
        rng = np.random.default_rng(3)
        Y = np.eye(3)[rng.integers(0, 3, 20)]
        task = TaskSpec("classification", 3)
        pred = rng.normal(0, 2, (20, 3))
        shifted = pred + rng.normal(0, 5, (20, 1))
        assert loss_value(task, pred, Y) == pytest.approx(loss_value(task, shifted, Y))

    def test_stable_for_large_logits(self):
        Y = np.array([[1.0, 0.0]])
        pred = np.array([[1000.0, -1000.0]])
        assert loss_value(CLS2, pred, Y) == pytest.approx(0.0, abs=1e-12)
        val, g = loss_and_grad(CLS2, pred, Y)
        assert np.all(np.isfinite(g))

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        Y = np.eye(2)[rng.integers(0, 2, 50)]
        pred = rng.normal(0, 3, (50, 2))
        assert loss_value(CLS2, pred, Y) >= 0.0

    def test_grad_is_softmax_minus_target(self):
        rng = np.random.default_rng(9)
        Y = np.eye(2)[rng.integers(0, 2, 10)]
        pred = rng.normal(0, 2, (10, 2))
        _, g = loss_and_grad(CLS2, pred, Y)
        e = np.exp(pred - pred.max(axis=1, keepdims=True))
        sm = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(g, sm - Y, rtol=1e-12)


def reference_loss(task, pred, Y):
    """loss_value as a formula of its own: np.linalg.norm for regression,
    a log-sum-exp over rows for classification."""
    pred = np.asarray(pred, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if task.kind == "regression":
        return float(np.linalg.norm(Y - pred))
    m = np.max(pred, axis=1, keepdims=True)
    logz = m[:, 0] + np.log(np.sum(np.exp(pred - m), axis=1))
    return float(np.sum(logz) - np.sum(pred * Y))


def _regression_case(k, zero):
    rng = np.random.default_rng(40 + k)
    Y = rng.normal(0, 3, (57, k))
    return Y.copy() if zero else Y + rng.normal(0, 1, Y.shape), Y


def _classification_case(k):
    rng = np.random.default_rng(50 + k)
    return rng.normal(0, 4, (61, k)), np.eye(k)[rng.integers(0, k, 61)]


class TestOneLossDefinition:
    """loss_value is the value half of loss_and_grad, and both give the
    bits of the stand-alone formula."""

    @pytest.mark.parametrize("task,pred,Y", [
        (REG, *_regression_case(1, zero=False)),
        (REG, *_regression_case(1, zero=True)),
        (TaskSpec("regression", 3), *_regression_case(3, zero=False)),
        (TaskSpec("regression", 3), *_regression_case(3, zero=True)),
        (CLS2, *_classification_case(2)),
        (TaskSpec("classification", 3), *_classification_case(3)),
    ], ids=["reg", "reg-zero", "reg-3out", "reg-3out-zero", "cls2", "cls3"])
    def test_bitwise_equal_to_reference(self, task, pred, Y):
        want = reference_loss(task, pred, Y)
        for got in (loss_value(task, pred, Y), loss_and_grad(task, pred, Y)[0]):
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestNullConstant:
    def test_regression_mean(self):
        Y = np.array([[1.0], [2.0], [6.0]])
        np.testing.assert_allclose(null_constant(REG, Y), [3.0])

    def test_classification_balanced(self):
        Y = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(null_constant(CLS2, Y), [0.0, 0.0], atol=1e-15)

    def test_classification_mean_zero_and_proportions(self):
        Y = np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]])
        c = null_constant(CLS2, Y)
        assert np.sum(c) == pytest.approx(0.0, abs=1e-12)
        p = np.exp(c) / np.sum(np.exp(c))
        np.testing.assert_allclose(p, [0.75, 0.25], rtol=1e-12)

    def test_minimizes_loss_over_constants(self):
        rng = np.random.default_rng(4)
        Y = np.eye(2)[rng.integers(0, 2, 40).tolist() + [0] * 10]
        c = null_constant(CLS2, Y)
        best = loss_value(CLS2, np.tile(c, (Y.shape[0], 1)), Y)
        for _ in range(200):
            trial = c + rng.normal(0, 0.2, 2)
            assert loss_value(CLS2, np.tile(trial, (Y.shape[0], 1)), Y) >= best - 1e-9

    def test_empty_class_clamped(self):
        Y = np.array([[1.0, 0.0]] * 5)
        with pytest.warns(UserWarning):
            c = null_constant(CLS2, Y)
        assert np.all(np.isfinite(c))
        assert np.sum(c) == pytest.approx(0.0, abs=1e-12)


def test_task_validation():
    with pytest.raises(ValueError):
        TaskSpec("ranking", 1)
    with pytest.raises(ValueError):
        TaskSpec("classification", 1)
    with pytest.raises(ValueError):
        loss_value(REG, np.zeros((3, 1)), np.zeros((4, 1)))
