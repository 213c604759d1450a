"""Training losses and their null-model constants.

Regression uses the square root of the summed squared residuals rather
than the sum itself.  That choice makes the ratio statistic behind the
automatic regularization level independent of the noise scale, which is
what lets one null quantile serve every dataset.  Classification uses
the summed cross entropy of softmax(pred), which predict reuses.  Both
losses are defined once, in loss_and_grad; loss_value is its value half.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

TASKS = ("regression", "classification")


@dataclass(frozen=True)
class TaskSpec:
    """What the model predicts: 'regression' with n_outputs response
    columns, or 'classification' with n_outputs classes (>= 2)."""

    kind: str
    n_outputs: int

    def __post_init__(self):
        if self.kind not in TASKS:
            raise ValueError("kind must be 'regression' or 'classification'")
        if self.kind == "classification" and self.n_outputs < 2:
            raise ValueError("classification needs at least 2 classes")
        if self.n_outputs < 1:
            raise ValueError("n_outputs must be positive")


def _check(task, pred, Y):
    if pred.shape != Y.shape:
        raise ValueError("pred shape %r != target shape %r" % (pred.shape, Y.shape))
    if pred.ndim != 2 or pred.shape[1] != task.n_outputs:
        raise ValueError("expected (n, %d) arrays" % task.n_outputs)


def loss_value(task, pred, Y):
    """Scalar data-fit term. Sum convention over samples, no 1/n."""
    return loss_and_grad(task, pred, Y)[0]


def loss_and_grad(task, pred, Y):
    """Loss value together with its gradient in the predictions.

    For regression the gradient is the normalized negative residual; at an
    exactly zero residual the loss is nondifferentiable and the zero
    subgradient is returned, which avoids a 0/0.
    """
    pred = np.asarray(pred, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    _check(task, pred, Y)
    if task.kind == "regression":
        R = Y - pred
        r = R.ravel(order="K")
        # what np.linalg.norm computes for a float array, without its wrapper
        val = math.sqrt(r.dot(r))
        if val == 0.0:
            return 0.0, np.zeros_like(pred)
        np.negative(R, out=R)
        R /= val
        return val, R
    P, logz = softmax(pred)
    val = float(np.sum(logz) - np.sum(pred * Y))
    return val, P - Y


def softmax(pred):
    """Row probabilities and row log normalizers of (n, k) logits, by the
    stabilized log-sum-exp: subtracting the row max leaves both exact."""
    m = np.max(pred, axis=1, keepdims=True)
    e = np.exp(pred - m)
    s = np.sum(e, axis=1, keepdims=True)
    return e / s, m[:, 0] + np.log(s[:, 0])


def null_constant(task, Y):
    """Best constant prediction: the response mean for regression, the
    mean-zero-shifted log class proportions for classification.

    Classes absent from Y get proportion 1/(2n) before renormalizing, so
    the logits stay finite; a warning reports the clamp.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2:
        raise ValueError("Y must be 2-d")
    if task.kind == "regression":
        return np.mean(Y, axis=0)
    n = Y.shape[0]
    p = np.mean(Y, axis=0)
    if np.any(p == 0.0):
        warnings.warn(
            "empty class in training labels; clamping its proportion to 1/(2n)",
            stacklevel=2,
        )
        p = np.where(p == 0.0, 1.0 / (2.0 * n), p)
        p = p / np.sum(p)
    c = np.log(p)
    return c - np.mean(c)
