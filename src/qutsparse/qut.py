"""Automatic regularization level from a Monte Carlo null quantile.

Under the all-features-irrelevant null, the smallest regularization that
zeroes the first weight matrix is a computable statistic of (X, Y).  The
regularization level is set to an upper quantile of that statistic with
the response replaced by null draws, so the probability of keeping any
feature on pure noise is capped at alpha.  For regression the statistic
is scale-free (the square-root loss divides the residual norm out), so
the null draws need no variance estimate.
"""

from dataclasses import dataclass
from math import ceil, prod

import numpy as np


@dataclass
class QutEstimate:
    lambda_qut: float
    alpha: float
    n_mc: int
    seed: object
    samples: np.ndarray

    def to_dict(self):
        seed = self.seed if isinstance(self.seed, int) else list(self.seed)
        return {
            "lambda_qut": float(self.lambda_qut),
            "alpha": float(self.alpha),
            "n_mc": int(self.n_mc),
            "seed": seed,
            "samples": [float(s) for s in self.samples],
        }


def depth_scale(arch):
    """Multiplier carrying the network depth into the null statistic: the
    square root of the product of the hidden widths past the first."""
    # the bound's (sup activation derivative)**(L-1) factor is 1: every
    # supported activation has derivative bounded by 1
    return float(np.sqrt(prod(float(h) for h in arch.hidden[1:])))


# Null draws per GEMM.  At 128 OpenBLAS threads the GEMM: compute_qut at 70x250
# in two parallel sweep workers then took 86 ms against 40-44 ms at 32.  One
# n_mc-draw block would also add about 5 MB of peak memory at 300x80.
BLOCK = 32


def _block_statistics(X, Y, task, arch):
    """Null statistic of each draw in Y, of shape (n, k, m), where draw i
    is the response matrix Y[:, i, :]."""
    n, k, m = Y.shape
    Yc = Y - np.mean(Y, axis=0)
    G = X.T @ Yc.reshape(n, k * m)
    stat = np.max(np.sum(np.abs(G).reshape(-1, k, m), axis=2), axis=0)
    if task.kind == "regression":
        denom = np.sqrt(np.einsum("ikj,ikj->k", Yc, Yc))
        if np.any(denom == 0.0):
            raise ValueError("constant response; the null statistic is undefined")
        stat /= denom
    return stat * depth_scale(arch)


def null_statistic(X, Y, task, arch):
    """Largest first-layer gradient magnitude attainable at the null model,
    for one response matrix.  Row norm is l1 across outputs; regression
    divides by the centered-response norm."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    return float(_block_statistics(X, Y[:, None, :], task, arch)[0])


def sample_null(task, Y, rng):
    """One null response draw: standard normal columns for regression,
    one-hot rows with class probabilities from Y's proportions for
    classification."""
    Y = np.asarray(Y, dtype=np.float64)
    n, m = Y.shape
    if task.kind == "regression":
        return rng.standard_normal((n, m))
    p = np.mean(Y, axis=0)
    p = p / np.sum(p)
    idx = rng.choice(m, size=n, p=p)
    return np.eye(m)[idx]


def compute_qut(X, Y, task, arch, alpha=0.05, n_mc=1000, seed=0):
    """Monte Carlo estimate of the null quantile.

    Every draw uses its own counter-derived generator, so the samples do
    not depend on how the draws are grouped for evaluation.  The quantile
    is the plain ascending order statistic at ceil((1-alpha)*n_mc), no
    interpolation.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be inside (0, 1)")
    if n_mc < 1:
        raise ValueError("n_mc must be positive")
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    children = np.random.SeedSequence(seed).spawn(n_mc)
    samples = np.empty(n_mc)
    for a in range(0, n_mc, BLOCK):
        block = children[a:a + BLOCK]
        Y0 = np.empty((Y.shape[0], len(block), Y.shape[1]))
        for i, child in enumerate(block):
            Y0[:, i, :] = sample_null(task, Y, np.random.default_rng(child))
        samples[a:a + len(block)] = _block_statistics(X, Y0, task, arch)
    k = ceil((1.0 - alpha) * n_mc)
    lam = float(np.sort(samples)[k - 1])
    return QutEstimate(lambda_qut=lam, alpha=alpha, n_mc=n_mc, seed=seed, samples=samples)
