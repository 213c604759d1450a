"""Independent references the benchmark checks the program against.

Nothing here calls into qutsparse: the regularization level, the prox and
the sweep datasets are recomputed from their definitions.
"""

from functools import lru_cache
from math import ceil

import numpy as np

LAMBDA_RTOL = 1e-12
PROX_ATOL = 1e-9


def lambda_from_definition(X, Y, hidden, alpha=0.05, n_mc=1000, seed=0):
    """The (1 - alpha) order statistic of max-row-l1(X^T Y0c) / ||Y0c||
    times the depth scale, over standard normal null draws Y0 taken from
    the per-draw SeedSequence children of ``seed`` (``qutsparse qut``
    passes its --seed, 0 by default).  The depth scale is
    sqrt(prod(hidden[1:])): every supported activation has derivative
    bounded by 1."""
    Y0c, norms = _null_draws(Y.shape, n_mc, seed)
    G = np.einsum("ip,kim->kpm", X, Y0c)
    stats = np.abs(G).sum(axis=2).max(axis=1) / norms
    stats *= np.sqrt(float(np.prod(hidden[1:])))
    k = ceil((1.0 - alpha) * n_mc)
    return float(np.sort(stats)[k - 1])


@lru_cache(maxsize=4)
def _null_draws(shape, n_mc, seed):
    """Centred null responses and their norms; the same for every dataset
    of one shape, so they are drawn once."""
    children = np.random.SeedSequence(seed).spawn(n_mc)
    Y0 = np.stack([np.random.default_rng(c).standard_normal(shape) for c in children])
    Y0c = Y0 - Y0.mean(axis=1, keepdims=True)
    return Y0c, np.sqrt((Y0c * Y0c).sum(axis=(1, 2)))


def lambda_agrees(program_lambda, reference):
    return abs(program_lambda - reference) <= LAMBDA_RTOL * abs(reference)


def _objective(theta, z, lam, nu):
    return 0.5 * (z - theta) ** 2 + lam * theta / (1.0 + theta ** (1.0 - nu))


def _stationarity(theta, z, lam, nu):
    t = theta ** (1.0 - nu)
    return theta - z + lam * (1.0 + nu * t) / (1.0 + t) ** 2


def prox_oracle_counts(v, lam, nu, out, grid=64):
    """(entries checked, entries off by more than PROX_ATOL) for one prox
    call with effective level lam.

    The reference minimizes 0.5*(y - theta)**2 + lam*pen(theta) per entry
    over the candidates {0} and an interior minimum of [0, |y|]: a grid
    locates the basin, then a bounded scipy refine (brentq on the
    stationarity equation, or a bounded Brent search when the bracket has
    no sign change) polishes it.  An entry whose two candidates tie in
    objective is counted right for either.
    """
    from scipy.optimize import brentq, minimize_scalar

    y = np.asarray(v, dtype=np.float64).ravel()
    got = np.asarray(out, dtype=np.float64).ravel()
    z = np.abs(y)
    f0 = 0.5 * z * z
    if lam == 0.0:
        return y.size, int(np.sum(np.abs(got - y) > PROX_ATOL))
    g = z[:, None] * (np.arange(1, grid + 1) / grid)[None, :]
    fg = _objective(g, z[:, None], lam, nu)
    k = np.argmin(fg, axis=1)
    fmin = fg[np.arange(z.size), k]
    slack = 4.0 * (1.0 + lam) * (z / grid) ** 2
    refine = (z > 0.0) & ((fmin < f0 + slack) | (got != 0.0))
    best = np.zeros_like(z)
    for i in np.flatnonzero(refine):
        zi = z[i]
        lo = zi * max(k[i], 1e-3) / grid
        hi = zi * min(k[i] + 2, grid) / grid
        h_lo = _stationarity(lo, zi, lam, nu)
        h_hi = _stationarity(hi, zi, lam, nu)
        if h_lo < 0.0 < h_hi:
            theta = brentq(_stationarity, lo, hi, args=(zi, lam, nu), xtol=1e-15)
        else:
            theta = minimize_scalar(
                _objective, bounds=(lo, hi), args=(zi, lam, nu), method="bounded",
                options={"xatol": 1e-13},
            ).x
        if _objective(theta, zi, lam, nu) < f0[i]:
            best[i] = theta
    ref = np.sign(y) * best
    off = np.abs(got - ref) > PROX_ATOL
    if np.any(off):
        idx = np.flatnonzero(off)
        f_got = _objective(np.abs(got[idx]), z[idx], lam, nu)
        f_ref = _objective(best[idx], z[idx], lam, nu)
        tie = np.abs(f_got - f_ref) <= 1e-12 * np.maximum(1.0, f0[idx])
        same_sign = (got[idx] == 0.0) | (np.sign(got[idx]) == np.sign(y[idx]))
        off[idx[tie & same_sign]] = False
    return y.size, int(np.sum(off))


def sweep_dataset(kind, n, p, s, n_test, seed, run):
    """Training response and test truth of one sweep trial, drawn as the
    sweep documents it: SeedSequence([seed, s, run]) spawns the data
    stream first; X, the sorted support, the linear coefficients, the
    noise and the test inputs are drawn in that order.

    Returns (support, y_mean, mu_test)."""
    data_ss, _ = np.random.SeedSequence([int(seed), int(s), int(run)]).spawn(2)
    rng = np.random.default_rng(data_ss)
    X = rng.normal(size=(n, p))
    support = np.sort(rng.choice(p, size=s, replace=False)).astype(int)
    beta = None
    if kind == "linear" and s > 0:
        beta = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], size=s)
    mu_train = _truth(kind, X[:, support], beta)
    y = mu_train + rng.standard_normal(n)
    X_test = rng.normal(size=(n_test, p))
    return support, float(np.mean(y)), _truth(kind, X_test[:, support], beta)


def _truth(kind, Xs, beta):
    if Xs.shape[1] == 0:
        return np.zeros(Xs.shape[0])
    if kind == "linear":
        return Xs @ beta
    raise ValueError("no truth defined for sweep kind %r" % kind)


def false_discovery(selected, support):
    est = set(selected)
    return len(est - set(support)) / max(len(est), 1)
