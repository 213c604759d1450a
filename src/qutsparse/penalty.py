"""Nonconvex sparsity penalty, its thresholding constants, and the exact
proximal operator.

The penalty ``|t| / (1 + |t|**(1 - nu))`` interpolates between half the
absolute value at nu = 1 and an l0-like shape as nu drops toward 0.  Its
univariate prox is a thresholding rule with a discontinuity: below the
threshold the minimizer is exactly 0, just above it the minimizer jumps
to a positive value.  Threshold and jump solve a two-equation system
that only depends on (lam, nu), so they are computed once and cached.

Above the threshold every entry needs its own bracketed Newton
root-find, with a data-dependent iteration count.  One vectorized numpy
kernel runs them all over a shrinking working set; the test suite checks
it against a scalar loop on every run.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class PenaltySpec:
    """Regularization level, shape parameter, and the derived thresholding
    constants.  Immutable so specs can be shared across workers."""

    lam: float
    nu: float
    threshold: float
    jump: float


def _validate(lam, nu):
    if not math.isfinite(lam) or lam < 0.0:
        raise ValueError("lam must be a finite nonnegative real, got %r" % lam)
    if not (0.0 < nu <= 1.0):
        raise ValueError("nu must lie in (0, 1], got %r" % nu)


def penalty_value(theta, nu):
    """Elementwise penalty.  Works on scalars and arrays; nu = 1 reduces to
    |theta| / 2 because |theta|**0 evaluates to 1."""
    _validate(0.0, nu)
    a = np.abs(theta)
    return a / (1.0 + a ** (1.0 - nu))


def penalty_slope(theta, nu):
    """Derivative of the penalty for theta != 0, with the subgradient choice
    0 at theta = 0 (np.sign supplies it).

    Training calls penalty_value_and_slope instead.  This one stays as an
    exported name, as the bit-for-bit oracle of that function in
    tests/test_penalty.py, and because perfbench/tracing.py wraps it by name.
    """
    _validate(0.0, nu)
    t = np.abs(theta) ** (1.0 - nu)
    return np.sign(theta) * (1.0 + nu * t) / (1.0 + t) ** 2


def penalty_value_and_slope(theta, nu):
    """penalty_value and penalty_slope of a float array from one shared
    |theta|**(1 - nu); each result equals its single-purpose counterpart
    bit for bit."""
    _validate(0.0, nu)
    a = np.abs(theta)
    t = a ** (1.0 - nu)
    d = 1.0 + t
    value = np.divide(a, d, out=a)
    # sign(theta) * (1 + nu*t) / d**2 in place in t
    t *= nu
    t += 1.0
    np.multiply(np.sign(theta), t, out=t)
    np.multiply(d, d, out=d)
    t /= d
    return value, t


def _solve_jump(lam, nu):
    """Positive root of the jump equation for 0 < nu < 1, lam > 0."""
    # Monotone reformulation t**(1 - nu/2) + t**(nu/2) = sqrt(2*lam*(1-nu)).
    # AM-GM puts the root inside (0, lam*(1-nu)/2], and both powers are
    # increasing there, so plain bisection is safe.
    target = math.sqrt(2.0 * lam * (1.0 - nu))
    lo = 0.0
    hi = lam * (1.0 - nu) / 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g = mid ** (1.0 - 0.5 * nu) + mid ** (0.5 * nu)
        if g < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _prox_magnitudes(z, lam, nu, phi, kappa):
    """Componentwise prox on an array of nonnegative magnitudes.

    Entries at or below ``phi`` map to 0.  Each one above it solves the
    stationarity equation theta - z + lam*(1 + nu*t)/(1 + t)**2 = 0,
    t = theta**(1 - nu), whose one root in [kappa, z] is the minimizer
    (the lower end excludes the spurious local max): Newton from z,
    clipped to a shrinking sign bracket with bisection fallback.  An
    entry is tested for convergence before it is updated; once it passes
    it is frozen and leaves the working set, so later iterations never
    move it."""
    out = np.zeros_like(z)
    idx = np.flatnonzero(z > phi)
    zw = z[idx]
    lo = np.full_like(zw, kappa)
    hi = zw.copy()
    theta = zw.copy()
    tol = 1e-14 * (1.0 + zw)
    one_m = 1.0 - nu
    for _ in range(100):
        if idx.size == 0:
            break
        t = theta ** one_m
        d = 1.0 + t
        d2 = d * d
        nut = nu * t
        h = theta - zw + lam * (1.0 + nut) / d2
        pos = h > 0.0
        hi = np.where(pos, theta, hi)
        lo = np.where(pos, lo, theta)
        mid = 0.5 * (lo + hi)
        done = np.abs(h) < tol
        hp = 1.0 - lam * one_m * theta ** (-nu) * ((2.0 - nu) + nut) / (d2 * d)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            cand = np.where(hp > 0.0, theta - h / hp, mid)
        # keep cand only strictly inside (lo, hi); a NaN or infinite cand
        # never is, as lo > -inf and no NaN enters lo or hi
        cand = np.where((cand > lo) & (cand < hi), cand, mid)
        # done, or stalled: a step below float resolution
        stop = done | (np.abs(cand - theta) < 1e-15 * (1.0 + theta))
        theta = np.where(done, theta, cand)
        if stop.any():
            out[idx[stop]] = theta[stop]
            run = ~stop
            idx, zw, tol, lo, hi, theta = idx[run], zw[run], tol[run], lo[run], hi[run], theta[run]
    out[idx] = theta
    return out


@lru_cache(maxsize=4096)
def _threshold_pair(lam, nu):
    # The backtracking line search revisits the same dyadic ladder of
    # effective lam values, so caching removes nearly all bisection work.
    if lam == 0.0:
        return 0.0, 0.0
    if nu == 1.0:
        return 0.5 * lam, 0.0
    kappa = _solve_jump(lam, nu)
    phi = 0.5 * kappa + lam / (1.0 + kappa ** (1.0 - nu))
    return phi, kappa


def solve_threshold(lam, nu):
    """Thresholding constants for one (lam, nu) pair.

    Returns a PenaltySpec whose ``threshold`` is the largest magnitude
    mapped to zero and whose ``jump`` is the right-limit of the prox at
    the threshold.  nu = 1 gives the soft-threshold pair (lam/2, 0).
    """
    _validate(lam, nu)
    lam = float(lam)
    nu = float(nu)
    phi, kappa = _threshold_pair(lam, nu)
    return PenaltySpec(lam=lam, nu=nu, threshold=phi, jump=kappa)


def prox(y, spec):
    """Exact scalar prox: argmin over theta of
    0.5*(y - theta)**2 + lam * penalty(theta).

    Ties at |y| == threshold resolve to 0.
    """
    return float(prox_vector(np.array([y], dtype=np.float64), spec)[0])


def prox_vector(v, spec, step=1.0):
    """Componentwise prox with effective regularization ``step * lam``.

    This is the shape used inside a proximal gradient iteration, where the
    step size scales the penalty seen by the univariate problems.  Returns
    an array of v's shape with exact zeros below the effective threshold.
    """
    if step <= 0.0 or not np.isfinite(step):
        raise ValueError("step must be positive and finite, got %r" % step)
    v = np.asarray(v, dtype=np.float64)
    eff = step * spec.lam
    if eff == 0.0:
        return v.copy()
    if spec.nu == 1.0:
        return np.sign(v) * np.maximum(np.abs(v) - 0.5 * eff, 0.0)
    phi, kappa = _threshold_pair(eff, spec.nu)
    mags = _prox_magnitudes(np.abs(v).ravel(), eff, spec.nu, phi, kappa)
    return (np.sign(v).ravel() * mags).reshape(v.shape)
