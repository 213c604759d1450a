"""Annealed sparse training pipeline.

Training runs a fixed ladder of warm phases followed by one exact
sparsifying phase.  Each warm phase minimizes the data loss plus the
penalty at a milder shape and a fraction of the depth-unscaled
regularization level, using Adam with the penalty's subgradient (zero at
zero); the fractions climb a logistic schedule while the shape parameter
drops, so the objective hardens gradually instead of starting from the
nonconvex endpoint.  The final phase switches to proximal gradient steps on the
first weight matrix, with a monotone backtracking line search shared by
all blocks; its prox produces exact zeros, which define the selected
support.  Zero columns and dead rows are then pruned and the surviving
network is refit without any penalty.
"""

from dataclasses import dataclass

import numpy as np

from . import network
from .losses import loss_and_grad, loss_value, null_constant
from .penalty import penalty_value, penalty_value_and_slope, prox_vector, solve_threshold
from .qut import compute_qut, depth_scale

STATUS_CONVERGED = "Converged"
STATUS_MAX_ITERS = "MaxIters"

# Why a phase stopped: relative cost change below its tolerance, update
# budget used up, or no line-search step that descends at float
# resolution.
STOP_CONVERGED = "converged"
STOP_BUDGET = "budget"
STOP_STALLED = "stalled"

# The annealing path is part of the method.  The shape parameter of each
# warm phase; the last entry is also the exact phase's shape.
NU_SCHEDULE = (0.9, 0.7, 0.4, 0.3, 0.2, 0.1)
# Logistic ramp e**(i-1)/(1+e**(i-1)) for the warm phases, then 1.0 for
# the exact phase.
LAMBDA_FRACTIONS = tuple(
    float(np.exp(i - 1.0) / (1.0 + np.exp(i - 1.0))) for i in range(len(NU_SCHEDULE))
) + (1.0,)
# Adam's step size and moment constants, for every Adam phase
WARM_LR = 0.01
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WARM_TOL = 1e-4
FINAL_TOL = 1e-7


@dataclass
class TrainConfig:
    alpha: float = 0.05
    n_mc: int = 1000
    max_phase_iters: int = 5000
    seed: int = 0


@dataclass
class PhaseRecord:
    """One phase of a fit.  Fields hold plain floats, ints, strings and
    None only, so the record is written to model.json as it stands."""

    name: str
    lam: float
    nu: float  # None for the unpenalized refit
    iterations: int  # parameter updates applied
    initial_cost: float
    final_cost: float
    stop: str  # one of the STOP_* reasons


@dataclass
class FitResult:
    params: network.NetworkParams
    arch: network.Architecture
    selected: np.ndarray
    lambda_qut: float
    phases: list
    status: str
    train_loss: float

    def predict(self, X):
        """Predictions on a matrix with the training feature columns; only
        the selected ones are read."""
        X = np.asarray(X, dtype=np.float64)
        return network.forward(self.params, self.arch, X[:, self.selected])


class _Adam:
    """Adam with the module's constants on one flat parameter vector,
    updated in place through two scratch vectors of its own."""

    def __init__(self, size):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._a = np.empty(size)
        self._b = np.empty(size)

    def step(self, x, g, t):
        # update number t >= 1: x -= lr * (m / c1) / (sqrt(v / c2) + eps),
        # one rounding per operation in the order written
        c1 = 1.0 - ADAM_BETA1 ** t
        c2 = 1.0 - ADAM_BETA2 ** t
        m, v, a, b = self.m, self.v, self._a, self._b
        np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        m *= ADAM_BETA1
        m += a
        np.multiply(g, g, out=a)
        a *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += a
        np.divide(m, c1, out=a)
        a *= WARM_LR
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        x -= a


def ista_step(params, grads, spec, step):
    """One joint proximal-gradient update: a gradient step on every
    parameter, then the prox of the penalized first matrix at effective
    regularization step*lam.  Returns new params."""
    out = params.like(params.flat - step * grads.flat)
    out.w1[...] = prox_vector(out.w1, spec, step)
    return out


def _adam_phase(params, arch, X, Y, task, cfg, lam, nu, tol, name):
    """Adam on the data loss plus lam times the penalty on w1 at shape nu,
    with the penalty's subgradient (zero at zero); nu=None drops the
    penalty term.  Stops when the relative cost change falls below tol or
    after cfg.max_phase_iters updates.  Updates params in place and
    returns its PhaseRecord."""
    adam = _Adam(params.flat.size)
    g = params.like(np.empty_like(params.flat))
    prev = None
    # one pass more than the budget, to price the last update
    for it in range(cfg.max_phase_iters + 1):
        pred, cache = network.forward_cached(params, arch, X)
        ls, dpred = loss_and_grad(task, pred, Y)
        cost = ls
        if nu is not None:
            pen, slope = penalty_value_and_slope(params.w1, nu)
            cost = ls + lam * float(pen.sum())
        if it == 0:
            initial = cost
        if it == cfg.max_phase_iters:
            stop = STOP_BUDGET
            break
        if prev is not None and abs(cost - prev) / max(1.0, prev) < tol:
            stop = STOP_CONVERGED
            break
        network.backward(params, arch, cache, dpred, out=g)
        if nu is not None:
            slope *= lam
            g.w1 += slope
        adam.step(params.flat, g.flat, it + 1)
        prev = cost
    return PhaseRecord(name, lam, nu, it, float(initial), float(cost), stop)


def _final_phase(params, arch, X, Y, task, lam, nu, cfg):
    """Proximal gradient steps on the full penalized cost, with a monotone
    backtracking line search shared by all blocks.  Each candidate is
    priced once, loss and loss gradient together, so an accepted
    candidate's pricing serves the next gradient.  Returns
    (params, PhaseRecord)."""
    spec = solve_threshold(lam, nu)

    def evaluate(p):
        pred, cache = network.forward_cached(p, arch, X)
        ls, dpred = loss_and_grad(task, pred, Y)
        cost = ls + lam * float(penalty_value(p.w1, nu).sum())
        return cost, dpred, cache

    cur, dpred, cache = evaluate(params)
    g = params.like(np.empty_like(params.flat))
    initial = cur
    step = 1.0
    updates = 0
    stop = STOP_BUDGET
    for _ in range(cfg.max_phase_iters):
        network.backward(params, arch, cache, dpred, out=g)
        trial = step
        for k in range(31):
            cand = ista_step(params, g, spec, trial)
            cand_cost, cand_dpred, cand_cache = evaluate(cand)
            if cand_cost <= cur + 1e-12 * max(1.0, abs(cur)):
                break
            trial *= 0.5
        else:
            # no descent representable at float resolution
            stop = STOP_STALLED
            break
        params, dpred, cache = cand, cand_dpred, cand_cache
        updates += 1
        improve = (cur - cand_cost) / max(1.0, cur)
        cur = cand_cost
        step = min(2.0 * trial, 2.0 ** 20) if k == 0 else trial
        if improve < FINAL_TOL:
            stop = STOP_CONVERGED
            break
    return params, PhaseRecord("sparsify", lam, nu, updates, float(initial), float(cur), stop)


def _status(phases):
    """MaxIters if any phase used up its budget, else Converged (a stalled
    line search included)."""
    if any(ph.stop == STOP_BUDGET for ph in phases):
        return STATUS_MAX_ITERS
    return STATUS_CONVERGED


def fit(X, Y, task, arch, config=None, lambda_qut=None):
    """Run the full pipeline on standardized features.

    Returns a FitResult holding the pruned network, the selected feature
    indices (into X's columns), the regularization level, per-phase
    records, and a status: MaxIters if any phase exhausted its budget,
    else Converged.
    """
    cfg = config if config is not None else TrainConfig()
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y must be 2-d with matching sample counts")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    if X.shape[1] != arch.input_dim:
        raise ValueError("X has %d columns, architecture wants %d" % (X.shape[1], arch.input_dim))
    if Y.shape[1] != task.n_outputs or arch.output_dim != task.n_outputs:
        raise ValueError("output dimension mismatch")
    if not isinstance(cfg.seed, (int, np.integer)) or cfg.seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if not isinstance(cfg.max_phase_iters, (int, np.integer)) or cfg.max_phase_iters < 1:
        raise ValueError("max_phase_iters must be an integer >= 1")

    if lambda_qut is None:
        est = compute_qut(X, Y, task, arch, alpha=cfg.alpha, n_mc=cfg.n_mc, seed=cfg.seed)
        lambda_qut = est.lambda_qut
    lambda_qut = float(lambda_qut)

    # SeedSequence(seed)'s children draw the null, its root the weights
    params = network.init_params(arch, np.random.default_rng(cfg.seed))

    # Warm phases anneal at the depth-unscaled level.  The depth factor in
    # the regularization exists to dominate worst-case deep-weight
    # compensation at the null; applied from the first warm phase it crushes
    # the first layer before any structure forms (for targets with even
    # symmetry the entries cannot regrow), so only the sparsifying phase
    # uses the full level.  For one hidden layer the factor is 1 and the
    # schedule is unchanged.
    warm_base = lambda_qut / depth_scale(arch)

    phases = []
    for i, (frac, nu) in enumerate(zip(LAMBDA_FRACTIONS[:-1], NU_SCHEDULE)):
        phases.append(_adam_phase(
            params, arch, X, Y, task, cfg, frac * warm_base, nu, WARM_TOL, "warm%d" % i
        ))
    params, rec = _final_phase(params, arch, X, Y, task, lambda_qut, NU_SCHEDULE[-1], cfg)
    phases.append(rec)

    pruned, parch, selected = network.prune(params, arch)
    Xs = X[:, selected]
    if selected.size == 0:
        pruned.intercept[...] = null_constant(task, Y)
        cost = float(loss_value(task, network.forward(pruned, parch, Xs), Y))
        phases.append(PhaseRecord("refit", 0.0, None, 0, cost, cost, STOP_CONVERGED))
    else:
        phases.append(_adam_phase(
            pruned, parch, Xs, Y, task, cfg, 0.0, None, FINAL_TOL, "refit"
        ))

    # the refit prices the returned parameters before it stops
    return FitResult(
        params=pruned,
        arch=parch,
        selected=selected,
        lambda_qut=lambda_qut,
        phases=phases,
        status=_status(phases),
        train_loss=phases[-1].final_cost,
    )
