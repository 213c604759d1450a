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
STATUS_PERFECT = "PerfectFit"

# Why a phase stopped: relative cost change below its tolerance, update
# budget used up, exactly zero regression residual, or no line-search
# step that descends at float resolution.
STOP_CONVERGED = "converged"
STOP_BUDGET = "budget"
STOP_PERFECT = "perfect"
STOP_STALLED = "stalled"

# The annealing path is part of the method.  The shape parameter of each
# warm phase; the last entry is also the exact phase's shape.
NU_SCHEDULE = (0.9, 0.7, 0.4, 0.3, 0.2, 0.1)
# Logistic ramp e**(i-1)/(1+e**(i-1)) for the warm phases, then 1.0 for
# the exact phase.
LAMBDA_FRACTIONS = tuple(
    float(np.exp(i - 1.0) / (1.0 + np.exp(i - 1.0))) for i in range(len(NU_SCHEDULE))
) + (1.0,)
WARM_LR = 0.01
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
    name: str
    lam: float
    nu: float
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
    task: object

    def predict(self, X):
        """Predictions on a matrix with the training feature columns; only
        the selected ones are read."""
        X = np.asarray(X, dtype=np.float64)
        return network.forward(self.params, self.arch, X[:, self.selected])


class _Adam:
    """Adam on one flat parameter vector."""

    def __init__(self, size, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, x, g):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        m, v = self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * (g * g)
        x -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def ista_step(params, grads, spec, step):
    """One joint proximal-gradient update: a gradient step on every
    parameter, then the prox of the penalized first matrix at effective
    regularization step*lam.  Returns new params."""
    out = params.like(params.flat - step * grads.flat)
    out.w1 = prox_vector(out.w1, spec, step)
    return out


def _adam_phase(params, arch, X, Y, task, cfg, lam, nu, tol, name):
    """Adam on the data loss plus lam times the penalty on w1 at shape nu,
    with the penalty's subgradient (zero at zero); nu=None drops the
    penalty term.  Stops when the relative cost change falls below tol,
    on an exactly zero regression residual, or after cfg.max_phase_iters
    updates.  Updates params in place and returns its PhaseRecord."""
    adam = _Adam(params.flat.size, WARM_LR)
    prev = None
    initial = None
    stop = STOP_BUDGET
    for _ in range(cfg.max_phase_iters):
        pred, cache = network.forward_cached(params, arch, X)
        ls, dpred = loss_and_grad(task, pred, Y)
        cost = ls
        if nu is not None:
            pen, slope = penalty_value_and_slope(params.w1, nu)
            cost = ls + lam * float(np.sum(pen))
        if initial is None:
            initial = cost
        if task.kind == "regression" and ls == 0.0:
            stop = STOP_PERFECT
            break
        if prev is not None and abs(cost - prev) / max(1.0, prev) < tol:
            stop = STOP_CONVERGED
            break
        g = network.backward(params, arch, cache, dpred)
        if nu is not None:
            g.w1 += lam * slope
        adam.step(params.flat, g.flat)
        prev = cost
    if stop == STOP_BUDGET:
        cost = loss_value(task, network.forward(params, arch, X), Y)
        if nu is not None:
            cost += lam * float(np.sum(penalty_value(params.w1, nu)))
    if initial is None:
        initial = cost
    return PhaseRecord(name, lam, nu, adam.t, float(initial), float(cost), stop)


def _final_phase(params, arch, X, Y, task, lam, nu, cfg):
    """Proximal gradient steps on the full penalized cost, with a monotone
    backtracking line search shared by all blocks.  Each accepted
    candidate's forward pass serves the next gradient.  Returns
    (params, PhaseRecord)."""
    spec = solve_threshold(lam, nu)

    def evaluate(p):
        pred, cache = network.forward_cached(p, arch, X)
        cost = loss_value(task, pred, Y) + lam * float(np.sum(penalty_value(p.w1, nu)))
        return cost, pred, cache

    cur, pred, cache = evaluate(params)
    initial = cur
    step = 1.0
    updates = 0
    stop = STOP_BUDGET
    for _ in range(cfg.max_phase_iters):
        ls, dpred = loss_and_grad(task, pred, Y)
        if task.kind == "regression" and ls == 0.0:
            stop = STOP_PERFECT
            break
        g = network.backward(params, arch, cache, dpred)
        trial = step
        for k in range(31):
            cand = ista_step(params, g, spec, trial)
            cand_cost, cand_pred, cand_cache = evaluate(cand)
            if cand_cost <= cur + 1e-12 * max(1.0, abs(cur)):
                break
            trial *= 0.5
        else:
            # no descent representable at float resolution
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


def _status(phases):
    """PerfectFit if any phase reached a zero residual, else MaxIters if
    any used up its budget, else Converged (a stalled line search
    included)."""
    stops = {ph.stop for ph in phases}
    if STOP_PERFECT in stops:
        return STATUS_PERFECT
    if STOP_BUDGET in stops:
        return STATUS_MAX_ITERS
    return STATUS_CONVERGED


def fit(X, Y, task, arch, config=None, lambda_qut=None):
    """Run the full pipeline on standardized features.

    Returns a FitResult holding the pruned network, the selected feature
    indices (into X's columns), the regularization level, per-phase
    records, and a status: Converged, MaxIters if any phase exhausted its
    budget, or PerfectFit on an exactly zero regression residual.
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

    if lambda_qut is None:
        est = compute_qut(X, Y, task, arch, alpha=cfg.alpha, n_mc=cfg.n_mc, seed=(int(cfg.seed), 1))
        lambda_qut = est.lambda_qut
    lambda_qut = float(lambda_qut)

    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0]))
    params = network.init_params(arch, rng)

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
        network.repair_zero_rows(params, rng)
        if phases[-1].stop == STOP_PERFECT:
            break
    else:  # no warm phase reached a perfect fit
        params, rec = _final_phase(params, arch, X, Y, task, lambda_qut, NU_SCHEDULE[-1], cfg)
        phases.append(rec)

    pruned, parch, selected = network.prune(params, arch)
    Xs = X[:, selected]
    if phases[-1].stop != STOP_PERFECT:
        if selected.size == 0:
            pruned.intercept = null_constant(task, Y)
            phases.append(PhaseRecord("refit", 0.0, None, 0, None, None, STOP_CONVERGED))
        else:
            phases.append(_adam_phase(
                pruned, parch, Xs, Y, task, cfg, 0.0, None, FINAL_TOL, "refit"
            ))

    train_loss = loss_value(task, network.forward(pruned, parch, Xs), Y)
    return FitResult(
        params=pruned,
        arch=parch,
        selected=selected,
        lambda_qut=lambda_qut,
        phases=phases,
        status=_status(phases),
        train_loss=float(train_loss),
        task=task,
    )
