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
from .penalty import penalty_slope, penalty_value, prox_vector, solve_threshold
from .qut import compute_qut, depth_scale

STATUS_CONVERGED = "Converged"
STATUS_MAX_ITERS = "MaxIters"
STATUS_PERFECT = "PerfectFit"


def default_lambda_fractions(n_warm=6):
    """Logistic ramp e**(i-1)/(1+e**(i-1)) for the warm phases, then 1.0
    for the exact phase."""
    f = [float(np.exp(i - 1.0) / (1.0 + np.exp(i - 1.0))) for i in range(n_warm)]
    return tuple(f) + (1.0,)


@dataclass
class TrainConfig:
    alpha: float = 0.05
    n_mc: int = 1000
    nu_schedule: tuple = (0.9, 0.7, 0.4, 0.3, 0.2, 0.1)
    lambda_fractions: tuple = None
    warm_lr: float = 0.01
    warm_tol: float = 1e-4
    final_tol: float = 1e-7
    max_phase_iters: int = 5000
    refit: bool = True
    seed: int = 0

    def fractions(self):
        f = self.lambda_fractions
        if f is None:
            f = default_lambda_fractions(len(self.nu_schedule))
        f = tuple(float(x) for x in f)
        if len(f) != len(self.nu_schedule) + 1:
            raise ValueError("need len(nu_schedule) + 1 lambda fractions")
        if any(b <= a for a, b in zip(f, f[1:])):
            raise ValueError("lambda fractions must be strictly increasing")
        if f[-1] != 1.0:
            raise ValueError("last lambda fraction must be 1.0")
        return f


@dataclass
class PhaseRecord:
    name: str
    lam: float
    nu: float
    iterations: int  # parameter updates applied
    initial_cost: float
    final_cost: float


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
    def __init__(self, blocks, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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


def _blocks(params):
    return [params.w1] + params.deep + params.biases + [params.intercept]


def ista_step(params, grads, spec, step):
    """One joint proximal-gradient update: the penalized first matrix gets
    the prox of its gradient step at effective regularization step*lam,
    every other block takes the plain gradient step.  Returns new params."""
    w1 = prox_vector(params.w1 - step * grads.w1, spec, step)
    deep = [d - step * g for d, g in zip(params.deep, grads.deep)]
    biases = [b - step * g for b, g in zip(params.biases, grads.biases)]
    intercept = params.intercept - step * grads.intercept
    return network.NetworkParams(w1=w1, deep=deep, biases=biases, intercept=intercept)


def _warm_phase(params, arch, X, Y, task, lam, nu, cfg, name):
    adam = _Adam(_blocks(params), cfg.warm_lr)
    prev = None
    initial = None
    final = None
    perfect = False
    hit_budget = True
    for _ in range(cfg.max_phase_iters):
        pred, cache = network.forward_cached(params, arch, X)
        ls, dpred = loss_and_grad(task, pred, Y)
        cost = ls + lam * float(np.sum(penalty_value(params.w1, nu)))
        if initial is None:
            initial = cost
        if task.kind == "regression" and ls == 0.0:
            perfect = True
            final = cost
            hit_budget = False
            break
        if prev is not None and abs(cost - prev) / max(1.0, prev) < cfg.warm_tol:
            final = cost
            hit_budget = False
            break
        g = network.backward(params, arch, cache, dpred)
        g.w1 += lam * penalty_slope(params.w1, nu)
        adam.step(_blocks(params), _blocks(g))
        prev = cost
    if final is None:
        final = loss_value(task, network.forward(params, arch, X), Y) + lam * float(
            np.sum(penalty_value(params.w1, nu))
        )
    if initial is None:
        initial = final
    rec = PhaseRecord(name, lam, nu, adam.t, float(initial), float(final))
    return rec, perfect, hit_budget


def _final_phase(params, arch, X, Y, task, lam, nu, cfg):
    spec = solve_threshold(lam, nu)

    def penalized(p):
        ls = loss_value(task, network.forward(p, arch, X), Y)
        return ls + lam * float(np.sum(penalty_value(p.w1, nu))), ls

    cur, ls0 = penalized(params)
    initial = cur
    step = 1.0
    perfect = task.kind == "regression" and ls0 == 0.0
    hit_budget = not perfect
    updates = 0
    if not perfect:
        for _ in range(cfg.max_phase_iters):
            pred, cache = network.forward_cached(params, arch, X)
            ls, dpred = loss_and_grad(task, pred, Y)
            if task.kind == "regression" and ls == 0.0:
                perfect = True
                hit_budget = False
                break
            g = network.backward(params, arch, cache, dpred)
            accepted = False
            trial = step
            for k in range(31):
                cand = ista_step(params, g, spec, trial)
                cand_cost, _ = penalized(cand)
                if cand_cost <= cur + 1e-12 * max(1.0, abs(cur)):
                    accepted = True
                    break
                trial *= 0.5
            if not accepted:
                # no descent representable at float resolution
                hit_budget = False
                break
            params = cand
            updates += 1
            improve = (cur - cand_cost) / max(1.0, cur)
            cur = cand_cost
            step = min(2.0 * trial, 2.0 ** 20) if k == 0 else trial
            if improve < cfg.final_tol:
                hit_budget = False
                break
    rec = PhaseRecord("sparsify", lam, nu, updates, float(initial), float(cur))
    return params, rec, perfect, hit_budget


def _refit_phase(params, arch, X, Y, task, cfg):
    adam = _Adam(_blocks(params), cfg.warm_lr)
    prev = None
    initial = None
    final = None
    perfect = False
    hit_budget = True
    for _ in range(cfg.max_phase_iters):
        pred, cache = network.forward_cached(params, arch, X)
        ls, dpred = loss_and_grad(task, pred, Y)
        if initial is None:
            initial = ls
        if task.kind == "regression" and ls == 0.0:
            perfect = True
            final = ls
            hit_budget = False
            break
        if prev is not None and abs(ls - prev) / max(1.0, prev) < cfg.final_tol:
            final = ls
            hit_budget = False
            break
        g = network.backward(params, arch, cache, dpred)
        adam.step(_blocks(params), _blocks(g))
        prev = ls
    if final is None:
        final = loss_value(task, network.forward(params, arch, X), Y)
    if initial is None:
        initial = final
    rec = PhaseRecord("refit", 0.0, None, adam.t, float(initial), float(final))
    return rec, perfect, hit_budget


def fit(X, Y, task, arch, config=None, lambda_qut=None):
    """Run the full pipeline on standardized features.

    Returns a FitResult holding the pruned network, the selected feature
    indices (into X's columns), the regularization level, per-phase cost
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
    fractions = cfg.fractions()

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
    perfect = False
    budget_hit = False
    for i, (frac, nu) in enumerate(zip(fractions[:-1], cfg.nu_schedule)):
        rec, perfect, hb = _warm_phase(
            params, arch, X, Y, task, frac * warm_base, float(nu), cfg, "warm%d" % i
        )
        phases.append(rec)
        budget_hit = budget_hit or hb
        network.repair_zero_rows(params, rng)
        if perfect:
            break
    if not perfect:
        params, rec, perfect, hb = _final_phase(
            params, arch, X, Y, task, lambda_qut, float(cfg.nu_schedule[-1]), cfg
        )
        phases.append(rec)
        budget_hit = budget_hit or hb

    pruned, parch, selected = network.prune(params, arch)
    Xs = X[:, selected]
    if cfg.refit and not perfect:
        if selected.size == 0:
            pruned.intercept = null_constant(task, Y)
            phases.append(PhaseRecord("refit", 0.0, None, 0, None, None))
        else:
            rec, perfect, hb = _refit_phase(pruned, parch, Xs, Y, task, cfg)
            phases.append(rec)
            budget_hit = budget_hit or hb

    train_loss = loss_value(task, network.forward(pruned, parch, Xs), Y)
    if perfect:
        status = STATUS_PERFECT
    elif budget_hit:
        status = STATUS_MAX_ITERS
    else:
        status = STATUS_CONVERGED
    return FitResult(
        params=pruned,
        arch=parch,
        selected=selected,
        lambda_qut=lambda_qut,
        phases=phases,
        status=status,
        train_loss=float(train_loss),
        task=task,
    )
