"""End-to-end checks of the package's headline guarantees.

Each test covers one guarantee at its stated tolerance and prints a
single PASS/FAIL line on the unbuffered stderr stream, so the verdicts
are visible even under pytest's output capture.  The data-heavy checks
(null calibration, the sparsity phase transition, the nonlinear and
depth experiments) take a few minutes combined on one core.
"""

import sys

import numpy as np
import pytest

from qutsparse.losses import TaskSpec, loss_and_grad, loss_value, null_constant
from qutsparse.network import (
    Architecture,
    backward,
    forward,
    forward_cached,
    init_params,
)
from qutsparse.penalty import penalty_value, prox, solve_threshold
from qutsparse.qut import compute_qut, null_statistic
from qutsparse.simlab import (
    ScenarioSpec,
    generate,
    metrics,
    run_trial,
    sweep,
    write_csv,
)
from qutsparse.trainer import TrainConfig, fit

REG = TaskSpec("regression", 1)


def report(name, ok, detail):
    line = "%s  %-28s %s" % ("PASS" if ok else "FAIL", name, detail)
    print(line, file=sys.__stderr__)
    assert ok, line


def test_prox_matches_grid_minimum():
    # exact scalar prox vs a dense-grid minimizer of the same objective
    rng = np.random.default_rng(0)
    nus = (0.1, 0.3, 0.5, 0.9, 1.0)
    worst = 0.0
    for trial in range(200):
        nu = nus[trial % len(nus)]
        lam = float(10.0 ** rng.uniform(-1.0, 1.0))
        y = float(rng.uniform(-6.0, 6.0))
        spec = solve_threshold(lam, nu)
        theta = prox(y, spec)

        def objective(t):
            return 0.5 * (t - y) ** 2 + lam * penalty_value(t, nu)

        grid = np.linspace(-abs(y) - 1.0, abs(y) + 1.0, 100_000)
        gap = objective(theta) - float(np.min(objective(grid)))
        worst = max(worst, gap)
    report("prox-grid-oracle", worst <= 1e-8,
           "objective gap to 1e5-point grid <= %.3g (tol 1e-8, 200 cases)" % worst)


def test_threshold_constants():
    # the jump and threshold satisfy their defining pair of equations,
    # and the prox jumps from 0 to the jump value at the threshold
    rng = np.random.default_rng(1)
    worst_eq = worst_jump = 0.0
    for _ in range(50):
        lam = float(10.0 ** rng.uniform(-1.0, 1.0))
        nu = float(rng.uniform(0.05, 0.95))
        spec = solve_threshold(lam, nu)
        kappa, phi = spec.jump, spec.threshold
        r1 = abs(kappa ** (1.0 - nu / 2.0) + kappa ** (nu / 2.0)
                 - np.sqrt(2.0 * lam * (1.0 - nu)))
        r2 = abs(phi - kappa / 2.0 - lam / (1.0 + kappa ** (1.0 - nu)))
        worst_eq = max(worst_eq, r1, r2)
        assert prox(phi, spec) == 0.0
        assert prox(-phi, spec) == 0.0
        worst_jump = max(
            worst_jump,
            abs(prox(phi + 1e-9, spec) - kappa),
            abs(prox(-phi - 1e-9, spec) + kappa),
        )
    exact = []
    for lam in (0.3, 1.0, 4.0):
        spec = solve_threshold(lam, 1.0)
        exact.append(spec.jump == 0.0 and spec.threshold == lam / 2.0)
    ok = worst_eq < 1e-10 and worst_jump < 1e-6 and all(exact)
    report("threshold-constants", ok,
           "equation residual %.3g (tol 1e-10), jump error %.3g (tol 1e-6),"
           " soft-threshold case exact" % (worst_eq, worst_jump))


def _flatten(blocks):
    return np.concatenate([np.asarray(b, dtype=np.float64).ravel() for b in blocks])


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    n, p = 6, 4
    X = rng.normal(size=(n, p))
    worst = 0.0
    for hidden in ((), (3,), (4, 3), (4, 3, 2)):
        for task in (REG, TaskSpec("classification", 3)):
            arch = Architecture(p, hidden, task.n_outputs, "softplus")
            if task.kind == "regression":
                Y = rng.normal(size=(n, 1))
            else:
                Y = np.eye(3)[rng.integers(0, 3, size=n)]
            params = init_params(arch, rng)
            params.w1[...] = rng.normal(size=params.w1.shape)
            for b in params.biases:
                b[...] = rng.normal(size=b.shape)
            params.intercept[...] = rng.normal(size=params.intercept.shape)

            pred, cache = forward_cached(params, arch, X)
            _, dpred = loss_and_grad(task, pred, Y)
            g = backward(params, arch, cache, dpred)
            blocks = [params.w1, *params.deep, *params.biases, params.intercept]
            gblocks = [g.w1, *g.deep, *g.biases, g.intercept]
            analytic = _flatten(gblocks)

            h = 1e-6
            fd = np.empty_like(analytic)
            k = 0
            for b in blocks:
                flat = b.reshape(-1)
                for j in range(flat.size):
                    keep = flat[j]
                    flat[j] = keep + h
                    up = loss_value(task, forward(params, arch, X), Y)
                    flat[j] = keep - h
                    dn = loss_value(task, forward(params, arch, X), Y)
                    flat[j] = keep
                    fd[k] = (up - dn) / (2.0 * h)
                    k += 1
            rel = float(np.linalg.norm(fd - analytic) / np.linalg.norm(fd))
            worst = max(worst, rel)
    report("gradient-check", worst < 1e-5,
           "finite-difference relative error %.3g (tol 1e-5,"
           " 0/1/2/3 hidden layers, both losses)" % worst)


def test_null_gradient_bound_and_depth_ratio():
    rng = np.random.default_rng(3)
    n, p, h = 40, 12, 8
    X = rng.normal(size=(n, p))
    tasks = {
        "regression": rng.normal(size=(n, 1)),
        "classification": np.eye(2)[rng.integers(0, 2, size=n)],
    }
    worst_excess = -np.inf
    for kind, Y in tasks.items():
        task = TaskSpec(kind, Y.shape[1])
        arch = Architecture(p, (h,), task.n_outputs, "relu")
        bound = null_statistic(X, Y, task, arch)
        for _ in range(50):
            params = init_params(arch, rng)
            params.w1[:] = 0.0
            for b in (*params.deep, *params.biases):
                b[...] = rng.normal(size=b.shape)
            # a null-class member must realize the optimal constant, so the
            # deep path's constant output is folded into the intercept
            params.intercept[...] = 0.0
            base = forward(params, arch, X[:1])[0]
            params.intercept[...] = null_constant(task, Y) - base
            pred, cache = forward_cached(params, arch, X)
            _, dpred = loss_and_grad(task, pred, Y)
            g = backward(params, arch, cache, dpred)
            worst_excess = max(worst_excess, float(np.max(np.abs(g.w1))) - bound)

    Yr = tasks["regression"]
    s1 = null_statistic(X, Yr, REG, Architecture(p, (h,), 1, "relu"))
    s2 = null_statistic(X, Yr, REG, Architecture(p, (h, 4), 1, "relu"))
    ratio_exact = s2 == 2.0 * s1
    ok = worst_excess <= 1e-8 and ratio_exact
    report("null-gradient-bound", ok,
           "max gradient excess over the level %.3g (tol 1e-8, 100 null"
           " members), depth ratio (h)->(h,4) exactly 2: %s" % (worst_excess, ratio_exact))


def test_scale_shift_invariance():
    # the regression level statistic is algebraically invariant under
    # y -> a*y + b; verified at machine rounding
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 9))
    Y = rng.normal(size=(60, 1))
    arch = Architecture(9, (5,), 1, "relu")
    base = null_statistic(X, Y, REG, arch)
    worst = 0.0
    for _ in range(50):
        a = float(rng.uniform(0.01, 100.0))
        b = float(rng.uniform(-50.0, 50.0))
        got = null_statistic(X, a * Y + b, REG, arch)
        worst = max(worst, abs(got - base) / base)
    report("scale-shift-invariance", worst < 1e-12,
           "relative deviation %.3g over 50 affine maps (tol 1e-12)" % worst)


def _empty_support_fraction(hidden):
    # pure noise, alpha = 0.05: the fitted support should be empty for
    # about 95% of datasets
    n, p = 50, 100
    arch = Architecture(p, hidden, 1, "relu")
    n_rep = 200
    empty = 0
    for seed in range(n_rep):
        rng = np.random.default_rng(np.random.SeedSequence([2026, seed]))
        X = rng.normal(size=(n, p))
        Y = rng.normal(size=(n, 1))
        Xs = (X - X.mean(axis=0)) / X.std(axis=0)
        res = fit(Xs, Y, REG, arch, TrainConfig(seed=seed))
        empty += res.selected.size == 0
    return empty / n_rep


def test_null_calibration():
    frac = _empty_support_fraction((20,))
    report("null-calibration", 0.91 <= frac <= 0.99,
           "empty-support fraction %.3f over 200 noise fits (target"
           " 0.95 +/- 0.04)" % frac)


def test_null_calibration_linear():
    # the linear model, cheap enough for every run; the README has the
    # other model classes' fractions
    frac = _empty_support_fraction(())
    report("null-calibration-linear", 0.91 <= frac <= 0.99,
           "empty-support fraction %.3f over 200 linear noise fits (target"
           " 0.95 +/- 0.04)" % frac)


@pytest.mark.parametrize("m", [1, 2, 3], ids=["regression", "2-class", "3-class"])
def test_null_level_calibration(m):
    # the level alone, no fit: on pure noise the data's own null statistic
    # exceeds compute_qut's level for about alpha = 0.05 of datasets.
    # Dataset i draws X, then the response (uniform labels for m classes),
    # from SeedSequence([2026, m, i]); the level uses fit's seed i.
    # One architecture per task is enough: depth_scale multiplies the
    # statistic and the level alike.
    n, p, n_rep = 50, 100, 800
    task = TaskSpec("regression", 1) if m == 1 else TaskSpec("classification", m)
    arch = Architecture(p, (20,), task.n_outputs, "relu")
    exceeded = 0
    for i in range(n_rep):
        rng = np.random.default_rng(np.random.SeedSequence([2026, m, i]))
        X = rng.normal(size=(n, p))
        Y = rng.normal(size=(n, 1)) if m == 1 else np.eye(m)[rng.integers(0, m, n)]
        Xs = (X - X.mean(axis=0)) / X.std(axis=0)
        level = compute_qut(Xs, Y, task, arch, seed=i).lambda_qut
        exceeded += null_statistic(Xs, Y, task, arch) > level
    # Binomial(800, 0.05) falls below 22 with probability 0.0006 and
    # above 60 with probability 0.0009
    report("null-level-" + ("regression" if m == 1 else "%d-class" % m),
           22 <= exceeded <= 60,
           "level exceeded on %d of %d noise datasets (band 22 to 60 around"
           " alpha 0.05)" % (exceeded, n_rep))


LINEAR_SPECS = [ScenarioSpec("linear", 70, 250, s, n_test=1000, n_runs=25, seed=2026)
                for s in (0, 1, 2, 5, 10, 20)]


@pytest.fixture(scope="module")
def linear_sweep(tmp_path_factory):
    d = tmp_path_factory.mktemp("linear_sweep")
    rows, _ = sweep(LINEAR_SPECS, hidden=(), n_mc=1000, jobs=1,
                    records_path=str(d / "records.jsonl"))
    write_csv(rows, d / "sweep.csv")
    return d, rows


def test_sparsity_phase_transition(linear_sweep):
    _, rows = linear_sweep
    by_s = {r["s"]: r for r in rows}
    se3 = 3.0 * np.sqrt(0.95 * 0.05 / 25)
    # pesr at s=5 and s=10 tells the annealed nonconvex penalty from a
    # lasso at the same level, which recovers about 0.2 and 0.0 there
    ok = (
        by_s[1]["pesr"] >= 0.8
        and by_s[5]["pesr"] >= 0.8
        and by_s[10]["pesr"] >= 0.6
        and by_s[20]["pesr"] <= 0.2
        and abs(by_s[0]["pesr"] - 0.95) <= se3
    )
    report("phase-transition", ok,
           "pesr(s=1)=%.2f (>=0.8), pesr(s=5)=%.2f (>=0.8), pesr(s=10)=%.2f (>=0.6),"
           " pesr(s=20)=%.2f (<=0.2), pesr(s=0)=%.2f (within %.3f of 0.95)"
           % (by_s[1]["pesr"], by_s[5]["pesr"], by_s[10]["pesr"], by_s[20]["pesr"],
              by_s[0]["pesr"], se3))


def test_nonlinear_recovery():
    spec = ScenarioSpec("absdiff", 500, 50, 2, n_test=1000, n_runs=15, seed=2026)
    recs, nulls = [], []
    for r in range(spec.n_runs):
        recs.append(run_trial(spec, r, hidden=(20,)))
        _, Y, _, mu_test, _ = generate(spec, r)
        nulls.append(float(np.mean((mu_test - Y.mean()) ** 2)))
    m = metrics(recs)
    null_l2 = float(np.mean(nulls))
    ok = m["pesr"] >= 0.6 and m["mean_l2"] * 5.0 <= null_l2
    report("nonlinear-recovery", ok,
           "pesr=%.2f (>=0.6), test error %.4g vs constant model %.4g"
           " (factor %.0f, need >=5)" % (m["pesr"], m["mean_l2"], null_l2,
                                         null_l2 / m["mean_l2"]))


def test_depth_helps_nested_target():
    spec = ScenarioSpec("nestedabs", 2000, 50, 4, n_test=1000, n_runs=10, seed=2026)
    shallow = metrics([run_trial(spec, r, hidden=(20,)) for r in range(spec.n_runs)])
    deep = metrics([run_trial(spec, r, hidden=(20, 10)) for r in range(spec.n_runs)])
    ok = deep["mean_l2"] <= shallow["mean_l2"]
    report("depth-comparison", ok,
           "two-hidden test error %.4g <= one-hidden %.4g over %d runs"
           % (deep["mean_l2"], shallow["mean_l2"], spec.n_runs))


def test_parallelism_invariance(linear_sweep, tmp_path):
    d, _ = linear_sweep
    rows2, _ = sweep(LINEAR_SPECS, hidden=(), n_mc=1000, jobs=2,
                     records_path=str(tmp_path / "records.jsonl"))
    write_csv(rows2, tmp_path / "sweep.csv")
    same = (d / "sweep.csv").read_bytes() == (tmp_path / "sweep.csv").read_bytes()
    report("jobs-invariance", same,
           "sweep rerun with jobs=2 is byte-identical to jobs=1: %s" % same)
