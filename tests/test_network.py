import re

import numpy as np
import pytest

from qutsparse.losses import TaskSpec, loss_and_grad, loss_value
from qutsparse.network import (
    ACTIVATIONS,
    PARAM_KEYS,
    Architecture,
    NetworkParams,
    _act,
    _act_deriv,
    _norm_backward,
    backward,
    forward,
    forward_cached,
    init_params,
    normalize_rows,
    params_from_dict,
    params_to_dict,
    prune,
)

REG = TaskSpec("regression", 1)


def blocks(params):
    return [params.w1, *params.deep, *params.biases, params.intercept]


def loss_of(params, arch, X, Y, task):
    return loss_value(task, forward(params, arch, X), Y)


def analytic_grads(params, arch, X, Y, task):
    pred, cache = forward_cached(params, arch, X)
    _, dpred = loss_and_grad(task, pred, Y)
    g = backward(params, arch, cache, dpred)
    return blocks(g)


def fd_check(arch, task, seed, n=12, rel=1e-5, h=1e-6):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, arch.input_dim))
    if task.kind == "regression":
        Y = rng.normal(0, 1, (n, task.n_outputs))
    else:
        Y = np.eye(task.n_outputs)[rng.integers(0, task.n_outputs, n)]
    params = init_params(arch, rng)
    for b in blocks(params):
        b += rng.normal(0, 0.3, b.shape)
    ana = analytic_grads(params, arch, X, Y, task)
    for bi, block in enumerate(blocks(params)):
        if block.size == 0:
            continue
        flat_idx = rng.choice(block.size, size=min(6, block.size), replace=False)
        for fi in flat_idx:
            idx = np.unravel_index(fi, block.shape)
            orig = block[idx]
            block[idx] = orig + h
            up = loss_of(params, arch, X, Y, task)
            block[idx] = orig - h
            dn = loss_of(params, arch, X, Y, task)
            block[idx] = orig
            fd = (up - dn) / (2 * h)
            got = ana[bi][idx]
            assert got == pytest.approx(fd, rel=rel, abs=1e-7), (
                "block %d idx %s: analytic %r vs fd %r" % (bi, idx, got, fd)
            )


class TestForward:
    def test_linear_exact(self):
        arch = Architecture(2, (), 1)
        params = NetworkParams(
            w1=np.array([[2.0, -1.0]]), intercept=np.array([0.5])
        )
        X = np.array([[1.0, 1.0], [0.0, 3.0]])
        np.testing.assert_allclose(forward(params, arch, X), [[1.5], [-2.5]])

    def test_constant_when_w1_zero(self):
        rng = np.random.default_rng(0)
        for hidden in [(5,), (4, 3)]:
            arch = Architecture(6, hidden, 2, "relu")
            params = init_params(arch, rng)
            params.w1[:] = 0.0
            params.biases[0][:] = rng.normal(0, 1, hidden[0])
            out = forward(params, arch, rng.normal(0, 5, (20, 6)))
            np.testing.assert_allclose(out, np.tile(out[0], (20, 1)), atol=1e-12)

    def test_deep_row_scale_invariance(self):
        rng = np.random.default_rng(1)
        arch = Architecture(4, (3,), 1, "softplus")
        params = init_params(arch, rng)
        X = rng.normal(0, 1, (9, 4))
        base = forward(params, arch, X)
        params.deep[0][0] *= 37.5
        np.testing.assert_allclose(forward(params, arch, X), base, rtol=1e-12)

    def test_zero_input_dim(self):
        arch = Architecture(0, (), 1)
        params = NetworkParams(w1=np.zeros((1, 0)), intercept=np.array([4.2]))
        out = forward(params, arch, np.zeros((5, 0)))
        np.testing.assert_allclose(out, 4.2)

    def test_shape_validation(self):
        arch = Architecture(3, (), 1)
        params = NetworkParams(w1=np.zeros((1, 3)), intercept=np.zeros(1))
        with pytest.raises(ValueError):
            forward(params, arch, np.zeros((4, 2)))


class TestGradients:
    def test_linear_closed_form(self):
        rng = np.random.default_rng(3)
        arch = Architecture(5, (), 1)
        params = NetworkParams(
            w1=rng.normal(0, 1, (1, 5)), intercept=rng.normal(0, 1, 1)
        )
        X = rng.normal(0, 1, (20, 5))
        Y = rng.normal(0, 1, (20, 1))
        pred, cache = forward_cached(params, arch, X)
        val, dpred = loss_and_grad(REG, pred, Y)
        g = backward(params, arch, cache, dpred)
        R = Y - pred
        np.testing.assert_allclose(g.w1, -(R / np.linalg.norm(R)).T @ X, rtol=1e-12)
        np.testing.assert_allclose(g.intercept, dpred.sum(axis=0), rtol=1e-12)

    @pytest.mark.parametrize("hidden", [(), (6,), (5, 4), (5, 4, 3)])
    def test_fd_regression_softplus(self, hidden):
        fd_check(Architecture(4, hidden, 1, "softplus"), REG, seed=10 + len(hidden))

    @pytest.mark.parametrize("hidden", [(), (6,), (5, 4)])
    def test_fd_classification_softplus(self, hidden):
        task = TaskSpec("classification", 3)
        fd_check(Architecture(4, hidden, 3, "softplus"), task, seed=20 + len(hidden))

    def test_fd_relu_away_from_kinks(self):
        arch = Architecture(3, (4,), 1, "relu")
        rng = np.random.default_rng(30)
        params = init_params(arch, rng)
        params.biases[0][:] = 0.7
        X = np.sign(rng.normal(0, 1, (8, 3))) * rng.uniform(0.5, 1.5, (8, 3))
        Y = rng.normal(0, 1, (8, 1))
        pre = X @ params.w1.T + params.biases[0]
        assert np.min(np.abs(pre)) > 1e-3
        ana = analytic_grads(params, arch, X, Y, REG)
        h = 1e-7
        idx = (1, 2)
        orig = params.w1[idx]
        params.w1[idx] = orig + h
        up = loss_of(params, arch, X, Y, REG)
        params.w1[idx] = orig - h
        dn = loss_of(params, arch, X, Y, REG)
        params.w1[idx] = orig
        assert ana[0][idx] == pytest.approx((up - dn) / (2 * h), rel=1e-4)


class TestInit:
    def test_deterministic_by_seed(self):
        arch = Architecture(7, (5, 3), 2, "relu")
        a = init_params(arch, np.random.default_rng(99))
        b = init_params(arch, np.random.default_rng(99))
        for x, y in zip(blocks(a), blocks(b)):
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96 - 1])
    def test_root_stream_equals_the_zero_padded_seed(self, seed):
        # fit draws its initial weights from default_rng(seed); SeedSequence
        # hashes a missing pool word as 0, so below 2**96 that is the stream
        # of SeedSequence([seed, 0]) bit for bit
        arch = Architecture(7, (5, 3), 2, "relu")
        a = init_params(arch, np.random.default_rng(seed))
        b = init_params(arch, np.random.default_rng(np.random.SeedSequence([seed, 0])))
        np.testing.assert_array_equal(a.flat, b.flat)

    def test_bounds_and_zero_offsets(self):
        arch = Architecture(9, (4,), 1)
        p = init_params(arch, np.random.default_rng(5))
        assert np.max(np.abs(p.w1)) <= 1.0 / 3.0
        assert np.max(np.abs(p.deep[0])) <= 0.5
        assert np.all(p.biases[0] == 0.0)
        assert np.all(p.intercept == 0.0)

    def test_deep_rows_nonzero(self):
        arch = Architecture(3, (8, 6), 1)
        p = init_params(arch, np.random.default_rng(17))
        for W in p.deep:
            assert np.all(np.sqrt(np.sum(W * W, axis=1)) > 0.0)


class TestPrune:
    def test_feature_pruning_exact(self):
        rng = np.random.default_rng(7)
        arch = Architecture(8, (5,), 1, "relu")
        params = init_params(arch, rng)
        params.w1[:, [1, 4, 6]] = 0.0
        pp, pa, sel = prune(params, arch)
        np.testing.assert_array_equal(sel, [0, 2, 3, 5, 7])
        assert pa.input_dim == 5
        X = rng.normal(0, 1, (50, 8))
        np.testing.assert_allclose(
            forward(pp, pa, X[:, sel]), forward(params, arch, X), atol=1e-12
        )

    def test_dead_neuron_with_zero_next_columns_exact(self):
        rng = np.random.default_rng(8)
        arch = Architecture(6, (5,), 1, "relu")
        params = init_params(arch, rng)
        params.biases[0][:] = rng.normal(0, 1, 5)
        params.w1[[1, 3], :] = 0.0
        params.deep[0][:, [1, 3]] = 0.0
        pp, pa, sel = prune(params, arch)
        assert pa.hidden == (3,)
        X = rng.normal(0, 1, (50, 6))
        np.testing.assert_allclose(
            forward(pp, pa, X[:, sel]), forward(params, arch, X), atol=1e-12
        )

    def test_output_fed_only_by_dead_neurons_exact(self):
        # output 0 takes weight only from the dead neurons 1 and 3, output 1
        # only from the live ones: pruned, output 0's row applies as zero
        rng = np.random.default_rng(8)
        arch = Architecture(6, (5,), 2, "relu")
        params = init_params(arch, rng)
        params.biases[0][:] = rng.normal(0, 1, 5)
        params.w1[[1, 3], :] = 0.0
        params.deep[0][0, [0, 2, 4]] = 0.0
        params.deep[0][1, [1, 3]] = 0.0
        pp, pa, sel = prune(params, arch)
        assert pa.hidden == (3,)
        np.testing.assert_array_equal(pp.deep[0][0], 0.0)
        X = rng.normal(0, 1, (50, 6))
        np.testing.assert_allclose(
            forward(pp, pa, X[:, sel]), forward(params, arch, X), atol=1e-12
        )

    def test_dead_neuron_constant_absorbed(self):
        # nonzero dropped columns: predictions agree at the hidden-layer
        # mean state even though the restriction renormalizes
        for hidden in [(3,), (3, 2)]:
            rng = np.random.default_rng(9)
            arch = Architecture(4, hidden, 1, "softplus")
            params = init_params(arch, rng)
            params.biases[0][:] = np.array([0.3, -0.2, 0.8])
            params.w1[2, :] = 0.0
            pp, pa, sel = prune(params, arch)
            assert pa.hidden == (2,) + hidden[1:]
            assert pp.deep[0].shape == (arch.widths[2], 2)
            # the dead neuron's constant moved into the next layer's offset:
            # the intercept, or the second hidden layer's biases
            V2, _ = normalize_rows(params.deep[0])
            dead_part = V2[:, 2] * np.logaddexp(0.0, 0.8)
            got, was = (pp.intercept, params.intercept) if len(hidden) == 1 else (
                pp.biases[1], params.biases[1])
            np.testing.assert_allclose(got, was + dead_part, rtol=1e-12)
            for b in blocks(pp):
                assert np.shares_memory(b, pp.flat)

    def test_empty_support_collapses_to_constant(self):
        rng = np.random.default_rng(10)
        for hidden in [(), (4,), (3, 2)]:
            arch = Architecture(5, hidden, 1, "relu")
            params = init_params(arch, rng)
            if hidden:
                params.biases[0][:] = rng.normal(0, 1, hidden[0])
            params.w1[:] = 0.0
            full = forward(params, arch, rng.normal(0, 1, (7, 5)))
            pp, pa, sel = prune(params, arch)
            assert sel.size == 0
            assert pa.input_dim == 0 and pa.hidden == ()
            out = forward(pp, pa, np.zeros((7, 0)))
            np.testing.assert_allclose(out, full, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        arch = Architecture(6, (4,), 1, "relu")
        params = init_params(arch, rng)
        params.w1[:, [0, 5]] = 0.0
        params.w1[2, :] = 0.0
        p1, a1, s1 = prune(params, arch)
        p2, a2, s2 = prune(p1, a1)
        assert a1 == a2
        np.testing.assert_array_equal(s2, np.arange(a1.input_dim))
        for x, y in zip(blocks(p1), blocks(p2)):
            np.testing.assert_array_equal(x, y)

    def test_noop_when_dense(self):
        rng = np.random.default_rng(12)
        for hidden in [(), (3,), (3, 2)]:
            arch = Architecture(4, hidden, 2, "relu")
            params = init_params(arch, rng)
            pp, pa, sel = prune(params, arch)
            assert pa == arch
            np.testing.assert_array_equal(sel, np.arange(4))
            for got, want in zip(blocks(pp), blocks(params), strict=True):
                np.testing.assert_array_equal(got, want)
            assert not np.shares_memory(pp.flat, params.flat)

    def test_linear_feature_prune(self):
        arch = Architecture(4, (), 1)
        params = NetworkParams(
            w1=np.array([[0.0, 1.5, 0.0, -2.0]]), intercept=np.array([1.0])
        )
        pp, pa, sel = prune(params, arch)
        np.testing.assert_array_equal(sel, [1, 3])
        np.testing.assert_array_equal(pp.w1, [[1.5, -2.0]])

    def test_linear_zero_row_keeps_its_output(self):
        # a linear model's w1 row is an output, not a dead neuron
        arch = Architecture(3, (), 2)
        params = NetworkParams(w1=np.array([[1.0, 0.0, -2.0], [0.0, 0.0, 0.0]]),
                               intercept=np.array([0.5, -1.5]))
        pp, pa, sel = prune(params, arch)
        assert pa == Architecture(2, (), 2)
        np.testing.assert_array_equal(sel, [0, 2])
        np.testing.assert_array_equal(pp.w1, [[1.0, -2.0], [0.0, 0.0]])
        np.testing.assert_array_equal(pp.intercept, [0.5, -1.5])
        X = np.random.default_rng(15).normal(0, 1, (20, 3))
        np.testing.assert_array_equal(forward(pp, pa, X[:, sel]), forward(params, arch, X))


class TestUtilities:
    def test_zero_row_applies_as_zero(self):
        V, norms = normalize_rows(np.array([[0.0, 0.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(V, [[0.0, 0.0], [0.6, 0.8]])
        np.testing.assert_array_equal(norms, [1.0, 5.0])
        # with norm 1 and V = 0, the stored row's gradient is the applied row's
        dV = np.array([[0.5, -2.0], [1.0, 1.0]])
        np.testing.assert_array_equal(_norm_backward(V, norms, dV)[0], dV[0])

        rng = np.random.default_rng(13)
        arch = Architecture(3, (4, 2), 1)
        params = init_params(arch, rng)
        params.biases[1][:] = [0.4, 0.7]
        params.deep[0][1, :] = 0.0
        X, Y = rng.normal(0, 1, (20, 3)), rng.normal(0, 1, (20, 1))
        pred, cache = forward_cached(params, arch, X)
        zs = cache[1]
        np.testing.assert_array_equal(zs[1][:, 1], 0.7)
        _, dpred = loss_and_grad(REG, pred, Y)
        g = backward(params, arch, cache, dpred)
        assert np.all(np.isfinite(g.flat))
        assert np.any(g.deep[0][1] != 0.0)

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(14)
        arch = Architecture(5, (4, 3), 2, "leaky_relu")
        params = init_params(arch, rng)
        d = params_to_dict(params, arch)
        back, arch2 = params_from_dict(d)
        assert arch2 == arch
        for x, y in zip(blocks(params), blocks(back)):
            np.testing.assert_array_equal(x, y)

    def test_architecture_validation(self):
        with pytest.raises(ValueError):
            Architecture(3, (0,), 1)
        with pytest.raises(ValueError):
            Architecture(3, (), 1, "tanh")


def per_block_forward(params, arch, X):
    """forward_cached as it was with the linear model on a path of its own
    and the last deep layer outside the loop."""
    L = arch.n_layers
    acts, zs, Vs, norms = [X], [], [], []
    if L == 1:
        pred = X @ params.w1.T
        pred += params.intercept
        return pred, (acts, zs, Vs, norms)
    z = X @ params.w1.T
    z += params.biases[0]
    zs.append(z)
    acts.append(_act(arch.activation, z))
    for l in range(2, L):
        V, nr = normalize_rows(params.deep[l - 2])
        Vs.append(V)
        norms.append(nr)
        z = acts[-1] @ V.T
        z += params.biases[l - 1]
        zs.append(z)
        acts.append(_act(arch.activation, z))
    V, nr = normalize_rows(params.deep[L - 2])
    Vs.append(V)
    norms.append(nr)
    pred = acts[-1] @ V.T
    pred += params.intercept
    return pred, (acts, zs, Vs, norms)


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def per_block_backward(params, arch, cache, dpred):
    """The backward pass as it was before the flat buffer: one new array
    per block, returned in the order of blocks()."""
    acts, zs, Vs, norms = cache
    L = arch.n_layers
    deep = [None] * len(params.deep)
    biases = [None] * len(params.biases)
    intercept = dpred.sum(axis=0)
    if L == 1:
        return [dpred.T @ acts[0], intercept]
    dE = dpred.T @ acts[L - 1]
    deep[L - 2] = _norm_backward(Vs[L - 2], norms[L - 2], dE)
    U = dpred @ Vs[L - 2]
    for l in range(L - 1, 0, -1):
        Dl = U * _act_deriv(arch.activation, zs[l - 1])
        biases[l - 1] = Dl.sum(axis=0)
        dE = Dl.T @ acts[l - 1]
        if l == 1:
            w1 = dE
        else:
            deep[l - 2] = _norm_backward(Vs[l - 2], norms[l - 2], dE)
            U = Dl @ Vs[l - 2]
    return [w1] + deep + biases + [intercept]


class TestFlatLayout:
    @pytest.mark.parametrize("hidden", [(), (5,), (8, 4)])
    def test_blocks_are_views_of_one_buffer(self, hidden):
        params = init_params(Architecture(6, hidden, 2), np.random.default_rng(40))
        assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
        assert sum(b.size for b in blocks(params)) == params.flat.size
        for b in blocks(params):
            assert np.shares_memory(b, params.flat)
        np.testing.assert_array_equal(
            params.flat, np.concatenate([b.ravel() for b in blocks(params)]))
        c = params.copy()
        assert not np.shares_memory(c.flat, params.flat)
        for b in blocks(c):
            assert np.shares_memory(b, c.flat) and not np.shares_memory(b, params.flat)
        np.testing.assert_array_equal(c.flat, params.flat)

    def test_assignment_writes_into_the_buffer(self):
        # blocks are written in place; rebinding one raises
        params = init_params(Architecture(3, (4, 2), 1), np.random.default_rng(41))
        params.w1[...] = 1.0
        params.w1 += 0.5
        for d, v in zip(params.deep, (2.5, 3.5)):
            d[...] = v
        params.biases[1][...] = [4.5, 5.5]
        params.intercept[...] = 6.5
        flat = params.flat
        params.flat += 1.0
        assert params.flat is flat
        for b in blocks(params):
            assert np.shares_memory(b, params.flat)
        np.testing.assert_array_equal(
            params.flat, [2.5] * 12 + [3.5] * 8 + [4.5] * 2 + [1.0] * 4 + [5.5, 6.5, 7.5])
        before = params.flat.copy()
        # values the blocks would accept in place
        for name, value in (("w1", params.w1.copy()), ("deep", list(params.deep)),
                            ("biases", list(params.biases)), ("intercept", 1.0),
                            ("flat", params.flat.copy())):
            with pytest.raises(AttributeError, match=name):
                setattr(params, name, value)
        with pytest.raises(TypeError):
            params.deep[0] = np.zeros((2, 4))
        with pytest.raises(TypeError):
            params.biases[1] = np.zeros(2)
        np.testing.assert_array_equal(params.flat, before)

    @pytest.mark.parametrize("hidden", [(), (5,), (8, 4), (3, 2, 2)])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_forward_matches_per_block_reference(self, hidden, activation):
        rng = np.random.default_rng(45)
        arch = Architecture(7, hidden, 2, activation)
        params = init_params(arch, rng)
        params.flat += rng.normal(0, 0.3, params.flat.size)
        X = rng.normal(0, 1, (15, 7))
        pred, cache = forward_cached(params, arch, X)
        want_pred, want_cache = per_block_forward(params, arch, X)
        assert_bitwise(pred, want_pred)
        for got, want in zip(cache, want_cache, strict=True):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert_bitwise(a, b)

    @pytest.mark.parametrize("hidden", [(), (6,), (8, 4), (3, 2, 2)])
    @pytest.mark.parametrize("task", [REG, TaskSpec("classification", 3)], ids=["reg", "cls"])
    def test_backward_matches_per_block_reference(self, hidden, task):
        rng = np.random.default_rng(42)
        arch = Architecture(7, hidden, task.n_outputs, "softplus")
        params = init_params(arch, rng)
        params.flat += rng.normal(0, 0.3, params.flat.size)
        X = rng.normal(0, 1, (15, 7))
        Y = (rng.normal(0, 1, (15, 1)) if task.kind == "regression"
             else np.eye(3)[rng.integers(0, 3, 15)])
        pred, cache = forward_cached(params, arch, X)
        _, dpred = loss_and_grad(task, pred, Y)
        g = backward(params, arch, cache, dpred)
        ref = per_block_backward(params, arch, cache, dpred)
        for b in blocks(g):
            assert np.shares_memory(b, g.flat)
        for got, want in zip(blocks(g), ref, strict=True):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(g.flat, np.concatenate([b.ravel() for b in ref]))

    @pytest.mark.parametrize("hidden", [(), (6,), (8, 4)])
    @pytest.mark.parametrize("activation", ["relu", "leaky_relu", "softplus"])
    @pytest.mark.parametrize("task", [REG, TaskSpec("classification", 3)], ids=["reg", "cls"])
    def test_backward_into_a_reused_buffer(self, hidden, activation, task):
        rng = np.random.default_rng(43)
        arch = Architecture(7, hidden, task.n_outputs, activation)
        params = init_params(arch, rng)
        X = rng.normal(0, 1, (15, 7))
        Y = (rng.normal(0, 1, (15, 1)) if task.kind == "regression"
             else np.eye(3)[rng.integers(0, 3, 15)])
        g = params.like(np.full(params.flat.size, np.nan))
        for _ in range(3):
            params.flat += rng.normal(0, 0.3, params.flat.size)
            pred, cache = forward_cached(params, arch, X)
            _, dpred = loss_and_grad(task, pred, Y)
            assert backward(params, arch, cache, dpred, out=g) is g
            np.testing.assert_array_equal(g.flat, backward(params, arch, cache, dpred).flat)
            g.flat[::2] = np.nan  # stale entries must all be overwritten

    def test_norm_backward_out_equals_allocating_form(self):
        rng = np.random.default_rng(44)
        V, norms = normalize_rows(rng.normal(0, 1, (4, 6)))
        dV = rng.normal(0, 1, (4, 6))
        out = np.full((4, 6), np.nan)
        assert _norm_backward(V, norms, dV, out) is out
        np.testing.assert_array_equal(out, _norm_backward(V, norms, dV))
        dot = np.sum(dV * V, axis=1, keepdims=True)
        np.testing.assert_array_equal(out, (dV - dot * V) / norms[:, None])


class TestParamsFromDict:
    def entry(self):
        params = init_params(Architecture(5, (4, 3), 2), np.random.default_rng(45))
        return params_to_dict(params, Architecture(5, (4, 3), 2))

    @pytest.mark.parametrize("key,value,message", [
        ("w1", [[0.0] * 5] * 3, "w1 has 15 entries, widths [5, 4, 3, 2] need 4 x 5"),
        ("deep", [[[0.0] * 4] * 3], "deep has shapes [(3, 4)], widths [5, 4, 3, 2] need "
                                    "[(3, 4), (2, 3)]"),
        ("biases", [[0.0] * 4, [0.0] * 2], "biases has shapes [(4,), (2,)]"),
        ("intercept", [0.0], "intercept has shapes [(1,)], widths [5, 4, 3, 2] need [(2,)]"),
    ])
    def test_shape_mismatch_is_named(self, key, value, message):
        d = self.entry()
        d[key] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            params_from_dict(d)

    def test_missing_keys_are_named(self):
        d = self.entry()
        assert set(d) == set(PARAM_KEYS)
        for key in PARAM_KEYS:
            with pytest.raises(ValueError, match="lacks '%s'$" % key):
                params_from_dict({k: v for k, v in d.items() if k != key})
        with pytest.raises(ValueError, match="expected an object"):
            params_from_dict([d])

    def test_flat_w1_of_the_right_size_is_reshaped(self):
        d = self.entry()
        d["w1"] = np.arange(20.0).tolist()
        params, _ = params_from_dict(d)
        np.testing.assert_array_equal(params.w1, np.arange(20.0).reshape(4, 5))
