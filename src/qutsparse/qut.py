"""Automatic regularization level from a Monte Carlo null quantile.

Under the all-features-irrelevant null, the smallest regularization that
zeroes the first weight matrix is a computable statistic of (X, Y).  The
regularization level is set to an upper quantile of that statistic with
the response replaced by null draws, so the probability of keeping any
feature on pure noise is capped at alpha.  For regression the statistic
is scale-free (the square-root loss divides the residual norm out), so
the null draws need no variance estimate.

Null-draw stream: draw i of compute_qut(..., n_mc, seed) is generated by
np.random.default_rng(np.random.SeedSequence(seed).spawn(n_mc)[i]), and
nothing else in the estimate is random.  The children's seeding words are
computed for all draws at once with numpy's SeedSequence hash, which gives
the same bits as spawning them one by one, so lambda_qut matches earlier
versions of this module for the same data, options and seed.
"""

from dataclasses import dataclass
from functools import cache
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
        return {
            "lambda_qut": float(self.lambda_qut),
            "alpha": float(self.alpha),
            "n_mc": int(self.n_mc),
            "seed": _json_seed(self.seed),
            "samples": [float(s) for s in self.samples],
        }


def _json_seed(seed):
    """A seed as a JSON int, or a list of them for a sequence seed."""
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return [_json_seed(s) for s in seed]


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


def _class_probs(task, Y):
    """Class probabilities of the classification null: Y's proportions."""
    if task.kind == "regression":
        return None
    p = np.mean(Y, axis=0)
    return p / np.sum(p)


def _draw(task, shape, p, rng):
    n, m = shape
    if task.kind == "regression":
        return rng.standard_normal((n, m))
    idx = rng.choice(m, size=n, p=p)
    return np.eye(m)[idx]


def sample_null(task, Y, rng):
    """One null response draw: standard normal columns for regression,
    one-hot rows with class probabilities from Y's proportions for
    classification.

    compute_qut draws whole blocks instead; this per-draw form stays as the
    reference that test_samples_bitwise_equal_block_reference holds those
    blocks to, bit for bit.
    """
    Y = np.asarray(Y, dtype=np.float64)
    return _draw(task, Y.shape, _class_probs(task, Y), rng)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _entropy_words(seed):
    """The uint32 words SeedSequence takes from a seed: each int in
    little-endian 32-bit words (at least one), a sequence element by
    element."""
    if isinstance(seed, (int, np.integer)):
        seed = int(seed)
        words = [seed & _MASK32]
        while seed > _MASK32:
            seed >>= 32
            words.append(seed & _MASK32)
        return words
    return [w for s in seed for w in _entropy_words(s)]


def _hasher(hash_const, mult):
    """numpy's hashmix on uint32 arrays, carrying its running constant
    from call to call as SeedSequence does."""
    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)
    return hashmix


def _mix(x, y):
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> _XSHIFT)


def _child_states(seed, n):
    """PCG64 seeding words of the n children of SeedSequence(seed), as an
    (n, 4) uint64 array: row i is
    SeedSequence(seed).spawn(n)[i].generate_state(4, np.uint64).

    seed is an int or a sequence of ints, such as a SeedSequence's
    .entropy (not None, and already validated by SeedSequence).  This is
    SeedSequence's entropy mixing and generate_state, run on uint32 arrays
    over all children at once: child i's entropy is the seed's words,
    padded with zeros to the pool size, then its spawn key i.
    """
    words = _entropy_words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.full(n, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(n, dtype=np.uint32))

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))

    # generate_state(4, np.uint64): 8 uint32 words cycling over the pool,
    # paired low word first
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(2 * _POOL_SIZE)]
    return np.stack([out[2 * j] | (out[2 * j + 1] << np.uint64(32))
                     for j in range(_POOL_SIZE)], axis=1)


@cache
def _child_seed_type():
    """The seed type that hands PCG64 one row of _child_states in place of
    the child SeedSequence it was computed from.  Built on first use:
    subclassing at import would load numpy.random with this module, which
    raised the qut command's peak memory by about 0.5 MB."""

    class ChildSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.state) or np.dtype(dtype) != np.uint64:
                raise ValueError("only PCG64's 4 uint64 seeding words are precomputed")
            return self.state

    return ChildSeed


def compute_qut(X, Y, task, arch, alpha=0.05, n_mc=1000, seed=0):
    """Monte Carlo estimate of the null quantile.

    Draw i uses the generator of child i of SeedSequence(seed) (see the
    module docstring), so the samples do not depend on how the draws are
    grouped for evaluation.  The quantile is the plain ascending order
    statistic at ceil((1-alpha)*n_mc), no interpolation.  seed=None draws
    fresh entropy; the estimate's seed records it, so the run can be
    repeated.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be inside (0, 1)")
    if n_mc < 1:
        raise ValueError("n_mc must be positive")
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    entropy = np.random.SeedSequence(seed).entropy
    states = _child_states(entropy, n_mc)
    p = _class_probs(task, Y)
    child_seed = _child_seed_type()
    samples = np.empty(n_mc)
    for a in range(0, n_mc, BLOCK):
        block = states[a:a + BLOCK]
        Y0 = np.empty((Y.shape[0], len(block), Y.shape[1]))
        for i, state in enumerate(block):
            rng = np.random.Generator(np.random.PCG64(child_seed(state)))
            Y0[:, i, :] = _draw(task, Y.shape, p, rng)
        samples[a:a + len(block)] = _block_statistics(X, Y0, task, arch)
    k = ceil((1.0 - alpha) * n_mc)
    lam = float(np.sort(samples)[k - 1])
    return QutEstimate(lambda_qut=lam, alpha=alpha, n_mc=n_mc, seed=entropy, samples=samples)
