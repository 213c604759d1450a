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
nothing else in the estimate is random.  Spawning and hashing 1000 children
took 10 ms, more than a whole 6.5 ms estimate at 70x250 (x86-64, numpy 2.4),
so numpy computes only the parent's pool, and the per-child step of its
hash (the spawn key's mixing and generate_state) runs here for all draws.
Each block of at most BLOCK draws is filled in place, one contiguous row
per draw.
"""

from dataclasses import asdict, dataclass
from functools import cache
from math import ceil, prod

import numpy as np


@dataclass
class QutEstimate:
    lambda_qut: float
    alpha: float
    n_mc: int
    seed: int
    samples: np.ndarray

    def to_dict(self):
        return dict(asdict(self), samples=self.samples.tolist())


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


def _class_cdf(task, Y):
    """Cumulative class probabilities of the classification null, from Y's
    proportions, built as Generator.choice builds them from p."""
    if task.kind == "regression":
        return None
    p = np.mean(Y, axis=0)
    cdf = np.cumsum(p / np.sum(p))
    cdf /= cdf[-1]
    return cdf


def _null_block(cdf, shape, gens):
    """One null response of shape (n, m) per generator, as the C-ordered
    (n, k, m) block _block_statistics reads.  Generator i fills row i of a
    draw-major buffer in place: standard normals for regression (cdf None),
    else uniforms, mapped to classes by the search rng.choice(m, size=n,
    p=p) runs, once for the whole block and without choice's checks."""
    n, m = shape
    if cdf is None:
        U = np.empty((len(gens), n, m))
        for gen, row in zip(gens, U):
            gen.standard_normal(out=row)
        # a copy, not the view: the block's reductions sum in memory order
        return np.ascontiguousarray(U.transpose(1, 0, 2))
    U = np.empty((len(gens), n))
    for gen, row in zip(gens, U):
        gen.random(out=row)
    return np.eye(m)[cdf.searchsorted(U.T, side="right")]


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


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


def _child_states(entropy, n):
    """PCG64 seeding words of the n children of SeedSequence(entropy), as
    an (n, 4) uint64 array: row i is
    SeedSequence(entropy).spawn(n)[i].generate_state(4, np.uint64).

    Child i pads the parent's entropy (an int >= 0) with zeros to the
    pool size, the value numpy hashes for a missing word, then appends its
    spawn key i.  So its pool is the parent's until the key, and only the
    key's mixing and generate_state run here.
    """
    # the parent's pool took 16 hashmix calls (4 words in, 12 cross
    # mixes), plus 4 for each 32-bit entropy word past the pool
    calls = _POOL_SIZE * max(-(-int(entropy).bit_length() // 32), _POOL_SIZE)
    hashmix = _hasher(_INIT_A * pow(_MULT_A, calls, 1 << 32) & _MASK32, _MULT_A)
    key = np.arange(n, dtype=np.uint32)
    # 1-element arrays: uint32 array products wrap silently, scalar ones warn
    pool = [_mix(word, hashmix(key)) for word in np.random.SeedSequence(entropy).pool[:, None]]

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
    subclassing at import would load numpy.random with this module, and
    so in predict, which never draws; loading it costs about 6 MB of
    resident memory (x86-64, numpy 2.4)."""

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
    module docstring).  The draws are scored in ceil(n_mc/BLOCK) contiguous
    blocks of near-equal size, so no block holds a lone draw once
    n_mc >= 2, and at a fixed BLAS thread count the samples do not depend
    on how the draws are grouped; a threaded GEMM may move their last bits.
    The quantile is the plain ascending order statistic at
    ceil((1-alpha)*n_mc), no interpolation.  seed is an int >= 0 or
    None, which draws fresh entropy; the estimate's seed records it.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be inside (0, 1)")
    if n_mc < 1:
        raise ValueError("n_mc must be positive")
    if seed is not None and not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError("seed must be an integer >= 0 or None")
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    entropy = int(np.random.SeedSequence(seed).entropy)
    states = _child_states(entropy, n_mc)
    cdf = _class_cdf(task, Y)
    child_seed = _child_seed_type()
    samples = np.empty(n_mc)
    n_blocks = ceil(n_mc / BLOCK)
    for j in range(n_blocks):
        a, b = j * n_mc // n_blocks, (j + 1) * n_mc // n_blocks
        gens = [np.random.Generator(np.random.PCG64(child_seed(s))) for s in states[a:b]]
        samples[a:b] = _block_statistics(X, _null_block(cdf, Y.shape, gens), task, arch)
    k = ceil((1.0 - alpha) * n_mc)
    lam = float(np.sort(samples)[k - 1])
    return QutEstimate(lambda_qut=lam, alpha=float(alpha), n_mc=int(n_mc), seed=entropy,
                       samples=samples)
