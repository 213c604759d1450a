"""Feature-selecting multilayer perceptron.

The first weight matrix is stored and applied as-is; it is the only
penalized block, and a zero column there means the feature is out of the
model.  Every deeper weight matrix is stored unnormalized but applied
with each row divided by its l2 norm, so the deeper layers cannot
re-inflate shrunken first-layer weights.  The normalization is
differentiated, not frozen: gradients of the stored rows are the
tangential component of the gradients of the applied rows.

Activations are unbounded above with derivative bounded by 1 (relu,
leaky relu with slope 0.01, softplus); the output layer is affine.  A
network with no hidden layers degenerates to the linear model, where the
single weight matrix is penalized and unnormalized.

All parameters live in one contiguous float64 vector, ``NetworkParams.flat``:
w1, then the deep matrices from layer 2 up, then the hidden biases, then
the output intercept, each block row-major.  The block attributes are
views into that vector, and backward() returns its gradient in a new
vector with the same layout.  So an optimizer step, a parameter copy or
a gradient step is one array operation, and only the prox touches a
single block, the w1 slice.
"""

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "leaky_relu", "softplus")

LEAKY_SLOPE = 0.01


@dataclass(frozen=True)
class Architecture:
    input_dim: int
    hidden: tuple
    output_dim: int
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.input_dim < 0 or self.output_dim < 1:
            raise ValueError("bad dimensions")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden widths must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError("unknown activation %r" % self.activation)

    @property
    def n_layers(self):
        """Affine layer count; 1 means the linear model."""
        return len(self.hidden) + 1

    @property
    def widths(self):
        """(p_1, ..., p_{L+1}) from input to output."""
        return (self.input_dim,) + self.hidden + (self.output_dim,)


class _Views(list):
    """Block views into a parameter buffer; assigning an element writes
    into the buffer instead of replacing the view."""

    def __setitem__(self, i, value):
        self[i][...] = value


def _block(name):
    """A block attribute that reads its view and writes through it."""

    def put(self, value):
        view = self.__dict__[name]
        if isinstance(view, _Views):
            for v, b in zip(view, value, strict=True):
                v[...] = b
        else:
            view[...] = value

    return property(lambda self: self.__dict__[name], put)


class NetworkParams:
    """w1 is the penalized first matrix (first hidden width x input_dim, or
    output_dim x input_dim for the linear model).  deep holds the stored
    unnormalized matrices of layers 2..L, biases the hidden-layer offsets,
    intercept the output offset.

    The blocks are packed into the one vector ``flat`` in the order w1,
    deep, biases, intercept, and the attributes are views into it.
    Assigning to an attribute, or to an element of deep or biases, writes
    into ``flat``."""

    w1 = _block("w1")
    deep = _block("deep")
    biases = _block("biases")
    intercept = _block("intercept")

    def __init__(self, w1, deep=(), biases=(), intercept=None):
        w1 = np.asarray(w1, dtype=np.float64)
        if intercept is None:
            intercept = np.zeros((deep[-1] if len(deep) else w1).shape[0])
        blocks = [w1] + [np.asarray(b, dtype=np.float64) for b in (*deep, *biases, intercept)]
        layout, k = [], 0
        for b in blocks:
            layout.append((k, k + b.size, b.shape))
            k += b.size
        self._layout = tuple(layout)
        self._bind(np.concatenate([b.ravel() for b in blocks]))

    def _bind(self, flat):
        views = [flat[a:b].reshape(shape) for a, b, shape in self._layout]
        n = (len(views) - 2) // 2
        d = self.__dict__
        d["flat"] = flat
        d["w1"] = views[0]
        d["deep"] = _Views(views[1:1 + n])
        d["biases"] = _Views(views[1 + n:-1])
        d["intercept"] = views[-1]

    def like(self, flat):
        """Parameters with this layout viewing ``flat`` (no copy)."""
        out = object.__new__(NetworkParams)
        out._layout = self._layout
        out._bind(flat)
        return out

    def copy(self):
        return self.like(self.flat.copy())


def _act(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "leaky_relu":
        return np.where(z > 0.0, z, LEAKY_SLOPE * z)
    return np.logaddexp(0.0, z)


def _act_deriv(name, z):
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "leaky_relu":
        return np.where(z > 0.0, 1.0, LEAKY_SLOPE)
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[np.logical_not(pos)])
    out[np.logical_not(pos)] = ez / (1.0 + ez)
    return out


def normalize_rows(W):
    """Applied form of a stored deep matrix plus the row norms.  Zero-norm
    rows are invalid here; callers repair them first."""
    norms = np.sqrt(np.sum(W * W, axis=1))
    if np.any(norms == 0.0):
        raise ValueError("zero-norm row in a normalized layer")
    return W / norms[:, None], norms


def _norm_backward(V, norms, dV):
    # d(stored)/d(applied): remove the radial component, divide by the norm
    dot = np.sum(dV * V, axis=1, keepdims=True)
    return (dV - dot * V) / norms[:, None]


def init_params(arch, rng):
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero offsets.
    All-zero deep rows are redrawn so normalization is defined."""
    widths = arch.widths
    scale1 = 1.0 / np.sqrt(max(widths[0], 1))
    w1 = rng.uniform(-scale1, scale1, size=(widths[1], widths[0]))
    deep = []
    for l in range(1, arch.n_layers):
        s = 1.0 / np.sqrt(widths[l])
        W = rng.uniform(-s, s, size=(widths[l + 1], widths[l]))
        while np.any(np.all(W == 0.0, axis=1)):
            bad = np.all(W == 0.0, axis=1)
            W[bad] = rng.uniform(-s, s, size=(int(np.sum(bad)), widths[l]))
        deep.append(W)
    biases = [np.zeros(widths[l]) for l in range(1, arch.n_layers)]
    intercept = np.zeros(arch.output_dim)
    return NetworkParams(w1=w1, deep=deep, biases=biases, intercept=intercept)


def repair_zero_rows(params, rng, scale=1e-3):
    """Redraw any all-zero stored deep row at a small scale.  Returns the
    number of repaired rows."""
    repaired = 0
    for W in params.deep:
        norms = np.sqrt(np.sum(W * W, axis=1))
        bad = norms == 0.0
        if np.any(bad):
            W[bad] = rng.uniform(-scale, scale, size=(int(np.sum(bad)), W.shape[1]))
            repaired += int(np.sum(bad))
    return repaired


def forward_cached(params, arch, X):
    """Predictions plus the intermediate state backward() needs."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != arch.input_dim:
        raise ValueError("X must be (n, %d), got %r" % (arch.input_dim, X.shape))
    L = arch.n_layers
    acts = [X]
    zs = []
    Vs = []
    norms = []
    if L == 1:
        pred = X @ params.w1.T + params.intercept
        return pred, (acts, zs, Vs, norms)
    z = X @ params.w1.T + params.biases[0]
    zs.append(z)
    acts.append(_act(arch.activation, z))
    for l in range(2, L):
        V, nr = normalize_rows(params.deep[l - 2])
        Vs.append(V)
        norms.append(nr)
        z = acts[-1] @ V.T + params.biases[l - 1]
        zs.append(z)
        acts.append(_act(arch.activation, z))
    V, nr = normalize_rows(params.deep[L - 2])
    Vs.append(V)
    norms.append(nr)
    pred = acts[-1] @ V.T + params.intercept
    return pred, (acts, zs, Vs, norms)


def forward(params, arch, X):
    return forward_cached(params, arch, X)[0]


def backward(params, arch, cache, dpred):
    """Gradients of a scalar function of the predictions with respect to
    every parameter, given dpred = d(scalar)/d(predictions), packed in
    one new buffer with the layout of params."""
    acts, zs, Vs, norms = cache
    L = arch.n_layers
    g = params.like(np.empty_like(params.flat))
    g.intercept[...] = dpred.sum(axis=0)
    if L == 1:
        g.w1[...] = dpred.T @ acts[0]
        return g
    dE = dpred.T @ acts[L - 1]
    g.deep[L - 2][...] = _norm_backward(Vs[L - 2], norms[L - 2], dE)
    U = dpred @ Vs[L - 2]
    for l in range(L - 1, 0, -1):
        Dl = U * _act_deriv(arch.activation, zs[l - 1])
        g.biases[l - 1][...] = Dl.sum(axis=0)
        dE = Dl.T @ acts[l - 1]
        if l == 1:
            g.w1[...] = dE
        else:
            g.deep[l - 2][...] = _norm_backward(Vs[l - 2], norms[l - 2], dE)
            U = Dl @ Vs[l - 2]
    return g


def prune(params, arch):
    """Drop unselected features (zero columns of w1) and dead neurons
    (zero rows of w1), shrinking the next matrix to match.

    Feature removal is exact.  Dead-neuron removal absorbs each dead
    neuron's constant activation into the next offset using the applied
    (normalized) weights; it is exact whenever the dropped columns carry
    zero weight, which the constant absorption then makes free.  An empty
    support collapses to the exact constant predictor on zero inputs.
    Returns (pruned_params, pruned_arch, selected_feature_indices) and is
    a no-op (same values) when nothing is droppable.
    """
    w1 = params.w1
    selected = np.flatnonzero(np.any(w1 != 0.0, axis=0))
    if selected.size == 0:
        probe = np.zeros((1, arch.input_dim))
        const = forward(params, arch, probe)[0]
        p_arch = Architecture(0, (), arch.output_dim, arch.activation)
        return NetworkParams(w1=np.zeros((arch.output_dim, 0)), intercept=const), p_arch, selected
    if arch.n_layers == 1:
        p_arch = Architecture(selected.size, (), arch.output_dim, arch.activation)
        p_params = NetworkParams(w1=w1[:, selected], intercept=params.intercept)
        return p_params, p_arch, selected
    alive = np.flatnonzero(np.any(w1 != 0.0, axis=1))
    if alive.size == w1.shape[0] and selected.size == w1.shape[1]:
        return params.copy(), arch, selected
    if alive.size == w1.shape[0]:
        p_arch = Architecture(selected.size, arch.hidden, arch.output_dim, arch.activation)
        p_params = NetworkParams(w1[:, selected], params.deep, params.biases, params.intercept)
        return p_params, p_arch, selected
    dead = np.setdiff1d(np.arange(w1.shape[0]), alive)
    w1p = w1[np.ix_(alive, selected)]
    b1p = params.biases[0][alive]
    V2, _ = normalize_rows(params.deep[0])
    const = V2[:, dead] @ _act(arch.activation, params.biases[0][dead])
    W2p = V2[:, alive].copy()
    rn = np.sqrt(np.sum(W2p * W2p, axis=1))
    if np.any(rn == 0.0):
        # a next-layer row fed only by dead neurons; give it a unit direction
        W2p[rn == 0.0] = 1.0 / np.sqrt(W2p.shape[1])
    p_hidden = (alive.size,) + arch.hidden[1:]
    p_arch = Architecture(selected.size, p_hidden, arch.output_dim, arch.activation)
    p_params = NetworkParams(w1p, [W2p] + params.deep[1:], [b1p] + params.biases[1:],
                             params.intercept)
    if arch.n_layers == 2:
        p_params.intercept += const
    else:
        p_params.biases[1] += const
    return p_params, p_arch, selected


def params_to_dict(params, arch):
    """JSON-ready representation; matrices row-major nested lists."""
    return {
        "input_dim": arch.input_dim,
        "hidden": list(arch.hidden),
        "output_dim": arch.output_dim,
        "activation": arch.activation,
        "w1": params.w1.tolist(),
        "deep": [d.tolist() for d in params.deep],
        "biases": [b.tolist() for b in params.biases],
        "intercept": params.intercept.tolist(),
    }


def params_from_dict(d):
    arch = Architecture(
        int(d["input_dim"]), tuple(d["hidden"]), int(d["output_dim"]), d["activation"]
    )
    w1 = np.asarray(d["w1"], dtype=np.float64).reshape(
        arch.widths[1], arch.widths[0]
    )
    params = NetworkParams(
        w1=w1,
        deep=[np.asarray(m, dtype=np.float64) for m in d["deep"]],
        biases=[np.asarray(b, dtype=np.float64) for b in d["biases"]],
        intercept=np.asarray(d["intercept"], dtype=np.float64),
    )
    return params, arch
