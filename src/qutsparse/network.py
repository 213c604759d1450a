"""Feature-selecting multilayer perceptron.

The first weight matrix is stored and applied as-is; it is the only
penalized block, and a zero column there means the feature is out of the
model.  Every deeper weight matrix is stored unnormalized but applied
with each row divided by its l2 norm, so the deeper layers cannot
re-inflate shrunken first-layer weights.  An all-zero stored row has norm
1 by definition, so it applies as zero.  The normalization is
differentiated, not frozen: gradients of the stored rows are the
tangential component of the gradients of the applied rows.

Activations are unbounded above with derivative bounded by 1 (relu,
leaky relu with slope 0.01, softplus); the output layer is affine.  The
linear model is the network with no hidden layer: the same layer loop of
forward_cached, backward and prune runs zero times, and w1, penalized and
unnormalized as always, maps the inputs straight to the outputs.

All parameters live in one contiguous float64 vector, ``NetworkParams.flat``:
w1, then the deep matrices from layer 2 up, then the hidden biases, then
the output intercept, each block row-major.  The block attributes are
views into that vector, written in place; rebinding one raises.
backward() returns its gradient in the same layout: in a new vector, or
written in place into ``out=``, a gradient buffer that a training phase
allocates once and reuses for every update.
So an optimizer step, a parameter copy or a gradient step is one array
operation, and only the prox touches a single block, the w1 slice.
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


class NetworkParams:
    """w1 is the penalized first matrix (first hidden width x input_dim, or
    output_dim x input_dim for the linear model).  deep holds the stored
    unnormalized matrices of layers 2..L, biases the hidden-layer offsets,
    intercept the output offset.

    The blocks are packed into the one vector ``flat`` in the order w1,
    deep, biases, intercept; w1 and intercept are views into it, deep and
    biases tuples of views.  A block is written in place
    (``params.w1[...] = v``, ``params.flat += d``); rebinding an attribute
    raises AttributeError, and assigning an element of deep or biases
    raises TypeError."""

    def __init__(self, w1, deep=(), biases=(), *, intercept):
        blocks = [np.asarray(b, dtype=np.float64) for b in (w1, *deep, *biases, intercept)]
        layout, k = [], 0
        for b in blocks:
            layout.append((k, k + b.size, b.shape))
            k += b.size
        self._bind(tuple(layout), np.concatenate([b.ravel() for b in blocks]))

    def _bind(self, layout, flat):
        views = [flat[a:b].reshape(shape) for a, b, shape in layout]
        n = (len(views) - 2) // 2
        self.__dict__.update(_layout=layout, flat=flat, w1=views[0], deep=tuple(views[1:1 + n]),
                             biases=tuple(views[1 + n:-1]), intercept=views[-1])

    def __setattr__(self, name, value):
        # an in-place operator (params.w1 += g) rebinds the same object
        if name not in self.__dict__ or self.__dict__[name] is not value:
            raise AttributeError("cannot rebind %r: parameter blocks are written in place"
                                 % name)

    def like(self, flat):
        """Parameters with this layout viewing ``flat`` (no copy)."""
        out = object.__new__(NetworkParams)
        out._bind(self._layout, flat)
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
    """Applied form of a stored deep matrix plus the row norms.  An all-zero
    row is divided by 1, so it applies as zero."""
    norms = np.sqrt(np.sum(W * W, axis=1))
    norms[norms == 0.0] = 1.0
    return W / norms[:, None], norms


def _norm_backward(V, norms, dV, out=None):
    # d(stored)/d(applied): remove the radial component, divide by the norm;
    # (dV - dot * V) / norms, written into out when given
    dot = np.sum(dV * V, axis=1, keepdims=True)
    out = np.multiply(dot, V, out=out)
    np.subtract(dV, out, out=out)
    np.divide(out, norms[:, None], out=out)
    return out


def init_params(arch, rng):
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero offsets."""
    widths = arch.widths
    scale1 = 1.0 / np.sqrt(max(widths[0], 1))
    w1 = rng.uniform(-scale1, scale1, size=(widths[1], widths[0]))
    deep = []
    for l in range(1, arch.n_layers):
        s = 1.0 / np.sqrt(widths[l])
        deep.append(rng.uniform(-s, s, size=(widths[l + 1], widths[l])))
    biases = [np.zeros(widths[l]) for l in range(1, arch.n_layers)]
    intercept = np.zeros(arch.output_dim)
    return NetworkParams(w1=w1, deep=deep, biases=biases, intercept=intercept)


def forward_cached(params, arch, X):
    """Predictions plus the intermediate state backward() needs."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != arch.input_dim:
        raise ValueError("X must be (n, %d), got %r" % (arch.input_dim, X.shape))
    acts = [X]
    zs, Vs, norms = [], [], []
    z = X @ params.w1.T
    # one pass per hidden layer; the linear model has none
    for b, W in zip(params.biases, params.deep):
        z += b
        zs.append(z)
        acts.append(_act(arch.activation, z))
        V, nr = normalize_rows(W)
        Vs.append(V)
        norms.append(nr)
        z = acts[-1] @ V.T
    z += params.intercept
    return z, (acts, zs, Vs, norms)


def forward(params, arch, X):
    return forward_cached(params, arch, X)[0]


def backward(params, arch, cache, dpred, out=None):
    """Gradients of a scalar function of the predictions with respect to
    every parameter, given dpred = d(scalar)/d(predictions), packed with
    the layout of params.  They go into a new buffer, or, when ``out`` is
    a NetworkParams of that layout, overwrite every entry of out.flat, so
    a training phase can keep one gradient buffer for all its updates.
    Returns the gradient."""
    acts, zs, Vs, norms = cache
    g = params.like(np.empty_like(params.flat)) if out is None else out
    dpred.sum(axis=0, out=g.intercept)
    # D is the gradient with respect to the pre-activation of the layer
    # being passed, from the output down to the first hidden layer
    D = dpred
    for l in range(len(Vs) - 1, -1, -1):
        dE = D.T @ acts[l + 1]
        _norm_backward(Vs[l], norms[l], dE, out=g.deep[l])
        D = D @ Vs[l]
        D *= _act_deriv(arch.activation, zs[l])
        D.sum(axis=0, out=g.biases[l])
    np.matmul(D.T, acts[0], out=g.w1)
    return g


def prune(params, arch):
    """Drop unselected features (zero columns of w1) and dead neurons
    (zero rows of w1), shrinking the next matrix to match.

    Feature removal is exact.  Dead-neuron removal absorbs each dead
    neuron's constant activation into the next offset using the applied
    (normalized) weights.  It is exact for each next-layer row whose
    dropped columns carry zero weight, and for each row fed only by dead
    neurons, which keeps no weight and so applies as zero.  An empty
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
    alive = np.flatnonzero(np.any(w1 != 0.0, axis=1))
    # a linear model's w1 rows are its outputs, never dropped
    if arch.n_layers == 1 or alive.size == w1.shape[0]:
        p_arch = Architecture(selected.size, arch.hidden, arch.output_dim, arch.activation)
        p_params = NetworkParams(w1[:, selected], params.deep, params.biases,
                                 intercept=params.intercept)
        return p_params, p_arch, selected
    dead = np.setdiff1d(np.arange(w1.shape[0]), alive)
    w1p = w1[np.ix_(alive, selected)]
    b1p = params.biases[0][alive]
    V2, _ = normalize_rows(params.deep[0])
    const = V2[:, dead] @ _act(arch.activation, params.biases[0][dead])
    p_hidden = (alive.size,) + arch.hidden[1:]
    p_arch = Architecture(selected.size, p_hidden, arch.output_dim, arch.activation)
    p_params = NetworkParams(w1p, (V2[:, alive], *params.deep[1:]),
                             (b1p, *params.biases[1:]), intercept=params.intercept)
    if arch.n_layers == 2:
        p_params.intercept += const
    else:
        p_params.biases[1][...] += const
    return p_params, p_arch, selected


# the entries params_to_dict writes
PARAM_KEYS = ("input_dim", "hidden", "output_dim", "activation", "w1", "deep", "biases",
              "intercept")


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
    """Inverse of params_to_dict.  An entry that is not a dict, a missing
    key, or a block whose shape does not match the declared widths raises
    ValueError naming the fault."""
    if not isinstance(d, dict):
        raise ValueError("expected an object, got %s" % type(d).__name__)
    missing = [key for key in PARAM_KEYS if key not in d]
    if missing:
        raise ValueError("lacks %s" % ", ".join(map(repr, missing)))
    arch = Architecture(
        int(d["input_dim"]), tuple(d["hidden"]), int(d["output_dim"]), d["activation"]
    )
    w = arch.widths
    w1 = np.asarray(d["w1"], dtype=np.float64)
    if w1.size != w[1] * w[0]:
        raise ValueError("w1 has %d entries, widths %r need %d x %d"
                         % (w1.size, list(w), w[1], w[0]))
    deep = [np.asarray(m, dtype=np.float64) for m in d["deep"]]
    biases = [np.asarray(b, dtype=np.float64) for b in d["biases"]]
    intercept = np.asarray(d["intercept"], dtype=np.float64)
    for name, got, want in (
        ("deep", [m.shape for m in deep], [(w[l + 1], w[l]) for l in range(1, arch.n_layers)]),
        ("biases", [b.shape for b in biases], [(w[l],) for l in range(1, arch.n_layers)]),
        ("intercept", [intercept.shape], [(w[-1],)]),
    ):
        if got != want:
            raise ValueError("%s has shapes %r, widths %r need %r" % (name, got, list(w), want))
    params = NetworkParams(w1=w1.reshape(w[1], w[0]), deep=deep, biases=biases,
                           intercept=intercept)
    return params, arch
