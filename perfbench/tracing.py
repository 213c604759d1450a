"""Per-layer tracing from outside the package.

A Tracer replaces the public functions listed in LAYER_FUNCTIONS with
timing wrappers, in every qutsparse module that binds them (modules bind
names at import, so ``trainer.loss_and_grad`` and ``losses.loss_and_grad``
are both patched).  Each wrapper keeps a span stack, so it knows the span
that caused it; from that it accumulates, per function, the call count,
inclusive seconds and self seconds (inclusive minus time covered by traced
children).  Aggregates are kept instead of a span list, because a
budget-bound fit makes about a million spans.

Derived counters are taken at the same boundaries:

* prox entries, nonzero outputs and a fixed sample of calls (every
  ``oracle_stride``-th call of an op) kept for the prox oracle;
* Monte Carlo null draws per ``compute_qut`` call;
* matmul flops of ``forward_cached`` and ``backward``, computed from the
  matrix shapes, not counted by hardware;
* sparsify iterations, counted from the span sequence as a ``backward``
  span immediately followed, at the same depth, by an ``ista_step`` span;
  every ``ista_step`` call is one line-search trial;
* the phase iterations each fit reports about itself, summed by phase
  group and labelled program-reported.

Only the main thread is traced.  Spans from forked sweep workers would
stay in the workers, so traced sweep passes run with ``--jobs 1``.
"""

import threading
import time

import numpy as np

# metric prefix -> (module, function); the prefix is the layer name
LAYER_FUNCTIONS = {
    "qut.compute_qut": ("qut", "compute_qut"),
    "network.forward_cached": ("network", "forward_cached"),
    "network.forward": ("network", "forward"),
    "network.backward": ("network", "backward"),
    "network.prune": ("network", "prune"),
    "losses.loss_and_grad": ("losses", "loss_and_grad"),
    "losses.loss_value": ("losses", "loss_value"),
    "penalty.prox_vector": ("penalty", "prox_vector"),
    "penalty.penalty_value": ("penalty", "penalty_value"),
    "penalty.penalty_slope": ("penalty", "penalty_slope"),
    "trainer.ista_step": ("trainer", "ista_step"),
    "trainer.fit": ("trainer", "fit"),
    "data.load_training": ("data", "load_training"),
    "simlab.sweep": ("simlab", "sweep"),
}


def _forward_flops(arch, n):
    w = arch.widths
    return sum(2.0 * n * w[k] * w[k + 1] for k in range(len(w) - 1))


def _backward_flops(arch, n):
    w = arch.widths
    L = len(w) - 1
    if L == 1:
        return 2.0 * n * w[0] * w[1]
    flops = 4.0 * n * w[L] * w[L - 1]  # output-layer weight gradient and U
    for l in range(L - 1, 0, -1):
        flops += 2.0 * n * w[l] * w[l - 1]  # weight gradient of layer l
        if l > 1:
            flops += 2.0 * n * w[l] * w[l - 1]  # propagate through layer l
    return flops


class Tracer:
    def __init__(self, package_modules, oracle_stride):
        self.modules = package_modules
        self.oracle_stride = oracle_stride
        self.stats = {name: [0, 0.0, 0.0] for name in LAYER_FUNCTIONS}
        self.counts = {
            "penalty.prox_vector.entries": 0,
            "penalty.prox_vector.nonzero": 0,
            "qut.draws": 0,
            "network.flop": 0.0,
            "trainer.linesearch.sparsify_iters": 0,
            "trainer.phase.warm.iters": 0,
            "trainer.phase.sparsify.iters": 0,
            "trainer.phase.refit.iters": 0,
        }
        self.oracle_samples = []
        self._op_prox_calls = 0
        self._stack = []  # child-time accumulators of the open spans
        self._prev = [None]  # name of the last closed span at each depth
        self._patches = []
        self._main = threading.get_ident()

    def install(self):
        for name, (mod_name, attr) in LAYER_FUNCTIONS.items():
            orig = getattr(self.modules[mod_name], attr)
            wrapper = self._wrap(name, orig)
            for mod in self.modules.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, orig))

    def remove(self):
        for mod, key, orig in reversed(self._patches):
            setattr(mod, key, orig)
        self._patches = []

    def start_op(self):
        """Reset the per-op call index that selects oracle samples."""
        self._op_prox_calls = 0

    def _wrap(self, name, orig):
        stats = self.stats[name]
        stack = self._stack
        prev = self._prev
        after = {
            "penalty.prox_vector": self._after_prox,
            "qut.compute_qut": self._after_qut,
            "network.forward_cached": self._after_forward,
            "network.backward": self._after_backward,
            "trainer.fit": self._after_fit,
        }.get(name)
        counts_ista = name == "trainer.ista_step"

        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._main:
                return orig(*args, **kwargs)
            depth = len(stack)
            if counts_ista and prev[depth] == "network.backward":
                self.counts["trainer.linesearch.sparsify_iters"] += 1
            if len(prev) <= depth + 1:
                prev.append(None)
            prev[depth + 1] = None
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child[0]
                prev[depth] = name
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _after_prox(self, args, kwargs, out):
        self.counts["penalty.prox_vector.entries"] += out.size
        self.counts["penalty.prox_vector.nonzero"] += int(np.count_nonzero(out))
        if self._op_prox_calls % self.oracle_stride == 0:
            v = np.array(args[0], dtype=np.float64)
            spec = args[1] if len(args) > 1 else kwargs["spec"]
            step = args[2] if len(args) > 2 else kwargs.get("step", 1.0)
            self.oracle_samples.append((v, step * spec.lam, spec.nu, np.array(out)))
        self._op_prox_calls += 1

    def _after_qut(self, args, kwargs, out):
        self.counts["qut.draws"] += int(out.n_mc)

    def _after_forward(self, args, kwargs, out):
        self.counts["network.flop"] += _forward_flops(args[1], out[0].shape[0])

    def _after_backward(self, args, kwargs, out):
        dpred = args[3] if len(args) > 3 else kwargs["dpred"]
        self.counts["network.flop"] += _backward_flops(args[1], dpred.shape[0])

    def _after_fit(self, args, kwargs, res):
        # program-reported: PhaseRecord.iterations is the last loop index at
        # this commit, not the number of iterations run
        for ph in res.phases:
            group = "warm" if ph.name.startswith("warm") else ph.name
            self.counts["trainer.phase.%s.iters" % group] += ph.iterations

    def take_oracle_samples(self):
        samples, self.oracle_samples = self.oracle_samples, []
        return samples

    def metrics(self, n_ops):
        """Per-op figures: every count and time is divided by n_ops."""
        out = {}
        per = 1.0 / max(n_ops, 1)
        for name, (calls, incl, self_s) in self.stats.items():
            out[name + ".calls"] = (calls * per, "count")
            out[name + ".s"] = (incl * per, "s")
            out[name + ".self_s"] = (self_s * per, "s")
        c = self.counts
        entries = c["penalty.prox_vector.entries"]
        out["penalty.prox_vector.entries"] = (entries * per, "count")
        out["penalty.prox_vector.nonzero_frac"] = (
            c["penalty.prox_vector.nonzero"] / entries if entries else 0.0, "ratio")
        draws = c["qut.draws"]
        out["qut.draws"] = (draws * per, "count")
        qut_s = self.stats["qut.compute_qut"][1]
        out["qut.us_per_draw"] = (1e6 * qut_s / draws if draws else 0.0, "us")
        gemm_s = self.stats["network.forward_cached"][1] + self.stats["network.backward"][1]
        out["network.gflop"] = (c["network.flop"] * 1e-9 * per, "Gflop")
        out["network.gflop_per_s"] = (
            c["network.flop"] * 1e-9 / gemm_s if gemm_s else 0.0, "Gflop/s")
        for group in ("warm", "sparsify", "refit"):
            key = "trainer.phase.%s.iters" % group
            out[key] = (c[key] * per, "count")
        iters = c["trainer.linesearch.sparsify_iters"]
        out["trainer.linesearch.sparsify_iters"] = (iters * per, "count")
        out["trainer.linesearch.trials_per_iter"] = (
            self.stats["trainer.ista_step"][0] / iters if iters else 0.0, "ratio")
        return out
