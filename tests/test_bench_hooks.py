import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import qutsparse.cli  # noqa: F401  (imports every module the tracer patches)
from qutsparse import trainer
from qutsparse.losses import TaskSpec
from qutsparse.network import Architecture
from qutsparse.trainer import TrainConfig

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    """perfbench/tracing.py wraps each (module, name) of LAYER_FUNCTIONS by
    getattr at install, so a renamed function breaks `run.py --trace 1`."""
    tracing = load_perfbench("tracing")
    missing = [(module, name) for module, name in tracing.LAYER_FUNCTIONS.values()
               if not callable(getattr(importlib.import_module("qutsparse." + module), name,
                                       None))]
    assert tracing.LAYER_FUNCTIONS and missing == []


@pytest.mark.parametrize("hidden", [(), (5,), (5, 3)], ids=str)
def test_tracer_reads_the_arguments_and_results_of_a_fit(hidden):
    """The tracer takes counters from argument positions (prox_vector's v,
    spec and step, backward's dpred) and result fields (compute_qut's n_mc,
    fit's phases); a changed signature would zero them or raise."""
    modules = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
               if name == "qutsparse" or name.startswith("qutsparse.")}
    tracer = load_perfbench("tracing").Tracer(modules, oracle_stride=10)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 6))
    Y = (2.0 * X[:, 0] - X[:, 3] + rng.normal(size=40))[:, None]
    tracer.install()
    try:
        res = modules["trainer"].fit(X, Y, TaskSpec("regression", 1), Architecture(6, hidden, 1),
                                     TrainConfig(n_mc=50))
    finally:
        tracer.remove()
    counts = tracer.counts
    assert counts["qut.draws"] == 50 and tracer.take_oracle_samples()
    assert min(counts.values()) > 0, counts
    sparsify = [ph.iterations for ph in res.phases if ph.name == "sparsify"]
    assert [counts["trainer.linesearch.sparsify_iters"]] == sparsify


def test_every_fit_status_passes_the_sweep_check():
    """perfbench/run.py fails a sweep op whose record status is not in
    Sweep.STATUSES, and counts maxiters_frac by the literal "MaxIters"."""
    statuses = {value for name, value in vars(trainer).items() if name.startswith("STATUS_")}
    assert statuses and statuses <= set(load_perfbench("run").Sweep.STATUSES)
    assert trainer.STATUS_MAX_ITERS == "MaxIters"
