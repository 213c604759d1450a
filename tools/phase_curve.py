"""Phase curve of exact-support recovery on the README linear grid, with
its lasso control.

    python3 tools/phase_curve.py [--runs N] [--check FILE]

Runs ``simulate linear --n 70 --p 250 --s 0:25 --seed 0`` through
``simlab.sweep``, N runs per s (default 100), with one worker process
per CPU and the package imported from the ``src/`` next to this
directory.  Then it runs the same trials
as a lasso: every shape parameter of the annealing ladder set to 1, where
pen(t) = |t|/2, and each fit at 2 * lambda_qut computed at that fit's own
seed, so that lam * pen(t) = lambda_qut * |t| and the null level is the
method's.  The control is set up by patching ``trainer.NU_SCHEDULE`` and
``simlab.fit`` in this process; the sweep's workers see the patch because
they are forked from it after it is made (where processes are not forked,
the control runs in this process alone).

For each method and s it prints the exact-support recovery rate (PESR)
with its Wilson 95% interval, the mean false discovery and true positive
rates, the median test l2 error and the number of trials that ended in
MaxIters; then the smallest s whose PESR is below 0.5.  The header names
the command, the run count, numpy, the BLAS, OPENBLAS_NUM_THREADS and
the CPU model: OpenBLAS picks its kernels per CPU and a one-ulp change of
the level can flip a support, so a printout is a reference for one host
class.  Every trial's outcome is independent of the worker count.

``--check FILE`` compares the printout with FILE and exits 1, with a
diff on stderr, on any difference.  A trial that raises exits 1 too.
"""

import argparse
import difflib
import math
import multiprocessing
import os
import platform
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qutsparse import simlab, trainer  # noqa: E402
from qutsparse.qut import compute_qut  # noqa: E402

GRID = dict(kind="linear", n=70, p=250, seed=0)
S_VALUES = range(26)


def wilson(k, n):
    """Wilson 95% score interval for k successes in n trials."""
    z = 1.959963984540054  # the standard normal's 97.5% quantile
    center = (k + z * z / 2.0) / (n + z * z)
    half = z / (n + z * z) * math.sqrt(k * (n - k) / n + z * z / 4.0)
    return max(0.0, center - half), min(1.0, center + half)


def lasso_sweep(specs, jobs):
    """The trials of specs, each fit as a lasso at twice its own level."""
    fit = simlab.fit

    def lasso_fit(X, Y, task, arch, config):
        est = compute_qut(X, Y, task, arch, alpha=config.alpha, n_mc=config.n_mc,
                          seed=config.seed)
        return fit(X, Y, task, arch, config, lambda_qut=2.0 * est.lambda_qut)

    if multiprocessing.get_start_method() != "fork":
        jobs = 1  # workers that import the package afresh would miss the patch
    saved = trainer.NU_SCHEDULE, simlab.fit
    trainer.NU_SCHEDULE, simlab.fit = (1.0,) * len(saved[0]), lasso_fit
    try:
        return simlab.sweep(specs, jobs=jobs)[1]
    finally:
        trainer.NU_SCHEDULE, simlab.fit = saved


def table(name, specs, records):
    """The printed rows of one method."""
    lines = ["", "method: %s" % name,
             "%3s %5s %7s %7s %7s %7s %10s %8s" % ("s", "pesr", "lo95", "hi95", "fdr", "tpr",
                                                   "median_l2", "maxiters")]
    crossing = None
    for spec in specs:
        recs = [r for r in records if r["s"] == spec.s]
        errors = [r["error"] for r in recs if "error" in r]
        if errors:
            raise RuntimeError("%s, s=%d: a trial raised: %s" % (name, spec.s, errors[0]))
        m = simlab.metrics(recs)
        lo, hi = wilson(round(m["pesr"] * len(recs)), len(recs))
        median_l2 = statistics.median(r["l2_hat"] for r in recs)
        maxiters = sum(r["status"] == trainer.STATUS_MAX_ITERS for r in recs)
        lines.append("%3d %5.2f %7.4f %7.4f %7.4f %7.4f %10.4f %8d" % (
            spec.s, m["pesr"], lo, hi, m["fdr"], m["tpr"], median_l2, maxiters))
        if crossing is None and m["pesr"] < 0.5:
            crossing = spec.s
    lines.append("smallest s with pesr < 0.5: %s" % crossing)
    return lines


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def header(runs):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        "# phase curve: simulate linear --n 70 --p 250 --s 0:25 --seed 0, %d runs per s" % runs,
        "# numpy %s, BLAS %s %s, OPENBLAS_NUM_THREADS=%s" % (
            np.__version__, blas.get("name"), blas.get("version"),
            os.environ.get("OPENBLAS_NUM_THREADS", "unset")),
        "# CPU %s" % cpu_model(),
    ]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=100, help="runs per s (default: %(default)s)")
    ap.add_argument("--check", metavar="FILE",
                    help="exit 1 unless the printout equals FILE's content")
    args = ap.parse_args(argv)
    specs = [simlab.ScenarioSpec(s=s, n_runs=args.runs, **GRID) for s in S_VALUES]
    lines = header(args.runs)
    jobs = os.cpu_count() or 1
    lines += table("qutsparse", specs, simlab.sweep(specs, jobs=jobs)[1])
    lines += table("lasso control", specs, lasso_sweep(specs, jobs))
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.check is not None:
        want = Path(args.check).read_text()
        if want != text:
            sys.stderr.writelines(difflib.unified_diff(
                want.splitlines(True), text.splitlines(True), args.check, "this run"))
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
