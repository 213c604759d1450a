"""qutsparse benchmark: fixed workloads over the CLI's ``qut`` and
``simulate`` subcommands, with output checks and an optional per-layer
trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is byte-compiled and imported from ``src/`` next to this
directory, never from an installed copy; without that source tree the
command exits non-zero and prints no result.  Workloads are defined in
``workloads.json``.  Every op runs in this process, in a closed loop with
one caller; the only other processes are the sweep worker pool the
program starts under its default ``--jobs``, and the set-up probes, which
run after the measurement.  BLAS thread variables are recorded, never set.

A run works through units: one ``qutsparse qut`` call on a CSV
(``cli-qut``) or one ``qutsparse simulate`` pass of several trials
(``sweep``).  Unit i draws its inputs from ``--seed`` and i just
before it runs, untimed, so every unit of a run is a new dataset.  Units
run until ``--seconds`` have passed and at least ``min_units`` are done.
A unit that the hard stop (HARD_STOP_S) leaves unrun below ``min_units``
counts its ops as failed.  An op is a ``qut`` call or a sweep trial.

Output, on stdout: one JSON report line (the environment and every
metric measured), then the result line ``{"correct", "attempted",
"failed", "metrics"}`` holding the metrics ``BENCHMARK.json`` declares.
With ``--trace 0`` those are the end-to-end metrics; with ``--trace 1``
every unit runs once untraced and once traced, and they are the
per-layer metrics (per op) and ``trace.overhead_frac``.

End-to-end metrics:

* setup_s: import, the warm-up inputs and one warm-up op, in this
  process and in SETUP_PROBES fresh probe processes; the median of them.
  Warm-up inputs are the same for every seed.  Sweeps have no warm-up op:
  every pass forks fresh workers, so a warm-up in this process would only
  warm caches the workers inherit, which a user's ``simulate`` never has.
* ops_per_s: ops per second of time spent in the program.
* op_s.p50, op_s.tail: seconds per op, the median and the workload's
  ``tail_percentile`` (``min_units`` guarantees at least 10 samples
  beyond it for ``qut`` calls, 3 for sweeps).  For sweeps, where a
  trial's own time cannot be seen from outside, the samples are passes:
  a pass's wall time x worker processes / trials.
* peak_rss_mb: peak resident memory of this process plus the largest
  peak among its children, taken before the probes run.

Reported, not bounded (computed over the first ``min_units`` units, so a
seed gives the same values whatever the speed): support_exact_frac,
fdr_mean, test_mse_ratio, maxiters_frac, and failed_frac over all ops.
"""

import argparse
import compileall
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = json.loads((HERE / "workloads.json").read_text())
HARD_STOP_S = 140.0  # no unit starts later than this, so a run ends inside 180 s
SETUP_PROBES = 6
WARMUP_ENTROPY = 20241117  # fixed, so set-up does the same work for every seed


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one set-up, print it as JSON and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def import_package():
    """Import qutsparse from the checkout's source tree; returns
    (package, {short module name: module}, seconds spent importing)."""
    pkg_dir = SRC / "qutsparse"
    if not (pkg_dir / "__init__.py").is_file():
        raise SystemExit("perfbench: no qutsparse source at %s" % pkg_dir)
    if not compileall.compile_dir(str(pkg_dir), quiet=1):
        raise SystemExit("perfbench: qutsparse does not byte-compile")
    # the benchmark's own modules import numpy, so they load after this timer
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (part of what a user's first import costs)
    import qutsparse
    import qutsparse.cli  # noqa: F401  (imports every other module)
    import_s = time.perf_counter() - t0
    if Path(qutsparse.__file__).resolve().parent != pkg_dir.resolve():
        raise SystemExit("perfbench: qutsparse imported from %s, not %s"
                         % (qutsparse.__file__, pkg_dir))
    modules = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
               if name == "qutsparse" or name.startswith("qutsparse.")}
    return qutsparse, modules, import_s


def environment(np, qutsparse):
    """What produced the numbers.  A checkout without git history is
    identified by the hash of the package sources."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "qutsparse").glob("*.py")):
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "backend": qutsparse.BACKEND,
        "has_numba": bool(qutsparse.HAS_NUMBA),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


@dataclass
class Outcome:
    """What the checks found for one op."""

    failed: str = None  # None, or the reason the op failed
    maxiters: bool = False
    exact: bool = False  # selected set equals the true support; None: no selection
    fdp: float = 0.0  # false-discovery proportion; None: no selection
    mse: float = None  # test MSE against the noiseless truth
    mse_null: float = None  # the same for the constant model


def failed_ops(n, reason):
    return [Outcome(failed=reason) for _ in range(n)]


class CliQut:
    """qut-cli: ``qutsparse qut`` via cli.main on a CSV written before the op."""

    ops_per_unit = 1
    in_flight = 1

    def __init__(self, spec, seed, work, np, q, mods):
        self.np, self.cli, self.seed, self.work = np, mods["cli"], seed, work
        shp = spec["shapes"]
        self.n, self.p, self.hidden = shp["n"], shp["p"], tuple(shp["hidden"])
        self.args = spec["cli"]

    def _write(self, rng, out):
        np = self.np
        X = rng.normal(size=(self.n, self.p))
        y = 2.0 * X[:, 3] - 1.5 * X[:, 11] + rng.normal(size=self.n)
        out.mkdir(parents=True, exist_ok=True)
        train = out / "train.csv"
        names = ["x%d" % j for j in range(self.p)] + ["y"]
        np.savetxt(train, np.column_stack([X, y]), fmt="%.17g", delimiter=",",
                   header=",".join(names), comments="")
        return {"X": X, "y": y, "train": train, "out": out}

    def unit(self, i):
        return self._write(self.np.random.default_rng([self.seed, i]), self.work / ("op%d" % i))

    def warm_up(self):
        unit = self._write(self.np.random.default_rng(WARMUP_ENTROPY), self.work / "warm-up")
        self.run(unit)
        self.cleanup(unit)

    def run(self, unit, in_process=False):
        fmt = {"train": str(unit["train"]), "out": str(unit["out"])}
        return self.cli.main([a.format(**fmt) for a in self.args])

    def check(self, unit, code):
        from checks import lambda_agrees, lambda_from_definition

        if code != 0:
            return [Outcome(failed="qut exited %r" % code)]
        path = unit["out"] / "qut.json"
        if not path.is_file():
            return [Outcome(failed="qut.json missing")]
        got = json.loads(path.read_text())
        if (got["data"]["n"], got["data"]["p"]) != (self.n, self.p):
            return [Outcome(failed="qut.json reports shape %r" % ((got["data"]["n"], got["data"]["p"]),))]
        X = unit["X"]
        ref = lambda_from_definition((X - X.mean(axis=0)) / X.std(axis=0), unit["y"][:, None],
                                     self.hidden)
        if not lambda_agrees(got["lambda_qut"], ref):
            return [Outcome(failed="lambda_qut %r disagrees with %r" % (got["lambda_qut"], ref))]
        return [Outcome(exact=None, fdp=None)]  # no selection: support metrics do not apply

    def cleanup(self, unit):
        shutil.rmtree(unit["out"], ignore_errors=True)


def parse_s_grid(text):
    """The levels of a --s grid: a comma list of ``s`` or ``lo:hi`` or
    ``lo:step:hi`` (both ends included), as the README writes them."""
    levels = set()
    for part in text.split(","):
        nums = [int(x) for x in part.split(":")]
        lo, hi, step = nums[0], nums[-1], nums[1] if len(nums) == 3 else 1
        levels.update(range(lo, hi + 1, step))
    return sorted(levels)


class Sweep:
    """sweep-*: one ``qutsparse simulate`` pass per unit via cli.main."""

    STATUSES = ("Converged", "MaxIters", "PerfectFit")

    def __init__(self, spec, seed, work, np, q, mods):
        self.np, self.cli, self.seed, self.work = np, mods["cli"], seed, work
        self.args = spec["cli"]
        self.kind = self.args[1]
        opts = dict(zip(self.args[2::2], self.args[3::2]))
        self.n, self.p = int(opts["--n"]), int(opts["--p"])
        self.s_grid = parse_s_grid(opts["--s"])
        self.runs = int(opts["--runs"])
        self.n_test = spec["shapes"]["n_test"]
        self.in_flight = os.cpu_count() or 1  # the CLI's default --jobs
        self.ops_per_unit = len(self.s_grid) * self.runs

    def unit(self, i):
        pass_seed = int(self.np.random.SeedSequence([self.seed, i]).generate_state(1)[0])
        return {"seed": pass_seed, "out": self.work / ("pass%d" % i)}

    def warm_up(self):
        pass

    def run(self, unit, in_process=False):
        jobs = ["--jobs", "1"] if in_process else []
        return self.cli.main(self.args + jobs + ["--seed", str(unit["seed"]),
                                                 "--output-dir", str(unit["out"])])

    def check(self, unit, code):
        from checks import false_discovery, sweep_dataset

        np = self.np
        trials = self.ops_per_unit
        if code != 0:
            return failed_ops(trials, "simulate exited %r" % code)
        records_path, csv_path = unit["out"] / "sweep_records.jsonl", unit["out"] / "sweep.csv"
        if not records_path.is_file() or not csv_path.is_file():
            return failed_ops(trials, "sweep.csv or sweep_records.jsonl missing")
        records = {}
        for line in records_path.read_text().splitlines():
            rec = json.loads(line)
            records[(rec["s"], rec["run"])] = rec
        outcomes, by_s = [], {}
        for s in self.s_grid:
            for run in range(self.runs):
                rec = records.get((s, run))
                out = self._check_record(rec, s, run, unit["seed"], sweep_dataset, false_discovery)
                outcomes.append(out)
                if out.failed is None:
                    by_s.setdefault(s, []).append(rec)
        rows = np.genfromtxt(csv_path, delimiter=",", names=True, ndmin=1)
        for row in rows:
            recs = by_s.get(int(row["s"]), [])
            if recs:
                pesr = np.mean([set(r["estimated_support"]) == set(r["true_support"]) for r in recs])
                if abs(row["pesr"] - pesr) > 1e-12:
                    return failed_ops(trials, "sweep.csv pesr disagrees with the records")
        return outcomes

    def _check_record(self, rec, s, run, seed, sweep_dataset, false_discovery):
        np = self.np
        if rec is None:
            return Outcome(failed="no record for s=%d run=%d" % (s, run))
        if "error" in rec:
            return Outcome(failed="trial s=%d run=%d raised: %s" % (s, run, rec["error"]))
        support, y_mean, mu_test = sweep_dataset(self.kind, self.n, self.p, s, self.n_test, seed, run)
        est = rec["estimated_support"]
        if rec["true_support"] != support.tolist():
            return Outcome(failed="s=%d run=%d: recorded support differs from the seeded draw" % (s, run))
        if est != sorted(set(est)) or any(not 0 <= j < self.p for j in est):
            return Outcome(failed="s=%d run=%d: malformed estimated support" % (s, run))
        if not np.isfinite(rec["l2_hat"]) or rec["status"] not in self.STATUSES:
            return Outcome(failed="s=%d run=%d: non-finite error or unknown status" % (s, run))
        return Outcome(maxiters=rec["status"] == "MaxIters", exact=est == support.tolist(),
                       fdp=false_discovery(est, support), mse=rec["l2_hat"],
                       mse_null=float(np.mean((mu_test - y_mean) ** 2)))

    def cleanup(self, unit):
        shutil.rmtree(unit["out"], ignore_errors=True)


KINDS = {"cli-qut": CliQut, "sweep": Sweep}


def run_unit(wl, unit, in_process=False):
    """Run one unit with the program's output silenced; returns
    (seconds, outcomes, (child CPU seconds, child involuntary switches)).
    in_process runs a sweep pass with --jobs 1."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            raw, error = wl.run(unit, in_process), None
        except Exception as exc:  # an op that raises is a failed op, never an abort
            raw, error = None, exc
        seconds = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if error is not None:
        outcomes = failed_ops(wl.ops_per_unit, "raised %s: %s" % (type(error).__name__, error))
    else:
        try:
            outcomes = wl.check(unit, raw)
        except Exception as exc:  # unreadable outputs fail the op
            outcomes = failed_ops(wl.ops_per_unit,
                                  "output check raised %s: %s" % (type(exc).__name__, exc))
    usage = (after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime,
             after.ru_nivcsw - before.ru_nivcsw)
    return seconds, outcomes, usage


def quality(outcomes):
    """Reported-only shares over a fixed list of ops."""
    n = len(outcomes)
    ok = [o for o in outcomes if o.failed is None]
    sel = [o for o in ok if o.exact is not None]
    scored = [o for o in ok if o.mse is not None]
    mse_null = sum(o.mse_null for o in scored)
    return {
        "support_exact_frac": (sum(o.exact for o in sel) / len(sel) if sel else None, "ratio"),
        "fdr_mean": (sum(o.fdp for o in sel) / len(sel) if sel else None, "ratio"),
        "test_mse_ratio": (sum(o.mse for o in scored) / mse_null if mse_null else None, "ratio"),
        "maxiters_frac": (sum(o.maxiters for o in ok) / n if n else None, "ratio"),
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def declared_metrics(trace):
    """Names the result line carries: BENCHMARK.json's end-to-end or
    per-layer list.  Everything measured goes to the report line."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def setup_probe(args):
    """Set-up time of a fresh interpreter, measured by the same code."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError("set-up probe failed:\n" + done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def measure(wl, spec, args, t_start):
    """Untraced units for --seconds and at least min_units.  Returns the
    (seconds, outcomes) of each unit run, and failed outcomes for the
    units short of min_units when the hard stop ends the run early."""
    units = []
    t0 = time.perf_counter()
    i = 0
    while i < spec["min_units"] or time.perf_counter() - t0 < args.seconds:
        if i > 0 and time.perf_counter() - t_start > HARD_STOP_S:
            break
        unit = wl.unit(i)
        seconds, outcomes, _ = run_unit(wl, unit)
        wl.cleanup(unit)
        units.append((seconds, outcomes))
        i += 1
    not_run = failed_ops(max(spec["min_units"] - i, 0) * wl.ops_per_unit,
                         "not run: the hard stop came before min_units units")
    return units, not_run


def end_to_end(wl, spec, units, not_run):
    np = wl.np
    outcomes = [o for _, o_list in units for o in o_list]
    ops = len(outcomes)
    busy = sum(s for s, _ in units)
    per_op = [s * wl.in_flight / len(o_list) for s, o_list in units]
    metrics = {
        "ops_per_s": (ops / busy, "1/s"),
        "op_s.p50": (statistics.median(per_op), "s"),
        "op_s.tail": (float(np.percentile(per_op, spec["tail_percentile"])), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    fixed = [o for _, o_list in units[:spec["min_units"]] for o in o_list] + not_run
    metrics.update(quality(fixed))
    metrics["failed_frac"] = (sum(o.failed is not None for o in outcomes + not_run)
                              / (ops + len(not_run)), "ratio")
    return metrics


def trace(wl, spec, args, modules, t_start):
    """Each unit untraced and traced, alternating which goes first.

    Sweep workers run untraced, so a sweep unit runs three times: once
    under the default --jobs, for the pool's getrusage view, and the
    untraced/traced pair with --jobs 1, so that its trials run, and are
    traced, in this process."""
    from checks import prox_oracle_counts
    from tracing import Tracer

    sweep = isinstance(wl, Sweep)
    tracer = Tracer(modules, spec["oracle_stride"])
    plain_s = traced_s = 0.0
    traced_ops = 0
    pool_cpu = pool_nivcsw = pool_wall = 0.0
    checked = bad = 0
    outcomes = []
    t0 = time.perf_counter()
    i = 0
    while i < spec["trace_min_units"] or time.perf_counter() - t0 < args.seconds:
        if i > 0 and time.perf_counter() - t_start > HARD_STOP_S:
            break
        unit = wl.unit(i)
        if sweep:
            seconds, o_list, (cpu, nivcsw) = run_unit(wl, unit)
            outcomes.extend(o_list)
            pool_cpu += cpu
            pool_nivcsw += nivcsw
            pool_wall += seconds
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.start_op()
                tracer.install()
            try:
                seconds, o_list, _ = run_unit(wl, unit, in_process=sweep)
            finally:
                tracer.remove()
            outcomes.extend(o_list)
            if traced:
                traced_s += seconds
                traced_ops += len(o_list)
                for sample in tracer.take_oracle_samples():
                    c, b = prox_oracle_counts(*sample)
                    checked += c
                    bad += b
            else:
                plain_s += seconds
        wl.cleanup(unit)
        i += 1
    layer = tracer.metrics(traced_ops)
    layer["penalty.prox_vector.oracle_checked"] = (checked / traced_ops, "count")
    layer["penalty.prox_vector.oracle_bad"] = (bad / traced_ops, "count")
    # the pool passes cover the same units, so they hold traced_ops trials too
    layer["simlab.pool.child_cpu_s"] = (pool_cpu / traced_ops, "s")
    layer["simlab.pool.child_nivcsw"] = (pool_nivcsw / traced_ops, "count")
    layer["simlab.pool.cpu_util"] = (
        pool_cpu / (pool_wall * (os.cpu_count() or 1)) if pool_wall else 0.0, "ratio")
    # no probes run in a traced run, so the children are the pool workers,
    # plus any process the launcher waited for before exec'ing Python
    layer["simlab.pool.child_maxrss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB")
    layer["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    return outcomes, layer


def main(argv=None):
    t_start = time.perf_counter()
    # a terminated run still removes its files and joins the sweep pool
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    spec = WORKLOADS[args.workload]
    q, modules, import_s = import_package()
    import numpy as np

    work = ROOT / ".bench_work" / ("%s-%d" % (args.workload, os.getpid()))
    try:
        t0 = time.perf_counter()
        wl = KINDS[spec["kind"]](spec, args.seed, work, np, q, modules)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            wl.warm_up()
        setup_s = import_s + time.perf_counter() - t0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        if args.trace:
            outcomes, metrics = trace(wl, spec, args, modules, t_start)
        else:
            units, not_run = measure(wl, spec, args, t_start)
            outcomes = [o for _, o_list in units for o in o_list] + not_run
            metrics = end_to_end(wl, spec, units, not_run)
            samples = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
            metrics["setup_s"] = (statistics.median(samples), "s")
            report["setup_samples_s"] = samples
            report["units"] = len(units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    # after the measurement: a git child would count in the children's peak memory
    report["env"] = environment(np, q)
    failures = [o.failed for o in outcomes if o.failed is not None]
    report["failures"] = failures[:10]
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: report["metrics"][k] for k in declared_metrics(args.trace)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
