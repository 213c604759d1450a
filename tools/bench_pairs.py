"""Alternating benchmark pairs: this checkout against a parent revision.

    python3 tools/bench_pairs.py --parent REV --out FILE [--pairs K]
        [--seconds T] [--workload W ...]

REV is checked out with ``git worktree add --detach`` under a temporary
directory, which is removed on every exit, an error included.  The tool
refuses to run unless ``perfbench/`` and ``BENCHMARK.json`` are
byte-identical in both trees (``__pycache__`` directories aside), so both
sides are measured by the same benchmark.

For each workload (default: every one BENCHMARK.json declares), pair i
runs ``python3 perfbench/run.py --workload W --seed i --seconds T`` in
both trees, the change first in even pairs and the parent first in odd
ones.  T defaults to BENCHMARK.json's ``run_seconds`` and K to 10.  Every
run inherits this process's environment.

FILE gets, per run, the benchmark's report line and result line; per
pair, the change/parent ratio of every end-to-end metric; and per
workload and metric, both sides' median and quartiles, the change's
wins, ties and losses by the metric's ``better``, whether a gain counts
(the change wins at least nine tenths of the pairs and its median is
better than the parent's by more than the parent's interquartile range),
whether the change's median is worse than the parent's by more than
the metric's ``bound``, and whether the pairs cannot tell: ``unresolved``
when the parent's interquartile range exceeds ``bound`` times its median
and not every change run beats every parent run.  It also records the
command, each tree's git sha, ``src_sha256`` and environment block, and
``dirty`` when this checkout's ``src/`` has uncommitted changes (its git
sha is then its HEAD's, and ``src_sha256`` tells the sides apart).  The
exit status is 1 when a run fails or reports a failed op.
"""

import argparse
import filecmp
import json
import shlex
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_FILES = ("perfbench", "BENCHMARK.json")


def _files(tree):
    """Relative paths of the benchmark's files in tree."""
    out = set()
    for name in BENCHMARK_FILES:
        path = Path(tree) / name
        if path.is_file():
            out.add(name)
        elif path.is_dir():
            out.update(str(p.relative_to(tree)) for p in path.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts)
    return out


def benchmark_differences(tree_a, tree_b):
    """The benchmark files that are missing from one tree or differ."""
    a, b = _files(tree_a), _files(tree_b)
    both = a & b
    return sorted((a ^ b) | {f for f in both if not filecmp.cmp(Path(tree_a) / f,
                                                               Path(tree_b) / f, shallow=False)})


def summarize(change, parent, better, bound):
    """Compare one metric's per-pair values, change[i] against parent[i]."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for c, p in zip(change, parent))
    losses = sum(sign * (c - p) > 0 for c, p in zip(change, parent))
    c_q = np.percentile(change, [25, 50, 75])
    p_q = np.percentile(parent, [25, 50, 75])
    gain = sign * (p_q[1] - c_q[1])  # > 0 when the change's median is better
    beats_all = max(sign * c for c in change) < min(sign * p for p in parent)
    return {
        "change": {"median": float(c_q[1]), "q1": float(c_q[0]), "q3": float(c_q[2])},
        "parent": {"median": float(p_q[1]), "q1": float(p_q[0]), "q3": float(p_q[2])},
        "wins": int(wins),
        "ties": len(change) - int(wins) - int(losses),
        "losses": int(losses),
        "gain_counts": bool(wins >= 0.9 * len(change) and gain > p_q[2] - p_q[0]),
        "worse_than_bound": bool(-gain > bound * abs(p_q[1])),
        "unresolved": bool(p_q[2] - p_q[0] > bound * abs(p_q[1]) and not beats_all),
    }


def _git(tree, *args):
    return subprocess.run(["git", *args], cwd=tree, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_bench(tree, workload, seed, seconds):
    """The report and result lines of one benchmark run in tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError("%s in %s exited %d:\n%s" % (" ".join(cmd), tree, done.returncode,
                                                         done.stderr))
    report, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return {"report": report["report"], "result": result}


def measure(trees, workloads, metrics, pairs, seconds):
    """Per workload: the pair records and the per-metric summary."""
    out = {}
    for workload in workloads:
        records = []
        for i in range(pairs):
            order = ("change", "parent") if i % 2 == 0 else ("parent", "change")
            pair = {"seed": i, "first": order[0]}
            for side in order:
                pair[side] = run_bench(trees[side], workload, i, seconds)
                print("%s pair %d %s: %s" % (workload, i, side,
                                             json.dumps(pair[side]["result"])), flush=True)
            values = {side: pair[side]["result"]["metrics"] for side in trees}
            pair["ratio"] = {m["name"]: values["change"][m["name"]]["value"]
                             / values["parent"][m["name"]]["value"] for m in metrics}
            records.append(pair)
        summary = {m["name"]: summarize(
            [p["change"]["result"]["metrics"][m["name"]]["value"] for p in records],
            [p["parent"]["result"]["metrics"][m["name"]]["value"] for p in records],
            m["better"], m["bound"]) for m in metrics}
        out[workload] = {"pairs": records, "summary": summary}
    return out


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--pairs", type=int, default=10, help="pairs per workload (default: 10)")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"],
                    help="--seconds of each run (default: %(default)s)")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]],
                    help="a workload to run; repeat for more (default: all)")
    argv = sys.argv[1:] if argv is None else argv
    args = ap.parse_args(argv)
    # a terminated run still removes its worktree
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent = Path(tmp) / "parent"
        _git(ROOT, "worktree", "add", "--detach", str(parent), args.parent)
        try:
            differ = benchmark_differences(ROOT, parent)
            if differ:
                sys.stderr.write("the benchmark differs between the trees: %s\n"
                                 % ", ".join(differ))
                return 2
            trees = {"change": ROOT, "parent": parent}
            workloads = args.workload or [w["name"] for w in bench["workloads"]]
            results = measure(trees, workloads, bench["end_to_end"], args.pairs, args.seconds)
        finally:
            _git(ROOT, "worktree", "remove", "--force", str(parent))

    sides = {}
    for side in ("change", "parent"):
        env = results[workloads[0]]["pairs"][0][side]["report"]["env"]
        sides[side] = {"git_sha": env["git_sha"], "src_sha256": env["src_sha256"], "env": env}
    sides["parent"]["rev"] = args.parent
    sides["change"]["dirty"] = bool(_git(ROOT, "status", "--porcelain", "--", "src"))
    payload = {
        "command": shlex.join(["python3", "tools/bench_pairs.py", *argv]),
        "pairs": args.pairs,
        "seconds": args.seconds,
        "trees": sides,
        "workloads": results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    failed = sum(p[side]["result"]["failed"] for w in results.values() for p in w["pairs"]
                 for side in ("change", "parent"))
    print("wrote %s; %d failed ops" % (args.out, failed))
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())
