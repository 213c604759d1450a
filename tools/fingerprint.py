"""Fingerprint the outputs of a fixed set of qutsparse commands.

    python3 tools/fingerprint.py [--src DIR]

Each command of COMMANDS runs as ``python -m qutsparse.cli`` in a fresh
temporary directory, with the package imported from DIR (default: the
``src/`` next to this directory).  The input CSVs are generated here from
fixed seeds, so every checkout sees the same bytes.  One line is printed
per command and output file: its label, the file name and the sha256 of
its content, plus one line with the exit code.  Fields that differ on
every run are left out of the hash: ``created_at`` and ``wall_time_s`` in
JSON files, and the line order of ``sweep_records.jsonl``, which parallel
workers append in completion order.

To show that a change leaves every output as it was, run the script on
both checkouts (``--src`` pointing at each ``src/``) and diff the two
printouts.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
VOLATILE = ("created_at", "wall_time_s")
README_GRID = ["simulate", "linear", "--n", "70", "--p", "250", "--s", "0:25", "--runs", "2"]

# label -> argv, run in this order from the parent of the output
# directories; {reg}, {cls}, {wide}, {reg_test} and {cls_test} name the
# generated CSVs
COMMANDS = {
    "grid-jobs1": README_GRID + ["--jobs", "1"],
    "grid-jobs2": README_GRID + ["--jobs", "2"],
    "fit-none": ["fit", "{reg}", "--target", "y", "--hidden", "none"],
    "fit-20": ["fit", "{reg}", "--target", "y", "--hidden", "20"],
    "fit-20-10": ["fit", "{reg}", "--target", "y", "--hidden", "20,10"],
    "fit-3class": ["fit", "{cls}", "--target", "label", "--task", "classification",
                   "--hidden", "10"],
    "qut-300x80": ["qut", "{wide}", "--target", "y", "--hidden", "20"],
    "predict-20": ["predict", "fit-20/model.json", "{reg_test}"],
    "fit-20-test": ["fit", "{reg}", "--target", "y", "--hidden", "20",
                    "--test-file", "{reg_test}"],
    "fit-3class-test": ["fit", "{cls}", "--target", "label", "--task", "classification",
                        "--hidden", "10", "--test-file", "{cls_test}"],
}


def _write_csv(path, X, y, target):
    names = ["x%d" % j for j in range(X.shape[1])] + [target]
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row, label in zip(X, y):
            fh.write(",".join(repr(float(v)) for v in row) + "," + str(label) + "\n")


def write_inputs(directory):
    """The input CSVs, from fixed seeds: a 60x6 regression file, a 150x10
    3-class file, a 300x80 regression file, and held-out files of 40 and 60
    rows drawn as the first two are."""
    rng = np.random.default_rng(20241117)
    X = rng.normal(size=(60, 6))
    _write_csv(directory / "reg.csv", X, 2.0 * X[:, 0] - X[:, 3] + 0.3 * rng.normal(size=60), "y")
    X = rng.normal(size=(150, 10))
    labels = np.array(["a", "b", "c"])[np.digitize(X[:, 2], [-0.5, 0.5])]
    _write_csv(directory / "cls.csv", X, labels, "label")
    X = rng.normal(size=(300, 80))
    _write_csv(directory / "wide.csv", X, 2.0 * X[:, 3] - 1.5 * X[:, 11] + rng.normal(size=300),
               "y")
    X = rng.normal(size=(40, 6))
    _write_csv(directory / "reg_test.csv", X, 2.0 * X[:, 0] - X[:, 3] + 0.3 * rng.normal(size=40),
               "y")
    X = rng.normal(size=(60, 10))
    labels = np.array(["a", "b", "c"])[np.digitize(X[:, 2], [-0.5, 0.5])]
    _write_csv(directory / "cls_test.csv", X, labels, "label")
    return {name: directory / ("%s.csv" % name)
            for name in ("reg", "cls", "wide", "reg_test", "cls_test")}


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in VOLATILE}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def digest(path):
    """sha256 of a file's content, volatile fields and line order removed."""
    data = path.read_bytes()
    if path.suffix == ".json":
        data = json.dumps(_strip(json.loads(data)), sort_keys=True).encode()
    elif path.suffix == ".jsonl":
        lines = [json.dumps(_strip(json.loads(line)), sort_keys=True)
                 for line in data.decode().splitlines() if line.strip()]
        data = "\n".join(sorted(lines)).encode()
    return hashlib.sha256(data).hexdigest()


def fingerprint(commands, src):
    """Lines '<label> <file> <sha256>' and '<label> exit <code>' for each
    command, run with the package under src."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    lines = []
    with tempfile.TemporaryDirectory(prefix="qutsparse-fingerprint-") as tmp:
        tmp = Path(tmp)
        inputs = write_inputs(tmp)
        for label, argv in commands.items():
            out = tmp / label
            argv = [a.format(**inputs) for a in argv] + ["--output-dir", str(out)]
            proc = subprocess.run([sys.executable, "-m", "qutsparse.cli"] + argv, env=env,
                                  cwd=tmp, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            lines.append("%s exit %d" % (label, proc.returncode))
            if proc.returncode not in (0, 5):
                sys.stderr.write(proc.stderr.decode())
            for path in sorted(out.glob("*")) if out.is_dir() else ():
                lines.append("%s %s %s" % (label, path.name, digest(path)))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the qutsparse package (default: %(default)s)")
    args = ap.parse_args(argv)
    for line in fingerprint(COMMANDS, args.src):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
