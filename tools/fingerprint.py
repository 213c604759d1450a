"""Fingerprint the outputs of a fixed set of qutsparse commands.

    python3 tools/fingerprint.py [--src DIR]

Each command of COMMANDS runs as ``python -m qutsparse.cli`` in a fresh
temporary directory, with the package imported from DIR (default: the
``src/`` next to this directory).  The input CSVs are generated here from
fixed seeds, so every checkout sees the same bytes.  One line is printed
per command and output file: its label, the file name and the sha256 of
its content, plus one line with the exit code and one with the sha256 of
the command's standard output (the fit report, the held-out score, the
sweep table), in which the temporary directory's path is replaced by a
fixed token.  Fields that differ on every run are left out of the hash:
``created_at`` and ``wall_time_s`` in JSON files.  The lines of
``sweep_records.jsonl`` are hashed in sorted order: a sweep writes them in
trial order at any ``--jobs``, but ``--resume`` appends the fresh records
after the kept ones.

To show that a change leaves every output as it was, run the script on
both checkouts (``--src`` pointing at each ``src/``) and diff the two
printouts.  The exit status is 1 when any command exited with a code other
than 0 or 5 (the budget exit), else 0.
Every command runs with this process's environment, so under
``PYTHONWARNINGS=error`` a warning fails the command that raised it.
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
ABSDIFF_GRID = ["simulate", "absdiff", "--n", "100", "--p", "10", "--s", "0:2:4", "--hidden", "10",
                "--runs", "2"]

# label -> argv, run in this order from the parent of the output
# directories; {reg}, {cls}, {wide}, {reg_test}, {cls_test}, {crlf}, {cr},
# {noise} and {cells} name the generated CSVs and {cfg} the config file
COMMANDS = {
    "grid-jobs1": README_GRID + ["--jobs", "1"],
    "grid-jobs2": README_GRID + ["--jobs", "2"],
    "fit-none": ["fit", "{reg}", "--target", "y", "--hidden", "none"],
    "fit-20": ["fit", "{reg}", "--target", "y", "--hidden", "20"],
    "fit-20-10": ["fit", "{reg}", "--target", "y", "--hidden", "20,10"],
    "fit-3class": ["fit", "{cls}", "--target", "label", "--task", "classification",
                   "--hidden", "10"],
    "predict-3class": ["predict", "fit-3class/model.json", "{cls_test}"],
    "qut-300x80": ["qut", "{wide}", "--target", "y", "--hidden", "20"],
    "predict-20": ["predict", "fit-20/model.json", "{reg_test}"],
    "fit-20-test": ["fit", "{reg}", "--target", "y", "--hidden", "20",
                    "--test-file", "{reg_test}"],
    "fit-3class-test": ["fit", "{cls}", "--target", "label", "--task", "classification",
                        "--hidden", "10", "--test-file", "{cls_test}"],
    "qut-crlf-noheader": ["qut", "{crlf}", "--no-header", "--target", "3", "--hidden", "10"],
    "fit-cr": ["fit", "{cr}", "--target", "y", "--hidden", "none"],
    "qut-3class": ["qut", "{cls}", "--target", "label", "--task", "classification",
                   "--hidden", "10"],
    "absdiff-jobs1": ABSDIFF_GRID + ["--jobs", "1"],
    "absdiff-jobs2": ABSDIFF_GRID + ["--jobs", "2"],
    # pure noise: the fit selects no feature and skips its refit
    "fit-noise": ["fit", "{noise}", "--target", "y", "--hidden", "20"],
    "predict-noise": ["predict", "fit-noise/model.json", "{noise}"],
    # a quoted header name and a missing cell: read cell by cell, one imputed
    "fit-cells": ["fit", "{cells}", "--target", "y", "--hidden", "none"],
    "fit-config": ["fit", "{reg}", "--target", "y", "--config", "{cfg}"],
    "fit-leaky": ["fit", "{reg}", "--target", "y", "--hidden", "10", "--activation", "leaky_relu"],
    # both sparsify and refit stop on their budget: exit 5
    "fit-budget": ["fit", "{reg}", "--target", "y", "--hidden", "20", "--max-phase-iters", "30"],
    # separable classes: the refit uses its whole budget, exit 5
    "fit-3class-linear": ["fit", "{cls}", "--target", "label", "--task", "classification",
                          "--hidden", "none"],
}
# the config file of fit-config
CONFIG = {"hidden": [10], "activation": "softplus", "n_mc": 200}


def _write_csv(path, X, y, target, end="\n"):
    names = ["x%d" % j for j in range(X.shape[1])] + [target]
    with open(path, "w") as fh:
        fh.write(",".join(names) + end)
        for row, label in zip(X, y):
            fh.write(",".join(repr(float(v)) for v in row) + "," + str(label) + end)


def write_inputs(directory):
    """The input CSVs, from fixed seeds: a 60x6 regression file, a 150x10
    3-class file, a 300x80 regression file, held-out files of 40 and 60
    rows drawn as the first two are, an 80x6 regression file with no
    header, the target in column 3, CRLF line ends and none after the last
    row, a 50x5 regression file with lone-CR line ends, a 60x6
    regression file whose target is independent noise, and a 60x6
    regression file drawn as the first is, with its header name x1 in
    quotes and one feature cell NA.  Each file is drawn after the ones
    before it, so adding one leaves their bytes as they were.  Also the
    config file CONFIG, as cfg."""
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
    X = rng.normal(size=(80, 6))
    table = np.insert(X, 3, 1.5 * X[:, 4] - X[:, 0] + rng.normal(size=80), axis=1)
    with open(directory / "crlf.csv", "w", newline="") as fh:
        fh.write("\r\n".join(",".join(repr(float(v)) for v in row) for row in table))
    X = rng.normal(size=(50, 5))
    _write_csv(directory / "cr.csv", X, X[:, 1] - 0.5 * X[:, 4] + 0.3 * rng.normal(size=50), "y",
               end="\r")
    X = rng.normal(size=(60, 6))
    _write_csv(directory / "noise.csv", X, rng.normal(size=60), "y")
    X = rng.normal(size=(60, 6))
    cells = directory / "cells.csv"
    _write_csv(cells, X, 2.0 * X[:, 0] - X[:, 3] + 0.3 * rng.normal(size=60), "y")
    lines = cells.read_text().split("\n")
    lines[0] = lines[0].replace("x1", '"x1"')
    row = lines[8].split(",")
    row[2] = "NA"
    lines[8] = ",".join(row)
    cells.write_text("\n".join(lines))
    (directory / "cfg.json").write_text(json.dumps(CONFIG))
    inputs = {name: directory / ("%s.csv" % name) for name in
              ("reg", "cls", "wide", "reg_test", "cls_test", "crlf", "cr", "noise", "cells")}
    return dict(inputs, cfg=directory / "cfg.json")


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
    """Lines '<label> exit <code>', '<label> stdout <sha256>' and
    '<label> <file> <sha256>' for each command, run with the package under
    src."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    lines = []
    with tempfile.TemporaryDirectory(prefix="qutsparse-fingerprint-") as tmp:
        tmp = Path(tmp)
        inputs = write_inputs(tmp)
        for label, argv in commands.items():
            out = tmp / label
            argv = [a.format(**inputs) for a in argv] + ["--output-dir", str(out)]
            proc = subprocess.run([sys.executable, "-m", "qutsparse.cli"] + argv, env=env,
                                  cwd=tmp, capture_output=True)
            stdout = proc.stdout.replace(bytes(tmp), b"<tmp>")
            lines.append("%s exit %d" % (label, proc.returncode))
            lines.append("%s stdout %s" % (label, hashlib.sha256(stdout).hexdigest()))
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
    lines = fingerprint(COMMANDS, args.src)
    for line in lines:
        print(line)
    codes = [int(line.split()[2]) for line in lines if line.split()[1] == "exit"]
    return int(any(code not in (0, 5) for code in codes))


if __name__ == "__main__":
    sys.exit(main())
