import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "tools" / "fingerprint.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tiny_grid_fingerprint_repeats():
    fp = load_tool()
    tiny = {"tiny": ["simulate", "linear", "--n", "30", "--p", "12", "--s", "0:2", "--runs", "1",
                     "--n-mc", "50", "--jobs", "2"]}
    first = fp.fingerprint(tiny, ROOT / "src")
    assert first[0] == "tiny exit 0"
    assert [line.split()[1] for line in first[1:]] == [
        "stdout", "sweep.csv", "sweep_manifest.json", "sweep_records.jsonl"]
    assert all(re.fullmatch(r"tiny \S+ [0-9a-f]{64}", line) for line in first[1:])
    # wall_time_s, created_at and the temporary directory named in stdout
    # change from run to run
    assert fp.fingerprint(tiny, ROOT / "src") == first


def test_main_fails_when_a_command_fails(monkeypatch, capsys):
    fp = load_tool()
    qut = ["qut", "{reg}", "--target", "y", "--n-mc", "50"]
    monkeypatch.setattr(fp, "COMMANDS", {"qut": qut})
    assert fp.main(["--src", str(ROOT / "src")]) == 0
    monkeypatch.setattr(fp, "COMMANDS", {"qut": qut, "no-target": qut[:2] + ["--target", "z"]})
    assert fp.main(["--src", str(ROOT / "src")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "qut exit 0" in out and "no-target exit 3" in out


def test_digest_ignores_volatile_fields_and_record_order(tmp_path):
    fp = load_tool()
    a, b = tmp_path / "a" / "m.json", tmp_path / "b" / "m.json"
    a.parent.mkdir()
    b.parent.mkdir()
    a.write_text(json.dumps({"x": [1, {"created_at": "t0"}], "wall_time_s": 1.0}))
    b.write_text(json.dumps({"wall_time_s": 2.0, "x": [1, {"created_at": "t1"}]}))
    assert fp.digest(a) == fp.digest(b)
    b.write_text(json.dumps({"x": [2, {}]}))
    assert fp.digest(a) != fp.digest(b)
    a, b = tmp_path / "a" / "r.jsonl", tmp_path / "b" / "r.jsonl"
    a.write_text('{"s": 0}\n{"s": 1}\n')
    b.write_text('{"s": 1}\n{"s": 0}\n')
    assert fp.digest(a) == fp.digest(b)


def test_cells_input_takes_the_cell_reader(tmp_path):
    # fit-cells reaches data._cell_table: the one-pass reader declines a
    # quoted header name, and the NA cell is imputed
    from qutsparse import data

    fp = load_tool()
    inputs = fp.write_inputs(tmp_path)
    text = inputs["cells"].read_text()
    assert data._loadtxt_table(text, "y", True, "regression") is None
    ds = data.load_training(str(inputs["cells"]), "y")
    assert ds.imputed == 1 and ds.feature_names == ["x%d" % j for j in range(6)]
    assert json.loads(inputs["cfg"].read_text()) == fp.CONFIG
