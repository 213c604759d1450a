"""The pure parts of tools/phase_curve.py and tools/bench_pairs.py."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / ("%s.py" % name))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


phase_curve = load_tool("phase_curve")
bench_pairs = load_tool("bench_pairs")


@pytest.mark.parametrize("k, n, want", [
    (0, 100, (0.0, 0.0370)),
    (50, 100, (0.4038, 0.5962)),
    (100, 100, (0.9630, 1.0)),
])
def test_wilson_interval(k, n, want):
    lo, hi = phase_curve.wilson(k, n)
    assert (round(lo, 4), round(hi, 4)) == want


class TestSummarize:
    def test_tie_counts_for_neither_side(self):
        got = bench_pairs.summarize([1.0, 2.0, 3.0], [1.0, 3.0, 2.0], "lower", 0.25)
        assert (got["wins"], got["ties"], got["losses"]) == (1, 1, 1)

    def test_better_sets_the_direction(self):
        change, parent = [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]
        lower = bench_pairs.summarize(change, parent, "lower", 0.25)
        higher = bench_pairs.summarize(change, parent, "higher", 0.25)
        assert (lower["wins"], lower["losses"]) == (3, 0)
        assert (higher["wins"], higher["losses"]) == (0, 3)
        assert lower["gain_counts"] and not lower["worse_than_bound"]
        assert not higher["gain_counts"] and higher["worse_than_bound"]

    def test_quartiles_of_each_side(self):
        got = bench_pairs.summarize([4.0, 1.0, 3.0, 2.0, 5.0], [10.0] * 5, "lower", 0.25)
        assert got["change"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
        assert got["parent"] == {"q1": 10.0, "median": 10.0, "q3": 10.0}

    def test_gain_needs_nine_tenths_of_the_pairs(self):
        parent = [10.0] * 10
        nine = bench_pairs.summarize([8.0] * 9 + [10.0], parent, "lower", 0.25)
        eight = bench_pairs.summarize([8.0] * 8 + [10.0] * 2, parent, "lower", 0.25)
        assert nine["wins"] == 9 and nine["gain_counts"]
        assert eight["wins"] == 8 and not eight["gain_counts"]

    def test_gain_needs_the_medians_apart_by_more_than_the_parent_iqr(self):
        # the parent's quartiles are 9.25 and 10.75: an iqr of 1.5
        parent = [9.0, 9.0, 9.0, 10.0, 10.0, 10.0, 10.0, 11.0, 11.0, 11.0]
        near = bench_pairs.summarize([p + 1.0 for p in parent], parent, "higher", 0.25)
        far = bench_pairs.summarize([p + 2.0 for p in parent], parent, "higher", 0.25)
        assert near["wins"] == far["wins"] == 10
        assert not near["gain_counts"]
        assert far["gain_counts"]

    def test_bound_is_relative_to_the_parent_median(self):
        parent = [10.0] * 4
        within = bench_pairs.summarize([12.5] * 4, parent, "lower", 0.25)
        beyond = bench_pairs.summarize([12.6] * 4, parent, "lower", 0.25)
        slower = bench_pairs.summarize([7.4] * 4, parent, "higher", 0.25)
        assert not within["worse_than_bound"]
        assert beyond["worse_than_bound"]
        assert slower["worse_than_bound"]

    def test_unresolved_when_the_parent_spreads_wider_than_the_bound(self):
        # the parent's quartiles are 9 and 11: an iqr of 2, a fifth of its median
        parent = [8.0, 9.0, 10.0, 11.0, 12.0]
        wide = bench_pairs.summarize([13.0] * 5, parent, "lower", 0.1)
        narrow = bench_pairs.summarize([13.0] * 5, parent, "lower", 0.25)
        assert wide["unresolved"] and wide["worse_than_bound"]
        assert not narrow["unresolved"] and narrow["worse_than_bound"]

    @pytest.mark.parametrize("change, better", [([7.0] * 5, "lower"), ([13.0] * 5, "higher")])
    def test_resolved_when_every_change_run_beats_every_parent_run(self, change, better):
        parent = [8.0, 9.0, 10.0, 11.0, 12.0]
        assert not bench_pairs.summarize(change, parent, better, 0.1)["unresolved"]
        edge = [max(parent) if better == "lower" else min(parent)] + change[1:]
        assert bench_pairs.summarize(edge, parent, better, 0.1)["unresolved"]


def _tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


class TestBenchmarkDifferences:
    FILES = {"BENCHMARK.json": "{}", "perfbench/run.py": "x = 1\n",
             "perfbench/workloads.json": "{}", "src/qutsparse/cli.py": "a\n"}

    def test_identical_benchmarks_pass_whatever_the_source(self, tmp_path):
        a = _tree(tmp_path / "a", self.FILES)
        b = _tree(tmp_path / "b", dict(self.FILES, **{"src/qutsparse/cli.py": "b\n"}))
        _tree(b, {"perfbench/__pycache__/run.cpython-311.pyc": "bytes"})
        assert bench_pairs.benchmark_differences(a, b) == []

    @pytest.mark.parametrize("edit", [
        {"perfbench/run.py": "x = 2\n"},
        {"perfbench/extra.py": ""},
        {"BENCHMARK.json": "{ }"},
    ])
    def test_a_different_benchmark_is_named(self, tmp_path, edit):
        a = _tree(tmp_path / "a", self.FILES)
        b = _tree(tmp_path / "b", dict(self.FILES, **edit))
        assert bench_pairs.benchmark_differences(a, b) == list(edit)

    def test_main_refuses_before_any_run(self, tmp_path, monkeypatch, capsys):
        calls = []

        def fake_git(tree, *args):
            # the parent's worktree holds an edited perfbench/run.py
            calls.append(args[:2])
            if args[:2] == ("worktree", "add"):
                parent = (ROOT / "perfbench" / "run.py").read_text() + "# edited\n"
                _tree(Path(args[3]), {"perfbench/run.py": parent})
            return ""

        monkeypatch.setattr(bench_pairs, "_git", fake_git)
        monkeypatch.setattr(bench_pairs.signal, "signal", lambda *a: None)
        monkeypatch.setattr(bench_pairs, "run_bench",
                            lambda *a: pytest.fail("a benchmark ran on differing trees"))
        code = bench_pairs.main(["--parent", "HEAD", "--out", str(tmp_path / "out.json")])
        assert code == 2
        assert "perfbench/run.py" in capsys.readouterr().err
        assert calls == [("worktree", "add"), ("worktree", "remove")]
        assert not (tmp_path / "out.json").exists()
