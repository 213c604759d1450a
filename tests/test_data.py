import numpy as np

from qutsparse import data
from qutsparse.data import load_training


def write_with_missing(path, token):
    """40 rows of x0..x5,y: three missing cells in x1, x2 constant, x5
    missing throughout; ``token`` marks every missing cell."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 6))
    y = X[:, 0] + rng.normal(size=40)
    with open(path, "w") as fh:
        fh.write("x0,x1,x2,x3,x4,x5,y\n")
        for i in range(40):
            cells = [repr(float(v)) for v in X[i]] + [repr(float(y[i]))]
            if i in (3, 11, 27):
                cells[1] = token
            cells[2] = "7.5"
            cells[5] = token
            fh.write(",".join(cells) + "\n")


def test_fast_path_and_fallback_give_equal_datasets(tmp_path, monkeypatch):
    # float() takes "nan", so that file is parsed row by row; "NA" makes
    # float() raise, so that file goes through the per-column parser.
    calls = []
    parse_column = data._parse_column

    def counting(rows, j, name, start_row):
        calls.append(name)
        return parse_column(rows, j, name, start_row)

    monkeypatch.setattr(data, "_parse_column", counting)
    datasets, parsed = {}, {}
    for token in ("nan", "NA"):
        path = tmp_path / ("%s.csv" % token)
        write_with_missing(path, token)
        calls.clear()
        datasets[token] = load_training(str(path), "y")
        parsed[token] = list(calls)

    fast, fallback = datasets["nan"], datasets["NA"]
    assert parsed["nan"] == ["y"]
    assert parsed["NA"] == ["y", "x0", "x1", "x2", "x3", "x4", "x5"]
    for field in ("X", "Y", "mean", "std"):
        np.testing.assert_array_equal(getattr(fast, field), getattr(fallback, field))
    assert fast.feature_names == fallback.feature_names == ["x0", "x1", "x3", "x4"]
    assert fast.indices == fallback.indices == [0, 1, 3, 4]
    assert fast.dropped == fallback.dropped == ["x2", "x5"]
    assert fast.imputed == fallback.imputed == 3
