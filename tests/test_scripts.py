import csv
import json

import numpy as np


def test_form_norm_grid_script_writes_the_table(load_script, tmp_path, capsys):
    domain = tmp_path / "dogbone.json"
    domain.write_text(json.dumps({"dogbone": {"eps": 0.1}}))
    out = tmp_path / "grid.csv"
    script = load_script("form_norm_grid")
    assert script.main(["--domain", str(domain), "--out", str(out), "--n", "2"]) == 0
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header[-1] == "weighted_norm [1]"
    table = np.array(rows, dtype=float)
    assert table.shape == (8, 5)
    assert np.all(table[:, 3] >= 0.0) and np.all(table[:, 4] >= table[:, 3])
    assert "(8 rows, 0 not converged)" in capsys.readouterr().out


def _read_csv(path):
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def test_dogbone_sweep_script_writes_one_row_per_eps(load_script, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    script = load_script("dogbone_sweep")
    assert script.main(["--eps", "0.1", "0.3", "--samples", "16",
                        "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header[0] == "eps [1]" and header[5] == "n_critical [count]"
    assert [float(r[0]) for r in rows] == [0.1, 0.3]
    # the thin corridor has its two conclusive axis critical points; the fat
    # one has none
    assert [int(r[5]) for r in rows] == [2, 0]
    assert f"wrote {out}" in capsys.readouterr().out


def test_limit_set_study_script_tabulates_shells(load_script, tmp_path, capsys):
    out = tmp_path / "study.csv"
    script = load_script("limit_set_study")
    assert script.main(["--max-depth", "2", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header[2] == "shell_size [count]"
    assert [(int(r[1]), int(r[2])) for r in rows] == [(1, 8), (2, 56)]
    distances = [float(r[3]) for r in rows]
    assert 0.0 < distances[1] < distances[0]
    assert f"wrote {out}" in capsys.readouterr().out
