import csv
import importlib.util
import json
import os

import numpy as np

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_form_norm_grid_script_writes_the_table(tmp_path, capsys):
    domain = tmp_path / "dogbone.json"
    domain.write_text(json.dumps({"dogbone": {"eps": 0.1}}))
    out = tmp_path / "grid.csv"
    script = _load("form_norm_grid")
    assert script.main(["--domain", str(domain), "--out", str(out), "--n", "2"]) == 0
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header[-1] == "weighted_norm [1]"
    table = np.array(rows, dtype=float)
    assert table.shape == (8, 5)
    assert np.all(table[:, 3] >= 0.0) and np.all(table[:, 4] >= table[:, 3])
    assert "(8 rows, 0 not converged)" in capsys.readouterr().out
