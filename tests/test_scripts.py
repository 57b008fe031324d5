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
