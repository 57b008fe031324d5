import json
import math
import os

import numpy as np
import pytest

import tunnelvision
from tunnelvision.cli import main
from tunnelvision.runio import dump_json

SCHEMA_DIR = os.path.join(os.path.dirname(tunnelvision.__file__), "schemas")


def _schema(name):
    jsonschema = pytest.importorskip("jsonschema")
    from referencing import Registry, Resource
    resources = []
    for fname in os.listdir(SCHEMA_DIR):
        with open(os.path.join(SCHEMA_DIR, fname)) as fh:
            resources.append((fname, Resource.from_contents(json.load(fh))))
    registry = Registry().with_resources(resources)
    with open(os.path.join(SCHEMA_DIR, name)) as fh:
        schema = json.load(fh)
    validator = jsonschema.Draft202012Validator(schema, registry=registry)
    return validator.validate


@pytest.fixture()
def disk_json(tmp_path):
    path = tmp_path / "disk1.json"
    path.write_text(json.dumps({"disk": {"c": [0, 0], "r": 1.0}}))
    return str(path)


@pytest.fixture()
def dogbone_json(tmp_path):
    path = tmp_path / "dogbone01.json"
    path.write_text(json.dumps({"dogbone": {"eps": 0.1}}))
    return str(path)


def test_measure_disk(disk_json, tmp_path, capsys):
    rc = main(["measure", "--domain", disk_json, "--point", "0", "0", "1",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out.split()
    value, err = float(out[0]), float(out[1])
    assert value == pytest.approx(0.5, abs=1e-6)
    assert err < 1e-6
    manifest = json.loads((tmp_path / "measure.manifest.json").read_text())
    _schema("manifest.schema.json")(manifest)
    assert manifest["command"] == "measure"


def test_measure_creates_out_dir(disk_json, tmp_path, capsys):
    out_dir = tmp_path / "new" / "run"
    rc = main(["measure", "--domain", disk_json, "--point", "0", "0", "1",
               "--out-dir", str(out_dir)])
    assert rc == 0
    assert len(capsys.readouterr().out.split()) == 2
    manifest = json.loads((out_dir / "measure.manifest.json").read_text())
    _schema("manifest.schema.json")(manifest)


def test_measure_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"disk": {"c": [0, 0], "r": }')
    rc = main(["measure", "--domain", str(bad), "--point", "0", "0", "1",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_measure_missing_file(tmp_path, capsys):
    rc = main(["measure", "--domain", str(tmp_path / "nope.json"),
               "--point", "0", "0", "1", "--out-dir", str(tmp_path)])
    assert rc == 1


def test_usage_error_is_exit_1(capsys):
    assert main(["dogbone"]) == 1          # missing --eps
    assert main(["frobnicate"]) == 1       # unknown command
    assert main(["dogbone", "--eps", "-1"]) == 1


def test_polygon_output(tmp_path):
    rc = main(["polygon", "--genus", "2", "--out-dir", str(tmp_path)])
    assert rc == 0
    obj = json.loads((tmp_path / "polygon.json").read_text())
    _schema("polygon.schema.json")(obj)
    assert obj["inradius_euclidean"] == pytest.approx(0.64359, abs=1e-5)
    assert main(["polygon", "--genus", "1", "--out-dir", str(tmp_path)]) == 1


def test_dogbone_experiment_cli(dogbone_json, tmp_path):
    rc = main(["dogbone", "--eps", "0.1", "--samples", "120",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    _schema("dogbone_report.schema.json")(report)
    assert report["inequality_holds"] is True
    assert len(report["critical_points"]) >= 2
    csv_text = (tmp_path / "axis_profile.csv").read_text()
    lines = csv_text.split("\n")
    assert lines[0].startswith("z [model units]")
    assert len(lines) == 120 + 2  # header + rows + trailing newline
    assert "\r" not in csv_text
    manifest = json.loads((tmp_path / "dogbone.manifest.json").read_text())
    assert sorted(manifest["outputs"]) == ["axis_profile.csv", "report.json"]
    for name in manifest["outputs"]:
        assert (tmp_path / name).exists()


def test_dogbone_fat_corridor_exit(tmp_path):
    rc = main(["dogbone", "--eps", "0.45", "--samples", "40",
               "--out-dir", str(tmp_path)])
    assert rc in (0, 2)
    _schema("dogbone_report.schema.json")(
        json.loads((tmp_path / "report.json").read_text()))


def test_profile_determinism_across_threads(dogbone_json, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d, threads in ((d1, "1"), (d2, "4")):
        rc = main(["profile", "--domain", dogbone_json, "--z-min", "0.05",
                   "--z-max", "5", "--n", "24", "--threads", threads,
                   "--out-dir", str(d)])
        assert rc == 0
    assert (d1 / "profile.csv").read_bytes() == (d2 / "profile.csv").read_bytes()


def test_rerun_is_bit_identical(disk_json, tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert main(["profile", "--domain", disk_json, "--z-min", "0.1",
                     "--z-max", "2", "--n", "10", "--out-dir", str(d)]) == 0
    assert (d1 / "profile.csv").read_bytes() == (d2 / "profile.csv").read_bytes()


def test_csv_floats_roundtrip(disk_json, tmp_path):
    assert main(["profile", "--domain", disk_json, "--z-min", "0.1",
                 "--z-max", "2", "--n", "5", "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "profile.csv").read_text().strip().split("\n")[1:]
    zs = [float(r.split(",")[0]) for r in rows]
    assert zs[0] == 0.1 and zs[-1] == 2.0
    # 17 significant digits: parsing and re-serializing is the identity
    for r in rows:
        for cell in r.split(","):
            assert float(format(float(cell), ".17g")) == float(cell)


def test_critical_cli(disk_json, tmp_path):
    rc = main(["critical", "--domain", disk_json, "--grid-n", "5",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    _schema("verdict.schema.json")(verdict)
    assert verdict["status"] == "no_critical_point_found"


def test_group_cli(tmp_path):
    rc = main(["group", "--genus", "2", "--depth", "3", "--mode", "limitset",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "limitset.csv").read_text().strip().split("\n")
    assert rows[0].startswith("re [disk coords]")
    pts = np.array([complex(float(r.split(",")[0]), float(r.split(",")[1]))
                    for r in rows[1:]])
    assert np.allclose(np.abs(pts), 1.0, atol=1e-9)


def test_green_cli(tmp_path):
    rc = main(["green", "flux", "--pole", "0", "0", "1", "--radius", "0.5",
               "--n", "32", "--out-dir", str(tmp_path)])
    assert rc == 0
    obj = json.loads((tmp_path / "green.json").read_text())
    _schema("green.schema.json")(obj)
    assert obj["flux"] == pytest.approx(-2 * math.pi, abs=1e-3)

    rc = main(["green", "eval", "--pole", "0", "0", "1",
               "--point", "0", "0", "2", "--out-dir", str(tmp_path)])
    assert rc == 0
    obj = json.loads((tmp_path / "green.json").read_text())
    _schema("green.schema.json")(obj)

    rc = main(["green", "quotient", "--pole", "0.1", "0", "0.9",
               "--point", "0.3", "0", "0.6", "--genus", "2", "--shells", "3",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    obj = json.loads((tmp_path / "green.json").read_text())
    _schema("green.schema.json")(obj)
    assert obj["mode"] == "quotient"

    assert main(["green", "eval", "--pole", "0", "0", "1",
                 "--out-dir", str(tmp_path)]) == 1  # missing --point


def test_quantize_cli(dogbone_json, tmp_path):
    rc = main(["quantize", "--domain", dogbone_json, "--k", "2", "--ell", "1",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    obj = json.loads((tmp_path / "configuration.json").read_text())
    _schema("configuration.schema.json")(obj)
    assert abs(obj["sum"] - 1.0) < 1e-8
    assert obj["ell"] == 1
    assert len(obj["points"]) == 2
    assert main(["quantize", "--domain", dogbone_json, "--k", "2", "--ell",
                 "2", "--out-dir", str(tmp_path)]) == 1


def test_dump_json_17_digits():
    s = dump_json({"v": 1 / 3, "list": [1.0, 2], "flag": True, "none": None})
    assert "0.33333333333333331" in s
    assert json.loads(s) == {"v": 1 / 3, "list": [1.0, 2], "flag": True,
                             "none": None}
    assert dump_json(float("nan")) == "null"


def test_measure_polygon_domain(tmp_path, capsys):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(
        {"polygon": {"vertices": [[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5],
                                  [0.5, -0.5]]}}))
    rc = main(["measure", "--domain", str(path), "--point", "0", "0", "0.5",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    value = float(capsys.readouterr().out.split()[0])
    assert value == pytest.approx(0.5541264239795705, abs=1e-6)
