import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import tunnelvision
from tunnelvision import (DiskPoint, enumerate_group, orbit_cloud,
                          side_pairing_generators)
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
    assert manifest["tolerances"] == {"tolerance": 1e-7}
    assert "seed" not in manifest


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_measure_overflow_exits_2(disk_json, tmp_path, capsys):
    # the value 0.5 that survives the overflow has no error bound (true
    # value 1e-160); see test_overflowing_lengths_are_not_converged
    rc = main(["measure", "--domain", disk_json, "--point", "0", "0", "1e80",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().out.split() == ["0.5", "inf"]


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


@pytest.mark.parametrize("spec", [
    '{"halfplane": {"n": [1e400, 1], "offset": 0}}',
    '{"halfplane": {"n": [1, 0], "offset": 1e400}}',
    '{"halfplane": {"n": [1.5e308, 1.5e308], "offset": 0}}',  # |n| overflows
    '{"disk": {"c": [1e400, 0], "r": 1}}',
    '{"disk": {"c": [0, 0], "r": 1e400}}',
    '{"disk": {"c": [0], "r": 1}}',
    '{"polygon": {"vertices": [[0, 0], [1e400, 0], [0, 1]]}}',
    '{"polygon": {"vertices": [[0, 0], [1], [0, 1]]}}',
])
def test_measure_rejects_nonfinite_or_malformed_domain(spec, tmp_path, capsys):
    # unchecked, an infinite normal normalizes to nan and measure prints a
    # wrong "0 0" with exit 0; the others fail inside the evaluation
    path = tmp_path / "bad.json"
    path.write_text(spec)
    out = tmp_path / "out"
    rc = main(["measure", "--domain", str(path), "--point", "0", "0", "1",
               "--out-dir", str(out)])
    assert rc == 1
    assert "invalid domain specification" in capsys.readouterr().err
    assert not (out / "measure.manifest.json").exists()


@pytest.mark.parametrize("spec, name", [
    ('{"disk": {"c": [0, 0], "r": 1e300}}', "disk center + radius"),
    ('{"halfplane": {"n": [0, 1], "offset": 1e300}}', "half-plane offset"),
    ('{"polygon": {"vertices": [[-1e308, -1e308], [1e308, -1e308], '
     '[1e308, 1e308], [-1e308, 1e308]]}}', "polygon vertex"),
])
def test_measure_rejects_lengths_beyond_the_boundary_sum(spec, name, tmp_path, capsys):
    # these printed "nan inf" and "0.5 inf" with exit 2, and the square was
    # called self-intersecting
    path = tmp_path / "huge.json"
    path.write_text(spec)
    out = tmp_path / "out"
    rc = main(["measure", "--domain", str(path), "--point", "0", "0", "1",
               "--out-dir", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid domain specification" in captured.err and name in captured.err
    assert not (out / "measure.manifest.json").exists()


def test_measure_rejects_half_planes_crossing_beyond_the_boundary_sum(tmp_path, capsys):
    # this printed the right value with an infinite error bound, exit 2
    path = tmp_path / "tilted.json"
    path.write_text('{"op": "intersection", "args": ['
                    '{"halfplane": {"n": [0, 1], "offset": 0}}, '
                    '{"halfplane": {"n": [1e-300, 1], "offset": 0.5}}]}')
    out = tmp_path / "out"
    rc = main(["measure", "--domain", str(path), "--point", "0", "0.7", "0.5",
               "--out-dir", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "boundary corner must stay within 1e+76" in captured.err
    assert not (out / "measure.manifest.json").exists()


@pytest.mark.parametrize("args, message", [
    (["group", "--genus", "1", "--depth", "2"], "--genus"),
    (["group", "--genus", "2", "--depth", "0"], "--depth"),
    (["quantize", "--k", "1", "--ell", "1"], "--k"),
    (["measure", "--point", "0", "0", "-1"], "height must be positive"),
])
def test_invalid_arguments_exit_1_without_manifest(args, message, disk_json,
                                                   tmp_path, capsys):
    if args[0] != "group":
        args = [*args, "--domain", disk_json]
    out = tmp_path / "out"
    assert main([*args, "--out-dir", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_polygon_output(tmp_path):
    rc = main(["polygon", "--genus", "2", "--out-dir", str(tmp_path)])
    assert rc == 0
    obj = json.loads((tmp_path / "polygon.json").read_text())
    _schema("polygon.schema.json")(obj)
    assert obj["inradius_euclidean"] == pytest.approx(0.64359, abs=1e-5)
    manifest = json.loads((tmp_path / "polygon.manifest.json").read_text())
    _schema("manifest.schema.json")(manifest)
    assert manifest["tolerances"] == {}
    assert manifest["environment"] == {
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "numpy": np.__version__, "cpu_count": os.cpu_count()}
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


def test_dogbone_nonconverged_exit(tmp_path):
    # no error bound reaches tol 1e-18 (rounding alone exceeds it): the
    # inequality and both axis extrema rest on non-converged evaluations
    rc = main(["dogbone", "--eps", "0.1", "--tol", "1e-18",
               "--samples", "20", "--out-dir", str(tmp_path)])
    assert rc == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["inconclusive"] is True
    assert report["critical_points"]
    assert not any(cp["conclusive"] for cp in report["critical_points"])


def test_profile_nonconverged_exit(dogbone_json, tmp_path):
    rc = main(["profile", "--domain", dogbone_json, "--z-min", "0.1",
               "--z-max", "2", "--n", "5", "--tol", "1e-18",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert (tmp_path / "profile.csv").exists()


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy made unimportable: the package runs on numpy alone
    code = f"""
import sys
sys.modules["scipy"] = None
import tunnelvision.cli
from tunnelvision.critical import dogbone_experiment
from tunnelvision.groups import enumerate_group, limit_set_sample, side_pairing_generators
dogbone_experiment(0.3, n_samples=16)
enumerate_group(side_pairing_generators(2), 2)
limit_set_sample(2, 2)
assert tunnelvision.cli.main(["polygon", "--genus", "2", "--out-dir", {str(tmp_path)!r}]) == 0
print(sorted(m for m, mod in sys.modules.items()
             if m.split('.')[0] == 'scipy' and mod is not None))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "[]"
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")) as fh:
        deps = re.search(r"^dependencies = \[(.*?)\]", fh.read(), re.M | re.S).group(1)
    assert re.findall(r'"([A-Za-z0-9_.-]+?)[<>=~!\s"]', deps) == ["numpy"]


def test_removed_flags_are_rejected(disk_json, tmp_path):
    for flag, value in (("--cutoff", "64"), ("--threads", "2"), ("--seed", "0"),
                        ("--max-depth", "24")):
        assert main(["profile", "--domain", disk_json, "--z-min", "0.1",
                     "--z-max", "2", "--n", "5", flag, value,
                     "--out-dir", str(tmp_path)]) == 1
    # nothing integrates in these commands, so they take no quadrature flags
    for argv in (["polygon", "--genus", "2"],
                 ["group", "--genus", "2", "--depth", "2"],
                 ["green", "eval", "--pole", "0", "0", "1",
                  "--point", "0", "0", "2"]):
        for flag, value in (("--tol", "1e-9"), ("--max-depth", "10")):
            assert main([*argv, flag, value, "--out-dir", str(tmp_path)]) == 1


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
    assert verdict["coverage"]["nonconverged_evaluations"] == 0


def test_critical_nonconverged_exit(disk_json, tmp_path):
    # no grid or axis evaluation can certify tol 1e-18; the verdict is
    # still written, counts them, and the exit code says so
    rc = main(["critical", "--domain", disk_json, "--grid-n", "3",
               "--tol", "1e-18", "--out-dir", str(tmp_path)])
    assert rc == 2
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    _schema("verdict.schema.json")(verdict)
    assert verdict["coverage"]["nonconverged_evaluations"] > 0


def test_critical_lopsided_axis_extrema_are_inconclusive(tmp_path):
    # the axis extrema of a region without the half-turn symmetry are not
    # critical points (see test_axis_search_flags_asymmetric_extrema); the
    # verdict refines each into the off-axis critical point beside it
    path = tmp_path / "lopsided.json"
    path.write_text(json.dumps({"op": "union", "args": [
        {"disk": {"c": [1, 0], "r": 0.26}}, {"disk": {"c": [-1, 0], "r": 0.25}},
        {"dogbone": {"eps": 0.1}}]}))
    rc = main(["critical", "--domain", str(path), "--grid-n", "4",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    _schema("verdict.schema.json")(verdict)
    assert verdict["status"] == "critical_points_found"
    assert [(r["classification"], r["conclusive"]) for r in verdict["reports"]] == \
        [("3d-refined", True), ("3d-refined", True)]
    assert all(r["location"][0] < 0.0 for r in verdict["reports"])


def test_critical_grid_n_below_two(disk_json, tmp_path, capsys):
    for n in ("0", "1"):
        rc = main(["critical", "--domain", disk_json, "--grid-n", n,
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "--grid-n" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["limitset", "orbit"])
def test_group_cli(tmp_path, mode):
    rc = main(["group", "--genus", "2", "--depth", "3", "--mode", mode,
               "--out-dir", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / f"{mode}.csv").read_text().strip().split("\n")
    assert rows[0].startswith("re [disk coords]")
    cells = [r.split(",") for r in rows[1:]]
    pts = np.array([complex(float(re_), float(im)) for re_, im, _ in cells])
    lengths = np.array([int(n) for _, _, n in cells])
    if mode == "limitset":
        assert np.allclose(np.abs(pts), 1.0, atol=1e-9)
        assert np.all(lengths == 3)
    else:
        # 17-digit cells round-trip: the orbit of 0, exactly
        elements = enumerate_group(side_pairing_generators(2), 3)
        assert len(pts) == 457
        assert np.array_equal(lengths, elements.lengths)
        assert np.array_equal(pts, orbit_cloud(elements, DiskPoint(0j)))


def test_green_cli(tmp_path, capsys):
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

    # a point on the pole, or on one of its orbit points: exit 1, no output
    for mode, extra, message in (
            ("eval", [], "of the pole"),
            ("quotient", ["--shells", "2"], "of an orbit point")):
        out = tmp_path / mode
        rc = main(["green", mode, "--pole", "0", "0", "1", "--point", "0", "0",
                   "1", *extra, "--out-dir", str(out)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (out / "green.json").exists()


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


def test_quantize_cli_on_an_annulus(tmp_path):
    # 0 lies in the hole: the vertical lines are seeded beside the boundary
    path = tmp_path / "annulus.json"
    path.write_text(json.dumps({"op": "difference", "args": [
        {"disk": {"c": [0, 0], "r": 1.0}}, {"disk": {"c": [0, 0], "r": 0.5}}]}))
    assert main(["quantize", "--domain", str(path), "--k", "2", "--ell", "1",
                 "--out-dir", str(tmp_path)]) == 0


def test_critical_cli_on_a_square_of_half_planes(halfplane_square, tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(halfplane_square.to_obj()))
    assert main(["critical", "--domain", str(path), "--grid-n", "8",
                 "--out-dir", str(tmp_path)]) == 0
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["status"] == "no_critical_point_found"


def test_quantize_below_float_resolution_terminates(dogbone_json, tmp_path):
    # tol 1e-18 asks the level solve for a log-height bracket narrower than
    # the float spacing there; the solve stops at that spacing instead.  No
    # evaluation can certify that tolerance, so the configuration is
    # written and the exit code says inconclusive
    rc = main(["quantize", "--domain", dogbone_json, "--k", "2", "--ell", "1",
               "--tol", "1e-18", "--out-dir", str(tmp_path)])
    assert rc == 2
    obj = json.loads((tmp_path / "configuration.json").read_text())
    assert len(obj["points"]) == 2
    assert obj["points"][0] != obj["points"][1]


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
