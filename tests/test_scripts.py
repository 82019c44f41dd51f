import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_constants_skip_gamma(tmp_path, capsys):
    # the README's constants table is this script's output
    out = tmp_path / "constants.json"
    assert load_script("reproduce_constants").main(["--skip-gamma", "--json", str(out)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    reports = {(r["algorithm"], r["mode"]): r for r in json.loads(out.read_text())}
    assert len(reports) == 4
    # line mode: the published constants
    col = reports["columns", "line"]
    assert col["parameters"]["sigma"] == pytest.approx(0.3642045, abs=1e-4)
    assert col["base"] == pytest.approx(2.994, abs=1e-3)
    rc = reports["rows-columns", "line"]
    assert rc["parameters"]["tau"] == pytest.approx(0.59777, abs=1e-3)
    assert rc["parameters"]["sigma"] == pytest.approx(0.38185, abs=1e-3)
    assert rc["base"] == pytest.approx(2.985, abs=1e-3)
    # table mode: chords over the default omega anchors
    col = reports["columns", "table"]
    assert col["parameters"]["sigma"] == pytest.approx(0.37014, abs=1e-5)
    assert col["base"] == pytest.approx(2.99102, abs=1e-5)
    rc = reports["rows-columns", "table"]
    assert rc["resolution"] == 2e-4
    assert rc["parameters"]["tau"] == pytest.approx(0.5896, abs=1e-4)
    assert rc["parameters"]["sigma"] == pytest.approx(0.38753, abs=1e-4)
    assert rc["base"] == pytest.approx(2.98074, abs=1e-5)


@pytest.mark.parametrize("seeds", ["61", "70-61", "61-61"])
def test_bench_pairs_rejects_fewer_than_two_seeds(seeds, tmp_path, capsys):
    # checked while parsing, before any benchmark run
    args = ["--parent", str(tmp_path), "--change", str(tmp_path), "--short", "x"]
    bench_pairs = load_script("bench_pairs")
    with pytest.raises(SystemExit) as exc:
        bench_pairs.parse_args([*args, "--seeds", seeds])
    assert exc.value.code == 2
    assert "at least two" in capsys.readouterr().err
    assert bench_pairs.parse_args([*args, "--seeds", "61,63"]).seeds == [61, 63]
    assert bench_pairs.parse_args([*args, "--seeds", "61-64"]).seeds == [61, 62, 63, 64]
