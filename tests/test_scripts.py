import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from multisubset import PrimeField, mst_naive
from multisubset.arrays import ObjectForm

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SIDES = ("parent", "change")


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


def _pairs(parent, change):
    """Synthetic pairs as bench_pairs keeps them: metric t's value per side."""
    return [{side: {"json": {"metrics": {"t": {"value": v}}}} for side, v in zip(SIDES, pair)}
            for pair in zip(parent, change)]


def test_bench_pairs_summary_shows_a_gain_only_past_9_of_10_and_the_parent_spread():
    summarize = load_script("bench_pairs").summarize
    lower = {"end_to_end": [{"name": "t", "better": "lower"}]}
    higher = {"end_to_end": [{"name": "t", "better": "higher"}]}
    parent = [1.0 + 0.1 * i for i in range(10)]  # quartiles 1.225 and 1.675
    entry = summarize(lower, _pairs(parent, [p - 1 for p in parent]))["t"]
    assert entry["parent_iqr"] == pytest.approx(0.45)
    assert entry["change_lower_in_pairs"] == "10/10" and entry["gain_shown"] is True
    # one tie: 9 of 10 pairs better still shows it; two ties do not
    one_tie = [parent[0]] + [p - 1 for p in parent[1:]]
    assert summarize(lower, _pairs(parent, one_tie))["t"]["gain_shown"] is True
    two_ties = parent[:2] + [p - 1 for p in parent[2:]]
    assert summarize(lower, _pairs(parent, two_ties))["t"]["gain_shown"] is False
    # better in every pair, but by less than the parent's spread
    assert summarize(lower, _pairs(parent, [p - 0.3 for p in parent]))["t"]["gain_shown"] is False
    # a metric where higher is better: a lower change is no gain, a higher one is
    assert summarize(higher, _pairs(parent, [p - 1 for p in parent]))["t"]["gain_shown"] is False
    entry = summarize(higher, _pairs(parent, [p + 1 for p in parent]))["t"]
    assert entry["change_lower_in_pairs"] == "0/10" and entry["gain_shown"] is True


def test_scan_times_prints_the_naive_table_digest_and_3_to_the_n_pairs(capsys, monkeypatch):
    scan_times = load_script("scan_times")
    assert scan_times.KERNEL_SHAPES == ((64, 64, 128, 128), (1, 128, 64, 1093))
    shape = (2, 3, 4, 5)  # small enough for the object form
    monkeypatch.setattr(scan_times, "KERNEL_SHAPES", (shape,))
    assert scan_times.main(["0", "3", "6", "--chunk-entries", "8", "64"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # first, once: the kernel's line, its product equal to the object form's
    kernel = dict(field.split("=") for field in lines.pop(0).split()[1:])
    assert tuple(int(kernel[k]) for k in ("m", "r1", "r2", "c")) == shape
    assert float(kernel["ns_per_mul"]) >= 0
    a, b = scan_times.kernel_operands(*shape)
    objects = ObjectForm(PrimeField()).product(a.astype(object), b.astype(object))
    digest = hashlib.sha256(np.array(objects.tolist(), dtype=np.uint64).tobytes()).hexdigest()
    assert kernel["sha256"] == digest[:16]
    # per n and chunk value: the scan's line, then one line per plan, every
    # table equal to naive's
    rows = [dict(field.split("=") for field in line.split()) for line in lines]
    assert scan_times.PLANS == ("columns", "rows-columns", "cover")
    assert [(row["n"], row["chunk_entries"], row.get("plan")) for row in rows] == [
        (n, chunk, plan) for n in ("0", "3", "6") for chunk in ("8", "64")
        for plan in (None, *scan_times.PLANS)]
    for fields in rows:
        n = int(fields["n"])
        naive = mst_naive(scan_times.seeded_family(n).to_family()).values
        digest = hashlib.sha256(np.array(naive, dtype=np.uint64).tobytes()).hexdigest()
        assert fields["sha256"] == digest[:16]
        if "plan" in fields:
            assert fields["same_table"] == "True" and float(fields["vs_scan"]) >= 0
        else:
            assert int(fields["pairs"]) == 3**n
