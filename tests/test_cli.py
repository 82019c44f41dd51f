import json

import pytest

from multisubset import make_ring, robinson_count, sum_acyclic_digraphs
from multisubset.analysis import DEFAULT_OMEGA_TABLE
from multisubset.cli import main
from multisubset.jsonio import load_json, weight_system_from_dict


def run_cli(*argv):
    return main(list(argv))


def gen_family(tmp_path, n, seed=0, ring="modp"):
    path = tmp_path / f"fam_{n}_{seed}_{ring}.json"
    assert run_cli("gen", "--kind", "family", "--n", str(n), "--seed", str(seed),
                   "--ring", ring, "--output", str(path)) == 0
    return path


def test_gen_then_transform_all_algorithms_agree(tmp_path):
    fam = gen_family(tmp_path, 7)
    outputs = []
    for algo in ["naive", "columns", "rows-columns", "cover"]:
        out = tmp_path / f"g_{algo}.json"
        assert run_cli("mst", "--input", str(fam), "--algo", algo,
                       "--output", str(out)) == 0
        outputs.append(out.read_bytes())
    assert len(set(outputs)) == 1  # byte-identical across algorithms


def test_mst_stdout(tmp_path, capsys):
    fam = gen_family(tmp_path, 3)
    assert run_cli("mst", "--input", str(fam)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 3
    assert len(payload["values"]) == 8


def test_count_ops_sidecar(tmp_path):
    fam = gen_family(tmp_path, 5)
    out = tmp_path / "g.json"
    # columns at n = 5: s0 = floor(0.3642 * 5) = 1, so the 6 small columns go
    # through one 2^3 x 6 x 2^2 product and the scan visits the other 3^5 - 112
    for algo, pairs, rmm_muls, columns in (
        ("naive", 3**5, 0, 0),
        ("columns", 3**5 - 112, 2**5 * 6, 6),
    ):
        assert run_cli("mst", "--input", str(fam), "--algo", algo,
                       "--count-ops", "--output", str(out)) == 0
        sidecar = load_json(str(out) + ".counts.json")
        assert set(sidecar) == {
            "adds", "muls", "pair_iterations", "rmm_muls", "columns_processed"
        }
        assert sidecar["pair_iterations"] == pairs
        assert sidecar["adds"] > 0 and sidecar["muls"] > 0
        assert sidecar["rmm_muls"] == rmm_muls
        assert sidecar["columns_processed"] == columns


def test_count_ops_requires_output(tmp_path):
    fam = gen_family(tmp_path, 3)
    assert run_cli("mst", "--input", str(fam), "--count-ops") == 2


def test_missing_and_malformed_input(tmp_path):
    assert run_cli("mst", "--input", str(tmp_path / "nope.json")) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("mst", "--input", str(bad)) == 3


def test_wrong_shape_is_validation_error(tmp_path):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"n": 2, "functions": [["1", "2", "3", "4"]]}))
    assert run_cli("mst", "--input", str(fam)) == 2


@pytest.mark.parametrize("data, key", [
    ({"n": 2}, "functions"),
    ([], "n"),
    ({"n": 1, "functions": [5]}, "functions"),
    ({"n": "1", "functions": [["1", "2"]]}, "n"),
    ({"n": 1, "functions": [[None, "2"]]}, "functions"),
])
def test_mst_input_missing_key_or_wrong_type_exits_2(tmp_path, capsys, data, key):
    # these crashed with a KeyError or TypeError traceback and exit code 1
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps(data))
    assert run_cli("mst", "--input", str(fam)) == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("data, key", [
    ({"n": 2}, "weights"),
    ({"n": 1, "weights": ["0"]}, "weights"),
])
def test_dag_sum_weights_missing_key_or_wrong_type_exits_2(tmp_path, capsys, data, key):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps(data))
    assert run_cli("dag-sum", "--weights", str(weights)) == 2
    assert repr(key) in capsys.readouterr().err


def test_unknown_choice_exits_via_argparse(tmp_path):
    fam = gen_family(tmp_path, 3)
    with pytest.raises(SystemExit) as exc:
        run_cli("mst", "--input", str(fam), "--algo", "bogus")
    assert exc.value.code == 2


def test_f64_ring_roundtrip(tmp_path, capsys):
    fam = gen_family(tmp_path, 4, ring="f64")
    assert run_cli("mst", "--input", str(fam), "--ring", "f64") == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(isinstance(v, float) for v in payload["values"])


def test_custom_prime(tmp_path, capsys):
    fam = gen_family(tmp_path, 3)
    assert run_cli("mst", "--input", str(fam), "--p", "97") == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(0 <= int(v) < 97 for v in payload["values"])


@pytest.mark.parametrize("p", ["4", "561", "1"])
def test_composite_modulus_exits_2(tmp_path, capsys, p):
    # 4 is even, 561 a Carmichael number (a Fermat pseudoprime to every
    # base coprime to it), 1 below the smallest prime
    fam = gen_family(tmp_path, 3)
    assert run_cli("mst", "--input", str(fam), "--p", p) == 2
    assert "modulus" in capsys.readouterr().err


def test_p_flag_rejected_for_f64(tmp_path):
    fam = gen_family(tmp_path, 3, ring="f64")
    assert run_cli("mst", "--input", str(fam), "--ring", "f64", "--p", "97") == 2


def test_dag_sum_matches_library(tmp_path, capsys):
    weights = tmp_path / "w.json"
    assert run_cli("gen", "--kind", "weights", "--n", "4", "--seed", "9",
                   "--output", str(weights)) == 0
    table = tmp_path / "a.json"
    assert run_cli("dag-sum", "--weights", str(weights), "--algo", "columns",
                   "--output", str(table)) == 0
    printed = capsys.readouterr().out.strip()
    ring = make_ring("modp")
    wsys = weight_system_from_dict(ring, load_json(str(weights)))
    expected = sum_acyclic_digraphs(wsys, "naive")
    assert int(printed) == expected.total
    stored = load_json(str(table))
    assert [int(v) for v in stored["values"]] == expected.a


@pytest.mark.parametrize("algo, flags", [
    ("naive", ["--tau", "5"]),
    ("naive", ["--sigma", "0.4"]),
    ("cover", ["--sigma", "0.9"]),
    ("columns", ["--tau", "0.99"]),
])
def test_sigma_tau_rejected_where_not_taken(tmp_path, algo, flags):
    fam = gen_family(tmp_path, 4)
    assert run_cli("mst", "--input", str(fam), "--algo", algo, *flags) == 2
    weights = tmp_path / "w.json"
    assert run_cli("gen", "--kind", "weights", "--n", "3",
                   "--output", str(weights)) == 0
    assert run_cli("dag-sum", "--weights", str(weights), "--algo", algo, *flags) == 2


def test_dag_count(capsys):
    assert run_cli("dag-count", "--n", "5") == 0
    assert capsys.readouterr().out.strip() == str(robinson_count(5)) == "29281"


def test_cover_command(tmp_path):
    out = tmp_path / "cover.json"
    assert run_cli("cover", "--v", "4", "--k", "3", "--s", "2",
                   "--output", str(out)) == 0
    design = load_json(str(out))
    assert design["v"] == 4 and len(design["blocks"]) == 3
    assert run_cli("cover", "--v", "3", "--k", "5", "--s", "1") == 2


def test_optimize_paper_mode_is_line(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli("optimize", "--target", "columns", "--mode", "paper",
                   "--output", str(out)) == 0
    report = load_json(str(out))
    assert report["mode"] == "line"
    assert abs(report["base"] - 2.994) < 1e-3
    assert abs(report["parameters"]["sigma"] - 0.3642045) < 1e-4


def test_optimize_rows_columns_cli(tmp_path):
    out = tmp_path / "rc.json"
    assert run_cli("optimize", "--target", "rows-columns", "--output", str(out)) == 0
    report = load_json(str(out))
    assert abs(report["parameters"]["tau"] - 0.59777) < 1e-3
    assert abs(report["base"] - 2.985) < 1e-3


def test_optimize_rows_columns_rejects_a_resolution_outside_its_grid():
    # 0 divided by zero and -0.01 printed "base": Infinity, which is not JSON
    for bad in ("0", "-0.01", "1e-7", "0.2", "nan"):
        assert run_cli("optimize", "--target", "rows-columns", "--mode", "table",
                       "--resolution", bad) == 2


def test_optimize_rejects_a_resolution_it_would_ignore(tmp_path):
    for target, modes in (("columns", (None, "paper", "line", "table")),
                          ("rows-columns", (None, "paper", "line"))):
        for mode in modes:
            argv = ["optimize", "--target", target, "--resolution", "1e-3"]
            assert run_cli(*argv, *(("--mode", mode) if mode else ())) == 2
    out = tmp_path / "rc.json"
    assert run_cli("optimize", "--target", "rows-columns", "--mode", "table",
                   "--resolution", "1e-3", "--output", str(out)) == 0
    assert load_json(str(out))["resolution"] == 1e-3


def test_optimize_with_custom_omega_table(tmp_path):
    table = tmp_path / "omega.json"
    table.write_text(json.dumps({"anchors": [[0, 2.0], [1, 2.38], [1.8, 3.1]]}))
    out = tmp_path / "report.json"
    assert run_cli("optimize", "--target", "columns", "--mode", "table",
                   "--omega-table", str(table), "--output", str(out)) == 0
    assert load_json(str(out))["mode"] == "table"
    # a table whose product term dominates everywhere is a clean input error
    degenerate = tmp_path / "degenerate.json"
    degenerate.write_text(json.dumps({"anchors": [[0, 2.0], [2, 4.0]]}))
    assert run_cli("optimize", "--target", "columns", "--mode", "table",
                   "--omega-table", str(degenerate)) == 2


def test_optimize_gamma_reads_omega_table_as_chords(tmp_path):
    # a file holding exactly the default anchors reproduces the default bound
    table = tmp_path / "omega.json"
    table.write_text(json.dumps({"anchors": [list(a) for a in DEFAULT_OMEGA_TABLE.anchors]}))
    default_out, file_out = tmp_path / "default.json", tmp_path / "file.json"
    for flags in (["--target", "gamma", "--resolution", "0.01"],
                  ["--target", "columns", "--mode", "table"],
                  ["--target", "rows-columns", "--mode", "table", "--resolution", "1e-3"]):
        assert run_cli("optimize", *flags, "--output", str(default_out)) == 0
        assert run_cli("optimize", *flags, "--omega-table", str(table),
                       "--output", str(file_out)) == 0
        assert load_json(str(file_out)) == load_json(str(default_out))


@pytest.mark.parametrize("target", ["columns", "rows-columns"])
@pytest.mark.parametrize("mode", [None, "paper", "line"])
def test_optimize_rejects_an_omega_table_that_line_mode_ignores(tmp_path, target, mode):
    # this exited 0 with the published constants, the file unread
    table = tmp_path / "omega.json"
    table.write_text(json.dumps({"anchors": [[0, 2.0], [1, 2.38], [1.8, 3.1]]}))
    argv = ["optimize", "--target", target, "--omega-table", str(table)]
    assert run_cli(*argv, *(("--mode", mode) if mode else ())) == 2


@pytest.mark.parametrize("data", [
    {"anker": []},
    [1, 2],
    {"anchors": 2.0},
    {"anchors": [[0, 2.0, 1.0]]},
    {"anchors": [[0, None]]},
])
def test_optimize_omega_table_missing_key_or_wrong_type_exits_2(tmp_path, capsys, data):
    table = tmp_path / "omega.json"
    table.write_text(json.dumps(data))
    assert run_cli("optimize", "--target", "gamma", "--omega-table", str(table)) == 2
    assert "'anchors'" in capsys.readouterr().err


@pytest.mark.parametrize("anchors", [
    "[[0, 2.0], [1, NaN]]",  # printed "base": Infinity in rows-columns table mode
    "[[0, 2.0], [1, 2.3], [1, 2.38]]",  # a repeated k
    "[[0, 2.0], [1, 3.5]]",  # a rise steeper than k
])
def test_optimize_rejects_invalid_omega_anchors(tmp_path, anchors):
    table = tmp_path / "omega.json"
    table.write_text('{"anchors": %s}' % anchors)
    assert run_cli("optimize", "--target", "gamma", "--omega-table", str(table)) == 2
    assert run_cli("optimize", "--target", "rows-columns", "--mode", "table",
                   "--resolution", "1e-3", "--omega-table", str(table)) == 2


@pytest.mark.parametrize("resolution", ["0.02", "0.003"])
def test_optimize_gamma_rejects_a_resolution_that_does_not_divide_coarse(resolution):
    assert run_cli("optimize", "--target", "gamma", "--resolution", resolution) == 2


def test_optimize_gamma_rejects_mode():
    for mode in ("paper", "line", "table"):
        assert run_cli("optimize", "--target", "gamma", "--mode", mode) == 2


def test_gen_deterministic(tmp_path):
    a = gen_family(tmp_path, 4, seed=5)
    b_path = tmp_path / "again.json"
    assert run_cli("gen", "--kind", "family", "--n", "4", "--seed", "5",
                   "--output", str(b_path)) == 0
    assert a.read_bytes() == b_path.read_bytes()
