"""Command line behaviour: JSON in, JSON out, documented exit codes."""

import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sparkforge import cli, constructions, exact_arith
from sparkforge.exact_linalg import ExactMatrix, dft_submatrix

from test_dft_analysis import SINGER_121


def _run(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out else None
    return code, doc, captured.err


def _write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_construct_vandermonde_integer_round_trip(capsys):
    code, doc, _ = _run(
        capsys,
        ["construct", "--vandermonde", "--bases", "1,2,3,4", "--m", "3", "--exact"],
    )
    assert code == 0
    assert doc["kind"] == "integer"
    parsed = cli.matrix_from_json(doc)
    assert isinstance(parsed, ExactMatrix)
    for i in range(3):
        for j, base in enumerate((1, 2, 3, 4)):
            assert parsed.entry(i, j) == base**i
    assert cli.matrix_to_json(parsed) == doc


def test_construct_harmonic_cyclotomic_round_trip(capsys):
    code, doc, _ = _run(
        capsys, ["construct", "--harmonic", "--n", "5", "--rows", "0,1,4", "--exact"]
    )
    assert code == 0
    assert doc["kind"] == "cyclotomic" and doc["order"] == 5
    parsed = cli.matrix_from_json(doc)
    reference = dft_submatrix(5, (0, 1, 4))
    for i in range(3):
        for j in range(5):
            assert parsed.entry(i, j) == reference.entry(i, j)
    assert cli.matrix_to_json(parsed) == doc


def test_construct_harmonic_takes_quadratic_residue_rows(capsys):
    code, doc, _ = _run(capsys, ["construct", "--harmonic", "--n", "13", "--rows-qr", "--exact"])
    assert code == 0
    rows = list(constructions.quadratic_residue_rows(13))
    assert rows == [0, 1, 3, 4, 9, 10, 12]
    assert doc == cli.matrix_to_json(dft_submatrix(13, rows))


def test_construct_optimal_complex_round_trip(capsys):
    code, doc, _ = _run(capsys, ["construct", "--optimal", "--n", "6", "--m", "3"])
    assert code == 0
    assert doc["kind"] == "complex_float"
    # json.loads keeps the printed key order.
    assert list(doc) == ["schema_version", "kind", "rows", "cols", "entries"]
    parsed = cli.matrix_from_json(doc)
    assert parsed.shape == (3, 6)
    # JSON carries exact binary64 values, so the round trip is bitwise.
    assert np.array_equal(parsed, constructions.optimal_vandermonde(6, 3).matrix)


def test_construct_rejects_ambiguous_kind(capsys):
    code, doc, err = _run(
        capsys, ["construct", "--vandermonde", "--harmonic", "--n", "4", "--rows", "0"]
    )
    assert code == 2 and doc is None and "error" in err
    code, _, _ = _run(capsys, ["construct", "--n", "4", "--rows", "0"])
    assert code == 2


def test_full_spark_refuted_exits_one(capsys):
    code, doc, _ = _run(capsys, ["full-spark", "--dft", "10", "--rows", "0,1,3,4"])
    assert code == 1
    assert doc["full_spark"] is False
    assert doc["witness"] == [0, 1, 2, 6]
    assert doc["spark"] == 4


def test_full_spark_holds_with_rows_file(capsys, tmp_path):
    rows = tmp_path / "rows.txt"
    rows.write_text("0 1 4\n", encoding="utf-8")
    code, doc, _ = _run(capsys, ["full-spark", "--dft", "5", "--rows-file", str(rows)])
    assert code == 0
    assert doc["full_spark"] is True and doc["witness"] is None
    assert doc["checked_subsets"] == math.comb(5, 3)


def test_spark_dft_witness(capsys):
    code, doc, _ = _run(capsys, ["spark", "--dft", "4", "--rows", "0,2"])
    assert code == 0
    assert doc["spark"] == 2 and doc["witness"] == [0, 2]
    assert doc["mode"] == "exact"


def test_spark_numeric_matrix_file(capsys, tmp_path):
    # Columns 0 and 1 coincide, so the probe stops at size two.
    path = _write_json(
        tmp_path / "frame.json",
        {
            "schema_version": 1,
            "kind": "complex_float",
            "rows": 2,
            "cols": 3,
            "entries": [[1, 0], [1, 0], [0, 1], [2, 0], [2, 0], [0, -1]],
        },
    )
    code, doc, _ = _run(capsys, ["spark", "--matrix", path])
    assert code == 0
    assert doc["spark"] == 2 and doc["witness"] == [0, 1]
    assert doc["mode"] == "numeric"


def test_spark_zero_matrix_exits_zero_exact_and_numeric(capsys, tmp_path):
    exact = _write_json(
        tmp_path / "zeros.json",
        {"schema_version": 1, "kind": "integer", "rows": 2, "cols": 3, "entries": [0] * 6},
    )
    numeric = _write_json(
        tmp_path / "zeros_float.json",
        {"schema_version": 1, "kind": "complex_float", "rows": 2, "cols": 3,
         "entries": [[0, 0]] * 6},
    )
    for path, mode in ((exact, "exact"), (numeric, "numeric")):
        code, doc, err = _run(capsys, ["spark", "--matrix", path])
        assert (code, err) == (0, "")
        assert (doc["spark"], doc["witness"], doc["checked_subsets"], doc["mode"]) == (1, [0], 1, mode)


def test_dft_analyze_singer_violation(capsys, tmp_path):
    rows = _write_json(tmp_path / "singer.json", list(SINGER_121))
    code, doc, _ = _run(capsys, ["dft-analyze", "--n", "121", "--rows-file", rows])
    assert code == 1
    assert doc["uniform"] is False
    assert [v["divisor"] for v in doc["violations"]] == [11]
    assert doc["prime_power"] is True and doc["full_spark"] is False


def test_dft_analyze_uniform_prime_power(capsys):
    code, doc, _ = _run(capsys, ["dft-analyze", "--n", "4", "--rows", "0,1"])
    assert code == 0
    assert doc["uniform"] is True and doc["violations"] == []
    assert doc["prime_power"] is True and doc["full_spark"] is True


def test_orbit_members(capsys):
    code, doc, _ = _run(capsys, ["orbit", "--n", "4", "--rows", "0,1"])
    assert code == 0
    assert doc["size"] == 4
    assert doc["orbit"] == [[0, 1], [0, 3], [1, 2], [2, 3]]


def test_orbit_cap_exits_three(capsys):
    code, doc, err = _run(capsys, ["orbit", "--n", "8", "--rows", "0,1", "--cap", "3"])
    assert code == 3 and doc is None and "error" in err


@pytest.mark.parametrize("order", [1001, 2048])
def test_orbit_past_the_entry_bound_exits_three(capsys, order):
    # N singletons and their complements: 2N members and N^2 entries, past
    # 10^6 from N = 1001 on; refused before any complement is built.
    code, doc, err = _run(capsys, ["orbit", "--n", str(order), "--rows", "0"])
    assert code == 3 and doc is None
    assert err == f"error: orbit exceeds {cli.MAX_PRINTED_ENTRIES} row entries\n"


def test_rip_check_threshold(capsys):
    argv = ["rip-check", "--n", "8", "--rows", "0,1,4", "--k", "2"]
    code, doc, _ = _run(capsys, argv + ["--delta", "0.3"])
    assert code == 1
    assert doc["pass"] is False and [2, 0, 2] in doc["violations"]
    code, doc, _ = _run(capsys, argv + ["--delta", "0.4"])
    assert code == 0
    assert doc["pass"] is True and doc["violations"] == []


def test_coherence_reads_constructed_frame_from_stdin(capsys, monkeypatch):
    code, doc, _ = _run(
        capsys,
        ["construct", "--harmonic-identity", "--n", "5", "--rows", "0,1,4", "--k", "1"],
    )
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, doc, _ = _run(capsys, ["coherence"])
    assert code == 0
    assert doc["rows"] == 3 and doc["cols"] == 6
    assert abs(doc["mu"] - math.sqrt(1 / 5)) < 1e-9
    assert abs(doc["welch_bound_sq"] - 1 / 5) < 1e-12


def test_matroid_girth_both_methods(capsys, tmp_path):
    graph = _write_json(
        tmp_path / "graph.json", {"ground": 2, "right": 1, "adj": [[0], [0]]}
    )
    code, doc, _ = _run(capsys, ["matroid-girth", "--graph", graph])
    assert code == 0
    assert doc["girth"] == 2 and doc["witness"] == [0, 1]
    assert doc["method"] == "hall_oracle"
    code, doc, _ = _run(
        capsys,
        ["matroid-girth", "--graph", graph, "--method", "representation",
         "--trials", "5", "--seed", "3"],
    )
    assert code == 0
    assert doc["girth"] == 2 and doc["method"] == "representation"
    assert doc["trials"] == 5 and doc["seed"] == 3


@pytest.mark.parametrize("ground, right, witness", [(0, 1, None), (2, 1, [0]), (2, 0, [0])])
def test_matroid_girth_representation_edgeless_graph(capsys, tmp_path, ground, right, witness):
    graph = _write_json(
        tmp_path / "graph.json", {"ground": ground, "right": right, "adj": [[]] * ground}
    )
    argv = ["matroid-girth", "--graph", graph, "--method", "representation",
            "--trials", "3", "--seed", "4"]
    code, doc, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert doc["girth"] == 1 and doc["witness"] == witness
    assert doc["sentinel"] is (ground == 0)
    assert doc["trials"] == 3 and doc["seed"] == 4
    _, hall, _ = _run(capsys, ["matroid-girth", "--graph", graph])
    assert (hall["girth"], hall["witness"]) == (doc["girth"], doc["witness"])


def test_clique_gadget_girth_flag(capsys, tmp_path):
    k4 = _write_json(
        tmp_path / "k4.json",
        {"vertices": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]},
    )
    code, doc, _ = _run(capsys, ["clique-gadget", "--graph", k4, "--k", "4", "--girth"])
    assert code == 0
    assert doc["target_girth"] == 6 and len(doc["edge_order"]) == 6
    assert doc["girth"]["girth"] == 6 and doc["girth"]["witness"] is not None

    c4 = _write_json(
        tmp_path / "c4.json",
        {"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]},
    )
    code, doc, _ = _run(capsys, ["clique-gadget", "--graph", c4, "--k", "4", "--girth"])
    assert code == 0
    assert doc["girth"]["girth"] != 6


def test_clique_gadget_past_the_entry_cap_exits_three(capsys, tmp_path):
    pairs = [[a, b] for a in range(8) for b in range(a + 1, 8)][::2]
    graph = _write_json(tmp_path / "g.json", {"vertices": 8, "edges": pairs})
    assert len(pairs) == 14
    code, doc, err = _run(capsys, ["clique-gadget", "--graph", graph, "--k", "800"])
    assert code == 3 and doc is None
    assert err.startswith("error: ") and err.count("\n") == 1 and "cap" in err
    edgeless = _write_json(tmp_path / "e.json", {"vertices": 3, "edges": []})
    code, doc, _ = _run(capsys, ["clique-gadget", "--graph", edgeless, "--k", str(10**9)])
    assert code == 0 and doc["adj"] == [] and doc["right"] == 3 + math.comb(10**9, 2) - 10**9 - 1


def test_probe_full_spark_exits_zero(capsys, tmp_path):
    frame = cli.matrix_to_json(constructions.vandermonde((1, 2, 3, 4), 3).exact_shadow)
    path = _write_json(tmp_path / "frame.json", frame)
    code, doc, _ = _run(capsys, ["probe", "--matrix", path, "--k", "3"])
    assert code == 0
    assert doc["spark_exceeds_k"] is True
    assert doc["witness"] is None and doc["corroborated"] is False


def test_probe_corroborates_negative_answer(capsys, tmp_path):
    path = _write_json(
        tmp_path / "dup.json",
        {"schema_version": 1, "kind": "integer", "rows": 2, "cols": 3,
         "entries": [1, 1, 2, 2, 2, 3]},
    )
    code, doc, _ = _run(capsys, ["probe", "--matrix", path, "--k", "2"])
    assert code == 1
    assert doc["spark_exceeds_k"] is False
    assert doc["corroborated"] is True
    assert doc["spark"] == 2 and doc["witness"] == [0, 1]

    code, doc, _ = _run(
        capsys, ["probe", "--matrix", path, "--k", "2", "--no-corroborate"]
    )
    assert code == 1
    assert doc["corroborated"] is False and doc["witness"] is None
    assert "spark" not in doc


def test_probe_exit_code_follows_the_corroborating_spark(capsys, tmp_path):
    # With one base the sketch is [1, 1]: column 2 = (1, -1) maps to 0, so the
    # sketch alone is negative, but the exact spark is 3 > k = 1.
    path = _write_json(
        tmp_path / "m.json",
        {"schema_version": 1, "kind": "integer", "rows": 2, "cols": 3,
         "entries": [1, 0, 1, 0, 1, -1]},
    )
    argv = ["probe", "--matrix", path, "--k", "1", "--p-cap", "1"]
    code, doc, _ = _run(capsys, argv)
    assert code == 0
    assert doc["spark_exceeds_k"] is False and doc["candidate_columns"] == [2]
    assert doc["spark"] == 3 and doc["corroborated"] is False and doc["witness"] is None

    code, doc, _ = _run(capsys, [*argv, "--no-corroborate"])
    assert code == 1 and "spark" not in doc and doc["corroborated"] is False


def test_probe_rejects_non_integer_matrix(capsys, tmp_path):
    frame = cli.matrix_to_json(dft_submatrix(5, (0, 1)))
    path = _write_json(tmp_path / "cyc.json", frame)
    code, doc, err = _run(capsys, ["probe", "--matrix", path, "--k", "1"])
    assert code == 2 and doc is None and "integer" in err


def test_budget_env_is_honoured(capsys, monkeypatch):
    monkeypatch.setenv(cli.BUDGET_ENV, "5")
    code, doc, err = _run(capsys, ["spark", "--dft", "6", "--rows", "0,1,3"])
    assert code == 3 and doc is None and "error" in err

    # An explicit flag wins over the environment.
    code, doc, _ = _run(
        capsys, ["spark", "--dft", "6", "--rows", "0,1,3", "--budget", "100000"]
    )
    assert code == 0 and doc["spark"] >= 2

    monkeypatch.setenv(cli.BUDGET_ENV, "not-a-number")
    code, doc, err = _run(capsys, ["spark", "--dft", "6", "--rows", "0,1,3"])
    assert code == 2 and "must be an integer" in err


def test_usage_errors_exit_two(capsys):
    # Parse errors take the one-line path too, with no usage text.
    for argv in (
        ["spark"],
        ["full-spark", "--dft", "5"],
        ["no-such-command"],
        [],
        ["spark", "--budget", "abc"],
        ["rip-check", "--n", "8", "--rows", "0,1", "--k", "2"],
        ["matroid-girth", "--method", "bogus"],
    ):
        code, doc, err = _run(capsys, argv)
        assert _one_line_error(code, doc, err), (argv, err)
        assert "usage:" not in err
    assert "--delta" in _run(capsys, ["rip-check", "--n", "8", "--rows", "0", "--k", "1"])[2]


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["probe", "--help"]):
        assert cli.run(argv) == 0
        assert capsys.readouterr().out.startswith("usage: sparkforge")


def test_missing_matrix_file_exits_two(capsys):
    code, doc, err = _run(capsys, ["spark", "--matrix", "/no/such/file.json"])
    assert code == 2 and doc is None and "error" in err


def _declared_script(name):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def test_installed_entry_point(tmp_path):
    # Write the console script an installer generates from [project.scripts]
    # into a private bin directory, so the command found by name is the
    # declared entry point run against the package under test, with no
    # install outside the checkout.
    module, attr = _declared_script("sparkforge").split(":")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    script = bindir / "sparkforge"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n",
        encoding="utf-8",
    )
    script.chmod(0o755)
    package_root = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [str(bindir), env.get("PATH")]))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")])
    )

    exe = shutil.which("sparkforge", path=env["PATH"])
    assert exe is not None
    proc = subprocess.run(
        [exe, "full-spark", "--dft", "5", "--rows", "0,1,4"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["full_spark"] is True and doc["command"] == "full-spark"


def _one_line_error(code, doc, err):
    return code == 2 and doc is None and err.startswith("error: ") and err.count("\n") == 1


def test_full_spark_has_no_threads_option_exit_two(capsys):
    for value in ("1", "2", "0"):
        code, doc, err = _run(
            capsys, ["full-spark", "--dft", "7", "--rows", "0,1", "--threads", value]
        )
        assert _one_line_error(code, doc, err) and "unrecognized arguments: --threads" in err


def test_dft_rows_with_repeats_or_non_integers_exit_two(capsys, tmp_path):
    for command in ("spark", "full-spark"):
        code, doc, err = _run(capsys, [command, "--dft", "7", "--rows", "0,0,1"])
        assert _one_line_error(code, doc, err) and "duplicate rows" in err
    rows_file = _write_json(tmp_path / "rows.json", [0, 1.7])
    code, doc, err = _run(capsys, ["full-spark", "--dft", "7", "--rows-file", rows_file])
    assert _one_line_error(code, doc, err) and "row must be an integer" in err


@pytest.mark.parametrize("cols", ["", " "])
def test_empty_cols_list_names_no_column(capsys, cols):
    code, doc, err = _run(capsys, ["spark", "--dft", "7", "--rows", "0,1", "--cols", cols])
    assert (code, err) == (0, "")
    assert (doc["rows"], doc["cols"], doc["spark"], doc["witness"]) == (2, 0, 1, None)
    assert doc["checked_subsets"] == 0 and doc["sentinel"]
    code, doc, err = _run(capsys, ["full-spark", "--dft", "7", "--rows", "0,1", "--cols", cols])
    assert _one_line_error(code, doc, err) and "ShapeError" in err and "2x0" in err


def test_matrix_files_reject_non_integer_entries(capsys, tmp_path):
    bad = [
        {"kind": "integer", "rows": 1, "cols": 2, "entries": [1.7, True]},
        {"kind": "integer", "rows": 1, "cols": 2, "entries": [1, True]},
        {"kind": "integer", "rows": 1.0, "cols": 2, "entries": [1, 2]},
        {"kind": "cyclotomic", "order": 5, "rows": 1, "cols": 2,
         "entries": [[1, 2.5], [0, 1]]},
        {"kind": "cyclotomic", "order": 5, "rows": 1, "cols": 2,
         "entries": [[1, False], [0, 1]]},
        {"kind": "cyclotomic", "rows": 1, "cols": 1, "entries": [[1]]},
    ]
    for i, doc in enumerate(bad):
        path = _write_json(tmp_path / f"bad{i}.json", dict(doc, schema_version=1))
        for command in ("spark", "full-spark"):
            code, out, err = _run(capsys, [command, "--matrix", path])
            assert _one_line_error(code, out, err), (doc, err)


def test_matrix_files_with_bad_shapes_or_entries_exit_two(capsys, tmp_path):
    bad = [
        {"kind": "complex_float", "rows": 1, "cols": 1, "entries": [[True, 0]]},
        {"kind": "complex_float", "rows": 1, "cols": 1, "entries": [[1, False]]},
        {"kind": "complex_float", "rows": 1, "cols": 1, "entries": [["1", 0]]},
        {"kind": "complex_float", "rows": 1, "cols": 1, "entries": [[1, 0, 0]]},
        {"kind": "complex_float", "rows": 1, "cols": 1, "entries": [[10**400, 0]]},
        {"kind": "complex_float", "rows": 1, "cols": 1, "entries": [1]},
        {"kind": "complex_float", "rows": -1, "cols": -2, "entries": [[1, 0], [2, 0]]},
        {"kind": "integer", "rows": 1, "cols": 1, "entries": 5},
        {"kind": "integer", "rows": -1, "cols": 2, "entries": [1, 2]},
        {"kind": "integer", "rows": 2, "cols": -1, "entries": [1, 2]},
        {"kind": "cyclotomic", "order": 5, "rows": 1, "cols": 1, "entries": {"0": [1]}},
        {"kind": "cyclotomic", "order": 5, "rows": 1, "cols": 1, "entries": [3]},
        {"kind": "cyclotomic", "order": 0, "rows": 1, "cols": 1, "entries": [[1]]},
        {"kind": "cyclotomic", "order": -5, "rows": 1, "cols": 1, "entries": [[1]]},
    ]
    bad = [dict(doc, schema_version=1) for doc in bad]
    bad.append({"schema_version": True, "kind": "integer", "rows": 1, "cols": 1, "entries": [1]})
    for i, doc in enumerate(bad):
        path = _write_json(tmp_path / f"bad{i}.json", doc)
        code, out, err = _run(capsys, ["spark", "--matrix", path])
        assert _one_line_error(code, out, err), (doc, err)
        assert "has no len" not in err and "expected -" not in err, err
    # Nesting deeper than the JSON decoder's recursion limit is malformed too.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    for argv in (["spark", "--matrix", str(deep)],
                 ["dft-analyze", "--n", "7", "--rows-file", str(deep)]):
        assert _one_line_error(*_run(capsys, argv)), argv
    # A pair of JSON numbers, integer or not, is still an entry.
    path = _write_json(tmp_path / "ok.json", {
        "schema_version": 1, "kind": "complex_float", "rows": 1, "cols": 2,
        "entries": [[1, 0], [0.5, 2]]})
    code, doc, _ = _run(capsys, ["spark", "--matrix", path])
    assert code == 0 and doc["spark"] == 2 and doc["mode"] == "numeric"


def test_graph_files_with_missing_or_ill_typed_fields_exit_two(capsys, tmp_path):
    bipartite = [
        {"ground": 2, "adj": [[0], [0]]},
        {"ground": 2, "right": 1.5, "adj": [[0], [0]]},
        {"ground": 2, "right": 1, "adj": [[0], [True]]},
        {"ground": 1, "right": 1, "adj": [{}]},
        {"ground": 0, "right": 1, "adj": ""},
        [2, 1],
    ]
    for i, doc in enumerate(bipartite):
        path = _write_json(tmp_path / f"bip{i}.json", doc)
        code, out, err = _run(capsys, ["matroid-girth", "--graph", path])
        assert _one_line_error(code, out, err), (doc, err)
    simple = [
        {"vertices": 3},
        {"edges": [[0, 1]]},
        {"vertices": 3, "edges": [[0, 1.0]]},
        {"vertices": 3, "edges": {}},
    ]
    for i, doc in enumerate(simple):
        path = _write_json(tmp_path / f"simple{i}.json", doc)
        code, out, err = _run(capsys, ["clique-gadget", "--graph", path, "--k", "3"])
        assert _one_line_error(code, out, err), (doc, err)
    # An edge that is not a pair is named, not unpacked.
    for edge, named in (([0, 1, 2], "[0, 1, 2]"), (5, "5")):
        path = _write_json(tmp_path / "edge.json", {"vertices": 3, "edges": [edge]})
        code, out, err = _run(capsys, ["clique-gadget", "--graph", path, "--k", "4"])
        assert _one_line_error(code, out, err), (edge, err)
        assert err == f"error: ShapeError: edge must be a JSON list of 2, got {named}\n"


def test_an_integer_past_the_decoder_digit_limit_names_its_file(capsys, tmp_path):
    # json.loads refuses an integer of more than 4,300 digits with a plain ValueError.
    digits = "1" * 5000
    files = {
        "m.json": f'{{"schema_version": 1, "kind": "integer", "rows": 1, "cols": 1, '
                  f'"entries": [{digits}]}}',
        "rows.json": f"[0, {digits}]",
        "g.json": f'{{"ground": {digits}, "right": 1, "adj": []}}',
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    for argv, what in (
        (["spark", "--matrix", str(tmp_path / "m.json")], "invalid JSON"),
        (["dft-analyze", "--n", "7", "--rows-file", str(tmp_path / "rows.json")],
         "rows file must hold a JSON list; invalid JSON"),
        (["matroid-girth", "--graph", str(tmp_path / "g.json")], "invalid JSON"),
    ):
        code, doc, err = _run(capsys, argv)
        assert _one_line_error(code, doc, err), argv
        assert err.startswith(f"error: {what} in {argv[-1]}: ") and "4300 digits" in err, err


_LONG = "x" * 200_000
_DIGITS = "9" * 4000


def _matrix(**fields):
    return {"schema_version": 1, "kind": "integer", "rows": 1, "cols": 1, "entries": [1], **fields}


# Each outside value an error names, at a length that the parent printed whole
# (1 KB to 200 KB): name -> (parent exit code, argv, {option: JSON file it reads}),
# where the option "env" sets $SPARKFORGE_BUDGET instead.
_OUTSIDE_VALUES = {
    # JSON values of the wrong type, each holding a 200,000-character string.
    "integer entry": (2, ["spark"], {"--matrix": _matrix(cols=2, entries=[1, _LONG])}),
    "entries": (2, ["spark"], {"--matrix": _matrix(entries=_LONG)}),
    "rows": (2, ["spark"], {"--matrix": _matrix(rows=_LONG)}),
    "order": (2, ["spark"], {"--matrix": _matrix(kind="cyclotomic", order=_LONG)}),
    "schema_version": (2, ["spark"], {"--matrix": _matrix(schema_version=_LONG)}),
    "kind": (2, ["spark"], {"--matrix": _matrix(kind=_LONG)}),
    "cyclotomic entry": (2, ["spark"], {"--matrix": _matrix(kind="cyclotomic", order=5,
                                                            entries=[_LONG])}),
    "cyclotomic coefficient": (2, ["spark"], {"--matrix": _matrix(kind="cyclotomic", order=5,
                                                                  entries=[[1, _LONG]])}),
    "complex entry": (2, ["spark"], {"--matrix": _matrix(kind="complex_float",
                                                         entries=[[_LONG, 0]])}),
    "row": (2, ["dft-analyze", "--n", "7"], {"--rows-file": [0, _LONG]}),
    "adj": (2, ["matroid-girth"], {"--graph": {"ground": 0, "right": 1, "adj": _LONG}}),
    "right vertex type": (2, ["matroid-girth"],
                          {"--graph": {"ground": 1, "right": 1, "adj": [[_LONG]]}}),
    "edge": (2, ["clique-gadget", "--k", "4"], {"--graph": {"vertices": 3, "edges": [[0, _LONG]]}}),
    # Integers of 4,000 digits, out of range, and values computed from them.
    "--budget": (2, ["spark", "--dft", "7", "--rows", "0,1", "--budget", "-" + _DIGITS], {}),
    "--cap": (2, ["orbit", "--n", "7", "--rows", "0,1", "--cap", "-" + _DIGITS], {}),
    "--dft": (2, ["spark", "--dft", _DIGITS, "--rows", "0,1"], {}),
    "probe --k": (2, ["probe", "--k", _DIGITS], {"--matrix": _matrix()}),
    "matrix rows": (2, ["spark"], {"--matrix": _matrix(rows=-int(_DIGITS))}),
    "matrix entry count": (2, ["spark"], {"--matrix": _matrix(rows=int(_DIGITS))}),
    "matrix order": (2, ["spark"], {"--matrix": _matrix(kind="cyclotomic", order=int(_DIGITS))}),
    "--rows residue": (2, ["dft-analyze", "--n", "7", "--rows", "0," + _DIGITS], {}),
    "rows file residue": (2, ["dft-analyze", "--n", "7"], {"--rows-file": [0, int(_DIGITS)]}),
    "graph vertex": (2, ["matroid-girth"],
                     {"--graph": {"ground": 1, "right": 1, "adj": [[int(_DIGITS)]]}}),
    "graph edge": (2, ["clique-gadget", "--k", "4"],
                   {"--graph": {"vertices": 3, "edges": [[0, int(_DIGITS)]]}}),
    "vandermonde --m": (2, ["construct", "--vandermonde", "--bases", "1", "--m", _DIGITS], {}),
    # C(k, 2) of a 1,000-digit k, and the sketch pool P = 8 * 2^3001 of 3,000 columns.
    "gadget entries": (3, ["clique-gadget", "--k", "1" + "0" * 1000],
                       {"--graph": {"vertices": 3, "edges": [[0, 1]]}}),
    "probe P": (3, ["probe", "--k", "2", "--no-cap"],
                {"--matrix": _matrix(rows=2, cols=3000, entries=[1] * 3000 + [*range(3000)])}),
    # Integers of 100,000 digits, more than int() reads.
    "--budget digits": (2, ["spark", "--dft", "7", "--rows", "0,1", "--budget", "1" * 100_000],
                        {}),
    "SPARKFORGE_BUDGET digits": (2, ["spark", "--dft", "7", "--rows", "0,1"],
                                 {"env": "1" * 100_000}),
}


@pytest.mark.parametrize("name", list(_OUTSIDE_VALUES))
def test_every_outside_value_is_named_within_the_line_bound(capsys, tmp_path, monkeypatch, name):
    want, argv, inputs = _OUTSIDE_VALUES[name]
    for option, payload in inputs.items():
        if option == "env":
            monkeypatch.setenv(cli.BUDGET_ENV, payload)
        else:
            argv = [*argv, option, _write_json(tmp_path / "input.json", payload)]
    code, doc, err = _run(capsys, argv)
    assert (code, doc) == (want, None) and err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 200 and " characters)" in err, err[:300]


def test_non_finite_or_negative_delta_and_tol_exit_two(capsys, tmp_path):
    rip = ["rip-check", "--n", "8", "--rows", "0,1,4", "--k", "2"]
    for value in ("nan", "inf", "-inf", "-0.1"):
        code, doc, err = _run(capsys, rip + [f"--delta={value}"])
        assert _one_line_error(code, doc, err) and "delta must be finite" in err, (value, err)
    frame = _write_json(tmp_path / "frame.json", {
        "schema_version": 1, "kind": "complex_float", "rows": 2, "cols": 3,
        "entries": [[1, 0], [1, 0], [0, 1], [2, 0], [2, 0], [0, -1]]})
    for value in ("nan", "inf", "-1"):
        code, doc, err = _run(capsys, ["spark", "--matrix", frame, f"--tol={value}"])
        assert _one_line_error(code, doc, err) and "tol must be finite" in err, (value, err)
    code, doc, _ = _run(capsys, ["spark", "--matrix", frame, "--tol", "0"])
    assert code == 0 and doc["mode"] == "numeric"
    # --tol and --delta take ASCII decimals only: float() would read each of these.
    for value in ("0_5", "٥", "５", " 0.5"):
        for argv, flag in ((rip, "--delta"), (["spark", "--matrix", frame], "--tol")):
            code, doc, err = _run(capsys, [*argv, f"{flag}={value}"])
            assert _one_line_error(code, doc, err), (value, err)
            assert f"argument {flag}: must be a decimal number, got {value!r}" in err, err
    for value in (".5", "5e-1", "+0.50", "5.E-1"):
        assert _run(capsys, rip + ["--delta", value])[0] in (0, 1), value


def test_negative_budget_and_caps_exit_two(capsys, tmp_path, monkeypatch):
    path = _write_json(tmp_path / "dup.json", {
        "schema_version": 1, "kind": "integer", "rows": 2, "cols": 3,
        "entries": [1, 1, 2, 2, 2, 3]})
    cases = [
        (["spark", "--dft", "7", "--rows", "0,1"], "--budget"),
        (["full-spark", "--dft", "7", "--rows", "0,1"], "--budget"),
        (["matroid-girth", "--graph", "-"], "--budget"),
        (["orbit", "--n", "8", "--rows", "0,1"], "--cap"),
        (["probe", "--matrix", path, "--k", "2"], "--p-cap"),
    ]
    for argv, flag in cases:
        for value in ("-1", "-1000000"):
            code, doc, err = _run(capsys, argv + [f"{flag}={value}"])
            assert _one_line_error(code, doc, err), (argv, value, err)
            assert f"argument {flag}: must be non-negative, got {value}" in err, err
    monkeypatch.setenv(cli.BUDGET_ENV, "-1")
    code, doc, err = _run(capsys, ["spark", "--dft", "7", "--rows", "0,1"])
    assert _one_line_error(code, doc, err) and f"{cli.BUDGET_ENV} must be non-negative" in err
    # Zero stays valid: the sweep runs and exhausts it, or the cap is met.
    monkeypatch.setenv(cli.BUDGET_ENV, "0")
    assert _run(capsys, ["spark", "--dft", "7", "--rows", "0,1"])[0] == 3
    for argv, flag in cases[:2] + cases[3:]:
        code, doc, err = _run(capsys, argv + [f"{flag}=0"])
        assert code == 3 and doc is None and err.startswith("error: "), (argv, err)


def test_cyclotomic_order_above_the_bound_exits_two_before_any_ring(capsys, tmp_path, monkeypatch):
    def no_ring(order):
        raise AssertionError(f"ring of order {order} built")

    monkeypatch.setattr(exact_arith, "_ring", no_ring)
    order = cli.MAX_ORDER + 1
    path = _write_json(tmp_path / "big.json", {
        "schema_version": 1, "kind": "cyclotomic", "order": order, "rows": 1, "cols": 1,
        "entries": [[1]]})
    for argv in (
        ["spark", "--matrix", path],
        ["coherence", "--matrix", path],
        ["full-spark", "--dft", str(order), "--rows", "0,1"],
        ["spark", "--dft", str(order), "--rows", "0"],
        ["construct", "--harmonic", "--n", str(order), "--rows", "0,1"],
        ["construct", "--optimal", "--n", str(order), "--m", "2"],
        ["dft-analyze", "--n", str(order), "--rows", "0,1"],
        ["orbit", "--n", str(order), "--rows", "0,1"],
        ["rip-check", "--n", str(order), "--k", str(order), "--delta", "0.5", "--rows", "0,1"],
    ):
        code, doc, err = _run(capsys, argv)
        assert _one_line_error(code, doc, err), argv
        assert f"order must lie in 1..{cli.MAX_ORDER}" in err, argv


def _int_matrix_file(tmp_path):
    return _write_json(tmp_path / "m.json", {
        "schema_version": 1, "kind": "integer", "rows": 2, "cols": 3, "entries": [1, 0, 1, 0, 1, 1]})


@pytest.mark.parametrize("command", ["spark", "full-spark"])
@pytest.mark.parametrize("restriction", [["--cols", "0,1"], ["--rows", "0"], ["--rows-file", "rows.json"]])
def test_dft_restrictions_of_a_matrix_file_exit_two(capsys, tmp_path, command, restriction):
    # Each restriction names DFT rows or columns; a matrix file would be certified whole.
    _write_json(tmp_path / "rows.json", [0])
    if restriction[0] == "--rows-file":
        restriction = ["--rows-file", str(tmp_path / "rows.json")]
    code, doc, err = _run(capsys, [command, "--matrix", _int_matrix_file(tmp_path), *restriction])
    assert _one_line_error(code, doc, err) and f"{restriction[0]} needs --dft" in err


@pytest.mark.parametrize("command", ["spark", "full-spark"])
def test_matrix_and_dft_together_exit_two(capsys, tmp_path, command):
    code, doc, err = _run(capsys, [command, "--matrix", _int_matrix_file(tmp_path),
                                   "--dft", "7", "--rows", "0,1"])
    assert _one_line_error(code, doc, err) and "exactly one of --matrix" in err
    code, doc, err = _run(capsys, [command])
    assert _one_line_error(code, doc, err) and "exactly one of --matrix" in err


@pytest.mark.parametrize("argv", [
    ["spark", "--dft", "7"],
    ["full-spark", "--dft", "7"],
    ["dft-analyze", "--n", "7"],
    ["orbit", "--n", "7"],
    ["rip-check", "--n", "7", "--k", "2", "--delta", "0.5"],
    ["construct", "--harmonic", "--n", "7", "--exact"],
    ["construct", "--harmonic-identity", "--n", "7", "--k", "1"],
])
def test_rows_and_rows_file_together_exit_two(capsys, tmp_path, argv):
    rows_file = _write_json(tmp_path / "rows.json", [0, 1, 3])
    code, doc, err = _run(capsys, [*argv, "--rows", "0", "--rows-file", rows_file])
    assert _one_line_error(code, doc, err) and "--rows and --rows-file" in err, err
    assert _run(capsys, [*argv, "--rows-file", rows_file])[0] in (0, 1)


@pytest.mark.parametrize("source", [["--rows", "0,1"], ["--rows-file", "rows.txt"]])
def test_quadratic_residue_rows_and_a_second_row_source_exit_two(capsys, tmp_path, source):
    (tmp_path / "rows.txt").write_text("0 1\n", encoding="utf-8")
    if source[0] == "--rows-file":
        source = ["--rows-file", str(tmp_path / "rows.txt")]
    code, doc, err = _run(capsys, ["construct", "--harmonic", "--n", "5", *source, "--rows-qr"])
    assert _one_line_error(code, doc, err) and f"{source[0]} and --rows-qr" in err


@pytest.mark.parametrize("argv, unread", [
    (["--harmonic", "--n", "7", "--rows", "0,1", "--m", "3"], "--m"),
    (["--optimal", "--n", "7", "--m", "3", "--bases", "1,2"], "--bases"),
    (["--vandermonde", "--bases", "1,2,3", "--m", "2", "--k", "1"], "--k"),
    (["--harmonic-identity", "--n", "7", "--rows", "0,1", "--k", "1", "--normalize"], "--normalize"),
    (["--vandermonde", "--bases", "1,2,3", "--m", "2", "--rows", "0"], "--rows"),
    (["--optimal", "--n", "7", "--m", "3", "--rows-qr"], "--rows-qr"),
    (["--parseval", "--matrix", "-", "--n", "7"], "--n"),
    (["--harmonic", "--n", "7", "--rows", "0,1", "--matrix", "frame.json"], "--matrix"),
    (["--harmonic", "--n", "7", "--rows", "0,1", "--k", "0"], "--k"),  # 0 is given too
    (["--optimal", "--n", "7", "--m", "3", "--rows-file", "rows.json", "--k", "2"],
     "--k and --rows-file"),
])
def test_construct_refuses_an_option_its_kind_does_not_read(capsys, argv, unread):
    code, doc, err = _run(capsys, ["construct", *argv])
    assert _one_line_error(code, doc, err)
    assert err == f"error: {argv[0]} does not read {unread}\n"


def test_a_long_list_error_quotes_the_first_bad_token(capsys, tmp_path):
    # 200,000 good tokens and one bad one: the error names the bad token alone.
    text = "1 " * 200_000 + "x"
    rows = tmp_path / "rows.txt"
    rows.write_text(text, encoding="utf-8")
    for argv in (
        ["dft-analyze", "--n", "7", "--rows-file", str(rows)],
        ["dft-analyze", "--n", "7", "--rows", text],
        ["spark", "--dft", "7", "--rows", "0", "--cols", text],
        ["construct", "--vandermonde", "--bases", text, "--m", "2"],
    ):
        code, doc, err = _run(capsys, argv)
        assert _one_line_error(code, doc, err) and len(err.encode()) < 200, argv[:4]
        assert err == "error: expected integers, got 'x'\n"


def test_a_long_bad_token_is_quoted_by_a_prefix_and_its_length(capsys, tmp_path):
    # One token of 200,001 characters: the error quotes its first ten.
    token = "1" * 200_000 + "x"
    rows = tmp_path / "rows.txt"
    rows.write_text(token, encoding="utf-8")
    quoted = "'1111111111'... (200001 characters)"
    for argv, want in (
        (["dft-analyze", "--n", "7", "--rows-file", str(rows)], f"expected integers, got {quoted}"),
        (["dft-analyze", "--n", "7", "--rows", token[100_000:]],
         "expected integers, got '1111111111'... (100001 characters)"),
        (["spark", "--dft", "7", "--rows", "0,1", "--budget", token],
         f"argument --budget: must be an integer, got {quoted}"),
        # A value that is not a string is cut from its repr, with no quotes.
        (["orbit", "--n", "7", "--rows", "0,1", "--cap", "-" + "9" * 4000],
         "argument --cap: must be non-negative, got -999999999... (4001 characters)"),
        (["spark", "--dft", "9" * 4000, "--rows", "0,1"],
         f"order must lie in 1..{cli.MAX_ORDER}, got 9999999999... (4000 characters)"),
    ):
        code, doc, err = _run(capsys, argv)
        assert _one_line_error(code, doc, err) and len(err.encode()) < 200, argv[:4]
        assert err == f"error: {want}\n"
    # Ten characters are quoted whole.  Ten of the widest repr, '\U0010ffff',
    # stay under the bound after the longest message, a real option's.
    code, doc, err = _run(capsys, ["dft-analyze", "--n", "7", "--rows", "0,123456789a"])
    assert err == "error: expected integers, got '123456789a'\n"
    for argv in (["dft-analyze", "--n", "7", "--rows", "0," + chr(0x10FFFF) * 11],
                 ["rip-check", "--n", "7", "--k", "1", "--rows", "0",
                  "--delta", chr(0x10FFFF) * 10**6]):
        code, doc, err = _run(capsys, argv)
        assert _one_line_error(code, doc, err) and len(err.encode()) < 200, argv[:4]
        assert err.endswith(" characters)\n")


@pytest.mark.parametrize("token", ["0_3", "٣", "３", "3.0", "0x3", "+-3", "3-"])
def test_list_tokens_must_be_ascii_decimal_integers(capsys, tmp_path, monkeypatch, token):
    # int() reads "0_3" as 3 and "٣" (ARABIC-INDIC DIGIT THREE) as 3.
    # List tokens, integer options and $SPARKFORGE_BUDGET follow one rule.
    for argv in (
        ["spark", "--dft", "7", "--rows", "0", "--cols", token],
        ["spark", "--dft", "7", "--rows", f"0,{token}"],
        ["construct", "--vandermonde", "--bases", f"1,{token}", "--m", "2"],
    ):
        code, doc, err = _run(capsys, argv)
        assert _one_line_error(code, doc, err) and "expected integers" in err, argv
    rows = tmp_path / "rows.txt"
    rows.write_text(f"0 {token}\n", encoding="utf-8")
    code, doc, err = _run(capsys, ["dft-analyze", "--n", "7", "--rows-file", str(rows)])
    assert _one_line_error(code, doc, err) and "expected integers" in err
    matrix = _write_json(tmp_path / "int.json", {"schema_version": 1, "kind": "integer",
                                                 "rows": 1, "cols": 2, "entries": [1, 2]})
    for argv, flag in (
        (["spark", "--rows", "0"], "--dft"),
        (["spark", "--dft", "7", "--rows", "0,1"], "--budget"),
        (["construct", "--harmonic", "--rows", "0"], "--n"),
        (["construct", "--optimal", "--n", "7"], "--m"),
        (["rip-check", "--n", "7", "--rows", "0", "--delta", "0.5"], "--k"),
        (["orbit", "--n", "7", "--rows", "0"], "--cap"),
        (["probe", "--matrix", matrix, "--k", "1"], "--p-cap"),
        (["matroid-girth", "--method", "representation"], "--trials"),
        (["matroid-girth", "--method", "representation"], "--seed"),
    ):
        code, doc, err = _run(capsys, [*argv, f"{flag}={token}"])
        assert _one_line_error(code, doc, err), (flag, err)
        assert f"argument {flag}: must be an integer, got {token!r}" in err, err
    monkeypatch.setenv(cli.BUDGET_ENV, token)
    code, doc, err = _run(capsys, ["spark", "--dft", "7", "--rows", "0,1"])
    assert _one_line_error(code, doc, err) and f"{cli.BUDGET_ENV} must be an integer" in err


def test_signed_list_tokens_are_read(capsys, tmp_path):
    code, doc, _ = _run(capsys, ["construct", "--vandermonde", "--bases=-3,+2", "--m", "2", "--exact"])
    assert code == 0 and doc["entries"] == [1, 1, -3, 2]
    code, doc, _ = _run(capsys, ["spark", "--dft", "7", "--rows", "+0, +1", "--cols", "+1,3"])
    assert code == 0 and (doc["rows"], doc["cols"]) == (2, 2)
    # A negative row is read as an integer, then refused by the index-set rules.
    code, doc, err = _run(capsys, ["spark", "--dft", "7", "--rows=0,-1"])
    assert _one_line_error(code, doc, err) and "-1 outside 0..6" in err


@pytest.mark.parametrize("argv, message", [
    (["spark", "--matrix", "{long}"], "error: coefficient vector longer than 4\n"),
    (["spark", "--matrix", "{bogus}"], "error: unknown matrix kind 'bogus'\n"),
    (["construct", "--harmonic", "--rows", "0,1"], "error: --harmonic needs --n\n"),
    (["construct", "--parseval", "--matrix", "{float}", "--exact"],
     "error: this construction has no exact shadow\n"),
    (["full-spark", "--matrix", "{float}"],
     "error: full-spark certifies exact matrices only; use spark --tol for floats\n"),
    (["probe", "--matrix", "{dup}", "--k", "0"],
     "error: ShapeError: k must lie in 1..min(rows, cols), got 0\n"),
    (["probe", "--matrix", "{dup}", "--k", "2", "--trials", "0"],
     "error: trials must be positive\n"),
])
def test_refusals_exit_two_with_one_line(capsys, tmp_path, argv, message):
    files = {
        "long": {"schema_version": 1, "kind": "cyclotomic", "order": 5, "rows": 1, "cols": 1,
                 "entries": [[1, 0, 0, 0, 0]]},
        "bogus": {"schema_version": 1, "kind": "bogus", "rows": 1, "cols": 1, "entries": [1]},
        "float": {"schema_version": 1, "kind": "complex_float", "rows": 2, "cols": 3,
                  "entries": [[1, 0], [1, 0], [0, 1], [2, 0], [2, 0], [0, -1]]},
        "dup": {"schema_version": 1, "kind": "integer", "rows": 2, "cols": 3,
                "entries": [1, 1, 2, 2, 2, 3]},
    }
    paths = {name: _write_json(tmp_path / f"{name}.json", doc) for name, doc in files.items()}
    code, doc, err = _run(capsys, [arg.format(**paths) for arg in argv])
    assert _one_line_error(code, doc, err) and err == message


def test_construct_exact_past_the_coefficient_bound_exits_three(capsys):
    # 31 rows of the order-256 DFT hold 31 * 256 * phi(256) = 1,015,808 coefficients.
    code, doc, err = _run(capsys, ["construct", "--harmonic", "--n", "256",
                                   "--rows", ",".join(map(str, range(31))), "--exact"])
    assert code == 3 and doc is None
    assert err == f"error: exact matrix has 1015808 coefficients, cap {cli.MAX_PRINTED_ENTRIES}\n"
    # Without --exact each entry counts once: 31 * 256 float entries print.
    code, doc, _ = _run(capsys, ["construct", "--harmonic", "--n", "256",
                                 "--rows", ",".join(map(str, range(31)))])
    assert code == 0 and doc["kind"] == "complex_float"


def test_construct_exact_bound_is_inclusive(capsys, monkeypatch, tmp_path):
    # The benchmark's exact construct, 3 rows of the order-7 DFT, holds
    # 3 * 7 * 6 = 126 coefficients and prints the shadow's matrix file.
    monkeypatch.setattr(cli, "MAX_PRINTED_ENTRIES", 126)
    code, doc, _ = _run(capsys, ["construct", "--harmonic", "--n", "7", "--rows", "0,2,5", "--exact"])
    assert code == 0
    assert doc == cli.matrix_to_json(constructions.harmonic(7, (0, 2, 5)).exact_shadow)
    assert sum(map(len, doc["entries"])) == 126
    code, doc, err = _run(capsys, ["construct", "--harmonic", "--n", "7", "--rows", "0,2,3,5",
                                   "--exact"])
    assert code == 3 and doc is None and err == "error: exact matrix has 168 coefficients, cap 126\n"
    vandermonde = ["construct", "--vandermonde", "--bases", ",".join(map(str, range(1, 21))),
                   "--m", "7"]
    code, doc, err = _run(capsys, [*vandermonde, "--exact"])
    assert code == 3 and doc is None and err == "error: exact matrix has 140 coefficients, cap 126\n"
    # A float document counts its entries: 7 x 20 is past the bound, 7 x 18 on it.
    code, doc, err = _run(capsys, vandermonde)
    assert code == 3 and doc is None and err == "error: matrix has 140 entries, cap 126\n"
    code, doc, _ = _run(capsys, [*vandermonde[:3], ",".join(map(str, range(1, 19))), "--m", "7"])
    assert code == 0 and doc["kind"] == "complex_float" and len(doc["entries"]) == 126
    for cols, code in ((126, 0), (127, 3)):  # --parseval prints the shape it reads
        matrix = _write_json(tmp_path / "wide.json", {
            "schema_version": 1, "kind": "integer", "rows": 1, "cols": cols,
            "entries": list(range(1, cols + 1))})
        assert _run(capsys, ["construct", "--parseval", "--matrix", matrix])[0] == code


def _refuse_to_build(*args, **kwargs):
    raise AssertionError("the frame was built")


@pytest.mark.parametrize("builder, argv, coeffs", [
    # 500,000 bases at m = 3: 1,500,000 integer entries.
    ("vandermonde", ["--vandermonde", "--bases=" + ",".join(map(str, range(1, 500_001))),
                     "--m", "3"], 1_500_000),
    ("harmonic", ["--harmonic", "--n", "256", "--rows", ",".join(map(str, range(31)))], 1_015_808),
    # 2 rows of order 2039 beside 1 spike: 2 * 2040 * 2038.
    ("harmonic_identity", ["--harmonic-identity", "--n", "2039", "--rows", "0,1", "--k", "1"],
     8_315_040),
    ("optimal_vandermonde", ["--optimal", "--n", "256", "--m", "31"], 1_015_808),
])
def test_construct_exact_is_refused_before_the_build(capsys, monkeypatch, builder, argv, coeffs):
    monkeypatch.setattr(constructions, builder, _refuse_to_build)
    code, doc, err = _run(capsys, ["construct", *argv, "--exact"])
    assert code == 3 and doc is None
    assert err == f"error: exact matrix has {coeffs} coefficients, cap {cli.MAX_PRINTED_ENTRIES}\n"


@pytest.mark.parametrize("builder, argv, entries", [
    ("harmonic", ["--harmonic", "--n", "2048", "--rows", ",".join(map(str, range(600)))],
     1_228_800),
    ("vandermonde", ["--vandermonde", "--bases", ",".join(map(str, range(1, 1201))),
                     "--m", "1200"], 1_440_000),
])
def test_construct_float_is_refused_before_the_build(capsys, monkeypatch, builder, argv, entries):
    monkeypatch.setattr(constructions, builder, _refuse_to_build)
    code, doc, err = _run(capsys, ["construct", *argv])
    assert code == 3 and doc is None
    assert err == f"error: matrix has {entries} entries, cap {cli.MAX_PRINTED_ENTRIES}\n"


def test_construct_vandermonde_on_the_bound_refuses_its_overflow_at_once(capsys):
    # 1000 x 1000 entries are allowed, but 1000^999 leaves float range.
    code, doc, err = _run(capsys, ["construct", "--vandermonde", "--m", "1000",
                                   "--bases", ",".join(map(str, range(1, 1001)))])
    assert _one_line_error(code, doc, err) and err.startswith("error: NonFiniteEntry: ")


@pytest.mark.parametrize("argv, message", [
    (["--vandermonde", "--bases", "1,2", "--m", "1000000"],
     "error: ShapeError: need at least 1000000 bases for an 1000000-row frame\n"),
    (["--optimal", "--n", "2048", "--m", "2049"], "error: ShapeError: need order >= m >= 1\n"),
    (["--harmonic-identity", "--n", "2039", "--rows", "0,1", "--k", "3"],
     "error: ShapeError: k must lie in 1..2\n"),
    (["--harmonic-identity", "--n", "2048", "--rows", ",".join(map(str, range(31))), "--k", "1"],
     "error: NotPrime: 2048 is not prime\n"),
    (["--harmonic", "--n", "2039", "--rows", "0,2039"], "error: IndexOutOfRange: 2039 outside 0..2038\n"),
])
def test_construct_exact_leaves_malformed_arguments_to_the_builder(capsys, argv, message):
    # Each shadow would hold more coefficients than the bound allows, but
    # the arguments are refused first, with exit 2, as without --exact.
    without = _run(capsys, ["construct", *argv])
    code, doc, err = _run(capsys, ["construct", *argv, "--exact"])
    assert _one_line_error(code, doc, err) and (code, doc, err) == without
    assert err == message


CONSTRUCT_ROWS = [["--harmonic"], ["--harmonic-identity", "--k", "1"]]


def _cli_process(argv, stdin=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    env.pop(cli.BUDGET_ENV, None)
    return subprocess.run([sys.executable, "-m", "sparkforge.cli", *argv], input=stdin,
                          capture_output=True, text=True, timeout=60, env=env)


@pytest.mark.parametrize("kind", CONSTRUCT_ROWS, ids=["harmonic", "harmonic-identity"])
def test_construct_exact_takes_rows_piped_to_dev_stdin(kind):
    # A pipe can be read once: a second reading of /dev/stdin finds it empty.
    construct = ["construct", *kind, "--n", "7", "--exact"]
    piped = _cli_process([*construct, "--rows-file", "/dev/stdin"], stdin="0,1,3\n")
    given = _cli_process([*construct, "--rows", "0,1,3"])
    assert (piped.returncode, piped.stderr) == (0, ""), piped.stderr
    assert given.returncode == 0 and piped.stdout == given.stdout


@pytest.mark.parametrize("path", ["/dev/stdin", "-"])
@pytest.mark.parametrize("text", ["[0, 1, 3]\n", " 0,1 3"], ids=["json", "separated"])
def test_rows_files_are_read_by_their_content_from_any_path(path, text):
    # A text is a JSON list when it opens with [, whatever the file is called.
    piped = _cli_process(["dft-analyze", "--n", "7", "--rows-file", path], stdin=text)
    given = _cli_process(["dft-analyze", "--n", "7", "--rows", "0,1,3"])
    assert (piped.returncode, piped.stderr) == (0, ""), piped.stderr
    assert given.returncode == 0 and piped.stdout == given.stdout


def test_a_json_named_rows_file_of_separated_integers_is_read(capsys, tmp_path):
    rows = tmp_path / "rows.json"
    rows.write_text("0 1 3\n", encoding="utf-8")
    given = _run(capsys, ["dft-analyze", "--n", "7", "--rows", "0,1,3"])
    assert given[0] == 0 and _run(capsys, ["dft-analyze", "--n", "7", "--rows-file", str(rows)]) == given
    rows.write_text("[0, 1", encoding="utf-8")
    code, doc, err = _run(capsys, ["dft-analyze", "--n", "7", "--rows-file", str(rows)])
    assert _one_line_error(code, doc, err) and "rows file must hold a JSON list" in err


@pytest.mark.parametrize("kind", CONSTRUCT_ROWS, ids=["harmonic", "harmonic-identity"])
@pytest.mark.parametrize("name, text", [("rows.txt", "0,1,3"), ("rows.json", "[0, 1, 3]")],
                         ids=["text", "json"])
def test_construct_reads_its_row_source_once(capsys, monkeypatch, tmp_path, kind, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    for exact in ([], ["--exact"]):
        opened.clear()
        code, doc, _ = _run(capsys, ["construct", *kind, "--n", "7", "--rows-file", str(path),
                                     *exact])
        assert code == 0 and opened == [str(path)], (exact, opened)


def test_capped_probe_warns_once_on_stderr(capsys, tmp_path):
    # P = 3^3 * 2^21 = 56,623,104 for a 3 x 20 matrix, above the default cap.
    entries = [(3 * i + 7 * j) % 11 - 5 for i in range(3) for j in range(20)]
    path = _write_json(tmp_path / "wide.json", {"schema_version": 1, "kind": "integer",
                                                "rows": 3, "cols": 20, "entries": entries})
    code, doc, err = _run(capsys, ["probe", "--matrix", path, "--k", "2", "--trials", "1"])
    assert code in (0, 1) and doc["capped"] is True and doc["p"] == 10**6
    assert err == "warning: sketch base pool capped at 1000000; the success guarantee degrades\n"
    code, doc, err = _run(capsys, ["probe", "--matrix", path, "--k", "2", "--trials", "1",
                                   "--p-cap", str(10**8)])
    assert doc["capped"] is False and doc["p"] == 56_623_104 and err == ""
    code, doc, err = _run(capsys, ["probe", "--matrix", path, "--k", "2", "--no-cap"])
    assert code == 3 and doc is None and err.startswith("error: P = 56623104 exceeds cap")
