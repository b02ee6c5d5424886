"""Golden stdout and exit codes for every CLI subcommand with exact output.

Each case runs the CLI in process on fixed inputs and compares its stdout,
byte for byte, with ``tests/golden/<name>.stdout``.  Outputs made of floats
(``coherence``, ``construct`` without ``--exact``) are left out, since their
last digits depend on the BLAS build.  After a deliberate change to a
certificate, rewrite the files with ``PYTHONPATH=src python
tests/test_cli_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from sparkforge import cli

GOLDEN = Path(__file__).with_name("golden")

INPUTS = {
    "int3x6.json": {
        "schema_version": 1, "kind": "integer", "rows": 3, "cols": 6,
        "entries": [1, 0, 2, 1, 3, 0, 0, 1, 1, 2, 1, 1, 1, 1, 3, 0, 4, 5],
    },
    "vand2x4.json": {
        "schema_version": 1, "kind": "integer", "rows": 2, "cols": 4,
        "entries": [1, 1, 1, 1, 1, 2, 3, 4],
    },
    # Order 12 with negative coefficients; column 3 is (1 - w) times column 0
    # plus (w^2 - 2) times column 2.
    "cyc12_3x6.json": {
        "schema_version": 1, "kind": "cyclotomic", "rows": 3, "cols": 6, "order": 12,
        "entries": [
            [1, -2, 0, 1], [0, 1, 0, 0], [-1, 0, 0, 0], [4, -3, 0, 1], [3, 0, 0, -1],
            [0, 0, -1, 1], [0, 3, -1, 0], [2, 0, -3, 1], [5, -1, 0, 0], [-10, 5, 1, 0],
            [0, -2, 0, 0], [-1, 1, 0, 0], [-4, 0, 0, 2], [1, 1, -1, -1], [0, 0, 2, -3],
            [-4, 7, -4, 5], [1, 0, 1, 0], [2, 0, 0, 0],
        ],
    },
    "graph.json": {"ground": 5, "right": 3, "adj": [[0, 1], [1], [1, 2], [0, 2], [2]]},
    "k4plus.json": {
        "vertices": 5, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3], [3, 4]],
    },
}

# name -> (argv, exit code); "{dir}" stands for the directory holding INPUTS.
CASES = {
    "spark_matrix": (["spark", "--matrix", "{dir}/int3x6.json"], 0),
    "spark_cyclotomic": (["spark", "--matrix", "{dir}/cyc12_3x6.json"], 0),
    "spark_dft_witness": (["spark", "--dft", "8", "--rows", "0,2,4"], 0),
    "spark_dft_full": (["spark", "--dft", "7", "--rows", "0,1,3"], 0),
    "full_spark_refuted": (["full-spark", "--dft", "10", "--rows", "0,1,3,4"], 1),
    "full_spark_holds": (["full-spark", "--dft", "13", "--rows", "0,1,3,4,9"], 0),
    "full_spark_cyclotomic": (["full-spark", "--matrix", "{dir}/cyc12_3x6.json"], 1),
    "full_spark_matrix": (["full-spark", "--matrix", "{dir}/vand2x4.json"], 0),
    "matroid_girth_hall": (["matroid-girth", "--graph", "{dir}/graph.json"], 0),
    "matroid_girth_representation": (
        ["matroid-girth", "--graph", "{dir}/graph.json", "--method", "representation",
         "--trials", "4", "--seed", "7"],
        0,
    ),
    "clique_gadget_girth": (
        ["clique-gadget", "--graph", "{dir}/k4plus.json", "--k", "4", "--girth"], 0,
    ),
    "probe_exceeds": (["probe", "--matrix", "{dir}/vand2x4.json", "--k", "2", "--seed", "3"], 0),
    "probe_corroborated": (
        ["probe", "--matrix", "{dir}/int3x6.json", "--k", "3", "--trials", "2", "--seed", "1"], 1,
    ),
    "dft_analyze": (["dft-analyze", "--n", "12", "--rows", "0,1,2,6"], 1),
    "orbit": (["orbit", "--n", "8", "--rows", "0,1,3"], 0),
    "rip_check_pass": (
        ["rip-check", "--n", "12", "--rows", "0,3,6,9", "--k", "2", "--delta", "0.5"], 0,
    ),
    "rip_check_fail": (
        ["rip-check", "--n", "12", "--rows", "0,1,2,6", "--k", "2", "--delta", "0.1"], 1,
    ),
    "construct_harmonic_exact": (
        ["construct", "--harmonic", "--n", "5", "--rows", "0,1,4", "--exact"], 0,
    ),
    "construct_vandermonde_exact": (
        ["construct", "--vandermonde", "--bases", "1,2,3", "--m", "2", "--exact"], 0,
    ),
}


def _write_inputs(directory: Path) -> None:
    for name, doc in INPUTS.items():
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")


def _run(argv, directory: Path) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run([arg.replace("{dir}", str(directory)) for arg in argv])
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
    _write_inputs(tmp_path)
    argv, expected_code = CASES[name]
    code, out = _run(argv, tmp_path)
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.stdout").read_bytes()


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.stdout")) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    os.environ.pop(cli.BUDGET_ENV, None)
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
        for case, (args, want) in sorted(CASES.items()):
            got, stdout = _run(args, Path(tmp))
            if got != want:
                sys.exit(f"{case}: exit code {got}, expected {want}")
            (GOLDEN / f"{case}.stdout").write_bytes(stdout)
            print(f"wrote {case}.stdout ({len(stdout)} bytes)")
