"""Each CLI process imports only the modules its command runs.

dft-analyze, orbit, rip-check, matroid-girth by Hall's condition and
clique-gadget compute without numpy, so they start without numpy, the mod-p
engine or the constructions; the package itself loads a module only when a
name of it is read.  These tests check which modules are loaded, not time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparkforge
from sparkforge import cli

from test_cli_golden import CASES, GOLDEN, _write_inputs

SRC = str(Path(cli.__file__).resolve().parents[1])

# Runs `python -m sparkforge.cli ARGS` through runpy, as -m does, and prints
# the sorted names of sys.modules to stderr when the process exits.
WRAPPER = """\
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))
sys.argv[0] = "sparkforge"
runpy.run_module("sparkforge.cli", run_name="__main__", alter_sys=True)
"""

HEAVY = ("numpy", "sparkforge.spark_engine", "sparkforge.constructions")


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != cli.BUDGET_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=60, env=env)


@pytest.mark.parametrize("name", [
    "orbit", "dft_analyze", "rip_check_pass", "rip_check_fail",
    "matroid_girth_hall", "clique_gadget_girth",
])
def test_numpy_free_commands_load_no_numpy(name, tmp_path):
    _write_inputs(tmp_path)
    argv, expected_code = CASES[name]
    proc = _python(WRAPPER, *(arg.replace("{dir}", str(tmp_path)) for arg in argv))
    assert proc.returncode == expected_code, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    loaded = json.loads(proc.stderr.splitlines()[-1])
    assert "sparkforge.exact_arith" in loaded
    assert [m for m in HEAVY if m in loaded] == []


def test_the_other_commands_still_load_what_they_run(tmp_path):
    _write_inputs(tmp_path)
    argv, expected_code = CASES["matroid_girth_representation"]
    proc = _python(WRAPPER, *(arg.replace("{dir}", str(tmp_path)) for arg in argv))
    assert proc.returncode == expected_code, proc.stderr
    assert "sparkforge.spark_engine" in json.loads(proc.stderr.splitlines()[-1])


def test_importing_the_package_loads_no_module():
    proc = _python(
        "import json, sys, sparkforge\n"
        "before = sorted(m for m in sys.modules if m.startswith('sparkforge.'))\n"
        "sparkforge.IndexSet\n"
        "print(json.dumps([before, 'numpy' in sys.modules]))\n"
    )
    assert json.loads(proc.stdout) == [[], False], proc.stderr


def test_dir_lists_every_export():
    assert set(sparkforge.__all__) <= set(dir(sparkforge))


def test_spark_help_shows_the_default_budget():
    proc = _python(WRAPPER, "spark", "--help")
    assert proc.returncode == 0
    assert "default 1000000" in " ".join(proc.stdout.split())
