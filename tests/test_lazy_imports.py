"""What each entry point loads: `import fermatlat` loads no submodule, the
`git` commands run without numpy, and the lazy names, the re-exported
pure-Python kernels and the CLI's suite names stay the objects and values
they stand for.

Every case that inspects sys.modules runs in a fresh interpreter, since this
test process has long imported everything.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import fermatlat
from fermatlat import _intlinalg, _pylinalg, cli, verify

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

MOVED_KERNELS = (
    "mat_identity", "int_rows", "mat_transpose", "mat_vec", "vec_mat", "dot",
    "hnf_row", "left_kernel", "right_kernel", "same_row_span", "prime_factors",
    "smith_normal_form", "_fraction_free", "rank_exact", "det_bareiss",
    "solve_rational",
    "charpoly", "clear_denominators", "floor_sqrt_fraction", "Mat", "Vec",
)

FORM = {"m": 4, "degree": 3, "terms": [
    {"exponents": [3, 0, 0, 0], "coeff": "1"},
    {"exponents": [0, 1, 1, 1], "coeff": "-2/3"},
    {"exponents": [0, 3, 0, 0], "coeff": "5"}]}


def loaded_after(code: str) -> list[str]:
    """numpy and the fermatlat submodules in sys.modules after running code
    in a fresh interpreter."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'numpy' or m.startswith('fermatlat.'))))\n")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def test_import_fermatlat_loads_no_submodule():
    assert loaded_after("import fermatlat") == []


@pytest.mark.parametrize("command", ["check", "cone"])
def test_git_commands_run_without_numpy(command, tmp_path):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(FORM))
    args = ["git", command, str(path)]
    if command == "cone":
        args += ["--out", str(tmp_path / "cone.json")]
    loaded = loaded_after(
        "import contextlib, io\n"
        "from fermatlat import cli\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert cli.main({args!r}) == 0\n")
    assert "numpy" not in loaded
    assert "fermatlat.git_stability" in loaded


def test_verify_suite_loads_only_its_modules():
    loaded = loaded_after("from fermatlat.verify import run_suite\n"
                          "assert run_suite('hodge')['ok']\n")
    assert "fermatlat.hodge_characters" in loaded
    assert not {"fermatlat.cubic_period", "fermatlat.hermitian_eigen",
                "fermatlat.git_stability"} & set(loaded)


def test_lazy_names_are_their_home_objects():
    for name in fermatlat.__all__:
        home = importlib.import_module(f"fermatlat.{fermatlat._HOME_OF[name]}")
        assert getattr(fermatlat, name) is getattr(home, name)
    assert {"__all__", *fermatlat.__all__} <= set(dir(fermatlat))
    with pytest.raises(AttributeError):
        fermatlat.nope


def test_lazy_names_are_not_cached_in_the_package():
    assert not set(fermatlat.__all__) & set(vars(fermatlat))


@pytest.mark.parametrize("name", MOVED_KERNELS)
def test_intlinalg_reexports_the_pure_python_kernels(name):
    assert getattr(_intlinalg, name) is getattr(_pylinalg, name)


def test_cli_suite_names_match_verify():
    assert sorted(cli.SUITES) == sorted(verify.SUITES)
