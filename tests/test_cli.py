import hashlib
import json
import os
import subprocess
import sys

import pytest

from fermatlat import git_stability
from fermatlat.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = os.path.join(ROOT, "tests", "data", "cli_seed.json")


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lattice_primitive_fourfold(capsys):
    code, out, err = run_cli(["lattice", "--d", "3", "--n", "4", "--primitive"], capsys)
    assert code == 0
    payload = json.loads(out)
    inv = payload["invariants"]
    assert inv["rank"] == 22
    assert inv["even"] is True
    assert inv["signature"] == [20, 2]
    assert inv["discriminant_divisors"] == [3]
    assert "u_0" in payload["actions"] and "s_1" in payload["actions"]


def test_lattice_primitive_prints_actions_up_to_rank_256(capsys):
    # (3, 8) has actions, but at rank 342 they are not printed, as the
    # determinant is not.
    code, out, _ = run_cli(["lattice", "--d", "3", "--n", "8", "--primitive"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["invariants"]["rank"] == 342
    assert payload["invariants"]["determinant"] is None
    assert "actions" not in payload


def test_lattice_primitive_threefold(capsys):
    code, out, _ = run_cli(["lattice", "--d", "3", "--n", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["invariants"]["rank"] == 10
    assert payload["invariants"]["symmetry"] == "antisymmetric"
    assert abs(payload["invariants"]["determinant"]) == 1


def test_lattice_milnor(capsys):
    code, out, _ = run_cli(["lattice", "--d", "3", "--n", "1", "--milnor"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["invariants"]["rank"] == 4


def test_lattice_out_file(tmp_path, capsys):
    target = tmp_path / "lat.json"
    code, out, _ = run_cli(["lattice", "--d", "3", "--n", "2", "--out", str(target)], capsys)
    assert code == 0
    written = json.loads(target.read_text())
    assert written == json.loads(out)["lattice"]
    assert written["rank"] == 6


def test_lattice_bound_exceeded(capsys):
    code, _, err = run_cli(["lattice", "--d", "3", "--n", "99"], capsys)
    assert code == 2
    assert "resource bound" in err


def test_lattice_bad_parameters(capsys):
    code, _, _ = run_cli(["lattice", "--d", "2", "--n", "1"], capsys)
    assert code == 2


def test_verify_suite_runs(capsys):
    code, out, err = run_cli(["verify", "--suite", "hodge"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["ok"] is True
    assert all(c["status"] in ("pass", "evidence") for c in payload["checks"])


def test_verify_bogus_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_verify_cubic_with_bound(capsys):
    code, out, _ = run_cli(["verify", "--suite", "cubic", "--bound", "2", "--fast"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["parameters"]["bound"] == 2
    statuses = {c["status"] for c in payload["checks"]}
    assert "evidence" in statuses and "fail" not in statuses
    _assert_no_floats(payload)


def _assert_no_floats(x):
    if isinstance(x, float):
        raise AssertionError("float leaked into report")
    if isinstance(x, dict):
        for v in x.values():
            _assert_no_floats(v)
    if isinstance(x, list):
        for v in x:
            _assert_no_floats(v)


def test_git_check_3a2(tmp_path, capsys):
    form = {"m": 4, "degree": 3,
            "terms": [{"exponents": [3, 0, 0, 0], "coeff": "1"},
                      {"exponents": [0, 1, 1, 1], "coeff": "-1"}]}
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form))
    code, out, err = run_cli(["git", "check", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["semistable_diagonal"] is True
    assert payload["results"]["stable_diagonal"] is False


def test_git_check_fermat(tmp_path, capsys):
    form = {"m": 4, "degree": 3,
            "terms": [{"exponents": [3, 0, 0, 0], "coeff": "1"},
                      {"exponents": [0, 3, 0, 0], "coeff": "1"},
                      {"exponents": [0, 0, 3, 0], "coeff": "1"},
                      {"exponents": [0, 0, 0, 3], "coeff": "1"}]}
    path = tmp_path / "fermat.json"
    path.write_text(json.dumps(form))
    code, out, _ = run_cli(["git", "check", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["semistable_diagonal"] is True
    assert payload["results"]["stable_diagonal"] is True


def test_git_cone_roundtrip(tmp_path, capsys):
    form = {"m": 3, "degree": 3,
            "terms": [{"exponents": [3, 0, 0], "coeff": "1"},
                      {"exponents": [0, 3, 0], "coeff": "1"},
                      {"exponents": [0, 0, 3], "coeff": "1"}]}
    src = tmp_path / "f.json"
    out_path = tmp_path / "g.json"
    src.write_text(json.dumps(form))
    code, out, _ = run_cli(["git", "cone", str(src), "--out", str(out_path)], capsys)
    assert code == 0
    extended = json.loads(out_path.read_text())
    assert extended["m"] == 4
    # cone then check preserves both flags
    code, out, _ = run_cli(["git", "check", str(out_path)], capsys)
    payload = json.loads(out)
    assert payload["results"]["semistable_diagonal"] is True
    assert payload["results"]["stable_diagonal"] is True


def test_git_parse_failure(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(["git", "check", str(path)], capsys)
    assert code == 2


def test_outputs_byte_deterministic_across_processes():
    cmd = [sys.executable, "-m", "fermatlat.cli", "lattice", "--d", "3", "--n", "2"]
    runs = [subprocess.run(cmd, capture_output=True, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert b'"gram"' in runs[0]


def test_rank_183_discriminant_finishes_across_processes():
    # The Smith form over Z let the entries of this Gram grow without bound;
    # the divisors mod |det| = 4 come well inside the 60 s budget.
    cmd = [sys.executable, "-m", "fermatlat.cli", "lattice", "--d", "4", "--n", "4", "--primitive"]
    run = subprocess.run(cmd, capture_output=True, check=True, timeout=60)
    inv = json.loads(run.stdout)["invariants"]
    assert inv["rank"] == 183 and inv["discriminant_divisors"] == [4]


@pytest.mark.parametrize("args", [["verify", "--suite", "cubic", "--fast"], ["git", "check"]],
                         ids=["verify", "git"])
def test_verify_and_git_byte_deterministic_across_processes(args, tmp_path):
    if args[0] == "git":
        path = tmp_path / "form.json"
        path.write_text(json.dumps({"m": 4, "degree": 3, "terms": [
            {"exponents": [3, 0, 0, 0], "coeff": "1"},
            {"exponents": [0, 1, 1, 1], "coeff": "-2/3"},
            {"exponents": [0, 3, 0, 0], "coeff": "5"}]}))
        args = args + [str(path)]
    cmd = [sys.executable, "-m", "fermatlat.cli", *args]
    runs = [subprocess.run(cmd, capture_output=True, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert b"elapsed_ms" not in runs[0]


def test_no_floats_in_output(capsys):
    code, out, _ = run_cli(["lattice", "--d", "3", "--n", "2"], capsys)
    payload = json.loads(out)

    def walk(x):
        if isinstance(x, float):
            raise AssertionError("float leaked into report")
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        if isinstance(x, list):
            for v in x:
                walk(v)
    walk(payload)


def _seed():
    with open(SEED) as fh:
        return json.load(fh)


@pytest.mark.parametrize("key", sorted(_seed()["args"]))
def test_stdout_matches_stored_digest_across_processes(key):
    """tests/data/cli_seed.json holds the sha256 of the stdout of commands
    whose output goes through rank, determinant, rational solve, rational
    kernel and inverse, as printed by the separate eliminations that the
    one fraction-free kernel replaced, and of `git check`/`git cone` on one
    committed form per certificate kind (tests/data/git_forms). The form
    paths are printed, so the commands run from the repository root."""
    seed = _seed()
    cmd = [sys.executable, "-m", "fermatlat.cli", *seed["args"][key]]
    out = subprocess.run(cmd, capture_output=True, check=True, cwd=ROOT).stdout
    assert hashlib.sha256(out).hexdigest() == seed["stdout"][key]


def test_git_check_reports_a_failed_support_search(tmp_path, monkeypatch, capsys):
    """Duals of the interior LP that support no face (here negated, so that
    w.(p - b) >= 0 everywhere) are a verification failure: exit 1 and a
    message on stderr, not a traceback."""
    interior = git_stability._interior_lp

    def tampered(*args):
        res = interior(*args)
        res.duals = [-y for y in res.duals]
        return res

    monkeypatch.setattr(git_stability, "_interior_lp", tampered)
    # x^3 + y^3 + xyz: full affine rank, barycenter (1, 1, 1) a vertex.
    form = {"m": 3, "degree": 3,
            "terms": [{"exponents": [3, 0, 0], "coeff": "1"},
                      {"exponents": [0, 3, 0], "coeff": "1"},
                      {"exponents": [1, 1, 1], "coeff": "1"}]}
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form))
    code, out, err = run_cli(["git", "check", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("verification failure: no supporting functional")


def test_git_without_subcommand_prints_help_and_exits_2(capsys):
    code, out, err = run_cli(["git"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage: fermatlat git")


def _one_term(exponents=(3, 0, 0), coeff="1", m=3, degree=3):
    return {"m": m, "degree": degree, "terms": [{"exponents": exponents, "coeff": coeff}]}


@pytest.mark.parametrize("form,field", [
    ({"m": 3, "terms": []}, "'degree'"),
    ({"m": 3, "degree": 3, "terms": 5}, "'terms'"),
    ([{"m": 3, "degree": 3, "terms": []}], "JSON object"),
    (_one_term(coeff=None), "'coeff'"),
    (_one_term(coeff="1/0"), "'coeff'"),
    (_one_term(coeff=float("inf")), "'coeff'"),
    (_one_term(exponents=5), "'exponents'"),
    (_one_term(exponents=[1.5, 1.5, 0]), "'exponents'"),
    (_one_term(m=None), "'m'"),
    (_one_term(m=3.5), "'m'"),
    (_one_term(degree=2.5), "'degree'"),
    (_one_term(exponents=[], m=0, degree=0), "'m'"),
], ids=["no-degree", "terms-not-a-list", "top-level-list", "coeff-null", "coeff-zero-den",
        "coeff-infinity", "exponents-not-a-list", "exponents-not-integers", "m-null",
        "m-not-integral", "degree-not-integral", "m-zero"])
@pytest.mark.parametrize("command", ["check", "cone"])
def test_git_malformed_form_is_an_input_error(command, form, field, tmp_path, capsys):
    path = tmp_path / "form.json"
    # json.dumps writes float("inf") as Infinity, which json.load accepts.
    path.write_text(json.dumps(form))
    code, out, err = run_cli(["git", command, str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "cone"])
def test_git_repeated_terms_are_added(command, tmp_path, capsys):
    # x^3 - x^3 + y^3 is the form y^3: the same file path, so the same output.
    path = tmp_path / "form.json"
    out_path = tmp_path / "out.json"
    y3 = {"exponents": [0, 3, 0], "coeff": "1"}
    outputs = []
    for terms in ([{"exponents": [3, 0, 0], "coeff": "1"},
                   {"exponents": [3, 0, 0], "coeff": "-1"}, y3],
                  [{"exponents": [0, 3, 0], "coeff": "1/2"}, {"exponents": [0, 3, 0], "coeff": "1/2"}],
                  [y3]):
        path.write_text(json.dumps({"m": 3, "degree": 3, "terms": terms}))
        args = ["git", command, str(path)] + (["--out", str(out_path)] if command == "cone" else [])
        code, out, err = run_cli(args, capsys)
        assert code == 0, err
        outputs.append((out, out_path.read_text() if command == "cone" else None))
    assert outputs[0] == outputs[1] == outputs[2]
    assert git_stability.HomogeneousForm.from_json(
        {"m": 3, "degree": 3, "terms": [{"exponents": [3, 0, 0], "coeff": "2"},
                                        {"exponents": [3, 0, 0], "coeff": "-2"}]}).is_zero()
