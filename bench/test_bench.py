"""Tests of the benchmark's own recorder and checks.

    python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from recorder import Recorder  # noqa: E402


# ---------------------------------------------------------------------------
# Recorder

def test_self_time_subtracts_direct_children():
    rec = Recorder()
    rec.spans = [["outer", 0.0, 10.0, -1, 0],
                 ["inner", 1.0, 4.0, 0, 0],
                 ["leaf", 2.0, 3.0, 1, 0],
                 ["inner", 5.0, 6.0, 0, 1]]
    m = rec.metrics()
    assert m["outer.self_s"] == pytest.approx(6.0)
    assert m["inner.self_s"] == pytest.approx(3.0)
    assert m["inner.calls"] == 2
    assert m["leaf.self_s"] == pytest.approx(1.0)


def test_named_spans_report_inclusive_time():
    rec = Recorder()
    rec.spans = [["verify.run_suite.git", 0.0, 2.0, -1, None],
                 ["simplex.solve_lp", 0.5, 1.5, 0, None]]
    m = rec.metrics()
    assert m["verify.run_suite.git.s"] == pytest.approx(2.0)
    assert m["simplex.solve_lp.self_s"] == pytest.approx(1.0)


def test_spans_nest_and_carry_the_operation_id():
    rec = Recorder()
    rec.op = 7
    outer = rec.begin("a")
    inner = rec.begin("b")
    rec.end(inner)
    rec.end(outer)
    assert rec.spans[inner][3] == outer and rec.spans[outer][3] == -1
    assert rec.spans[inner][4] == 7
    assert rec.spans[outer][1] <= rec.spans[inner][1] <= rec.spans[inner][2] <= rec.spans[outer][2]


def test_install_wraps_every_namespace_and_uninstall_restores(tmp_path):
    import fermatlat
    import fermatlat.cubic_period as cp
    import fermatlat.fermat_homology as fh
    import fermatlat.verify as ver
    from fermatlat.exact_algebra import CyclotomicElement

    original = fh.build_primitive
    mul = CyclotomicElement.__mul__
    rec = Recorder()
    rec.install()
    try:
        for holder in (fh, cp, ver, fermatlat):
            assert holder.build_primitive is not original
            assert holder.build_primitive.__wrapped__ is original
        assert CyclotomicElement.__rmul__ is CyclotomicElement.__mul__ is not mul
        rec.op = 0
        fermatlat.build_primitive(3, 2)
        z = CyclotomicElement.zeta(3)
        _ = z * z
        _ = 2 * z
    finally:
        rec.uninstall()
    assert fh.build_primitive is original and cp.build_primitive is original
    assert CyclotomicElement.__mul__ is mul and CyclotomicElement.__rmul__ is mul
    m = rec.metrics()
    assert m["fermat_homology.build_primitive.calls"] == 1
    assert m["exact_algebra.CyclotomicElement.mul.calls"] >= 2
    names = {s[0] for s in rec.spans}
    assert "lattice_core.radical_quotient" in names
    path = tmp_path / "spans.json"
    rec.dump(str(path))
    assert len(json.loads(path.read_text())["spans"]) == len(rec.spans)


def test_metric_lists_agree():
    import recorder
    import run
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    recorded = {p + s for p in recorder.SPANS.values() for s in (".self_s", ".calls")}
    recorded |= set(recorder.COUNTS.values()) | {n for n, _f in recorder.TALLIES.values()}
    for name, _unit in run.PER_LAYER:
        if not name.startswith(("verify.", "cli.", "trace.")):
            assert name in recorded, name


# ---------------------------------------------------------------------------
# Checks

def test_rank_formulas():
    assert [checks.rank_formula(3, n) for n in (1, 2, 3, 4)] == [2, 6, 10, 22]
    assert checks.rank_formula(5, 4) == 820
    assert [checks.reduction_rank(3, m) for m in (3, 2, 0)] == [11, 5, 1]


def test_modp_rank_det_matches_exact_determinants():
    rng = np.random.default_rng(0)
    for size in (1, 2, 5, 9):
        a = rng.integers(-5, 6, size=(size, size))
        exact = round(np.linalg.det(a))
        for p in checks.CHECK_PRIMES[:3]:
            assert checks.modp_rank_det(a, p)[1] == exact % p
    assert checks.modp_rank_det([[2, 4], [1, 2]], 7) == (1, 0)
    assert checks.modp_rank_det([[1, 2, 3], [2, 4, 6]], 5)[0] == 1


def test_cyclic_discriminant_separates_z4_from_z2_squared():
    primes = checks.CHECK_PRIMES[:2]
    assert checks.cyclic_discriminant(np.array([[4]]), 4, primes)
    assert checks.cyclic_discriminant(np.array([[2, 1], [1, 2]]), 3, primes)
    assert not checks.cyclic_discriminant(np.array([[2, 0], [0, 2]]), 4, primes)
    assert checks.abs_det_is(np.array([[0, 1], [-1, 0]]), 1, primes)


def test_exact_matmul_falls_back_to_python_integers():
    big = np.array([[2 ** 40, 1], [1, 2 ** 40]], dtype=object)
    prod = checks.exact_matmul(big, big)
    assert prod[0][0] == 2 ** 80 + 1 and prod[0][1] == 2 ** 41


def test_check_primitive_rejects_a_non_isometry():
    gram = [[2, 1], [1, 2]]
    good = {"u_1": [[0, -1], [1, -1]]}     # order 3, preserves the A2 form
    bad = {"u_1": [[1, 1], [0, 1]]}
    primes = checks.CHECK_PRIMES[:2]
    ident = [[1, 0], [0, 1]]
    assert checks.check_primitive(3, 0, "symmetric", gram, ident, gram, good, primes) == []
    errs = checks.check_primitive(3, 0, "symmetric", gram, ident, gram, bad, primes)
    assert any("isometry" in e for e in errs) and any("order" in e for e in errs)


SQRT5 = (-1, 0, -2, -2)      # sqrt(5) = -1 - 2 zeta^2 - 2 zeta^3 in Q(zeta_5)
ZERO5 = (0, 0, 0, 0)


def test_signature_check_flags_disagreeing_embeddings():
    gram = [[SQRT5, ZERO5], [ZERO5, SQRT5]]
    assert sorted(checks.embedding_signatures(5, gram)) == [(0, 2, 0), (2, 0, 0)]
    errs, failed = checks.check_signature(5, gram, (1, 1), refused=False)
    assert errs == [] and failed
    errs, failed = checks.check_signature(5, gram, None, refused=True)
    assert errs == [] and not failed


def test_signature_check_accepts_agreement_and_rejects_a_wrong_answer():
    gram = [[(1, 0), (0, 0)], [(0, 0), (-1, 0)]]
    assert checks.check_signature(3, gram, (1, 1), refused=False) == ([], False)
    errs, failed = checks.check_signature(3, gram, (2, 0), refused=False)
    assert errs and not failed
    errs, _ = checks.check_signature(3, gram, (1, 1), refused=False, expected=(10, 1))
    assert errs


def test_det_norm_is_the_product_over_embeddings():
    gram = [[SQRT5, ZERO5], [ZERO5, SQRT5]]
    assert checks.check_det_norm(5, gram, Fraction(625)) == []
    assert checks.check_det_norm(5, gram, Fraction(624)) != []


def test_is_special():
    gram = np.diag([2, 2, 2])
    assert not checks.is_special(gram, [0, 0, 0])
    assert checks.is_special(np.diag([6, 3, 3]), [1, 0, 0])
    assert not checks.is_special(np.array([[6, 1], [1, 2]]), [1, 0])


TRIPLE_A2 = {"m": 4, "degree": 3,
             "terms": [{"exponents": [3, 0, 0, 0], "coeff": "1"},
                       {"exponents": [0, 1, 1, 1], "coeff": "-1"}]}


def test_git_certificates():
    pts = [[0, 1, 1, 1], [3, 0, 0, 0]]
    results = {"semistable_diagonal": True, "stable_diagonal": False,
               "semistable_certificate": {"lambda": ["3/4", "1/4"], "points": pts},
               "stable_certificate": {"affine_rank": 1, "points": pts, "required": 3}}
    assert checks.check_git_report(TRIPLE_A2, results) == []
    results["semistable_certificate"]["lambda"] = ["1/2", "1/2"]
    assert checks.check_git_report(TRIPLE_A2, results)
    fermat = {"m": 3, "degree": 3,
              "terms": [{"exponents": e, "coeff": "1"} for e in ([3, 0, 0], [0, 3, 0], [0, 0, 3])]}
    pts = [[0, 0, 3], [0, 3, 0], [3, 0, 0]]
    lam = {"lambda": ["1/3"] * 3, "points": pts}
    ok = {"semistable_diagonal": True, "stable_diagonal": True,
          "semistable_certificate": lam, "stable_certificate": lam}
    assert checks.check_git_report(fermat, ok) == []
    wrong = dict(ok, stable_diagonal=False,
                 stable_certificate={"supporting_weights": [1, -1, 0], "points": pts})
    assert checks.check_git_report(fermat, wrong)


def test_cone_check():
    ext = {"m": 5, "degree": 3,
           "terms": [{"exponents": [0, 0, 0, 0, 3], "coeff": "1"},
                     {"exponents": [0, 1, 1, 1, 0], "coeff": "-1"},
                     {"exponents": [3, 0, 0, 0, 0], "coeff": "1"}]}
    assert checks.check_cone(TRIPLE_A2, ext) == []
    ext["terms"][0]["coeff"] = "2"
    assert checks.check_cone(TRIPLE_A2, ext)
