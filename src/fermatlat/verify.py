"""Named verification suites over the whole package.

Each suite returns a report dict with a list of checks; a check has a name
and a status in {pass, fail, evidence}.  `evidence` marks items that verify a
bounded search rather than a theorem.  The CLI and the acceptance tests both
run these suites.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from . import _intlinalg as la
from .fermat_homology import (
    build_primitive,
    rank_formula,
    resolution_check,
)

# Each suite imports the modules it checks, so one suite loads only those.
# The fermat_homology names stay module attributes: the benchmark's recorder
# wraps fermatlat.verify.build_primitive (bench/test_bench.py checks it).

SUITES = ("ranks", "resolution", "hermitian", "hodge", "cubic", "git")

RANK_GRID = [(d, n) for d in (3, 4, 5) for n in range(5)
             if (d - 1) ** (n + 1) <= 4096]


def run_suite(name: str, bound: int = 2, fast: bool = False) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    checks = globals()[f"_suite_{name}"](bound=bound, fast=fast)
    ok = all(c["status"] != "fail" for c in checks)
    return {
        "suite": name,
        "parameters": {"bound": bound, "fast": fast},
        "checks": checks,
        "ok": ok,
    }


def _check(name, passed, detail=None, evidence=False):
    status = "evidence" if (evidence and passed) else ("pass" if passed else "fail")
    out = {"name": name, "status": status}
    if detail is not None:
        out["detail"] = detail
    return out


# ---------------------------------------------------------------------------

def _suite_ranks(bound=2, fast=False):
    from .lattice_core import (
        determinant,
        discriminant_is_cyclic_of_order,
        is_even,
        short_vectors,
        signature,
    )

    checks = []
    grid = [(d, n) for (d, n) in RANK_GRID if not (fast and (d - 1) ** (n + 1) > 300)]
    for d, n in grid:
        prim = build_primitive(d, n)
        want = rank_formula(d, n)
        checks.append(_check(f"rank(d={d},n={n})=={want}", prim.lattice.rank == want,
                             detail={"rank": prim.lattice.rank}))
    r1 = [rank_formula(3, n) // 2 for n in range(1, 5)]
    checks.append(_check("R1-ranks d=3 n=1..4 == [1,3,5,11]", r1 == [1, 3, 5, 11],
                         detail={"values": r1}))
    # Parity and discriminant law (criterion 2).
    for d, n in grid:
        if n % 2:
            continue
        prim = build_primitive(d, n)
        even = is_even(prim.lattice)
        checks.append(_check(f"even lattice with cyclic discriminant {d} (d={d},n={n})",
                             even and discriminant_is_cyclic_of_order(prim.lattice, d)))
    for n in (1, 3):
        prim = build_primitive(3, n)
        checks.append(_check(
            f"antisymmetric unimodular pairing (d=3,n={n})",
            prim.lattice.symmetry == "antisymmetric"
            and abs(determinant(prim.lattice)) == 1))
    # Cubic surface lattice (criterion 3).
    surf = build_primitive(3, 2).lattice
    roots = short_vectors(surf, -2)
    checks.append(_check(
        "cubic surface lattice: rank 6, negative definite, even, det -3, 72 roots",
        surf.rank == 6 and signature(surf) == (0, 6) and is_even(surf)
        and abs(determinant(surf)) == 3 and len(roots) == 72,
        detail={"root_count": len(roots), "determinant": determinant(surf)}))
    return checks


def _suite_resolution(bound=2, fast=False):
    checks = []
    cases = [(3, n) for n in range(1, 5)] + [(4, 1), (4, 2)]
    for d, n in cases:
        rep = resolution_check(d, n)
        checks.append(_check(
            f"resolution exact (rank sense) d={d} n={n}",
            rep["exact"],
            detail={"module_ranks": rep["module_ranks"],
                    "image_kernel_indices": [s["image_kernel_index"] for s in rep["stages"]]}))
    return checks


def _suite_hermitian(bound=2, fast=False):
    from .hermitian_eigen import (
        _parity_normalize,
        chi_form_on_classes,
        chi_reduce,
        cor23_rank,
        det_norms_agree_up_to_ramified,
        expected_sign,
        hermitian_gram,
        hermitian_signature,
        signatures_agree_up_to_sign,
    )

    checks = []
    prim4 = build_primitive(3, 4)
    lemma = {1: (11, (10, 1)), 2: (5, (4, 1)), 3: (2, (1, 1))}
    for k, (rk, sig) in lemma.items():
        h = chi_reduce(prim4, k)
        s = hermitian_signature(h)
        checks.append(_check(
            f"chi_reduce d=3 n=4 k={k}: rank {rk}, signature {sig}",
            h.rank == rk and s == sig,
            detail={"rank": h.rank, "signature": list(s), "excluded": h.excluded}))
    # Rank formula across a (d, k, m) grid with d not dividing k.
    grid = [(3, n, k) for n in range(1, 5) for k in range(1, n + 2) if k % 3]
    grid += [(4, n, k) for n in range(1, 4) for k in range(1, min(n + 2, 4))]
    if not fast:
        grid += [(5, 1, 1), (5, 2, 1), (5, 2, 2)]
    ok = True
    detail = []
    for d, n, k in grid:
        prim = build_primitive(d, n)
        h = chi_reduce(prim, k)
        want = cor23_rank(d, n - k)
        ok = ok and h.rank == want
        detail.append([d, n, k, h.rank, want])
    checks.append(_check("Cor 2.3 rank formula on the tested grid", ok,
                         detail={"cases": len(detail)}))
    # Agreement across k for fixed m (d=3): rank strictly, signature up to the
    # overall form sign, determinant norm up to ramified-prime powers.
    for m in (0, 1, 2, 3):
        data = []
        for k in (1, 2):
            n = m + k
            prim = build_primitive(3, n)
            h = chi_reduce(prim, k)
            data.append((k, h.rank, hermitian_signature(h), h.det_norm()))
        (k0, r0, s0, d0), (k1, r1, s1, d1) = data
        checks.append(_check(
            f"across-k agreement m={m}: rank, signature-up-to-sign, det-up-to-ramified",
            r0 == r1 and signatures_agree_up_to_sign(s0, s1)
            and det_norms_agree_up_to_ramified(d0, d1, 3),
            detail={"ranks": [r0, r1], "signatures": [list(s0), list(s1)],
                    "det_norms": [str(d0), str(d1)]}))
    # h+- tables against the reduction on matched bases.
    table_cases = [(3, 1), (3, 2), (4, 1)] if fast else [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]
    for d, n in table_cases:
        sign = expected_sign(n)
        h = hermitian_gram(d, n, sign)
        prim = build_primitive(d, n)
        classes = [K + (0,) for K in h.basis_labels]
        chi, _ = _parity_normalize(d, n, chi_form_on_classes(prim, 1, classes))
        agree = np.array_equal(chi, h.coords)
        want = cor23_rank(d, n - 1)
        checks.append(_check(
            f"hermitian_gram matches chi_reduce on matched basis (d={d}, n={n})",
            agree and h.rank == want,
            detail={"rank": h.rank}))
    # Diagonal values of the parity-matching forms for d=3.
    h_even = hermitian_gram(3, 2, +1)
    h_odd = hermitian_gram(3, 1, -1)
    checks.append(_check("h+ diagonal = 3 and h- diagonal = 1 for d=3",
                         h_even.gram[0][0] == 3 and h_odd.gram[0][0] == 1))
    if not fast:
        h34 = hermitian_gram(3, 4, +1)
        checks.append(_check(
            "h+ on the full monomial spanning set has rank 11 (d=3, n=4)",
            h34.rank == 11 and h34.gram[0][0] == 3
            and hermitian_signature(h34) == (10, 1)))
    return checks


def _suite_hodge(bound=2, fast=False):
    from .hodge_characters import enumerate_characters, fermat_class_character, hodge_numbers

    checks = []
    targets = {
        (3, 4): {1: 1, 2: 20, 3: 1},
        (3, 3): {1: 5, 2: 5},
        (3, 2): {1: 6},
        (3, 1): {0: 1, 1: 1},
    }
    for (d, n), want in targets.items():
        got = hodge_numbers(d, n)
        checks.append(_check(f"primitive hodge numbers d={d} n={n}", got == want,
                             detail={str(p): h for p, h in got.items()}))
    sym_ok = True
    for d in (3, 4, 5):
        for n in range(5):
            hn = hodge_numbers(d, n)
            if any(hn[p] != hn[n - p] for p in hn):
                sym_ok = False
            if len(enumerate_characters(d, n)) != rank_formula(d, n):
                sym_ok = False
    checks.append(_check("hodge symmetry and character count, d<=5 n<=4", sym_ok))
    top = fermat_class_character(3, 4)
    checks.append(_check("top eigenline character d=3 n=4 is (2,2,2,2,2,2) of type (3,1)",
                         top.exponents == (2,) * 6 and top.hodge_type() == (3, 1)))
    return checks


def _suite_cubic(bound=2, fast=False):
    from .cubic_period import (
        build_cubic_lattices,
        eigenlattice,
        hyperplane_meets_eigenball,
        nodal_complement_signature,
        nodal_vectors_in_box,
        orbit_specials,
        planted_remark_self_test,
        special_search_report,
        verify_remark_52,
    )
    from .hermitian_eigen import hermitian_signature
    from .lattice_core import determinant, discriminant, is_even, signature

    checks = []
    built = build_cubic_lattices()
    lam, lam_o = built.lambda_full, built.lambda_o
    checks.append(_check("glued lattice unimodular", abs(determinant(lam)) == 1))
    checks.append(_check("glued lattice odd", not is_even(lam)))
    checks.append(_check("glued lattice signature (21,2)", signature(lam) == (21, 2)))
    checks.append(_check("rank-22 lattice even, (20,2), discriminant 3",
                         is_even(lam_o) and signature(lam_o) == (20, 2)
                         and discriminant(lam_o).elementary_divisors == (3,)))
    checks.append(_check("eta has self-pairing 3",
                         built.pair_full(built.eta_in_lambda, built.eta_in_lambda) == 3))
    eta_fixed = all(tuple(la.vec_mat(built.eta_in_lambda, m)) == built.eta_in_lambda
                    for m in built.actions_full.values())
    checks.append(_check("eta fixed by every symmetry generator", eta_fixed))

    prim = build_primitive(3, 4)
    nodal_ok = all(built.is_nodal(v) for v in prim.monomial_images.values())
    checks.append(_check("every monomial image is nodal (norm 2)", nodal_ok))

    search = special_search_report(bound)
    specials = [tuple(h) for h in search["hits"]]
    checks.append(_check(f"box search (B={bound}) finds a special vector",
                         len(specials) >= 1, detail=search, evidence=True))
    e_ok = all(built.pair_full(built.special_e_vector(v), built.special_e_vector(v)) == 1
               and built.pair_full(built.special_e_vector(v), built.eta_in_lambda) == 1
               for v in specials)
    checks.append(_check("e = (eta - v)/3 has e.e = e.eta = 1 for all box specials", e_ok))

    sample = orbit_specials(built, specials, limit=12 if fast else 40)
    char_ok = all(built.is_special(v) for v in sample)
    checks.append(_check(
        "both special characterizations agree on the orbit sample", char_ok,
        detail={"sample": len(sample)}))

    rng = random.Random(11)
    monos = list(prim.monomial_images.values())
    nodal_sample = [monos[i] for i in rng.sample(range(len(monos)), 10 if fast else 25)]
    extra = nodal_vectors_in_box(built, 1, sublattice_rank=8)
    nodal_sample += [v for v in extra[:50 - len(nodal_sample)]]
    comp_ok = all(nodal_complement_signature(built, v) == (19, 2)
                  for v in nodal_sample if built.is_nodal(v))
    checks.append(_check(
        f"nodal orthogonal complements have signature (19,2) ({len(nodal_sample)} samples)",
        comp_ok))

    eig_ranks = {}
    for k, want in {1: (10, 1), 2: (4, 1), 3: (1, 1)}.items():
        h, _basis = eigenlattice(k)
        eig_ranks[k] = h.rank
        checks.append(_check(f"eigenlattice V_{k} signature {want}",
                             hermitian_signature(h) == want,
                             detail={"rank": h.rank}))
    checks.append(_check("eigenlattice ranks 11, 5, 2 match the reductions",
                         eig_ranks == {1: 11, 2: 5, 3: 2}))

    omega2 = all(not hyperplane_meets_eigenball(v, 2)[0] for v in sample)
    checks.append(_check(
        f"no special hyperplane meets the k=2 eigenball (bound {bound}, orbit sample)",
        omega2, detail={"sample": len(sample)}, evidence=True))

    for b in (1, bound):
        rep = verify_remark_52(b)
        checks.append(_check(f"remark search empty at bound {b}", rep["hits"] == [],
                             evidence=True))
    checks.append(_check("planted-vector self-test finds its plant",
                         planted_remark_self_test()))
    return checks


def _suite_git(bound=2, fast=False):
    from .git_stability import (
        HomogeneousForm,
        cone_extend,
        is_semistable_diagonal,
        is_stable_diagonal,
        verify_semistable_certificate,
        verify_stable_certificate,
    )

    checks = []
    for m in (3, 4, 5, 6):
        f = HomogeneousForm.fermat(m, 3)
        ss, c1 = is_semistable_diagonal(f)
        st, c2 = is_stable_diagonal(f)
        checks.append(_check(
            f"Fermat cubic m={m} stable-diagonal with verified certificates",
            ss and st and verify_semistable_certificate(f, ss, c1)
            and verify_stable_certificate(f, st, c2)))
    f3a2 = HomogeneousForm(4, 3, {(3, 0, 0, 0): 1, (0, 1, 1, 1): -1})
    ss, c1 = is_semistable_diagonal(f3a2)
    st, c2 = is_stable_diagonal(f3a2)
    lam = {tuple(p): Fraction(s) for p, s in zip(c1["points"], c1["lambda"])}
    checks.append(_check(
        "triple-A2 cubic semistable (lambda = 1/4, 3/4) but not stable",
        ss and not st and lam[(3, 0, 0, 0)] == Fraction(1, 4)
        and lam[(0, 1, 1, 1)] == Fraction(3, 4)
        and verify_semistable_certificate(f3a2, ss, c1)
        and verify_stable_certificate(f3a2, st, c2)))
    rng = random.Random(20240811)
    trials = 40 if fast else 100
    all_ok = True
    for m in (3, 4):
        for _ in range(trials):
            f = _random_cubic(rng, m)
            if f.is_zero():
                continue
            ss, c1 = is_semistable_diagonal(f)
            st, c2 = is_stable_diagonal(f)
            if not verify_semistable_certificate(f, ss, c1):
                all_ok = False
            if not verify_stable_certificate(f, st, c2):
                all_ok = False
            fc = cone_extend(f)
            if ss and not is_semistable_diagonal(fc)[0]:
                all_ok = False
            if st and not is_stable_diagonal(fc)[0]:
                all_ok = False
    checks.append(_check(
        f"cone extension preserves both flags with verified certificates "
        f"({trials} random cubics per m in 3,4)", all_ok))
    b_ok = True
    for m in (3, 4, 5):
        d = 3
        apex = [Fraction(0)] * m + [Fraction(d)]
        bary_m = [Fraction(d, m)] * m + [Fraction(0)]
        combo = [Fraction(1, m + 1) * a + Fraction(m, m + 1) * bb
                 for a, bb in zip(apex, bary_m)]
        if combo != [Fraction(d, m + 1)] * (m + 1):
            b_ok = False
    checks.append(_check("cone barycenter identity", b_ok))
    return checks


def _random_cubic(rng: random.Random, m: int) -> HomogeneousForm:
    import itertools

    from .git_stability import HomogeneousForm

    monos = [e for e in itertools.product(range(4), repeat=m) if sum(e) == 3]
    k = rng.randrange(1, 6)
    terms = {}
    for _ in range(k):
        e = monos[rng.randrange(len(monos))]
        terms[e] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
    return HomogeneousForm(m, 3, terms)
