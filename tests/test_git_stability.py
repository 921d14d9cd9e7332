import itertools
import random
from contextlib import contextmanager
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermatlat import _simplex, git_stability
from fermatlat._pylinalg import solve_rational
from fermatlat._simplex import INFEASIBLE, OPTIMAL, solve_lp
from fermatlat.errors import EmptyFormError
from fermatlat.git_stability import (
    HomogeneousForm,
    _affine_rank,
    _normalize_weights,
    barycenter,
    cone_extend,
    exponent_points,
    is_semistable_diagonal,
    is_stable_diagonal,
    verify_semistable_certificate,
    verify_stable_certificate,
)

F3A2 = HomogeneousForm(4, 3, {(3, 0, 0, 0): 1, (0, 1, 1, 1): -1})


def directional_depth_oracle(form):
    """Independent interiority oracle: positive directional depth of the
    barycenter along all coordinate-difference directions, each via its own
    exact LP.  Used to cross-check is_stable_diagonal."""
    points = exponent_points(form)
    b = barycenter(form)
    m = form.m
    if _affine_rank(points) < m - 1:
        return False
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            # max s subject to b + s(e_i - e_j) in hull
            npts = len(points)
            rows = []
            for t in range(m):
                u = Fraction(1) if t == i else (Fraction(-1) if t == j else Fraction(0))
                rows.append([Fraction(p[t]) for p in points] + [-u])
            rows.append([Fraction(1)] * npts + [Fraction(0)])
            rhs = list(b) + [Fraction(1)]
            cost = [Fraction(0)] * npts + [Fraction(-1)]
            res = solve_lp(rows, rhs, cost)
            if res.status != OPTIMAL or res.objective is None or -res.objective <= 0:
                return False
    return True


def random_cubic(rng, m, maxterms=5):
    monos = [e for e in itertools.product(range(4), repeat=m) if sum(e) == 3]
    terms = {}
    for _ in range(rng.randrange(1, maxterms + 1)):
        e = monos[rng.randrange(len(monos))]
        terms[e] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
    return HomogeneousForm(m, 3, terms)


def test_homogeneous_form_is_a_read_only_value():
    # Normalised terms, equality by value, a repr of its fields, no
    # assignment, no hash (its terms are a dict), and pickle and copy
    # rebuild it equal.
    import copy
    import pickle

    f = HomogeneousForm(3, 3, {(3, 0, 0): 1, (0, 3, 0): "1/2", (1, 1, 1): 0})
    assert f.terms == {(3, 0, 0): Fraction(1), (0, 3, 0): Fraction(1, 2)}
    assert f == HomogeneousForm(3, 3, {(0, 3, 0): Fraction(1, 2), (3, 0, 0): 1})
    assert f != HomogeneousForm(3, 3, {(3, 0, 0): 1}) and f != "form"
    assert HomogeneousForm(2, 3).terms == {}
    assert repr(HomogeneousForm(2, 3, {(3, 0): 2})) == (
        "HomogeneousForm(m=2, degree=3, terms={(3, 0): Fraction(2, 1)})")
    with pytest.raises(AttributeError):
        f.m = 4
    with pytest.raises(AttributeError):
        del f.terms
    with pytest.raises(TypeError):
        hash(f)
    assert pickle.loads(pickle.dumps(f)) == f == copy.deepcopy(f)
    with pytest.raises(ValueError, match="do not sum"):
        HomogeneousForm(2, 3, {(1, 1): 1})


def test_exponent_points():
    f = HomogeneousForm.fermat(4, 3)
    assert exponent_points(f) == [(0, 0, 0, 3), (0, 0, 3, 0), (0, 3, 0, 0), (3, 0, 0, 0)]
    assert exponent_points(F3A2) == [(0, 1, 1, 1), (3, 0, 0, 0)]
    single = HomogeneousForm(3, 3, {(1, 1, 1): Fraction(2, 7)})
    assert exponent_points(single) == [(1, 1, 1)]
    with pytest.raises(EmptyFormError):
        exponent_points(HomogeneousForm(3, 3, {}))


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_fermat_cubics_stable(m):
    f = HomogeneousForm.fermat(m, 3)
    ss, c1 = is_semistable_diagonal(f)
    st, c2 = is_stable_diagonal(f)
    assert ss and st
    assert verify_semistable_certificate(f, ss, c1)
    assert verify_stable_certificate(f, st, c2)
    lam = [Fraction(s) for s in c1["lambda"]]
    assert lam == [Fraction(1, m)] * m


def test_triple_a2_semistable_not_stable():
    ss, c1 = is_semistable_diagonal(F3A2)
    st, c2 = is_stable_diagonal(F3A2)
    assert ss and not st
    lam = {tuple(p): Fraction(s) for p, s in zip(c1["points"], c1["lambda"])}
    assert lam[(3, 0, 0, 0)] == Fraction(1, 4)
    assert lam[(0, 1, 1, 1)] == Fraction(3, 4)
    assert c2["affine_rank"] == 1  # the hull is a segment


def test_single_monomial_unstable():
    f = HomogeneousForm(4, 3, {(3, 0, 0, 0): 1})
    ss, cert = is_semistable_diagonal(f)
    assert not ss
    assert verify_semistable_certificate(f, ss, cert)
    w = cert["separating_weights"]
    assert sum(w) == 0
    assert not is_stable_diagonal(f)[0]


def test_cone_extension_points():
    fc = cone_extend(F3A2)
    assert fc.m == 5
    assert exponent_points(fc) == [(0, 0, 0, 0, 3), (0, 1, 1, 1, 0), (3, 0, 0, 0, 0)]
    assert cone_extend(HomogeneousForm(2, 3, {})).terms == {(0, 0, 3): Fraction(1)}
    f4 = cone_extend(HomogeneousForm.fermat(3, 3))
    assert f4.terms == HomogeneousForm.fermat(4, 3).terms


def test_random_corpus_properties():
    rng = random.Random(99)
    checked = 0
    for _ in range(150):
        m = rng.choice([3, 4])
        f = random_cubic(rng, m)
        if f.is_zero():
            continue
        checked += 1
        ss, c1 = is_semistable_diagonal(f)
        st, c2 = is_stable_diagonal(f)
        assert st <= ss
        assert verify_semistable_certificate(f, ss, c1), (f.terms, c1)
        assert verify_stable_certificate(f, st, c2), (f.terms, c2)
        # independent interiority oracle
        assert directional_depth_oracle(f) == st
        # cone preservation of both flags
        fc = cone_extend(f)
        if ss:
            assert is_semistable_diagonal(fc)[0]
        if st:
            assert is_stable_diagonal(fc)[0]
        # permutation invariance
        perm = list(range(m))
        rng.shuffle(perm)
        fp = HomogeneousForm(m, 3, {tuple(e[perm[i]] for i in range(m)): c
                                    for e, c in f.terms.items()})
        assert is_semistable_diagonal(fp)[0] == ss
        assert is_stable_diagonal(fp)[0] == st
    assert checked >= 100


def test_json_roundtrip():
    obj = F3A2.to_json()
    assert obj["m"] == 4 and obj["degree"] == 3
    back = HomogeneousForm.from_json(obj)
    assert back.terms == F3A2.terms
    frac = HomogeneousForm(3, 2, {(1, 1, 0): Fraction(-3, 7)})
    assert HomogeneousForm.from_json(frac.to_json()).terms == frac.terms


def test_solve_lp_phase_one_failure_is_typed(monkeypatch):
    from fermatlat import _simplex
    from fermatlat.errors import VerificationError

    assert _simplex.solve_lp([[1, 1]], [1], [1, 1]).status == _simplex.OPTIMAL
    monkeypatch.setattr(_simplex, "_run_simplex", lambda *_args: _simplex.UNBOUNDED)
    with pytest.raises(VerificationError):
        _simplex.solve_lp([[1, 1]], [1], [1, 1])


def test_normalize_weights_sums_to_zero_with_content_one():
    assert _normalize_weights([2, 4, 0], 3) == [0, 1, -1]
    assert _normalize_weights([Fraction(1, 2), Fraction(3, 2), 1], 3) == [-1, 1, 0]
    assert _normalize_weights([Fraction(-1, 3), 0, 0, 0], 4) == [-3, 1, 1, 1]
    assert _normalize_weights([5, 5, 5], 3) == [0, 0, 0]


def oracle_duals(a_rows, b, basis, cost):
    """The dual solve the tableau read-off replaced: y.B = c_B for the final
    basis B (columns of [A | I], rows with b_i < 0 negated) by an
    lcm-scaled solve_rational, then the row flips undone."""
    m = len(a_rows)
    n = len(cost) - m
    flips = [-1 if Fraction(bi) < 0 else 1 for bi in b]
    cols = [[f * Fraction(row[j]) for row, f in zip(a_rows, flips)] if j < n
            else [Fraction(int(r == j - n)) for r in range(m)] for j in basis]
    cb = [cost[j] for j in basis]
    den = lcm(*(x.denominator for col in cols + [cb] for x in col))
    # y.B = c_B  <=>  B^T y^T = c_B^T, and B^T has the basis columns as rows.
    sol = solve_rational([[int(x * den) for x in col] for col in cols],
                         [[int(v * den)] for v in cb])
    return [row[0] * f for row, f in zip(sol, flips)]


@contextmanager
def duals_against_oracle():
    """Records (tableau duals, oracle duals) for every LP solved inside the
    block through _simplex.solve_lp or git_stability."""
    seen, current = [], {}
    solve, read_off = _simplex.solve_lp, _simplex._tableau_duals

    def solve_recording(rows, b, c):
        current.update(rows=rows, b=b)
        return solve(rows, b, c)

    def read_off_recording(tab, basis, cost, flips):
        y = read_off(tab, basis, cost, flips)
        seen.append((y, oracle_duals(current["rows"], current["b"], basis, cost)))
        return y

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_simplex, "solve_lp", solve_recording)
        mp.setattr(git_stability, "solve_lp", solve_recording)
        mp.setattr(_simplex, "_tableau_duals", read_off_recording)
        yield seen


@st.composite
def monomial_forms(draw):
    m = draw(st.integers(2, 6))
    degree = draw(st.integers(2, 4))
    monos = [e for e in itertools.product(range(degree + 1), repeat=m) if sum(e) == degree]
    exps = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=8))
    return HomogeneousForm(m, degree, dict.fromkeys(exps, 1))


@settings(max_examples=200, deadline=None)
@given(monomial_forms(), st.booleans())
# The Farkas branch of the membership LP (separating weights) ...
@example(HomogeneousForm(4, 3, {(3, 0, 0, 0): 1, (2, 1, 0, 0): 1}), False)
# ... and the interior LP with the barycenter on a facet (supporting weights).
@example(HomogeneousForm(3, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (1, 1, 1): 1, (2, 0, 1): 1}), False)
def test_tableau_duals_match_the_solve_rational_oracle(form, cone):
    if cone:
        form = cone_extend(form)
    with duals_against_oracle() as seen:
        ss, c1 = is_semistable_diagonal(form)
        st_, c2 = is_stable_diagonal(form)
    assert seen and all(got == want for got, want in seen)
    assert ("separating_weights" in c1) == (not ss)
    assert verify_semistable_certificate(form, ss, c1), (form.terms, c1)
    assert verify_stable_certificate(form, st_, c2), (form.terms, c2)



@st.composite
def small_lps(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entries = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(entries, min_size=m, max_size=m))
    c = draw(st.lists(entries, min_size=n, max_size=n))
    return rows, b, c


@settings(max_examples=300, deadline=None)
@given(small_lps())
def test_tableau_duals_are_farkas_or_optimal_duals(lp):
    """Rows with b_i < 0 are negated inside the solver: the duals it
    returns refer to the given rows."""
    rows, b, c = lp
    with duals_against_oracle() as seen:
        res = _simplex.solve_lp(rows, b, c)
    assert all(got == want for got, want in seen)
    if res.status == INFEASIBLE:
        y = res.duals
        assert all(sum(yi * row[j] for yi, row in zip(y, rows)) <= 0 for j in range(len(c)))
        assert sum(yi * bi for yi, bi in zip(y, b)) > 0
    elif res.status == OPTIMAL:
        y = res.duals
        assert all(sum(yi * row[j] for yi, row in zip(y, rows)) <= cj for j, cj in enumerate(c))
        assert sum(yi * bi for yi, bi in zip(y, b)) == res.objective
