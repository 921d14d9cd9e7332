"""lattice_core.determinant: the certified value (a float64 slogdet
candidate M, the exact scaled inverse M.G^-1, the Smith divisors mod M and
the sign mod a prime) or, when any step refuses, det_bareiss's; the same
integer either way, and the same discriminant divisors as the modular Smith
form at |det_bareiss|."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermatlat import _intlinalg as la
from fermatlat.fermat_homology import build_primitive, rank_formula
from fermatlat.lattice_core import (
    ANTISYMMETRIC,
    SYMMETRIC,
    IntegerLattice,
    determinant,
    discriminant,
)
from test_modp_kernel import count_calls

# The largest |det| the certificate takes: twice it stays below the prime
# the sign is read mod.
CANDIDATE_MAX = la.MODP_PRIMES[0] // 2


def old_divisors(gram):
    """The discriminant divisors as computed before the certificate: the
    Smith divisors mod |det_bareiss|."""
    order = abs(la.det_bareiss(gram))
    return tuple(dv for dv in la.smith_divisors_mod(gram, order) if dv > 1)


@st.composite
def grams(draw):
    """(Gram, symmetry): symmetric or antisymmetric integer matrices, some
    made singular by repeating a row and column."""
    n = draw(st.integers(1, 7))
    symmetry = draw(st.sampled_from([SYMMETRIC, ANTISYMMETRIC]))
    bound = draw(st.sampled_from([1, 2, 5, 40, 3000]))
    entry = st.integers(-bound, bound)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j and symmetry == ANTISYMMETRIC:
                continue
            x = draw(entry)
            g[i][j] = x
            g[j][i] = x if symmetry == SYMMETRIC else -x
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        g[j] = list(g[i])
        for row in g:
            row[j] = row[i]
        if symmetry == ANTISYMMETRIC:
            g[j][j] = 0
    return g, symmetry


@settings(max_examples=150, deadline=None)
@given(grams())
@example(([[0, 1], [1, 0]], SYMMETRIC))        # det -1
@example(([[-2, 1], [1, -2]], SYMMETRIC))      # det 3, negative definite
@example(([[-3]], SYMMETRIC))                  # det -3
@example(([[1, 1], [1, 1]], SYMMETRIC))        # singular
@example(([[0, 2], [-2, 0]], ANTISYMMETRIC))   # det 4
@example(([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]], ANTISYMMETRIC))  # odd rank: det 0
def test_determinant_equals_bareiss(case):
    gram, symmetry = case
    lattice = IntegerLattice(gram, symmetry)
    det = la.det_bareiss(gram)
    assert determinant(lattice) == det
    if det and symmetry == SYMMETRIC:
        dd = discriminant(lattice)
        assert dd.group_order == abs(det)
        assert dd.elementary_divisors == old_divisors(gram)


def test_certified_determinant_runs_no_bareiss(monkeypatch):
    calls = count_calls(monkeypatch, "det_bareiss", "modp_det")
    assert determinant(IntegerLattice([[2, 1], [1, 2]])) == 3
    assert determinant(IntegerLattice([[0, 1], [1, 0]])) == -1
    assert discriminant(build_primitive(3, 4).lattice).elementary_divisors == (3,)
    assert calls == {"det_bareiss": 0, "modp_det": 3}


@pytest.mark.parametrize("entry,bareiss_calls", [
    (CANDIDATE_MAX, 0), (-CANDIDATE_MAX, 0), (CANDIDATE_MAX + 1, 1), (-(2**22), 1)])
def test_candidates_past_half_the_sign_prime_fall_back(monkeypatch, entry, bareiss_calls):
    calls = count_calls(monkeypatch, "det_bareiss")
    assert determinant(IntegerLattice([[entry]])) == entry
    assert calls["det_bareiss"] == bareiss_calls


def test_object_dtype_grams_fall_back(monkeypatch):
    calls = count_calls(monkeypatch, "det_bareiss", "scaled_integer_inverse")
    lattice = IntegerLattice([[2**70, 1], [1, 0]])
    assert lattice.gram.dtype == object
    assert determinant(lattice) == -1
    assert discriminant(lattice).is_trivial()
    assert calls == {"det_bareiss": 2, "scaled_integer_inverse": 0}


@pytest.mark.parametrize("factor", [2, 1 / 3], ids=["twice", "a-third"])
def test_a_wrong_float_candidate_falls_back(monkeypatch, factor):
    # A2 has det 3.  Twice it passes the scaled inverse (6.G^-1 is
    # integral), and the Smith divisors mod 6 multiply to 3, not 6; a third
    # of it is 1, and G^-1 is not integral.  Either way det_bareiss decides.
    real = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet",
                        lambda a: (lambda s, ld: (s, ld + math.log(factor)))(*real(a)))
    calls = count_calls(monkeypatch, "det_bareiss", "scaled_integer_inverse",
                        "smith_divisors_mod")
    a2 = IntegerLattice([[2, 1], [1, 2]])
    assert determinant(a2) == 3
    assert discriminant(a2).elementary_divisors == (3,)
    assert calls["det_bareiss"] == 2 and calls["scaled_integer_inverse"] == 2
    # The Smith form runs twice in the certificate only when the inverse
    # passed, and once more on the fallback path of discriminant.
    assert calls["smith_divisors_mod"] == (3 if factor == 2 else 1)


PRIMITIVE_GRID = [(d, n) for d in range(3, 18) for n in range(8)
                  if (d - 1) ** (n + 1) <= 256 and rank_formula(d, n) <= 256]


def test_every_primitive_gram_up_to_rank_256():
    for d, n in PRIMITIVE_GRID:
        lattice = build_primitive(d, n).lattice
        det = la.det_bareiss(lattice.gram)
        assert determinant(lattice) == det, (d, n)
        if lattice.is_symmetric() and det:
            assert discriminant(lattice).elementary_divisors == old_divisors(lattice.gram), (d, n)


@pytest.mark.parametrize("size", [1, 2, 5, 12])
def test_modp_det_matches_bareiss(size):
    rng = np.random.default_rng(size)
    p = la.MODP_PRIMES[3]
    for _ in range(10):
        a = rng.integers(-9, 10, (size, size))
        if size > 1 and rng.random() < 0.3:
            a[-1] = a[0]
        assert la.modp_det(a, p) == la.det_bareiss(a.tolist()) % p


@st.composite
def antisymmetric_grams(draw):
    """Antisymmetric integer matrices of even and odd size, some singular."""
    n = draw(st.integers(1, 8))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g[i][j] = draw(st.integers(-30, 30))
            g[j][i] = -g[i][j]
    return g


@settings(max_examples=150, deadline=None)
@given(antisymmetric_grams())
@example([[0, 1], [-1, 0]])
@example([[0, 3, 0, 0], [-3, 0, 0, 0], [0, 0, 0, -5], [0, 0, 5, 0]])
def test_antisymmetric_determinant_needs_no_sign_mod_p(g):
    def refuse(*_args):
        raise AssertionError("modp_det called on an antisymmetric Gram")

    with mock.patch.object(la, "modp_det", refuse):
        assert determinant(IntegerLattice(g, ANTISYMMETRIC)) == la.det_bareiss(g)


def test_antisymmetric_certificate_runs_neither_bareiss_nor_modp_det(monkeypatch):
    lattice = build_primitive(5, 3).lattice
    assert lattice.symmetry == ANTISYMMETRIC
    expected = la.det_bareiss(lattice.gram)
    calls = count_calls(monkeypatch, "det_bareiss", "modp_det")
    assert determinant(IntegerLattice([[0, 1], [-1, 0]], ANTISYMMETRIC)) == 1
    assert determinant(lattice) == expected
    assert calls == {"det_bareiss": 0, "modp_det": 0}
