"""The Euclidean echelon and the field determinant over Z[zeta_d] on
coordinate arrays, against the CyclotomicElement implementations they
replaced, copied here as oracles: the echelon with division with remainder
by the Fraction inverse, and the field elimination by element inverses."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlat import _intlinalg as la
from fermatlat.cubic_period import eigenlattice
from fermatlat.errors import VerificationError
from fermatlat.exact_algebra import CyclotomicElement, euler_phi
from fermatlat.hermitian_eigen import (
    _field_det,
    _norm_adjugate,
    _to_elements,
    cyclotomic_row_echelon,
    hermitian_gram,
)

CONDUCTORS = [3, 4, 5]


# ---------------------------------------------------------------------------
# Oracles: the former implementations, unchanged

def oracle_divmod(a, b):
    q_field = a * b.inverse()
    base = [Fraction(c) for c in q_field.coords]
    rounded = [int(c + Fraction(1, 2)) if c >= 0 else -int(-c + Fraction(1, 2))
               for c in base]
    nb = b.norm()
    for offsets in itertools.product((0, -1, 1), repeat=len(base)):
        q = CyclotomicElement(a.d, [r + o for r, o in zip(rounded, offsets)])
        r = a - q * b
        nr = r.norm()
        if nr < nb:
            return q, r
    raise VerificationError("division with remainder failed; conductor not norm-Euclidean?")


def oracle_row_echelon(d, rows):
    work = [row[:] for row in rows if any(row)]
    ncols = len(rows[0]) if rows else 0
    out = []
    for c in range(ncols):
        active = [r for r in work if r[c]]
        if not active:
            continue
        while True:
            active.sort(key=lambda r: r[c].norm())
            piv = active[0]
            done = True
            for r in active[1:]:
                q, rem = oracle_divmod(r[c], piv[c])
                if q:
                    for j in range(ncols):
                        r[j] = r[j] - q * piv[j]
                if r[c]:
                    done = False
            active = [piv] + [r for r in active[1:] if r[c]]
            if done or len(active) == 1:
                break
        out.append(active[0])
        work = [r for r in work if not r[c] or r is active[0]]
        work.remove(active[0])
        for r in work:
            if r[c]:
                q, _ = oracle_divmod(r[c], active[0][c])
                for j in range(ncols):
                    r[j] = r[j] - q * active[0][j]
        work = [r for r in work if any(r)]
    return out


def oracle_field_det(d, gram):
    n = len(gram)
    if n == 0:
        return CyclotomicElement.one(d)
    m = [row[:] for row in gram]
    det = CyclotomicElement.one(d)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return CyclotomicElement.zero(d)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c]
        inv = m[c][c].inverse()
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


# ---------------------------------------------------------------------------
# Inputs: small coordinate arrays with zero rows and dependent rows

@st.composite
def matrices(draw, square=False):
    """(d, coords) with random rows, some rows zero and some the sum of
    zeta-power multiples of others (dependent over Z[zeta_d])."""
    d = draw(st.sampled_from(CONDUCTORS))
    phi = euler_phi(d)
    rows = draw(st.integers(0, 4))
    cols = rows if square else draw(st.integers(1, 4))
    entry = st.lists(st.integers(-3, 3), min_size=phi, max_size=phi)
    out = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["random", "random", "zero", "dependent"]))
        if kind == "zero" or (kind == "dependent" and not out):
            out.append([[0] * phi for _ in range(cols)])
        elif kind == "random":
            out.append([draw(entry) for _ in range(cols)])
        else:
            total = [CyclotomicElement.zero(d)] * cols
            for row in out:
                scale = CyclotomicElement.zeta(d, draw(st.integers(0, d - 1))) * draw(
                    st.integers(-2, 2))
                total = [t + scale * CyclotomicElement(d, e) for t, e in zip(total, row)]
            out.append([list(t.integral_coords()) for t in total])
    return d, np.array(out, dtype=np.int64).reshape(rows, cols, phi)


# ---------------------------------------------------------------------------
# The Euclidean echelon

def echelon_coords(d, coords):
    phi = euler_phi(d)
    rows = oracle_row_echelon(d, _to_elements(d, coords))
    return la.int_array([[e.integral_coords() for e in row] for row in rows]).reshape(
        len(rows), coords.shape[1], phi)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_row_echelon_matches_the_element_echelon(case):
    d, coords = case
    got = cyclotomic_row_echelon(d, coords)
    assert got.dtype == np.int64 and got.shape[1:] == coords.shape[1:]
    assert np.array_equal(got, echelon_coords(d, coords))


def test_row_echelon_of_zero_and_empty_arrays():
    for shape in [(0, 3, 2), (2, 3, 2)]:
        got = cyclotomic_row_echelon(3, np.zeros(shape, dtype=np.int64))
        assert got.shape == (0, 3, 2) and got.dtype == np.int64


@pytest.mark.parametrize("d", CONDUCTORS)
def test_norm_adjugate_is_norm_times_inverse(d):
    phi = euler_phi(d)
    for coords in itertools.product(range(-2, 3), repeat=phi):
        b = CyclotomicElement(d, coords)
        if not b:
            continue
        norm, star = _norm_adjugate(d, coords)
        assert norm == b.norm() > 0
        assert CyclotomicElement(d, star) == b.inverse() * norm


# ---------------------------------------------------------------------------
# The field determinant

def element_gram(d, coords, den):
    return [[CyclotomicElement(d, [Fraction(x, den) for x in e]) for e in row]
            for row in coords.tolist()]


@settings(max_examples=150, deadline=None)
@given(matrices(square=True), st.integers(1, 4))
def test_field_det_matches_the_element_elimination(case, den):
    d, coords = case
    got = _field_det(d, coords, den)
    assert isinstance(got, CyclotomicElement) and got.d == d
    assert got == oracle_field_det(d, element_gram(d, coords, den))


def test_field_det_of_singular_and_empty_matrices():
    row = [[1, 2], [0, -1], [3, 0]]
    singular = np.array([row, row, [[0, 1], [1, 1], [2, 2]]], dtype=np.int64)
    assert _field_det(3, singular, 2) == CyclotomicElement.zero(3)
    assert _field_det(3, np.zeros((0, 0, 2), dtype=np.int64), 3) == CyclotomicElement.one(3)


@pytest.mark.parametrize("d,n,sign", [(3, 2, 1), (4, 1, -1), (5, 1, -1), (3, 1, 1)])
def test_hermitian_determinant_matches_the_element_elimination(d, n, sign):
    h = hermitian_gram(d, n, sign)
    assert h.determinant() == oracle_field_det(d, h.gram)


def test_eigenlattice_determinants_match_the_element_elimination():
    for k in (1, 2, 3):
        h, _basis = eigenlattice(k)
        det = h.determinant()
        assert det == oracle_field_det(3, h.gram)
        assert det.norm() == h.det_norm()
