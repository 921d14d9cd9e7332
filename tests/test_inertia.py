"""The fraction-free inertia kernel against independent oracles:
Descartes' rule on the Berkowitz characteristic polynomial (the signature
path it replaced) and numpy eigenvalues."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fermatlat import _intlinalg as la
from fermatlat.errors import WrongSymmetryError
from fermatlat.lattice_core import IntegerLattice, signature


def descartes_sign_counts(coeffs):
    """(positive, negative, zero) root counts of a real-rooted polynomial,
    coefficients highest degree first: Descartes' rule is an equality when
    every root is real."""
    n = len(coeffs) - 1
    zero = 0
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        zero += 1
        cs.pop()
    signs = [1 if c > 0 else -1 for c in cs if c != 0]
    pos = sum(1 for x, y in zip(signs, signs[1:]) if x != y)
    neg = n - zero - pos
    return pos, neg, zero


def oracle_inertia(a):
    return descartes_sign_counts(la.charpoly(a))


@st.composite
def symmetric_matrices(draw, max_n=7, entries=3):
    """B^T D B for a random r x n integer B (r may be below n, giving a
    singular form) and a diagonal D with entries of either sign or zero,
    with zero diagonals and hyperbolic planes drawn often."""
    n = draw(st.integers(1, max_n))
    r = draw(st.integers(0, n))
    b = [[draw(st.integers(-entries, entries)) for _ in range(n)] for _ in range(r)]
    d = [draw(st.integers(-2, 2)) for _ in range(r)]
    a = [[sum(b[k][i] * d[k] * b[k][j] for k in range(r)) for j in range(n)] for i in range(n)]
    shape = draw(st.sampled_from(["form", "zero_diagonal", "hyperbolic"]))
    if shape == "zero_diagonal":
        for i in range(n):
            a[i][i] = 0
    elif shape == "hyperbolic":
        # Orthogonal sum of hyperbolic planes [[0, c], [c, 0]] and zeros.
        a = [[0] * n for _ in range(n)]
        for i in range(0, n - 1, 2):
            c = draw(st.integers(-3, 3))
            a[i][i + 1] = a[i + 1][i] = c
    return a


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_inertia_matches_charpoly_descartes(a):
    assert la.inertia(a) == oracle_inertia(a)


@settings(max_examples=60, deadline=None)
@given(symmetric_matrices(max_n=5), st.sampled_from([2**62, 2**70, -(2**90) - 1]))
def test_inertia_beyond_int64(a, scale):
    big = [[x * scale for x in row] for row in a]
    expected = oracle_inertia(big)
    assert la.inertia(big) == expected
    pos, neg, zero = la.inertia(a)
    assert expected == ((pos, neg, zero) if scale > 0 else (neg, pos, zero))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.data())
def test_inertia_matches_numpy_eigenvalues(n, data):
    rows = [[data.draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)]
    a = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
    eig = np.linalg.eigvalsh(np.array(a, dtype=np.float64))
    # Only well-separated spectra: every eigenvalue far from 0.
    assume(np.min(np.abs(eig)) > 1e-6 * max(1.0, np.max(np.abs(eig))))
    assert la.inertia(a) == (int(np.sum(eig > 0)), int(np.sum(eig < 0)), 0)


def test_inertia_small_cases():
    assert la.inertia([]) == (0, 0, 0)
    assert la.inertia([[0]]) == (0, 0, 1)
    assert la.inertia([[5]]) == (1, 0, 0)
    assert la.inertia([[-(2**80)]]) == (0, 1, 0)
    assert la.inertia([[0, 0], [0, 0]]) == (0, 0, 2)
    assert la.inertia([[0, 1], [1, 0]]) == (1, 1, 0)
    # Zero diagonal after the first pivot: the e_i += e_j step inside.
    assert la.inertia([[1, 0, 0], [0, 0, 2], [0, 2, 0]]) == (2, 1, 0)
    assert la.inertia(np.array([[2, 1], [1, 2]])) == (2, 0, 0)


def test_inertia_rejects_nonsymmetric_input():
    anti = [[0, 1], [-1, 0]]
    with pytest.raises(ValueError):
        la.inertia(anti)
    with pytest.raises(ValueError):
        la.inertia([[1, 2], [3, 4]])
    with pytest.raises(WrongSymmetryError):
        signature(IntegerLattice(anti, "antisymmetric"))


def test_signature_uses_no_charpoly(monkeypatch):
    def refuse(_a):
        raise AssertionError("charpoly called on the signature path")

    monkeypatch.setattr(la, "charpoly", refuse)
    assert signature(IntegerLattice([[2, 1, 0], [1, 2, 1], [0, 1, -3]])) == (2, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(-5, 5), st.data())
def test_charpoly_is_det_of_x_minus_a(n, x, data):
    a = [[data.draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(n)]
    coeffs = la.charpoly(a)
    value = sum(c * x ** (n - i) for i, c in enumerate(coeffs))
    shifted = [[(x if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)]
    assert coeffs[0] == 1 and value == la.det_bareiss(shifted)
