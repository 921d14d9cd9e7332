"""The inertia kernel against independent oracles: Descartes' rule on the
Berkowitz characteristic polynomial (the signature path it replaced) and
numpy eigenvalues; and the congruence certificate against the fraction-free
elimination it falls back to."""

from unittest import mock

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


def bareiss_inertia(a):
    """la.inertia with the congruence certificate refused: the fraction-free
    elimination alone."""
    with mock.patch.object(la, "_congruence_inertia", lambda g: None):
        return la.inertia(a)


@st.composite
def certificate_inputs(draw):
    """Symmetric matrices of the kinds the certificate must refuse or get
    right: rank-deficient forms, zero and diagonal matrices, entries near
    2**31 (int64, below 2**53) and entries past 2**62 (dtype object)."""
    kind = draw(st.sampled_from(["form", "zero", "diagonal", "near_2_31", "past_2_62"]))
    if kind == "form":
        return draw(symmetric_matrices(max_n=8))
    if kind == "past_2_62":
        a = draw(symmetric_matrices(max_n=8))
        return [[x * 2**62 + (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
    n = draw(st.integers(1, 8))
    if kind == "zero":
        return [[0] * n for _ in range(n)]
    if kind == "diagonal":
        diag = [draw(st.integers(-3, 3)) for _ in range(n)]
        return [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(st.sampled_from([1, -1])) * 2**31 + draw(st.integers(-4, 4))
    return a


@settings(max_examples=300, deadline=None)
@given(certificate_inputs())
def test_inertia_equals_the_elimination(a):
    assert la.inertia(a) == bareiss_inertia(a)


@settings(max_examples=100, deadline=None)
@given(symmetric_matrices(max_n=8))
def test_a_certified_inertia_is_nonsingular_and_exact(a):
    g = la.int_array(a)
    counts = la._congruence_inertia(g)
    assert counts is None or counts == bareiss_inertia(a)
    if counts is not None:
        assert counts[2] == 0 and la.det_bareiss(a) != 0


def test_well_conditioned_grams_take_the_certificate():
    rng = np.random.default_rng(5)
    for n in (1, 3, 22, 60):
        b = rng.integers(-3, 4, (n, n))
        g = b.T @ np.diag(rng.choice([-1, 1], n)) @ b
        if la.det_bareiss(g.tolist()) == 0:
            continue
        assert la._congruence_inertia(g) == bareiss_inertia(g)
    assert la._congruence_inertia(np.diag([5, -2, 7])) == (2, 1, 0)


@pytest.mark.parametrize("wrong", ["identity", "repeated_column", "scaled_down", "nan",
                                   "linalg_error"])
def test_a_wrong_eigenbasis_still_gives_the_exact_inertia(monkeypatch, wrong):
    real = np.linalg.eigh
    refused = []

    def eigh(a):
        w, v = real(a)
        if wrong == "linalg_error":
            raise np.linalg.LinAlgError("forced")
        if wrong == "identity":
            v = np.eye(len(a))
        elif wrong == "repeated_column":
            v = v.copy()
            v[:, -1] = v[:, 0]
        elif wrong == "scaled_down":
            v = v * 1e-12
        else:
            v = np.full_like(v, np.nan)
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    real_certificate = la._congruence_inertia

    def certificate(g):
        counts = real_certificate(g)
        refused.append(counts is None)
        return counts

    monkeypatch.setattr(la, "_congruence_inertia", certificate)
    rng = np.random.default_rng(11)
    for n in (2, 5, 12):
        b = rng.integers(-4, 5, (n, n))
        g = b + b.T + np.diag(rng.integers(-9, 10, n))
        assert la.inertia(g) == oracle_inertia(g.tolist())
    if wrong != "identity":
        # The identity basis leaves M = G, accepted only where G itself is
        # strictly dominant; every other wrong basis is refused.
        assert all(refused)
