"""Products of matrices over Z[zeta_d] on integer coordinate arrays against
CyclotomicElement arithmetic.

_hermitian_product is checked against sums of CyclotomicElement products;
chi_form_on_vectors and ball_meets_restriction against the implementations
they replaced, copied here as oracles: the d^k chain of list products over
the action group, and the restriction to the kernel through the Q(zeta_d)
inverse of a pivot of the functional, both on CyclotomicElement objects.
The HermitianLattice constructor is checked on both of its inputs.
"""

import itertools
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlat import _intlinalg as la
from fermatlat.cubic_period import ball_meets_restriction
from fermatlat.errors import VerificationError
from fermatlat.exact_algebra import CyclotomicElement, euler_phi
from fermatlat.fermat_homology import build_primitive
from fermatlat.hermitian_eigen import (
    HermitianLattice,
    _embedding_signatures,
    _hermitian_product,
    chi_form_on_vectors,
)

CONDUCTORS = [3, 4, 5, 7, 8, 12]
CHI_CASES = [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1)]


# ---------------------------------------------------------------------------
# Oracles: the former implementations, unchanged

def oracle_chi_coefficients(prim, k, vectors):
    d, n = prim.d, prim.n
    if not 1 <= k <= n + 1:
        raise ValueError("k out of range")
    g = prim.lattice.gram
    names = [f"u_{i}" for i in range(n + 2 - k, n + 2)]
    mats = [prim.actions[name] for name in names]
    powers = []
    for m in mats:
        pw = [la.mat_identity(prim.lattice.rank)]
        for _ in range(d - 1):
            pw.append(la.mat_mul(pw[-1], m))
        powers.append(pw)
    nrows = len(vectors)
    coeff = [[[0] * nrows for _ in range(nrows)] for _ in range(d)]
    vg = la.mat_mul(vectors, g)
    vt = la.mat_transpose(vectors)
    for exps in itertools.product(range(d), repeat=k):
        m = None
        for pw, e in zip(powers, exps):
            m = pw[e] if m is None else la.mat_mul(m, pw[e])
        block = la.mat_mul(vg, la.mat_mul(la.mat_transpose(m), vt))
        s = sum(exps) % d
        coeff[s] = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(coeff[s], block)]
    stacked = la.int_array(coeff).reshape(d, nrows, nrows).transpose(1, 2, 0)
    zetas = la.int_array([CyclotomicElement.zeta(d, s).coords for s in range(d)])
    return la.int_matmul(stacked, zetas)


def oracle_negative_index(gram):
    if not gram:
        return 0
    d = gram[0][0].d
    coords = la.int_array([[e.integral_coords() for e in row] for row in gram])
    sigs, _nullity = _embedding_signatures(d, coords)
    if len({q for _p, q in sigs}) > 1:
        raise VerificationError("negative index differs across complex embeddings")
    return sigs[0][1]


def oracle_ball_meets_restriction(gram, ell):
    if all(not x for x in ell):
        return True, True
    r = len(gram)
    d = gram[0][0].d if r else 3
    piv = next(i for i in range(r) if ell[i])
    inv = ell[piv].inverse()
    combos = []
    for i in range(r):
        if i == piv:
            continue
        c = [CyclotomicElement.zero(d) for _ in range(r)]
        c[i] = CyclotomicElement.one(d)
        c[piv] = -(ell[i] * inv)
        combos.append(c)
    restricted = []
    for a in combos:
        row = []
        for b in combos:
            acc = CyclotomicElement.zero(d)
            for i in range(r):
                if not a[i]:
                    continue
                for j in range(r):
                    if gram[i][j] and b[j]:
                        acc = acc + a[i] * gram[i][j] * b[j].conj()
            row.append(acc)
        restricted.append(row)
    scale = 1
    for row in restricted:
        for e in row:
            for c in e.coords:
                den = c.denominator if isinstance(c, Fraction) else 1
                scale = lcm(scale, den)
    if scale != 1:
        restricted = [[e * scale for e in row] for row in restricted]
    neg = oracle_negative_index(restricted)
    return neg > 0, False


def oracle_hermitian_product(d, a, g, b):
    """sum_{t,u} a[i][t] g[t][u] conj(b[j][u]) with CyclotomicElement."""
    def element(coords):
        if len(coords) == 1:
            return CyclotomicElement.from_int(d, int(coords[0]))
        return CyclotomicElement(d, [int(x) for x in coords])

    out = np.zeros((a.shape[0], b.shape[0], euler_phi(d)), dtype=object)
    for i, j in itertools.product(range(a.shape[0]), range(b.shape[0])):
        acc = CyclotomicElement.zero(d)
        for t, u in itertools.product(range(a.shape[1]), range(b.shape[1])):
            acc = acc + element(a[i, t]) * element(g[t, u]) * element(b[j, u]).conj()
        out[i, j] = acc.coords
    return out


# ---------------------------------------------------------------------------
# Strategies

def _array(draw, shape, big):
    ent = st.integers(-4, 4)
    if big:
        ent = st.one_of(ent, st.integers(-2**40, 2**40))
    return np.array([draw(ent) for _ in range(int(np.prod(shape)))],
                    dtype=object).reshape(shape)


@st.composite
def product_inputs(draw):
    d = draw(st.sampled_from(CONDUCTORS))
    phi = euler_phi(d)
    r, n, m, c = (draw(st.integers(0, 3)) for _ in range(4))
    big = draw(st.booleans())
    g_phi = draw(st.sampled_from([1, phi]))
    a = _array(draw, (r, n, phi), big)
    g = _array(draw, (n, m, g_phi), big)
    b = _array(draw, (c, m, phi), big)
    return d, a, g, b


def _element(draw, d, zero_chance=True):
    if zero_chance and draw(st.integers(0, 2)) == 0:
        return CyclotomicElement.zero(d)
    den = draw(st.sampled_from([1, 1, 1, 2, 3]))
    return CyclotomicElement(d, [Fraction(draw(st.integers(-3, 3)), den)
                                 for _ in range(euler_phi(d))])


@st.composite
def restriction_inputs(draw):
    d = draw(st.sampled_from([3, 4, 5, 7]))
    r = draw(st.integers(1, 4))
    gram = [[None] * r for _ in range(r)]
    for i in range(r):
        x = _element(draw, d)
        gram[i][i] = x + x.conj() + draw(st.integers(-4, 4))
        for j in range(i + 1, r):
            gram[i][j] = _element(draw, d)
            gram[j][i] = gram[i][j].conj()
    ell = [_element(draw, d) for _ in range(r)]
    return gram, ell


def functional_coords(ell):
    """Integer coordinates of a positive multiple of the functional ell."""
    rows, _den = la.clear_denominators([e.coords for e in ell])
    return la.int_array(rows)


def restriction_outcome(gram, ell):
    h = HermitianLattice(gram[0][0].d, gram, "raw")
    return _outcome(ball_meets_restriction, h, functional_coords(ell))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except VerificationError:
        return "refused"


# ---------------------------------------------------------------------------
# The array routines against the oracles

@settings(max_examples=200, deadline=None)
@given(product_inputs())
def test_hermitian_product_matches_element_sums(inputs):
    d, a, g, b = inputs
    got = _hermitian_product(d, la.int_array(a), la.int_array(g), la.int_array(b))
    assert got.shape == (a.shape[0], b.shape[0], euler_phi(d))
    assert np.array_equal(got, oracle_hermitian_product(d, a, g, b))


@pytest.mark.parametrize("d", CONDUCTORS)
def test_hermitian_product_of_units(d):
    # zeta^s . 1 . conj(zeta^t) = zeta^(s - t) for every pair of powers.
    phi = euler_phi(d)
    a = np.eye(phi, dtype=np.int64)[:, None, :]
    got = _hermitian_product(d, a, np.ones((1, 1, 1), dtype=np.int64), a)
    for s, t in itertools.product(range(phi), repeat=2):
        assert tuple(got[s, t]) == CyclotomicElement.zeta(d, s - t).coords


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CHI_CASES), st.data())
def test_chi_coefficients_match_action_group_sum(case, data):
    d, n = case
    prim = build_primitive(d, n)
    k = data.draw(st.integers(1, n + 1))
    rank = prim.lattice.rank
    nrows = data.draw(st.integers(1, 4))
    vectors = [[data.draw(st.integers(-3, 3)) for _ in range(rank)] for _ in range(nrows)]
    want = oracle_chi_coefficients(prim, k, vectors)
    assert np.array_equal(chi_form_on_vectors(prim, k, vectors), want)


@pytest.mark.parametrize("case", CHI_CASES)
def test_chi_coefficients_on_the_full_lattice(case):
    d, n = case
    prim = build_primitive(d, n)
    identity = la.mat_identity(prim.lattice.rank)
    for k in range(1, n + 2):
        assert np.array_equal(chi_form_on_vectors(prim, k, identity),
                              oracle_chi_coefficients(prim, k, identity))


@settings(max_examples=150, deadline=None)
@given(restriction_inputs())
def test_ball_meets_restriction_matches_inverse_construction(inputs):
    gram, ell = inputs
    assert restriction_outcome(gram, ell) == _outcome(oracle_ball_meets_restriction, gram, ell)


def test_ball_meets_restriction_edge_cases():
    three, zero, one = (CyclotomicElement.from_int(3, x) for x in (3, 0, 1))
    z = CyclotomicElement.zeta(3)
    cases = [
        ([[three]], [zero]),                               # all-zero functional
        ([[three]], [z]),                                  # rank 1: empty kernel
        ([[-three]], [one]),
        ([[three, zero], [zero, -three]], [zero, zero]),
        ([[three, zero], [zero, -three]], [zero, one]),    # leaves +3
        ([[three, zero], [zero, -three]], [one, zero]),    # leaves -3
        ([[three, z], [z.conj(), -three]], [zero, 1 + z]),
        ([[three, zero, zero], [zero, -three, zero], [zero, zero, three]], [zero, z, one]),
    ]
    for gram, ell in cases:
        assert restriction_outcome(gram, ell) == oracle_ball_meets_restriction(gram, ell)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.integers(0, 3), st.booleans(), st.data())
def test_hermitian_check_matches_conjugation(d, r, symmetrize, data):
    gram = [[_element(data.draw, d) for _ in range(r)] for _ in range(r)]
    if symmetrize:
        for i in range(r):
            gram[i][i] = gram[i][i] + gram[i][i].conj()
            for j in range(i + 1, r):
                gram[j][i] = gram[i][j].conj()
    hermitian = all(gram[i][j].conj() == gram[j][i] for i in range(r) for j in range(r))
    if hermitian:
        h = HermitianLattice(d, gram, "raw")
        assert h.rank == r and h.gram == gram
        if h.den == 1:
            assert HermitianLattice(d, h.coords, "raw").gram == gram
    else:
        with pytest.raises(VerificationError):
            HermitianLattice(d, gram, "raw")


def test_hermitian_lattice_holds_one_read_only_array():
    z = CyclotomicElement.zeta(3)
    gram = [[CyclotomicElement.from_int(3, 2), Fraction(1, 2) * z],
            [Fraction(1, 2) * z.conj(), CyclotomicElement.from_int(3, -1)]]
    h = HermitianLattice(3, gram, "raw")
    assert h.den == 2 and h.coords.tolist() == [[[4, 0], [0, 1]], [[-1, -1], [-2, 0]]]
    with pytest.raises(ValueError):
        h.coords[0, 0, 0] = 1
    rows = h.gram
    rows[0][0] = rows[0][0] * 2
    rows.pop()
    assert h.gram == gram and h.coords[0, 0, 0] == 4
    source = np.array([[[3, 0]]])
    h = HermitianLattice(3, source, "raw")
    source[0, 0, 0] = 5
    assert h.coords.tolist() == [[[3, 0]]] and not h.coords.flags.writeable
    assert HermitianLattice(3, h.coords, "raw").coords is h.coords


@pytest.mark.parametrize("coords", [
    np.zeros((2, 3, 2), dtype=np.int64),     # not square
    np.zeros((2, 2, 3), dtype=np.int64),     # phi(3) = 2 coordinates
    np.zeros((2, 2), dtype=np.int64),        # no phi axis
], ids=["not-square", "wrong-phi", "no-phi-axis"])
def test_hermitian_lattice_refuses_a_wrong_shape(coords):
    with pytest.raises(ValueError):
        HermitianLattice(3, coords, "raw")


def test_hermitian_lattice_refuses_a_non_integer_array():
    with pytest.raises(TypeError):
        HermitianLattice(3, np.full((1, 1, 2), 1.5), "raw")
    with pytest.raises(TypeError):
        HermitianLattice(3, np.array([[[Fraction(1, 2), 0]]], dtype=object), "raw")
