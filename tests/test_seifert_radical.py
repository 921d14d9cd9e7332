"""The Milnor lattice as a Seifert form: the Gram of build_milnor against
the star-element table it replaced, the factorization G = sign * V.(I -
M_0^T) behind the radical's proof, the per-axis checks, the count of
characters against the rank formula, the character radical against the
certified mod-p kernel of the Gram, and the u_0-orbit-sum radical against
the character radical, with its fallback."""

from functools import reduce
from itertools import product

import numpy as np
import pytest

from fermatlat import _intlinalg as la
from fermatlat import fermat_homology as fh
from fermatlat import lattice_core as lc
from fermatlat.errors import VerificationError
from test_fermat_homology import product_star_element


def star_table_gram(d, n):
    """Gram[i][j] = sign * w[(K_i - K_j) mod d] for the star element w,
    multiplied out in the group ring, read off a table over (Z/d)^(n+1) at
    mixed-radix codes: the construction build_milnor replaced."""
    k = n + 1
    table = np.zeros(d ** k, dtype=np.int64)
    for exps, c in product_star_element(d, n).coeffs.items():
        table[sum(e * d ** i for i, e in enumerate(exps))] = fh.parity_sign(n) * c
    b = np.array(fh.milnor_basis(d, n), dtype=np.int64)
    codes = sum(np.mod(np.subtract.outer(b[:, i], b[:, i]), d) * d ** i for i in range(k))
    return table[codes]


@pytest.mark.parametrize("d,n", [(d, n) for d in range(3, 10) for n in range(10)
                                 if (d - 1) ** (n + 1) <= 1024])
def test_seifert_gram_is_the_star_table_gram(d, n):
    gram = fh.build_milnor(d, n).gram
    assert gram.dtype == np.int8 and not gram.flags.writeable and gram.flags.c_contiguous
    assert np.array_equal(gram, star_table_gram(d, n))


def test_seifert_axis_is_the_star_axis():
    # V_1 = I minus the subdiagonal of ones, read off the axis of star_halves.
    for d in range(3, 66):
        v = fh._seifert_axis(d)
        assert v.dtype == np.int8
        assert np.array_equal(v, np.eye(d - 1, dtype=np.int8) - np.eye(d - 1, k=-1, dtype=np.int8))


def kron_power(m, n):
    return reduce(np.kron, [m] * (n + 1))


@pytest.mark.parametrize("d,n", [(3, 1), (3, 2), (3, 5), (4, 2), (4, 3), (5, 2), (6, 2), (7, 1)])
def test_gram_factors_through_the_monodromy(d, n):
    # G = sign * V.(I - M_0^T) with V unitriangular, so the radical is the
    # set of vectors fixed by M_0, the matrix of u_0; mod p the character
    # rows are fixed by M_0.
    v = kron_power(fh._seifert_axis(d).astype(np.int64), n)
    m0 = kron_power(fh._u_powers(d)[d - 1], n)
    size = len(v)
    assert np.array_equal(fh.build_milnor(d, n).gram,
                          fh.parity_sign(n) * v @ (np.eye(size, dtype=np.int64) - m0.T))
    assert np.array_equal(np.diagonal(v), np.ones(size)) and not np.any(np.triu(v, 1))
    r = size - fh.rank_formula(d, n)
    k = fh._certified_radical(d, n, r)
    assert np.array_equal(k @ m0, k)
    p, e = fh._axis_eigenvectors(d)
    c = fh._character_rows(d, n, p, e)
    assert len(c) == r and not np.any((c.astype(object) @ (m0 - np.eye(size, dtype=np.int64))) % p)


@pytest.mark.parametrize("d,n", [(3, 7), (5, 3), (4, 4), (3, 8), (4, 5), (5, 4), (7, 2), (9, 2)])
def test_character_radical_is_the_certified_radical(d, n):
    gram = fh.build_milnor(d, n).gram
    k = fh._certified_radical(d, n, (d - 1) ** (n + 1) - fh.rank_formula(d, n))
    expected = lc.certified_radical(gram)
    assert k.dtype == expected.dtype and np.array_equal(k, expected)
    assert not np.any(la.int_matmul(k, gram))


def character_count(d, n):
    """#{a in {1..d-1}^(n+1) : a_0 + ... + a_n = 0 mod d}, one axis at a
    time: adding a in 1..d-1 to every sum s gives the new count at s as the
    total minus the old count at s."""
    count = np.zeros(d, dtype=np.int64)
    count[0] = 1
    for _ in range(n + 1):
        count = count.sum() - count
    return int(count[0])


def grid(bound, n_min=0):
    """Every (d, n) with n >= n_min and Milnor rank (d-1)^(n+1) <= bound."""
    return [(d, n) for d in range(3, bound + 2) for n in range(n_min, bound.bit_length())
            if (d - 1) ** (n + 1) <= bound]


def radical_rank(d, n):
    return (d - 1) ** (n + 1) - fh.rank_formula(d, n)


def test_character_count_is_the_radical_rank_at_every_rung():
    # The closed form that _certified_radical uses, the count one axis at a
    # time and, for n >= 1, the number of character rows.
    rungs = grid(fh.size_bound())
    for d, n in rungs:
        assert fh._character_count(d, n) == character_count(d, n) == radical_rank(d, n), (d, n)
        if n:
            p, e = fh._axis_eigenvectors(d)
            assert len(fh._character_rows(d, n, p, e)) == radical_rank(d, n), (d, n)
    assert sum(n >= 1 for d, n in rungs) == 99


@pytest.mark.parametrize("d,n", grid(1024, n_min=1))
def test_orbit_radical_is_the_character_radical(d, n):
    r = radical_rank(d, n)
    k = fh._orbit_candidate(d, n, r)
    p, e = fh._axis_eigenvectors(d)
    expected = fh._character_candidate(fh._character_rows(d, n, p, e), p)
    assert k.dtype == expected.dtype and np.array_equal(k, expected)


def refuse_character_candidate(monkeypatch):
    def refuse(c, p):
        raise AssertionError("the character path was taken")
    monkeypatch.setattr(fh, "_character_candidate", refuse)


def test_orbit_candidate_passes_the_checks_at_3_10(monkeypatch):
    refuse_character_candidate(monkeypatch)
    r = radical_rank(3, 10)
    k = fh._certified_radical(3, 10, r)
    assert k.shape == (r, 2048) and fh._radical_refusal(k, 3, 10, r) is None


@pytest.mark.parametrize("d,n", [(3, 7), (5, 3), (4, 4), (3, 8), (4, 5), (5, 4)])
def test_ladder_rungs_take_the_orbit_path(d, n, monkeypatch):
    refuse_character_candidate(monkeypatch)
    fh._build_primitive(d, n)


def off_by_one(k, column):
    k = k.copy()
    k[-1, column] += 1
    return k


@pytest.mark.parametrize("d,n", [(3, 4), (5, 3)])
@pytest.mark.parametrize("how", ["none", "pivot minor", "invariance"])
def test_failed_orbit_candidate_falls_back_to_the_characters(d, n, how, monkeypatch):
    # A missing candidate, or one entry off by one (in the identity minor,
    # refused by (c), or past it, refused by (b)), gives the character path's
    # K: the same lattice and projection, never the wrong K.
    real = fh._build_primitive_cached(d, n)
    orbit, character = fh._orbit_candidate, fh._character_candidate
    wrong, returned = [], []
    if how == "none":
        monkeypatch.setattr(fh, "_orbit_candidate", lambda d, n, r: None)
    else:
        def tampered(d, n, r):
            wrong.append(off_by_one(orbit(d, n, r), r - 1 if how == "pivot minor" else -1))
            return wrong[-1]
        monkeypatch.setattr(fh, "_orbit_candidate", tampered)
    monkeypatch.setattr(fh, "_character_candidate",
                        lambda c, p: returned.append(character(c, p)) or returned[-1])
    r = radical_rank(d, n)
    prim = fh._build_primitive(d, n)
    assert len(wrong) == (how != "none") and len(returned) == 1
    if wrong:
        assert how in fh._radical_refusal(wrong[0], d, n, r)
    assert np.array_equal(returned[0], orbit(d, n, r))
    for a, b in [(prim.lattice.gram, real.lattice.gram), (prim.projection, real.projection)]:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def is_prime(q):
    return q > 1 and all(q % f for f in range(2, int(q ** 0.5) + 1))


def test_axis_checks_pass_for_every_d_up_to_65():
    for d in range(3, 66):
        p, e = fh._axis_eigenvectors(d)  # raises VerificationError on a failed check
        assert p % d == 1 and is_prime(p) and la._exact_modulus(p)
        assert not any(is_prime(q) for q in range(p + d, 2 ** 23, d))
        assert e.shape == (d - 1, d - 1) and not e.flags.writeable
        # The last coefficient of each e_a, of u^(d-2), is 1: monic.
        assert np.array_equal(e[:, -1], np.ones(d - 1))


def test_axis_checks_refuse_a_wrong_seifert_form(monkeypatch):
    monkeypatch.setattr(fh, "_seifert_axis", lambda d: np.eye(d - 1, dtype=np.int8))
    with pytest.raises(VerificationError, match="per-axis"):
        fh._axis_eigenvectors.__wrapped__(5)


@pytest.mark.parametrize("d,n", [(3, 2), (4, 1), (5, 1)])
def test_character_rows_are_the_kronecker_products(d, n):
    p, e = fh._axis_eigenvectors(d)
    rows = {tuple(row) for row in fh._character_rows(d, n, p, e).tolist()}
    expected = set()
    for a in product(range(1, d), repeat=n + 1):
        if sum(a) % d == 0:
            row = reduce(lambda x, y: np.outer(x, y).ravel() % p, [e[i - 1] for i in a])
            expected.add(tuple(row.tolist()))
    assert rows == expected
