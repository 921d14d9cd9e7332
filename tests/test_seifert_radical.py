"""The Milnor lattice as a Seifert form: the Gram of build_milnor against
the star-element table it replaced, the factorization G = sign * V.(I -
M_0^T) behind the radical's proof, the per-axis checks, the count of the
radical's dimension as a trace and as a number of characters against the
rank formula, the character radical against the certified mod-p kernel of
the Gram, and the u_0-orbit-sum radical against the character radical,
with the refusals of a missing or wrong candidate.

The character rows and their RREF mod p (character_rows,
character_candidate) were the build's fallback radical, and the axis
eigenvectors E (axis_eigenvectors) bounded its nullity; they are kept here
as the oracle of the orbit-sum radical."""

from functools import lru_cache, reduce
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


def is_prime(q):
    return q > 1 and all(q % f for f in range(2, int(q ** 0.5) + 1))


@lru_cache(maxsize=None)
def axis_root(d):
    """(p, w): p the largest prime = 1 (mod d) up to MODP_PRIMES[0], the
    exact range of the float64 elimination, and w of order d mod p."""
    p = la.MODP_PRIMES[0] - (la.MODP_PRIMES[0] - 1) % d
    while not is_prime(p):
        p -= d
    w = next(x for x in (pow(g, (p - 1) // d, p) for g in range(2, p))
             if all(pow(x, k, p) != 1 for k in range(1, d)))
    return p, w


@lru_cache(maxsize=None)
def axis_eigenvectors(d):
    """(p, E): row a-1 of E the coefficients of e_a = prod_{b != a} (u - w^b)
    = (1 + ... + u^(d-1)) / (u - w^a), sum_{t <= d-2-j} w^(at) at u^j,
    mod p.  The e_a diagonalize A = U^(d-1) mod p with eigenvalues w^(-a)
    (test_axis_eigenvectors_diagonalize_a)."""
    p, w = axis_root(d)
    powers = np.array([pow(w, k, p) for k in range(d)], dtype=np.int64)
    table = powers[np.outer(np.arange(1, d), np.arange(d - 1)) % d]  # [a-1, j] = w^(aj)
    return p, np.cumsum(table, axis=1)[:, ::-1] % p


def character_rows(d, n, p, e):
    """The rows e_(a_0) x ... x e_(a_n) mod p with a_0 + ... + a_n = 0
    (mod d), n >= 1: each half of the axes is a Kronecker power of E, and
    a row of one pairs with the rows of the other of opposite index sum."""
    halves = []
    for k in ((n + 1) // 2, n + 1 - (n + 1) // 2):
        rows = reduce(lambda x, _: fh._kron(e, x) % p, range(k - 1), e)
        halves.append((rows, reduce(np.add.outer, [np.arange(1, d)] * k).ravel() % d))
    (left, left_sums), (right, right_sums) = halves
    pairs = [left[left_sums == s][:, None, :, None] * right[right_sums == -s % d][None, :, None, :]
             for s in range(d)]
    return np.concatenate([x.reshape(-1, len(e) ** (n + 1)) % p for x in pairs])


def character_candidate(c, p):
    """The RREF of C mod p without its zero rows, in symmetric residues."""
    k, pivots = la.modp_eliminate(c, p)
    return la.symmetric_residues(k[:len(pivots)], p)


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
    p, e = axis_eigenvectors(d)
    c = character_rows(d, n, p, e)
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
    # time, for d <= 65 the trace of (a), (1/d) sum_e tr(A^e)^(n+1) from
    # the powers of U (A^e = U^(-e), and -e runs over Z/d with e), and, for
    # n >= 1, the number of character rows.
    rungs = grid(fh.size_bound())
    traces = {}
    for d, n in rungs:
        assert fh._character_count(d, n) == character_count(d, n) == radical_rank(d, n), (d, n)
        if d <= 65:
            if d not in traces:
                traces[d] = [int(np.trace(u)) for u in fh._u_powers(d)]
            total = sum(t ** (n + 1) for t in traces[d])
            assert total % d == 0 and total // d == fh._character_count(d, n), (d, n)
        if n:
            p, e = axis_eigenvectors(d)
            assert len(character_rows(d, n, p, e)) == radical_rank(d, n), (d, n)
    assert sum(n >= 1 for d, n in rungs) == 99
    assert len(traces) == 63


@pytest.mark.parametrize("d,n", grid(1024, n_min=1))
def test_orbit_radical_is_the_character_radical(d, n):
    r = radical_rank(d, n)
    k = fh._orbit_candidate(d, n, r)
    p, e = axis_eigenvectors(d)
    expected = character_candidate(character_rows(d, n, p, e), p)
    assert k.dtype == expected.dtype and np.array_equal(k, expected)


def test_orbit_candidate_passes_the_checks_at_3_10():
    r = radical_rank(3, 10)
    k = fh._certified_radical(3, 10, r)
    assert k.shape == (r, 2048) and fh._radical_refusal(k, 3, 10, r) is None


@pytest.mark.parametrize("d,n", [(3, 7), (5, 3), (4, 4), (3, 8), (4, 5), (5, 4)])
def test_ladder_rungs_take_the_orbit_path(d, n, monkeypatch):
    # The build's radical is the orbit candidate itself, not a recomputation.
    orbit, candidates = fh._orbit_candidate, []
    monkeypatch.setattr(fh, "_orbit_candidate",
                        lambda d, n, r: candidates.append(orbit(d, n, r)) or candidates[-1])
    r = radical_rank(d, n)
    assert fh._certified_radical(d, n, r) is candidates[0] and len(candidates) == 1


def off_by_one(k, column):
    k = k.copy()
    k[-1, column] += 1
    return k


@pytest.mark.parametrize("d,n", [(3, 4), (5, 3)])
@pytest.mark.parametrize("how", ["orbit candidate", "pivot minor", "invariance"])
def test_failed_orbit_candidate_is_refused(d, n, how, monkeypatch):
    # A missing candidate, or one entry off by one (in the identity minor,
    # refused by (c), or past it, refused by (b)), raises naming the check:
    # never a wrong K, and no other path.
    orbit = fh._orbit_candidate
    if how == "orbit candidate":
        monkeypatch.setattr(fh, "_orbit_candidate", lambda d, n, r: None)
    else:
        monkeypatch.setattr(fh, "_orbit_candidate", lambda d, n, r: off_by_one(
            orbit(d, n, r), r - 1 if how == "pivot minor" else -1))
    with pytest.raises(VerificationError, match=f"\\({how}\\)"):
        fh._build_primitive(d, n)


def test_axis_checks_pass_for_every_d_up_to_65():
    for d in range(3, 66):
        fh._axis_check(d)  # raises VerificationError on a failed check
        u = fh._u_powers(d)
        companion = np.eye(d - 1, k=1, dtype=np.int64)
        companion[-1] = -1
        assert np.array_equal(u[1], companion)
        # What the check proves: U^d = I, U.V_1.U^T = V_1, and the traces.
        eye = np.eye(d - 1, dtype=np.int64)
        assert np.array_equal(u[d - 1] @ u[1], eye)
        v1 = fh._seifert_axis(d).astype(np.int64)
        assert np.array_equal(u[1] @ v1 @ u[1].T, v1)
        assert [int(np.trace(m)) for m in u] == [d - 1] + [-1] * (d - 1)


def test_axis_eigenvectors_diagonalize_a():
    # The oracle's E: E.A = diag(w^(-a)).E (mod p), and E.W^T (mod p),
    # W[b-1, j] = w^(bj), is diagonal with a nonzero diagonal (e_a(w^b) = 0
    # exactly when b != a), so E is invertible mod p.
    for d in range(3, 66):
        p, w = axis_root(d)
        _, e = axis_eigenvectors(d)
        assert p % d == 1 and is_prime(p) and la._exact_modulus(p)
        assert not any(is_prime(q) for q in range(p + d, 2 ** 23, d))
        # The last coefficient of each e_a, of u^(d-2), is 1: monic.
        assert np.array_equal(e[:, -1], np.ones(d - 1))
        a = fh._u_powers(d)[d - 1].astype(object)
        eigen = np.array([pow(w, -k, p) for k in range(1, d)], dtype=object)
        assert not np.any((e.astype(object) @ a - eigen[:, None] * e) % p)
        table = np.array([[pow(w, b * j, p) for j in range(d - 1)] for b in range(1, d)],
                         dtype=object)
        ew = e.astype(object) @ table.T % p
        assert np.count_nonzero(ew) == np.count_nonzero(np.diagonal(ew)) == d - 1


def test_axis_checks_refuse_a_wrong_seifert_form(monkeypatch):
    monkeypatch.setattr(fh, "_seifert_axis", lambda d: np.eye(d - 1, dtype=np.int8))
    with pytest.raises(VerificationError, match="per-axis check of the radical"):
        fh._axis_check(5)


@pytest.mark.parametrize("d,n", [(3, 2), (4, 1), (5, 1)])
def test_character_rows_are_the_kronecker_products(d, n):
    p, e = axis_eigenvectors(d)
    rows = {tuple(row) for row in character_rows(d, n, p, e).tolist()}
    expected = set()
    for a in product(range(1, d), repeat=n + 1):
        if sum(a) % d == 0:
            row = reduce(lambda x, y: np.outer(x, y).ravel() % p, [e[i - 1] for i in a])
            expected.add(tuple(row.tolist()))
    assert rows == expected
