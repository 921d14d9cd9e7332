"""The int64 mod-p Gauss-Jordan elimination against a column-by-column
oracle, the exact-product helpers around it, the certified mod-p radicals
of lattice_core and of build_primitive (which refuses a tampered one), and
the primitive lattices against stored digests of the outputs of the
per-pivot implementation."""

import hashlib
import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlat import _intlinalg as la
from fermatlat import fermat_homology as fh
from fermatlat import lattice_core as lc
from fermatlat.cli import dumps_canonical
from fermatlat.errors import VerificationError
from fermatlat.fermat_homology import build_primitive

DATA = os.path.join(os.path.dirname(__file__), "data", "primitive_seed.json")
PRIMES = [2, 3, 5, la.MODP_PRIMES[0]]


def oracle_eliminate(a, p):
    """Per-pivot Gauss-Jordan mod p in int64 (one np.outer update per
    pivot), testing one column at a time for a pivot."""
    m = np.array([[int(x) % p for x in row] for row in a], dtype=np.int64)
    nrows, ncols = m.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = (m[r] * pow(int(m[r, c]), p - 2, p)) % p
        rest = np.nonzero(m[:, c])[0]
        rest = rest[rest != r]
        if rest.size:
            m[rest] = (m[rest] - np.outer(m[rest, c], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def structured_matrix(seed, rows, cols):
    """A random integer matrix with low-rank stretches, zero columns,
    repeated columns across 128-column blocks and sparse rows."""
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(0, min(rows, cols) + 1))
    a = rng.integers(-6, 7, size=(rows, rank)) @ rng.integers(-6, 7, size=(rank, cols))
    if cols > 1 and rng.random() < 0.5:
        a[:, rng.integers(0, cols, size=max(1, cols // 4))] = 0
    if cols > 1 and rng.random() < 0.5:
        src = rng.integers(0, cols, size=max(1, cols // 8))
        dst = rng.integers(0, cols, size=src.size)
        a[:, dst] = 3 * a[:, src]
    if rng.random() < 0.3:
        a = a * (rng.random(a.shape) < 0.2)
    return a


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(1, 150), st.sampled_from([1, 127, 128, 129, 300]),
       st.integers(0, 2**32 - 1))
def test_elimination_matches_per_pivot_oracle(p, rows, cols, seed):
    a = structured_matrix(seed, rows, cols)
    reduced, pivots = la.modp_eliminate(a, p)
    expected, expected_pivots = oracle_eliminate(a, p)
    assert pivots == expected_pivots
    assert reduced.dtype == np.int64
    assert np.array_equal(reduced, expected)


@pytest.mark.parametrize("p", PRIMES)
def test_rank_deficient_panels(p):
    # Columns 0-127 have rank 2, columns 128-255 are zero, columns 256-383
    # repeat the first 128, and a last column is independent mod every p.
    rng = np.random.default_rng(p)
    basis = rng.integers(-3, 4, size=(2, 128))
    block = rng.integers(-3, 4, size=(200, 2)) @ basis
    last = np.zeros((200, 1), dtype=np.int64)
    last[150, 0] = 1
    a = np.hstack([block, np.zeros((200, 128), dtype=np.int64), block, last])
    reduced, pivots = la.modp_eliminate(a, p)
    expected, expected_pivots = oracle_eliminate(a, p)
    assert pivots == expected_pivots and pivots[-1] == 384
    assert np.array_equal(reduced, expected)


def test_entries_beyond_int64_and_lists():
    p = la.MODP_PRIMES[0]
    big = 2**70 + 3
    a = [[big, 1, -big], [2 * big, 5, 7], [0, 2**64, 1]]
    reduced, pivots = la.modp_eliminate(a, p)
    expected, expected_pivots = oracle_eliminate(a, p)
    assert pivots == expected_pivots
    assert np.array_equal(reduced, expected)


@pytest.mark.parametrize("p", PRIMES)
def test_kernel_vectors_vanish(p):
    a = structured_matrix(11, 40, 300)
    ker = la.modp_kernel(a, p)
    assert ker.shape == (300 - len(oracle_eliminate(a, p)[1]), 300)
    assert not np.any(a.astype(object) @ ker.T.astype(object) % p)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([3, 5, la.MODP_PRIMES[0]]), st.sampled_from([1, 5, 129, 260]),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_solve_matrix(p, n, width, seed):
    rng = np.random.default_rng(seed)
    # Unit lower times unit upper triangular: invertible mod every p.
    low = np.tril(rng.integers(-4, 5, size=(n, n)), -1) + np.eye(n, dtype=np.int64)
    up = np.triu(rng.integers(-4, 5, size=(n, n)), 1) + np.eye(n, dtype=np.int64)
    a = low @ up
    b = rng.integers(-9, 10, size=(n, width))
    x = la.modp_solve_matrix(a, b, p)
    assert x.dtype == np.int64 and x.shape == (n, width)
    assert np.array_equal((a.astype(object) @ x.astype(object)) % p, b % p)


def test_solve_matrix_singular():
    p = la.MODP_PRIMES[0]
    a = np.ones((4, 4), dtype=np.int64)
    assert la.modp_solve_matrix(a, np.eye(4, dtype=np.int64), p) is None
    # Singular mod 3 only: [A | B] has full rank, with a pivot in B.
    a = np.array([[1, 0], [0, 3]])
    assert la.modp_solve_matrix(a, np.eye(2, dtype=np.int64), 3) is None
    assert la.modp_solve_matrix(a, np.eye(2, dtype=np.int64), 5) is not None


def test_crt_reconstruction_of_an_inverse_past_2_53():
    # A^-1 has the entry 1 - 2**54: the first prime is skipped, two more
    # give a wrong candidate, and the third (a modulus past int64) the
    # inverse.  No candidate passes a check that refuses them all.
    k = 2**27
    a = la.int_array([[1, k], [k, k * k - 1]])
    eye = np.eye(2, dtype=np.int64)
    seen = []

    def residues(p):
        seen.append(p)
        return None if p == la.MODP_PRIMES[0] else la.modp_solve_matrix(a, eye, p)

    x = la.crt_reconstruct_int_matrix(residues, lambda c: np.array_equal(la.int_matmul(a, c), eye))
    assert x.tolist() == [[1 - k * k, k], [k, -1]]
    assert seen == list(la.MODP_PRIMES[:4])
    seen.clear()
    assert la.crt_reconstruct_int_matrix(residues, lambda c: False) is None
    assert seen == list(la.MODP_PRIMES[:la._CRT_MAX_PRIMES])


@pytest.mark.parametrize("p", [2**31 - 1, 2**23 + 9, 1, 0])
def test_modulus_guard(p):
    with pytest.raises(ValueError):
        la.modp_eliminate([[1, 2], [3, 4]], p)
    with pytest.raises(ValueError):
        la.modp_solve_matrix([[1]], [[1]], p)


def test_moduli_are_the_largest_primes_below_2_23():
    def is_prime(n):
        return n > 1 and all(n % q for q in range(2, int(n**0.5) + 1))
    expected = [q for q in range(2**23 - 1, 2**23 - 1000, -1) if is_prime(q)][:20]
    assert list(la.MODP_PRIMES) == expected
    assert all((q - 1) ** 2 * 128 < 2**53 for q in la.MODP_PRIMES)


def test_saturation_with_a_prime_beyond_the_kernel_range():
    q = 2**23 + 9  # prime, too large for the float64 mod-p kernel
    assert la.saturate_row_span([[2 * q, 4 * q, 0]]) == [[1, 2, 0]]
    assert la.saturate_row_span([[q, 0], [0, 3]]) == [[1, 0], [0, 1]]


def test_symmetric_residues():
    assert la.symmetric_residues(np.arange(7), 7).tolist() == [0, 1, 2, 3, -3, -2, -1]
    assert la.symmetric_residues(np.arange(6), 6).tolist() == [0, 1, 2, 3, -2, -1]
    big = np.array([0, 2**69, 2**69 + 1, 2**70], dtype=object)
    assert la.symmetric_residues(big, 2**70 + 1).tolist() == [0, 2**69, -2**69, -1]


def test_int_array_entry_between_2_63_and_2_64():
    arr = la.int_array([[2**63, 1], [0, 1]])
    assert arr.dtype == object
    assert arr.tolist() == [[2**63, 1], [0, 1]]
    assert la.int_array(np.array([[2**63, 1]], dtype=np.uint64)).tolist() == [[2**63, 1]]
    assert la.int_array([[1, -2]]).dtype == np.int64
    with pytest.raises(TypeError):
        la.int_array([[1.5, 2]])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
       st.sampled_from([3, 2**20, 2**40, 2**70]), st.data())
def test_mat_mul_matches_python_ints(n, k, m, bound, data):
    entries = st.integers(-bound, bound)
    a = [[data.draw(entries) for _ in range(k)] for _ in range(n)]
    b = [[data.draw(entries) for _ in range(m)] for _ in range(k)]
    expected = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
    prod = la.mat_mul(a, b)
    assert prod == expected
    assert all(type(x) is int for row in prod for x in row)


MAGNITUDES = [0, 1, 7, 2**26, 2**26 + 1, 3 * 2**25, 2**31, 2**31 + 1, 2**52, 2**53 - 1, 2**53,
              2**61, 2**62 - 1, 2**62, 2**63 - 1, 2**63, 2**70]


@st.composite
def matmul_operands(draw):
    """Integer operands of every shape int_matmul is given: matrices (empty
    ones included), 1-D against 2-D, and the (d, r, c) stacks of
    hermitian_eigen._shifted_product, with abs-max entries drawn on both
    sides of 2**53 and 2**62 (so are the products with the inner dimension)."""
    kind = draw(st.sampled_from(["2d", "1d@2d", "2d@1d", "1d@1d", "stack"]))
    k, rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    shape_a, shape_b = {"2d": ((rows, k), (k, cols)), "1d@2d": ((k,), (k, cols)),
                        "2d@1d": ((rows, k), (k,)), "1d@1d": ((k,), (k,)),
                        "stack": ((draw(st.sampled_from([3, 4, 5])), rows, k), (k, cols))}[kind]

    def operand(shape):
        top = draw(st.sampled_from(MAGNITUDES))
        size = int(np.prod(shape))
        entries = [draw(st.integers(-top, top)) for _ in range(size)]
        if size:
            entries[draw(st.integers(0, size - 1))] = draw(st.sampled_from([top, -top]))
        arr = la.int_array(np.array(entries, dtype=object).reshape(shape))
        return arr.astype(object) if draw(st.booleans()) else arr

    return operand(shape_a), operand(shape_b)


@settings(max_examples=300, deadline=None)
@given(matmul_operands())
def test_int_matmul_matches_object_matmul(operands):
    a, b = operands
    prod = la.int_matmul(a, b)
    expected = a.astype(object) @ b.astype(object)
    if np.ndim(expected) == 0:  # 1-D @ 1-D: a scalar, int64 or a Python int
        assert prod == expected
        return
    assert prod.shape == expected.shape
    assert np.array_equal(np.asarray(prod, dtype=object), expected)
    ma = max((abs(int(x)) for x in a.flat), default=0)
    mb = max((abs(int(x)) for x in b.flat), default=0)
    below = max(ma, mb) < 2**62 and ma * mb * max(a.shape[-1], 1) < 2**62
    assert prod.dtype == (np.int64 if below else object)


def primitive_digests(prim):
    parts = {"gram": prim.lattice.gram.tolist(), "projection": prim.projection.tolist(),
             "actions": {name: m.tolist() for name, m in sorted(prim.actions.items())}}
    return {k: hashlib.sha256(dumps_canonical(v).encode()).hexdigest() for k, v in parts.items()}


def stored_digests(key):
    with open(DATA) as f:
        return json.load(f)[key]


@pytest.mark.parametrize("key", ["3,7", "5,3", "4,4", "3,8"])
def test_primitive_lattices_match_stored_digests(key):
    fh._build_primitive_cached.cache_clear()
    d, n = map(int, key.split(","))
    assert primitive_digests(build_primitive(d, n)) == stored_digests(key)


def tampered(k, pivots, how):
    """K with one change that the build must refuse: an entry off the
    radical (seen by K.G, and by K.M_0 != K), or, keeping K in the radical
    so that only the pivot minor sees it, a row doubled (an index-2
    sublattice) or a row added to another (a nonzero in another pivot
    column), or a row dropped (a saturated part of the radical that only the
    count of rows sees)."""
    k = k.copy()
    if how == "row dropped":
        return k[1:], pivots[1:]
    if how == "entry":
        k[0, next(c for c in range(k.shape[1]) if c not in pivots)] += 1
    elif how == "row doubled":
        k[0] *= 2
    else:
        k[0] += k[1]
    return k, pivots


# The check of build_primitive's radical that refuses each tampering.
REFUSED_BY = {"entry": "invariance", "row doubled": "pivot minor", "row added": "pivot minor",
              "row dropped": "count"}


@pytest.mark.parametrize("how", ["entry", "row doubled", "row added", "row dropped"])
def test_tampered_radical_is_refused(how, monkeypatch):
    milnor = fh.build_milnor(3, 4)
    gram = milnor.gram
    k, pivots = lc._radical_candidate(gram, la.MODP_PRIMES[0])
    assert len(k) == len(milnor.basis) - fh.rank_formula(3, 4)
    assert lc._is_radical_basis(k, pivots, gram)
    assert lc._is_radical_basis(*tampered(k, pivots, how), gram) == (how == "row dropped")

    # The build's own radical, the orbit-sum candidate, tampered the same
    # way, is refused by the same check.
    candidate = fh._orbit_candidate
    monkeypatch.setattr(fh, "_orbit_candidate",
                        lambda d, n, r: tampered(candidate(d, n, r), list(range(r)), how)[0])
    with pytest.raises(VerificationError, match=REFUSED_BY[how]):
        fh._build_primitive(3, 4)


@pytest.mark.parametrize("d,n", [(3, 5), (4, 3), (5, 2), (3, 7), (5, 3)])
def test_certified_radical_is_the_saturated_connecting_image(d, n):
    milnor = fh.build_milnor(d, n)
    gens = fh.connecting_map(d, n)
    radical = lc.certified_radical(milnor.gram)
    assert len(radical) == len(milnor.basis) - fh.rank_formula(d, n)
    assert radical.tolist() == la.saturate_row_span(gens)
    if n % 2:
        # At odd n the connecting image has index d in the radical.
        h, pivots = la.hnf_row(gens)
        assert math.prod(row[c] for row, c in zip(h, pivots)) == d


def two_elimination_candidate(gram, p):
    """The construction lattice_core._radical_candidate replaced: the kernel of G mod p
    from one RREF of G, then a second RREF of that kernel."""
    k, pivots = la.modp_eliminate(la.modp_kernel(gram, p), p)
    return la.symmetric_residues(k[:len(pivots)], p), pivots


def low_rank_form(seed, n, antisymmetric):
    """A random integer n x n form A^T.C.A of rank at most r <= n, with C
    symmetric or antisymmetric."""
    rng = np.random.default_rng(seed)
    r = int(rng.integers(0, n + 1))
    a = rng.integers(-4, 5, size=(r, n))
    c = rng.integers(-3, 4, size=(r, r))
    return a.T @ (c - c.T if antisymmetric else c + c.T) @ a


def assert_same_candidate(gram, p):
    k, pivots = lc._radical_candidate(gram, p)
    expected, expected_pivots = two_elimination_candidate(gram, p)
    assert pivots == expected_pivots
    assert k.dtype == expected.dtype and np.array_equal(k, expected)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("d,n", [(3, 4), (5, 3), (4, 4), (6, 3)])
def test_radical_candidate_matches_two_eliminations(d, n, p):
    assert_same_candidate(fh.build_milnor(d, n).gram, p)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(1, 140), st.booleans(), st.integers(0, 2**32 - 1))
def test_radical_candidate_matches_two_eliminations_on_low_rank_forms(p, n, antisymmetric, seed):
    assert_same_candidate(low_rank_form(seed, n, antisymmetric), p)


def count_calls(monkeypatch, *names):
    """Wrap the named _intlinalg functions with call counters; calls from
    inside _intlinalg (modp_kernel calls modp_eliminate) count too."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _real=getattr(la, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(la, name, counted)
    return calls


@pytest.mark.parametrize("d,n", [(3, 7), (5, 0), (65, 0)])
def test_primitive_build_eliminates_nothing(d, n, monkeypatch):
    # The per-axis checks are exact integer products, and the radical's
    # dimension is a closed-form trace.  The radical comes from the u_0-orbit
    # sums (no rows at n = 0), with no elimination mod p; with no orbit-sum
    # candidate the build raises, still without eliminating.
    calls = count_calls(monkeypatch, "modp_eliminate", "modp_kernel")
    radicals = []
    real = fh._certified_radical
    monkeypatch.setattr(fh, "_certified_radical",
                        lambda d, n, r: radicals.append(r) or real(d, n, r))
    fh._build_primitive(d, n)
    assert calls == {"modp_eliminate": 0, "modp_kernel": 0}
    assert radicals == [(d - 1) ** (n + 1) - fh.rank_formula(d, n)]
    assert (radicals[0] == 0) == (n == 0)
    monkeypatch.setattr(fh, "_orbit_candidate", lambda d, n, r: None)
    with pytest.raises(VerificationError, match="orbit candidate"):
        fh._build_primitive(d, n)
    assert calls == {"modp_eliminate": 0, "modp_kernel": 0}


def test_build_takes_the_proven_radical_unchecked(monkeypatch):
    # _certified_radical's K is already proven to be the radical's row HNF:
    # radical_quotient neither checks K.G again nor runs hnf_row, and gives
    # the quotient that the checked path gives.
    calls = count_calls(monkeypatch, "hnf_row")
    prim = fh._build_primitive(3, 2)
    assert calls == {"hnf_row": 0}
    milnor = prim.milnor.lattice
    r = milnor.rank - prim.lattice.rank
    k = fh._certified_radical(3, 2, r)
    checked = lc.radical_quotient(milnor, k)
    assert calls == {"hnf_row": 1}
    assert np.array_equal(checked[0].gram, prim.lattice.gram)
    assert np.array_equal(checked[1], prim.projection)


def test_nondegenerate_build_still_certifies_its_radical(monkeypatch):
    # With no radical to quotient by (r = 0, every n = 0 rung), the build
    # still proves the Milnor Gram nondegenerate: the trace of the radical
    # proof gives dimension 0, and the mod-p radical is never taken.  So a
    # wrong rank formula cannot pass, at n = 0 or past it: the radical's
    # rows, and so the quotient's rank, are checked against the trace.
    grams = []
    real = lc.certified_radical
    monkeypatch.setattr(lc, "certified_radical", lambda g: grams.append(len(g)) or real(g))
    assert fh._build_primitive(5, 0).lattice.rank == 4
    assert grams == []
    monkeypatch.setattr(fh, "rank_formula", lambda d, n: (d - 1) ** (n + 1) - 1)
    with pytest.raises(VerificationError, match="dimension 0, expected 1 rows \\(count\\)"):
        fh._build_primitive(5, 0)
    monkeypatch.setattr(fh, "rank_formula", lambda d, n: (d - 1) ** (n + 1))
    with pytest.raises(VerificationError, match="dimension 2, expected 0 rows \\(count\\)"):
        fh._build_primitive(3, 1)


def test_cyclic_discriminant_certificate_eliminates_no_rank(monkeypatch):
    # The float64 candidate for 4 * G^{-1} passes the exact product: no
    # mod-p elimination and no exact solve at all.
    from fermatlat.lattice_core import discriminant_is_cyclic_of_order
    lattice = build_primitive(4, 4).lattice
    calls = count_calls(monkeypatch, "modp_eliminate", "solve_rational")
    assert discriminant_is_cyclic_of_order(lattice, 4)
    assert calls == {"modp_eliminate": 0, "solve_rational": 0}


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_scaled_integer_inverse_is_exact(n, d, seed):
    # A = L.U with L, U unit triangular is unimodular: d.A^{-1} is integral.
    rng = np.random.default_rng(seed)
    low = np.tril(rng.integers(-3, 4, size=(n, n)), -1) + np.eye(n, dtype=np.int64)
    up = np.triu(rng.integers(-3, 4, size=(n, n)), 1) + np.eye(n, dtype=np.int64)
    a = low @ up
    x = la.scaled_integer_inverse(a, d)
    assert np.array_equal(a.astype(object) @ x.astype(object), d * np.eye(n, dtype=object))


def test_scaled_integer_inverse_paths(monkeypatch):
    calls = count_calls(monkeypatch, "solve_rational")
    # Not integral: the float candidate fails the product, and so does the
    # exact solve.
    assert la.scaled_integer_inverse(np.array([[2]]), 1) is None
    # Singular: LinAlgError is caught, and the exact solve finds no inverse.
    assert la.scaled_integer_inverse(np.array([[1, 2], [2, 4]]), 2) is None
    assert calls["solve_rational"] == 2
    calls["solve_rational"] = 0
    # Entries past int64 skip the float64 inverse.
    big = 2**70
    x = la.scaled_integer_inverse(la.int_array([[big, 0], [0, 1]]), big)
    assert x.tolist() == [[1, 0], [0, big]]
    assert calls["solve_rational"] == 1
    calls["solve_rational"] = 0
    assert la.scaled_integer_inverse(np.zeros((0, 0), dtype=np.int8), 3).shape == (0, 0)
    assert la.scaled_integer_inverse(np.array([[2, 1], [1, 2]], dtype=np.int8), 3).tolist() == [
        [2, -1], [-1, 2]]
    assert calls["solve_rational"] == 0


def low_rank(seed, rows, cols, rank):
    rng = np.random.default_rng(seed)
    return rng.integers(-9, 10, (rows, rank)) @ rng.integers(-9, 10, (rank, cols))


def pivot_walk_cases(p):
    """Matrices for the jump over columns that are zero mod p."""
    rng = np.random.default_rng(p % 1000)
    a = low_rank(1, 50, 600, 6)
    # Runs of zero columns longer than 128, between live columns.
    a[:, 3:400] = 0
    a[:, 410:560] = 0
    b = low_rank(2, 40, 300, 3)
    # Column 2 is independent over Q, but zero mod p below the two pivots
    # of columns 0 and 1; column 5 is zero mod p before any pivot.
    b[:, 2] = b[:, 0] - 2 * b[:, 1] + p * rng.integers(-3, 4, 40)
    b[:, 5] = p * rng.integers(-3, 4, 40)
    last = np.zeros((40, 300), dtype=np.int64)
    # Pivots only in the last 44 columns.
    last[:, 256:] = low_rank(3, 40, 44, 5)
    return [a, b, last, np.zeros((40, 300), dtype=np.int64), low_rank(4, 64, 486, 22),
            low_rank(5, 64, 208, 52), low_rank(6, 44, 44, 2)]


@pytest.mark.parametrize("p", PRIMES)
def test_pivot_walk_matches_per_pivot_oracle(p):
    for a in pivot_walk_cases(p):
        reduced, pivots = la.modp_eliminate(a, p)
        expected, expected_pivots = oracle_eliminate(a, p)
        assert pivots == expected_pivots
        assert np.array_equal(reduced, expected)
    _a, b, last, zero = (la.modp_eliminate(m, p)[1] for m in pivot_walk_cases(p)[:4])
    assert 2 not in b and 5 not in b
    assert min(last) >= 256 and zero == []


def test_pivot_walk_costs_rank_not_width():
    # 64 x 486 at rank 2: a walk that tests every column in turn runs at
    # least one line of the kernel per column, 486 in all; jumping over the
    # zero columns runs a few lines per pivot.
    a = low_rank(7, 64, 486, 2)
    kernel = la._gauss_jordan.__code__
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        if frame.f_code is kernel:
            lines += event == "line"
            return trace
        return None

    sys.settrace(trace)
    try:
        pivots = la.modp_eliminate(a, la.MODP_PRIMES[0])[1]
    finally:
        sys.settrace(None)
    assert len(pivots) == 2
    assert 0 < lines <= 20 * (len(pivots) + 1)


@pytest.mark.parametrize("dtype, limit", [(np.float64, 2**53), (np.float32, 2**24)])
@pytest.mark.parametrize("size", [1, 7, la._SMALL_MOD - 1, la._SMALL_MOD, 3 * la._SMALL_MOD + 5])
@pytest.mark.parametrize("p", [2, 3, 8191, la.MODP_PRIMES[0]])
def test_float_mod_matches_python_remainder(dtype, limit, size, p):
    # Integer-valued entries in [-L + 2p, L), both ends included.
    rng = np.random.default_rng(size + p)
    x = rng.integers(-limit + 2 * p, limit, size).astype(dtype)
    x[0] = -limit + 2 * p
    x[-1] = limit - 1
    if size > 2:
        x[1] = limit - p
    want = [int(v) % p for v in x.tolist()]
    got = la._float_mod(x, p)
    assert got.dtype == dtype and got.tolist() == want
    out = x.copy()
    assert la._float_mod(out, p, out=out) is out
    assert out.dtype == dtype and out.tolist() == want
