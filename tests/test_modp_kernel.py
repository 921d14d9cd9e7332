"""The blocked float64 mod-p elimination against a per-pivot Gauss-Jordan
oracle, the exact-product helpers around it, the certified mod-p radical
of build_primitive (and its HNF fallback), and the primitive lattices
against stored digests of the outputs of the per-pivot implementation."""

import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlat import _intlinalg as la
from fermatlat import fermat_homology as fh
from fermatlat.fermat_homology import build_primitive
from fermatlat.lattice_core import dumps_canonical

DATA = os.path.join(os.path.dirname(__file__), "data", "primitive_seed.json")
PRIMES = [2, 3, 5, la.MODP_PRIMES[0]]


def oracle_eliminate(a, p):
    """Per-pivot Gauss-Jordan mod p in int64 (one np.outer update per
    pivot), the elimination the blocked kernel replaced."""
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
    repeated columns across panel boundaries and sparse rows."""
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
def test_blocked_elimination_matches_per_pivot_oracle(p, rows, cols, seed):
    a = structured_matrix(seed, rows, cols)
    reduced, pivots = la.modp_eliminate(a, p)
    expected, expected_pivots = oracle_eliminate(a, p)
    assert pivots == expected_pivots
    assert reduced.dtype == np.int64
    assert np.array_equal(reduced, expected)


@pytest.mark.parametrize("p", PRIMES)
def test_rank_deficient_panels(p):
    # Panel 0 has rank 2, panel 1 is zero, panel 2 repeats panel 0 and a
    # last column that is independent mod every p.
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
    assert la.modp_rank(a, p) == len(pivots)


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
    assert ker.shape == (300 - la.modp_rank(a, p), 300)
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
def test_primitive_lattices_match_stored_digests(key, monkeypatch):
    # Built afresh, each rung must take the certified mod-p radical: a
    # regression onto the HNF fallback fails here, not only in the timings.
    fh._build_primitive_cached.cache_clear()
    monkeypatch.setattr(fh, "radical_fallbacks", 0)
    d, n = map(int, key.split(","))
    digests = primitive_digests(build_primitive(d, n))
    assert fh.radical_fallbacks == 0
    assert digests == stored_digests(key)


@pytest.mark.parametrize("key", ["3,4", "4,3"])
def test_fallback_when_no_prime_certifies(key, monkeypatch):
    monkeypatch.setattr(fh, "_is_radical_basis", lambda *args: False)
    monkeypatch.setattr(fh, "radical_fallbacks", 0)
    d, n = map(int, key.split(","))
    assert primitive_digests(fh._build_primitive(d, n, True)) == stored_digests(key)
    assert fh.radical_fallbacks == 1


def tampered(k, pivots, how):
    """K with one change that _is_radical_basis must refuse: an entry off
    the radical (seen by K.G), or, keeping K.G == 0 so that only the pivot
    minor sees it, a row doubled (an index-2 sublattice), a row added to
    another (a nonzero in another pivot column) or a row dropped."""
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


@pytest.mark.parametrize("how", ["entry", "row doubled", "row added", "row dropped"])
def test_tampered_radical_is_refused(how, monkeypatch):
    milnor = fh.build_milnor(3, 4)
    gram = milnor.gram
    size = len(milnor.basis) - fh.rank_formula(3, 4)
    k, pivots = fh._radical_candidate(gram, la.MODP_PRIMES[0])
    assert fh._is_radical_basis(k, pivots, gram, size)
    assert not fh._is_radical_basis(*tampered(k, pivots, how), gram, size)

    candidate = fh._radical_candidate
    monkeypatch.setattr(fh, "_radical_candidate", lambda g, p: tampered(*candidate(g, p), how))
    monkeypatch.setattr(fh, "radical_fallbacks", 0)
    assert primitive_digests(fh._build_primitive(3, 4, True)) == stored_digests("3,4")
    assert fh.radical_fallbacks == 1


@pytest.mark.parametrize("d,n", [(3, 5), (4, 3), (5, 2), (3, 7), (5, 3)])
def test_certified_radical_is_the_saturated_connecting_image(d, n):
    milnor = fh.build_milnor(d, n)
    size = len(milnor.basis) - fh.rank_formula(d, n)
    gens = fh.connecting_map(d, n)
    assert fh._certified_radical(milnor.gram, size).tolist() == la.saturate_row_span(gens)
    if n % 2:
        # At odd n the connecting image has index d in the radical.
        h, pivots = la.hnf_row(gens)
        assert math.prod(row[c] for row, c in zip(h, pivots)) == d
