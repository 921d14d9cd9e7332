"""Certified pivot columns against an exact elimination over Q(zeta_d), the
hermitian reductions against stored outputs of the elimination-based
implementation, and the streamed mod-p echelon against the loop that
re-eliminated every chunk."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlat import _intlinalg as la
from fermatlat.errors import VerificationError
from fermatlat.exact_algebra import CyclotomicElement, euler_phi
from fermatlat.fermat_homology import build_primitive
from fermatlat.hermitian_eigen import (
    _pivot_columns,
    chi_reduce,
    hermitian_gram,
)

from test_modp_kernel import pivot_walk_cases

DATA = os.path.join(os.path.dirname(__file__), "data", "hermitian_seed.json")
P1 = la.MODP_PRIMES[0]


def oracle_pivot_columns(matrix):
    """Lexicographically first maximal set of Q(zeta)-independent columns,
    by Gaussian elimination with exact CyclotomicElement arithmetic."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    echelon = []
    selected = []
    for j in range(ncols):
        col = [matrix[i][j] for i in range(nrows)]
        for pivot_row, vec in echelon:
            if col[pivot_row]:
                factor = col[pivot_row] * vec[pivot_row].inverse()
                col = [a - factor * b for a, b in zip(col, vec)]
        lead = next((i for i, x in enumerate(col) if x), None)
        if lead is not None:
            echelon.append((lead, col))
            selected.append(j)
    return selected


def cyclo_matmul(a, b, d):
    inner = len(b)
    return [[sum((a[i][t] * b[t][j] for t in range(inner)), CyclotomicElement.zero(d))
             for j in range(len(b[0]))] for i in range(len(a))]


def pivots_of(d, matrix):
    return _pivot_columns(d, la.int_array([[e.integral_coords() for e in row] for row in matrix]))


@st.composite
def cyclotomic_matrix(draw, d, rows, cols, dense=False):
    coord = st.integers(-3, 3) if dense else st.sampled_from([-2, -1, 0, 0, 0, 0, 1, 1, 3])
    phi = euler_phi(d)
    return [[CyclotomicElement(d, draw(st.lists(coord, min_size=phi, max_size=phi)))
             for _ in range(cols)] for _ in range(rows)]


@st.composite
def low_rank_product(draw):
    d = draw(st.sampled_from([3, 4, 5]))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    inner = draw(st.integers(1, min(rows, cols)))
    left = draw(cyclotomic_matrix(d, rows, inner, dense=True))
    right = draw(cyclotomic_matrix(d, inner, cols))
    return d, cyclo_matmul(left, right, d)


@settings(max_examples=60, deadline=None)
@given(low_rank_product())
def test_pivots_of_low_rank_products_match_elimination(case):
    d, matrix = case
    assert pivots_of(d, matrix) == oracle_pivot_columns(matrix)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 4, 5]), st.integers(1, 5), st.data())
def test_pivots_of_square_matrices_match_elimination(d, size, data):
    matrix = data.draw(cyclotomic_matrix(d, size, size, dense=True))
    assert pivots_of(d, matrix) == oracle_pivot_columns(matrix)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_rank_zero_and_full_rank(d):
    zero = [[CyclotomicElement.zero(d)] * 4 for _ in range(3)]
    assert pivots_of(d, zero) == [] == oracle_pivot_columns(zero)
    zeta = CyclotomicElement.zeta(d)
    # Upper triangular with nonzero diagonal.
    full = [[zeta * (i + 1) if i == j else (zeta + 1 if j > i else CyclotomicElement.zero(d))
             for j in range(4)] for i in range(4)]
    assert pivots_of(d, full) == [0, 1, 2, 3] == oracle_pivot_columns(full)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 4), st.data())
def test_integer_kernel_against_exact_rank(rows, cols, rank, data):
    entries = st.integers(-5, 5)
    left = [[data.draw(entries) for _ in range(rank)] for _ in range(rows)]
    right = [[data.draw(entries) for _ in range(cols)] for _ in range(rank)]
    a = la.mat_mul(left, right) if rank else [[0] * cols for _ in range(rows)]
    greedy = []
    for j in range(cols):
        cand = greedy + [j]
        if la.rank_exact([[row[c] for c in cand] for row in a]) == len(cand):
            greedy = cand
    assert la.certified_pivot_columns(a) == greedy


def test_first_prime_picks_wrong_pivots():
    # Column 0 vanishes mod the first prime, so that prime's pivot set is {1}.
    a = [[P1, 1]]
    assert la.modp_eliminate(a, P1)[1] == [1]
    assert la.certified_pivot_columns(a) == [0]
    matrix = [[CyclotomicElement.from_int(3, P1), CyclotomicElement.one(3)],
              [CyclotomicElement.from_int(3, 2 * P1), CyclotomicElement.from_int(3, 2)]]
    assert pivots_of(3, matrix) == [0] == oracle_pivot_columns(matrix)


def test_certificate_rejects_non_lex_first_basis():
    # Column 1 alone spans the column space of [p1, 1] (N = [p1, 1] passes
    # the product check), but column 0 comes first: the echelon support of N
    # is what rules the basis out.  Of [1, 1], N = [1, 1] certifies the
    # lexicographically first basis [0] and not [1].
    a = la.int_array([[P1, 1]])
    n = la.int_array([[P1, 1]])
    assert not la._certify_pivots(a, [1], n)
    ones = la.int_array([[1, 1]])
    assert la._certify_pivots(ones, [0], ones)
    assert not la._certify_pivots(ones, [1], ones)


def count_fraction_free(monkeypatch):
    calls = []
    real = la._fraction_free
    monkeypatch.setattr(la, "_fraction_free", lambda a: calls.append(1) or real(a))
    return calls


def test_uncertified_pivots_take_the_exact_elimination(monkeypatch):
    calls = count_fraction_free(monkeypatch)
    # Column 0 vanishes mod the first prime: its pivot set [1] fails the
    # certificate.
    assert la.certified_pivot_columns([[P1, 1]]) == [0]
    # The reduced row echelon form [1, 1/2] is not integral, so no lift of
    # it passes the product check.
    assert la.certified_pivot_columns([[2, 1], [4, 2]]) == [0]
    assert len(calls) == 2
    # Over Q(zeta_4) the first realified block vanishes mod the first prime.
    matrix = [[CyclotomicElement.from_int(4, P1), CyclotomicElement.one(4)]]
    assert pivots_of(4, matrix) == [0] == oracle_pivot_columns(matrix)
    assert len(calls) == 3
    # A certified pivot set takes no elimination over Q.
    assert la.certified_pivot_columns([[1, 2], [3, 4]]) == [0, 1] and len(calls) == 3


def test_entries_beyond_int64():
    big = 2**70 + 1
    a = [[big, 2 * big, 1], [1, 2, big]]
    assert la.certified_pivot_columns(a) == [0, 2]


def test_whole_blocks_required(monkeypatch):
    calls = count_fraction_free(monkeypatch)
    # The rational pivots {0, 2} are not a union of 2-column blocks, whether
    # the prime certifies them or the exact elimination finds them.
    with pytest.raises(VerificationError):
        la.certified_pivot_columns([[1, 0, 0, 0], [0, 0, 1, 0]], block=2)
    assert calls == []
    with pytest.raises(VerificationError):
        la.certified_pivot_columns([[P1, 0, 1, 0]], block=2)
    assert calls == [1]


# The hermitian_cyclotomic workload's Grams and reductions (bench/worker.py).
BENCH_GRAMS = [(3, 4, 1), (3, 3, -1), (4, 2, 1)]
BENCH_GRID = ([(3, n, k) for n in range(1, 5) for k in range(1, n + 2)]
              + [(4, n, k) for n in range(1, 4) for k in range(1, min(n + 2, 4))]
              + [(5, 2, 1), (5, 2, 2)])


def test_benchmark_pivots_are_certified_by_the_first_prime(monkeypatch):
    def refuse(a):
        raise AssertionError("the first prime did not certify the pivots")

    monkeypatch.setattr(la, "_fraction_free", refuse)
    for d, n, sign in BENCH_GRAMS:
        hermitian_gram(d, n, sign)
    for d, n, k in BENCH_GRID:
        chi_reduce(build_primitive(d, n), k)


# ---------------------------------------------------------------------------
# Outputs of the elimination-based implementation, stored as JSON

with open(DATA, encoding="utf-8") as fh:
    SEED = json.load(fh)


@pytest.mark.parametrize("case", SEED["hermitian_gram"], ids=lambda c: str(tuple(c["args"])))
def test_hermitian_gram_matches_seed(case):
    h = hermitian_gram(*case["args"])
    assert h.to_json() == case["to_json"]
    assert [list(b) for b in h.basis_labels] == case["basis_labels"]
    assert h.parity_consistent == case["parity_consistent"]
    assert str(h.det_norm()) == case["det_norm"]


@pytest.mark.parametrize("case", SEED["chi_reduce"], ids=lambda c: str(tuple(c["args"])))
def test_chi_reduce_matches_seed(case):
    d, n, k = case["args"]
    h = chi_reduce(build_primitive(d, n), k)
    assert h.to_json() == case["to_json"]
    assert h.basis_labels == case["basis_labels"]
    assert str(h.det_norm()) == case["det_norm"]


def reeliminating_echelon_rows(a, p):
    """_echelon_rows as it was: every 64-row chunk eliminated in full below
    the rows kept."""
    ech, pivots = np.zeros((0, a.shape[1]), dtype=np.int64), []
    for s in range(0, len(a), 64):
        reduced, pivots = la.modp_eliminate(np.vstack([ech, a[s:s + 64]]), p)
        ech = reduced[:len(pivots)].copy()
    return pivots, ech


@pytest.mark.parametrize("rank", [0, 5, 63, 64, 65, 150])
@pytest.mark.parametrize("p", [P1, la.MODP_PRIMES[7]])
def test_echelon_rows_match_the_reeliminating_loop(rank, p):
    rng = np.random.default_rng(rank)
    rows, cols = 300, 200
    a = rng.integers(-9, 10, (rows, rank)) @ rng.integers(-9, 10, (rank, cols))
    # Rows past the first chunk that add nothing new, and columns that vanish.
    a[200:] = a[:100]
    a[:, 7] = 0
    pivots, ech = la._echelon_rows(a, p)
    want_pivots, want_ech = reeliminating_echelon_rows(a, p)
    assert pivots == want_pivots and len(pivots) == rank
    assert ech.dtype == want_ech.dtype and np.array_equal(ech, want_ech)


@pytest.mark.parametrize("p", [P1, la.MODP_PRIMES[7]])
def test_echelon_rows_of_pivot_walk_cases_match(p):
    # Zero runs past 128 columns, columns zero only mod p, rank 0, pivots
    # only in the last 44 columns, and the realified-Gram shapes 64 x 486 at rank 22
    # and 64 x 208 at rank 52.
    for a in pivot_walk_cases(p):
        pivots, ech = la._echelon_rows(a, p)
        want_pivots, want_ech = reeliminating_echelon_rows(a, p)
        assert pivots == want_pivots
        assert np.array_equal(ech, want_ech)


def test_echelon_rows_of_large_entries_match():
    # Entries past int64 (dtype object) are reduced mod p on the way in.
    rng = np.random.default_rng(3)
    a = la.int_array((rng.integers(-9, 10, (130, 4)) @ rng.integers(-9, 10, (4, 9))).astype(object)
                     * 2**70 + 1)
    assert a.dtype == object
    for p in (P1, la.MODP_PRIMES[7]):
        got, want = la._echelon_rows(a, p), reeliminating_echelon_rows(a, p)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])


def test_divisible_is_exact_up_to_2_53():
    for p in (P1, 3):
        q = (2**53 - 1) // p
        for k in (0, 1, q - 1, q):
            assert la._divisible(np.array([[k * p, 0.0]]), p)
            for off in (1, p - 1):
                if k * p + off < 2**53:
                    assert not la._divisible(np.array([[k * p + off, 0.0]]), p)
