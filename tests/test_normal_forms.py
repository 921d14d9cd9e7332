"""Properties of the integer normal forms and of the mod-p rank, each
against an independent characterization: Smith divisors from gcds of
minors, uniqueness of the Hermite form under unimodular row operations,
Smith divisors mod |det| against the full Smith form, the mod-p rank
against the exact rank below the Hadamard bound, and the Hermite form and
the left kernel against a Euclidean oracle.  The dense random squares are
the regression cases for coefficient growth: a Euclidean sweep down each
column did not finish on the 12 x 12."""

import itertools
import random
from functools import reduce
from math import gcd, isqrt, prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fermatlat
from fermatlat import _intlinalg as la


@st.composite
def int_matrices(draw, max_rows=4, max_cols=4, bound=6):
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    a = [[draw(st.integers(-bound, bound)) for _ in range(c)] for _ in range(r)]
    if r > 1 and draw(st.booleans()):
        # A row that is a multiple of another keeps rank deficiency common.
        i, j = draw(st.permutations(range(r)))[:2]
        q = draw(st.integers(-3, 3))
        a[i] = [q * x for x in a[j]]
    return a


def minor_gcd(a, k):
    """gcd of all k x k minors (0 when every minor vanishes)."""
    rows, cols = range(len(a)), range(len(a[0]))
    return reduce(gcd, (la.det_bareiss([[a[i][j] for j in cs] for i in rs])
                        for rs in itertools.combinations(rows, k)
                        for cs in itertools.combinations(cols, k)), 0)


@st.composite
def unimodular(draw, n):
    """A product of random elementary row operations and sign changes."""
    u = la.mat_identity(n)
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["add", "swap", "negate"]))
        if kind == "add" and i != j:
            q = draw(st.integers(-4, 4))
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        elif kind == "swap":
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-x for x in u[i]]
    return u


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_smith_divisors_are_ratios_of_minor_gcds(a):
    # d_1 ... d_k is the gcd of the k x k minors.
    divisors = la.smith_normal_form(a)[0]
    assert len(divisors) == min(len(a), len(a[0]))
    prod = 1
    for k, dk in enumerate(divisors, start=1):
        prod *= dk
        assert prod == minor_gcd(a, k)
    assert all(y % x == 0 if x else y == 0 for x, y in zip(divisors, divisors[1:]))


@settings(max_examples=200, deadline=None)
@given(int_matrices(max_rows=5, max_cols=5), st.data())
def test_hnf_is_invariant_under_unimodular_rows(a, data):
    u = data.draw(unimodular(len(a)))
    assert la.hnf_row(la.mat_mul(u, a)) == la.hnf_row(a)


@settings(max_examples=200, deadline=None)
@given(int_matrices(max_rows=5, max_cols=5, bound=3), st.sampled_from(la.MODP_PRIMES))
def test_modp_rank_is_exact_rank_below_hadamard_bound(a, p):
    # Every minor of a matrix with |entries| <= 3 and size <= 5 is at most
    # (3 * sqrt(5))^5 < 14000 < p, so no nonzero minor vanishes mod p.
    assert len(la.modp_eliminate(a, p)[1]) == la.rank_exact(a)


@st.composite
def square_matrices(draw, max_size=4, bound=6):
    n = draw(st.integers(1, max_size))
    return [[draw(st.integers(-bound, bound)) for _ in range(n)] for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(square_matrices())
@example([[2, 1], [1, 1]])                     # |det| = 1: no divisor above 1
@example([[1, 0, 0], [0, 1, 0], [0, 0, 5]])   # the divisor 5 = |det| reduces to 0
@example([[6, 0], [0, 4]])                    # Z/6 + Z/4 is Z/2 + Z/12
@example([[2**40, 1], [0, 3]])                # modulus beyond int64 products
@example([[379, 1093, 16, -727, 1169], [1093, 3327, 80, -2037, 3447],
          [16, 80, 8, -16, 64], [-727, -2037, -16, 1427, -2217],
          [1169, 3447, 64, -2217, 3639]])    # U.diag(36, 24, 8, -1, 4).U^T
def test_smith_divisors_mod_det_match_the_full_form(a):
    det = abs(la.det_bareiss(a))
    assume(det != 0)
    assert la.smith_divisors_mod(a, det) == la.smith_normal_form(a)[0]


def test_pure_python_kernels_widen_numpy_input():
    # A narrow numpy dtype used to wrap silently inside the list kernels
    # (15 for 9999, 16 for 10000, with only a RuntimeWarning).
    a = np.array([[100, 1], [1, 100]], dtype=np.int8)
    assert fermatlat.smith_normal_form(a)[0] == [1, 9999]
    h, pivots = la.hnf_row(a)
    assert h[-1][pivots[-1]] == 9999
    assert la.vec_mat([100, 0], a) == [10000, 100]
    assert la.mat_vec(a, np.array([100, 0], dtype=np.int8)) == [10000, 100]
    assert la.dot(a[0], a[0]) == 10001
    assert la.mat_transpose(a) == [[100, 1], [1, 100]]


def test_vec_mat_with_a_sparse_vector_matches_the_object_product():
    # vec_mat converts only the rows under nonzero coefficients.
    rng = np.random.default_rng(5)
    a = rng.integers(-128, 128, size=(30, 7)).astype(np.int8)
    v = [0] * 30
    v[3], v[17], v[29] = 2**40, -5, 127
    want = (np.array(v, dtype=object) @ a.astype(object)).tolist()
    assert la.vec_mat(v, a) == want
    assert la.vec_mat(v, a.tolist()) == want
    assert la.vec_mat([0] * 30, a) == [0] * 7


def euclidean_hnf_row(a):
    """Row Hermite form with its transform by a Euclidean sweep down each
    column: (H, pivots, U) with U unimodular and U*A = H padded with zero
    rows.  The rows below a pivot grow without bound, so this is an oracle
    for small matrices only."""
    rows = [list(r) for r in a]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    u = la.mat_identity(nrows)
    r = 0
    pivots = []
    for c in range(ncols):
        piv = None
        best = None
        for i in range(r, nrows):
            x = rows[i][c]
            if x != 0 and (best is None or abs(x) < best):
                best = abs(x)
                piv = i
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        u[r], u[piv] = u[piv], u[r]
        while True:
            done = True
            for i in range(r + 1, nrows):
                if rows[i][c] == 0:
                    continue
                q = rows[i][c] // rows[r][c]
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                if rows[i][c] != 0:
                    done = False
                    if abs(rows[i][c]) < abs(rows[r][c]):
                        rows[r], rows[i] = rows[i], rows[r]
                        u[r], u[i] = u[i], u[r]
            if done:
                break
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots, u


@settings(max_examples=200, deadline=None)
@given(int_matrices(max_rows=6, max_cols=6))
def test_hnf_row_matches_the_euclidean_oracle(a):
    assert la.hnf_row(a) == euclidean_hnf_row(a)[:2]


@settings(max_examples=200, deadline=None)
@given(int_matrices(max_rows=6, max_cols=6))
def test_left_kernel_is_the_hermite_form_of_the_oracle_kernel(a):
    h, _, u = euclidean_hnf_row(a)
    ker = u[len(h):]
    assert la.left_kernel(a) == (euclidean_hnf_row(ker)[0] if ker else [])


def dense_random_squares(seed, sizes):
    """Square matrices with entries in [-6, 6], drawn from random.Random(seed)
    in the order of sizes."""
    rng = random.Random(seed)
    return {n: [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)] for n in sizes}


DENSE = {**dense_random_squares(3, (8, 10, 12)), **dense_random_squares(5, (30,))}


def assert_hermite(a, h, pivots):
    """Ascending pivot columns with positive pivots, zeros before each pivot,
    entries above each pivot in [0, pivot), and no entry longer than the
    Hadamard bound of A (the product of its row norms)."""
    assert pivots == sorted(set(pivots))
    for i, (row, c) in enumerate(zip(h, pivots)):
        assert not any(row[:c]) and row[c] > 0
        assert all(0 <= above[c] < row[c] for above in h[:i])
    hadamard = isqrt(prod(sum(x * x for x in row) for row in a)) + 1
    assert max(abs(x) for row in h for x in row).bit_length() <= hadamard.bit_length()


@pytest.mark.parametrize("n", sorted(DENSE))
def test_hnf_row_of_a_dense_random_square(n):
    a = DENSE[n]
    h, pivots = la.hnf_row(a)
    assert pivots == list(range(n))
    assert_hermite(a, h, pivots)
    assert prod(row[i] for i, row in enumerate(h)) == abs(la.det_bareiss(a))


@pytest.mark.parametrize("n", sorted(DENSE))
def test_smith_form_of_a_dense_random_square(n):
    a = DENSE[n]
    divisors, u, v = la.smith_normal_form(a)
    assert divisors == la.smith_divisors_mod(a, abs(la.det_bareiss(a)))
    assert la.mat_mul(la.mat_mul(u, a), v) == [
        [dv if i == j else 0 for j in range(n)] for i, dv in enumerate(divisors)]


@pytest.mark.parametrize("n", sorted(DENSE))
def test_left_kernel_of_a_dense_random_square_plus_a_sum_row(n):
    # Row n is row 0 + row 1, and A is nonsingular: the kernel is e_0 + e_1 - e_n.
    a = DENSE[n]
    rows = a + [[x + y for x, y in zip(a[0], a[1])]]
    assert la.left_kernel(rows) == [[1, 1] + [0] * (n - 2) + [-1]]
