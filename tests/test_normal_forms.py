"""Properties of the integer normal forms and of the mod-p rank, each
against an independent characterization: Smith divisors from gcds of
minors, uniqueness of the Hermite form under unimodular row operations,
Smith divisors mod |det| against the full Smith form, and the mod-p rank
against the exact rank below the Hadamard bound."""

import itertools
from functools import reduce
from math import gcd

import numpy as np
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
    divisors = la.smith_normal_form(a)
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
    assert la.modp_rank(a, p) == la.rank_exact(a)


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
def test_smith_divisors_mod_det_match_the_full_form(a):
    det = abs(la.det_bareiss(a))
    assume(det != 0)
    assert la.smith_divisors_mod(a, det) == la.smith_normal_form(a)


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
