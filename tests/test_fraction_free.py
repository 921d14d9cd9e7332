"""The three wrappers of the fraction-free elimination kernel (rank_exact,
det_bareiss, solve_rational) against the separately written eliminations
they replaced, copied here as oracles: list Bareiss for rank and
determinant and Fraction Gauss-Jordan for the rational solve."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlat import _intlinalg as la


# ---------------------------------------------------------------------------
# Oracles: the former implementations, unchanged

def oracle_rank(a):
    m = [list(r) for r in a]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    prev = 1
    for c in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        for i in range(rank + 1, nrows):
            row = m[i]
            if row[c] == 0:
                for j in range(c + 1, ncols):
                    row[j] = row[j] * pr[c] // prev
                continue
            f = row[c]
            for j in range(c + 1, ncols):
                row[j] = (row[j] * pr[c] - f * pr[j]) // prev
            row[c] = 0
        prev = pr[c]
        rank += 1
        if rank == nrows:
            break
    return rank


def oracle_det(a):
    n = len(a)
    if n == 0:
        return 1
    m = [list(r) for r in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = None
            for i in range(k + 1, n):
                if m[i][k]:
                    piv = i
                    break
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def oracle_solve(a, rhs):
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(x) for x in brow]
         for row, brow in zip(a, rhs)]
    w = len(rhs[0]) if rhs else 0
    for c in range(n):
        piv = None
        for i in range(c, n):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:n + w] for row in m]


# ---------------------------------------------------------------------------
# Strategies

BOUNDS = [1, 3, 2**31, 2**70]


@st.composite
def int_matrices(draw, max_rows=7, max_cols=7, square=False):
    """Integer matrices of every rank: a product of random r x k and k x c
    factors (k may be below both sides), with some columns replaced by zero
    columns or repeats of others, and entries up to +-2**70."""
    r = draw(st.integers(0, max_rows))
    c = r if square else draw(st.integers(0, max_cols))
    bound = draw(st.sampled_from(BOUNDS))
    ent = st.integers(-bound, bound)
    if draw(st.booleans()):
        k = draw(st.integers(0, max(r, c)))
        left = [[draw(st.integers(-3, 3)) for _ in range(k)] for _ in range(r)]
        right = [[draw(ent) for _ in range(c)] for _ in range(k)]
        a = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] if k else [0] * c
             for row in left]
    else:
        a = [[draw(ent) for _ in range(c)] for _ in range(r)]
    for j in range(c):
        kind = draw(st.sampled_from(["keep", "keep", "keep", "zero", "repeat"]))
        if kind == "zero":
            for row in a:
                row[j] = 0
        elif kind == "repeat":
            src = draw(st.integers(0, c - 1))
            for row in a:
                row[j] = row[src]
    return a


# ---------------------------------------------------------------------------
# The wrappers against the oracles

@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_rank_matches_list_bareiss(a):
    assert la.rank_exact(a) == oracle_rank(a)


@settings(max_examples=300, deadline=None)
@given(int_matrices(square=True))
def test_det_matches_list_bareiss(a):
    assert la.det_bareiss(a) == oracle_det(a)


@settings(max_examples=300, deadline=None)
@given(int_matrices(square=True), st.integers(0, 3), st.data())
def test_solve_matches_fraction_gauss_jordan(a, w, data):
    bound = data.draw(st.sampled_from(BOUNDS))
    b = [[data.draw(st.integers(-bound, bound)) for _ in range(w)] for _ in a]
    got = la.solve_rational(a, b)
    assert got == oracle_solve(a, b)
    if got is not None:
        assert all(type(x) is Fraction for row in got for x in row)


@settings(max_examples=200, deadline=None)
@given(int_matrices(), st.booleans())
def test_kernel_forms(a, reduce):
    """Echelon form: the k-th pivot is the k-th pivotal minor of the permuted
    rows.  Gauss-Jordan form: M[:rank] / D is the reduced row echelon form."""
    m, pivots, sign = la._fraction_free(a, reduce=reduce)
    assert pivots == oracle_pivots(a)
    assert all(not any(row) for row in m[len(pivots):])
    if not pivots:
        return
    d = m[len(pivots) - 1][pivots[-1]]
    if reduce:
        rref = [[Fraction(x, d) for x in row] for row in m[:len(pivots)]]
        assert rref == oracle_rref(a)
    else:
        for k, c in enumerate(pivots):
            assert all(m[i][c] == 0 for i in range(k + 1, len(m)))
        # For a nonsingular square A the last pivot, with the sign of the
        # row swaps, is det A.
        if len(pivots) == len(a) == len(a[0]):
            assert sign * d == oracle_det(a)


def oracle_rref(a):
    rows = [[Fraction(x) for x in row] for row in a]
    out = []
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(len(out), len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        r = len(out)
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        out.append(rows[r])
    return rows[:len(out)]


def oracle_pivots(a):
    """Pivot columns: the columns that raise the rank of those before."""
    cols = list(zip(*a)) if a else []
    pivots = []
    for c in range(len(cols)):
        if oracle_rank([list(cols[j]) for j in pivots + [c]]) > len(pivots):
            pivots.append(c)
    return pivots


# ---------------------------------------------------------------------------
# Edge cases

def test_empty_inputs():
    assert la.rank_exact([]) == 0
    assert la.rank_exact([[]]) == 0
    assert la.det_bareiss([]) == 1
    assert la.solve_rational([], []) == []
    assert la._fraction_free([]) == ([], [], 1)


def test_numpy_integer_entries_do_not_overflow():
    a = np.array([[2**40, 1], [1, 2**40]], dtype=np.int64)
    assert la.det_bareiss(a) == 2**80 - 1
    assert la.rank_exact(a) == 2


def test_non_integer_entries_are_rejected():
    with pytest.raises(TypeError):
        la.rank_exact([[Fraction(1, 2), 1]])
    with pytest.raises(TypeError):
        la.det_bareiss([[1.5]])


def test_singular_and_swapped():
    assert la.det_bareiss([[0, 1], [1, 0]]) == -1
    assert la.det_bareiss([[1, 2], [2, 4]]) == 0
    assert la.solve_rational([[1, 2], [2, 4]], [[1], [2]]) is None
    assert la.solve_rational([[0, 2], [3, 0]], [[1], [1]]) == [[Fraction(1, 3)], [Fraction(1, 2)]]
