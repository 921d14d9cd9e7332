"""Exact integer and rational linear algebra on lists of Python ints, with
no numpy: the kernels that the GIT tests need, kept apart from the numpy
kernels of _intlinalg (which re-exports every name here) so that a process
that runs only these never imports numpy.

Every kernel turns lists of rows or integer arrays into lists of Python ints
on entry (int_rows), so no narrow numpy dtype wraps inside it, and returns
lists of lists of Python ints.  Exact dense elimination over Q has one
kernel, _fraction_free: Bareiss's fraction-free elimination, in row echelon
form for rank_exact and det_bareiss and in Gauss-Jordan form for
solve_rational, which returns Fractions only at the end.  Integer row reduction has one kernel
too, hnf_row: the Smith form alternates it on A and on A^T.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import index
from typing import Sequence

Mat = list[list[int]]
Vec = list[int]


def mat_identity(n: int) -> Mat:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def int_rows(a) -> Mat:
    """The integer matrix a as fresh lists of Python ints: .tolist() for an
    integer array (anything whose dtype kind is "i" or "u", so numpy need not
    be imported), operator.index on each entry otherwise (TypeError for a
    non-integer).  A vector v goes through as int_rows([v])[0]."""
    if getattr(getattr(a, "dtype", None), "kind", None) in ("i", "u"):
        return a.tolist()
    return [list(map(index, r)) for r in a]


def mat_transpose(a: Sequence[Sequence[int]]) -> Mat:
    return [list(col) for col in zip(*int_rows(a))] if len(a) else []


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> Vec:
    v = int_rows([v])[0]
    return [sum(x * y for x, y in zip(row, v)) for row in int_rows(a)]


def vec_mat(v: Sequence[int], a: Sequence[Sequence[int]]) -> Vec:
    """v . a, converting only the rows of a under nonzero entries of v."""
    v = int_rows([v])[0]
    nz = [i for i, c in zip(range(len(a)), v) if c]
    if getattr(getattr(a, "dtype", None), "kind", None) in ("i", "u"):
        rows = a[nz].tolist()
    else:
        rows = int_rows([a[i] for i in nz])
    out = [0] * len(a[0])
    for i, row in zip(nz, rows):
        c = v[i]
        for j, x in enumerate(row):
            out[j] += c * x
    return out


def dot(v: Sequence[int], w: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(*int_rows([v, w])))


# ---------------------------------------------------------------------------
# Hermite normal form

def hnf_row(a: Sequence[Sequence[int]], with_transform: bool = False):
    """Row-style Hermite normal form.

    Returns (H, pivots) or (H, pivots, U) with U unimodular, U*A = (H padded
    with zero rows).  H contains only the nonzero rows, pivots the pivot
    column of each row.  Pivot entries are positive and entries above each
    pivot are reduced into [0, pivot).
    """
    rows = int_rows(a)
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    u = mat_identity(nrows) if with_transform else None
    r = 0
    pivots: list[int] = []
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
        if u is not None:
            u[r], u[piv] = u[piv], u[r]
        # Euclidean elimination below the pivot.
        while True:
            done = True
            for i in range(r + 1, nrows):
                if rows[i][c] == 0:
                    continue
                q = rows[i][c] // rows[r][c]
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    if u is not None:
                        u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                if rows[i][c] != 0:
                    done = False
                    if abs(rows[i][c]) < abs(rows[r][c]):
                        rows[r], rows[i] = rows[i], rows[r]
                        if u is not None:
                            u[r], u[i] = u[i], u[r]
            if done:
                break
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
            if u is not None:
                u[r] = [-x for x in u[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                if u is not None:
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    h = rows[:r]
    if with_transform:
        return h, pivots, u
    return h, pivots


def left_kernel(a: Sequence[Sequence[int]]) -> Mat:
    """Saturated basis of {x : x*A = 0}, in row HNF."""
    if not len(a):
        return []
    h, pivots, u = hnf_row(a, with_transform=True)
    ker = u[len(h):]
    if not ker:
        return []
    kh, _ = hnf_row(ker)
    return kh


def right_kernel(a: Sequence[Sequence[int]]) -> Mat:
    """Saturated basis of {x : A*x = 0}, as rows, in row HNF."""
    return left_kernel(mat_transpose(a))


def same_row_span(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> bool:
    """Whether two integer row families generate the same subgroup of Z^n."""
    ha, _ = hnf_row(a)
    hb, _ = hnf_row(b)
    return ha == hb


def prime_factors(n: int) -> list[int]:
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Smith normal form

def _hnf_split(m: Mat, t: Mat) -> tuple[Mat, Mat]:
    """Row HNF of [M | T], padded with zero rows and split back into (M', T')."""
    n = len(m[0])
    h = hnf_row([r + s for r, s in zip(m, t)])[0]
    h += [[0] * (n + len(t[0]))] * (len(m) - len(h))
    return [r[:n] for r in h], [r[n:] for r in h]


def smith_normal_form(a: Sequence[Sequence[int]], with_transform: bool = False):
    """Smith normal form.  Returns divisors, or (divisors, U, V) with U*A*V = D.

    Divisors are nonnegative, in divisibility order, padded with zeros up to
    min(nrows, ncols).  Alternates the row Hermite form of [A | U] and of
    [A^T | V^T] until A is diagonal (Kannan and Bachem, SIAM J. Comput. 8,
    1979).  A diagonal pair a_ii, a_jj with a_ii not dividing a_jj is mended
    by adding column j to column i, which the next row Hermite form reduces
    to gcd(a_ii, a_jj) at (i, i); adding row j to row i instead would be
    reduced straight back.  The last Hermite form leaves nonnegative
    pivots, so no sign fix is needed.
    """
    m = int_rows(a)
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    size = min(nrows, ncols)
    u = mat_identity(nrows) if with_transform else [[]] * nrows
    vt = mat_identity(ncols) if with_transform else [[]] * ncols
    while size:
        m, u = _hnf_split(m, u)
        mt, vt = _hnf_split(mat_transpose(m), vt)
        m = mat_transpose(mt)
        if any(x for i, row in enumerate(m) for j, x in enumerate(row) if i != j):
            continue
        bad = next(((i, j) for i in range(size) for j in range(i + 1, size)
                    if m[i][i] and m[j][j] % m[i][i]), None)
        if bad is None:
            break
        # Column j added to column i: on a diagonal A only a_ji changes.
        i, j = bad
        m[j][i] = m[j][j]
        vt[i] = [x + y for x, y in zip(vt[i], vt[j])]
    divisors = [m[i][i] for i in range(size)]
    if with_transform:
        return divisors, u, mat_transpose(vt)
    return divisors


# ---------------------------------------------------------------------------
# Fraction-free elimination: rank, determinant, rational solve, inverse

def _fraction_free(a, reduce: bool = False) -> tuple[Mat, list[int], int]:
    """Fraction-free (Bareiss) elimination of an integer matrix: (M, pivots,
    sign), with sign the parity of the row swaps.

    Each column pivots on its first nonzero entry at or below the current
    row.  The step with pivot p after previous pivot q maps every cleared row
    to (p * row - row[c] * pivot_row) / q, an exact division (Bareiss, Math.
    Comp. 22, 1968): each entry stays a minor of A.  Without reduce only the
    rows below the pivot are cleared, from the pivot column on, giving a row
    echelon form whose k-th pivot is the k-th pivotal minor.  With reduce
    every other row is cleared (Gauss-Jordan form, Nakos, Turner and
    Williams, SIGSAM Bull. 31, 1997): each pivot row then carries the last
    pivot D at its pivot column and zeros at the others, so M[:rank] / D is
    the reduced row echelon form.  Entries must be ints or numpy integers
    (anything else raises TypeError, from int_rows).
    """
    m = int_rows(a)
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        lo = 0 if reduce else c
        pr = m[r][lo:]
        p = m[r][c]
        for i in (range(nrows) if reduce else range(r + 1, nrows)):
            if i == r:
                continue
            row = m[i]
            f = row[c]
            if f:
                row[lo:] = [(x * p - f * y) // prev for x, y in zip(row[lo:], pr)]
            elif p != prev:
                row[lo:] = [x * p // prev for x in row[lo:]]
        prev = p
        pivots.append(c)
    return m, pivots, sign


def rank_exact(a: Sequence[Sequence[int]]) -> int:
    """Rank over Q."""
    return len(_fraction_free(a)[1])


def det_bareiss(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix: the last pivot of the
    fraction-free row echelon form, with the sign of the row swaps."""
    n = len(a)
    if n == 0:
        return 1
    m, pivots, sign = _fraction_free(a)
    return sign * m[n - 1][n - 1] if len(pivots) == n else 0


def solve_rational(a: Sequence[Sequence[int]], rhs: Sequence[Sequence[int]]):
    """Solve A*X = B exactly over Q; A square integer, B an integer matrix
    (list of rows).  Returns X as a list of rows of Fractions, or None if A
    is singular.  Gauss-Jordan on [A | B] leaves [D*I | D*X]."""
    n = len(a)
    m, pivots, _ = _fraction_free([list(row) + list(brow) for row, brow in zip(a, rhs)],
                                   reduce=True)
    if pivots != list(range(n)):
        return None
    den = m[n - 1][n - 1] if n else 1
    return [[Fraction(x, den) for x in row[n:]] for row in m]


# ---------------------------------------------------------------------------
# Characteristic polynomial, denominators, square roots

def charpoly(a: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients of det(xI - A), highest degree first, by Berkowitz.

    Division-free and exact; A must be square.
    """
    n = len(a)
    if n == 0:
        return [1]
    # Berkowitz: iteratively build the coefficient vector.
    coeffs = [1, -a[0][0]]
    for k in range(1, n):
        # Principal submatrix of size k+1; R = row, C = column, M = interior.
        mk = [row[:k] for row in a[:k]]
        rrow = a[k][:k]
        ccol = [a[i][k] for i in range(k)]
        akk = a[k][k]
        # Toeplitz column: [1, -akk, -R*C, -R*M*C, -R*M^2*C, ...]
        toep = [1, -akk]
        vec = ccol
        for _ in range(k):
            toep.append(-dot(rrow, vec))
            vec = mat_vec(mk, vec)
        new = [0] * (k + 2)
        for i, c in enumerate(coeffs):
            for j, t in enumerate(toep):
                if i + j <= k + 1:
                    new[i + j] += c * t
        # Truncation: toeplitz product keeps degree k+2 terms.
        coeffs = new
    return coeffs


def clear_denominators(rows) -> tuple[Mat, int]:
    """(S, den) with rows = S / den for the least common denominator den of
    the entries (ints or Fractions)."""
    den = lcm(1, *(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def floor_sqrt_fraction(x: Fraction) -> int:
    """floor(sqrt(x)) for a nonnegative rational x."""
    if x < 0:
        raise ValueError("negative radicand")
    n, d = x.numerator, x.denominator
    return isqrt(n * d) // d
