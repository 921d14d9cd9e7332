"""Exact integer and rational linear algebra on lists of Python ints, with
no numpy: the kernels that the GIT tests need, kept apart from the numpy
kernels of _intlinalg (which re-exports every name here) so that a process
that runs only these never imports numpy.

Every kernel turns lists of rows or integer arrays into lists of Python ints
on entry (int_rows), so no narrow numpy dtype wraps inside it, and returns
lists of lists of Python ints.  Exact dense elimination over Q has one
kernel, _fraction_free: Bareiss's fraction-free elimination, in row echelon
form for rank_exact and det_bareiss and in Gauss-Jordan form for
solve_rational, which returns Fractions only at the end.  Integer row
reduction has one kernel too, _echelon, with bounded entries: hnf_row,
left_kernel (on [A | I]) and the Smith form (hnf_row on A and A^T) use it.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm
from operator import add, index, sub
from typing import Sequence

from .errors import PrimalityRangeError

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

def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0 (extended Euclid)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b, s0, s1, t0, t1 = b, a - q * b, s1, s0 - q * s1, t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _subtract(row: Vec, q: int, p: Vec, c: int) -> None:
    """row -= q * p in place, on the columns from c on."""
    if q == 1:
        row[c:] = map(sub, row[c:], p[c:])
    elif q == -1:
        row[c:] = map(add, row[c:], p[c:])
    else:
        row[c:] = [x - q * y for x, y in zip(row[c:], p[c:])]


def _reduce_below(row: Vec, c: int, ech: dict[int, Vec], cols: list[int]) -> None:
    """Reduce row in place into [0, pivot) at each pivot column after c, in
    ascending order, by the echelon row of that column."""
    for k in cols[bisect_right(cols, c):]:
        q = row[k] // ech[k][k]
        if q:
            _subtract(row, q, ech[k], k)


def _echelon(rows: Mat) -> dict[int, Vec]:
    """Row echelon form {pivot column: row} of the integer rows, each row
    joining the echelon form of the rows before it (Kannan and Bachem,
    SIAM J. Comput. 8, 1979).  While the row is nonzero, take its first
    nonzero entry x.  If its column has no pivot, the row, up to sign,
    becomes the pivot row there.  Else a unimodular 2 x 2 step on the pivot
    row p and the row clears x: a subtraction when p's pivot divides x,
    else the extended-gcd step, which leaves gcd(p_c, x) as the pivot.  A
    new or changed pivot row is reduced against the pivot rows below it,
    so no entry grows without bound.
    """
    ech: dict[int, Vec] = {}
    cols: list[int] = []
    for row in rows:
        c = 0
        while (c := next((j for j in range(c, len(row)) if row[j]), -1)) >= 0:
            x, p = row[c], ech.get(c)
            if p is None:
                ech[c] = row if x > 0 else [-y for y in row]
                insort(cols, c)
                _reduce_below(ech[c], c, ech, cols)
                break
            if x % p[c] == 0:
                _subtract(row, x // p[c], p, c)
                continue
            g, s, t = xgcd(p[c], x)
            a, b = x // g, p[c] // g
            tp, tr = p[c:], row[c:]
            ech[c] = row[:c] + [s * y + t * z for y, z in zip(tp, tr)]
            row[c:] = [a * y - b * z for y, z in zip(tp, tr)]
            _reduce_below(ech[c], c, ech, cols)
    return ech


def hnf_row(a: Sequence[Sequence[int]]) -> tuple[Mat, list[int]]:
    """Row-style Hermite normal form (H, pivots): H holds the nonzero rows,
    pivots the pivot column of each.  Pivot entries are positive, and the
    echelon rows, from the bottom up, are reduced into [0, pivot) above
    each pivot."""
    ech = _echelon(int_rows(a))
    cols = sorted(ech)
    for c in reversed(cols):
        _reduce_below(ech[c], c, ech, cols)
    return [ech[c] for c in cols], cols


def left_kernel(a: Sequence[Sequence[int]]) -> Mat:
    """Saturated basis of {x : x*A = 0}, in row HNF: the Hermite form of
    the I-parts of the echelon rows of [A | I] that vanish on A."""
    rows = int_rows(a)
    m = len(rows[0]) if rows else 0
    ech = _echelon([r + e for r, e in zip(rows, mat_identity(len(rows)))])
    return hnf_row([r[m:] for c, r in ech.items() if c >= m])[0]


def right_kernel(a: Sequence[Sequence[int]]) -> Mat:
    """Saturated basis of {x : A*x = 0}, as rows, in row HNF."""
    return left_kernel(mat_transpose(a))


# Trial division runs to this bound: a cofactor below its square with no
# factor up to its own square root is prime.
_TRIAL_LIMIT = 1000
# Miller-Rabin with the 13 prime bases up to 41 has no strong liar below
# this bound (Sorenson and Webster, Math. Comp. 86, 2017), so there it
# decides primality.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending ([] for 0 and +-1).

    Trial division by 2 and the odd numbers below _TRIAL_LIMIT (a
    composite one divides nothing left by then), then Pollard-Brent rho
    splits what is left until every part is proven prime by Miller-Rabin
    on _MR_BASES, which is deterministic below _MR_LIMIT (about 3.3e24).
    A part at or past that bound that no base proves composite raises
    PrimalityRangeError: no probable prime is returned.
    """
    n = abs(index(n))
    out = set()
    for p in chain([2], range(3, _TRIAL_LIMIT, 2)):
        if p * p > n:
            break
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if m < _TRIAL_LIMIT ** 2 or _is_prime(m):
            out.add(m)
        else:
            f = _rho_factor(m)
            parts += [f, m // f]
    return sorted(out)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on _MR_BASES for an odd n > 41: False when a base
    witnesses that n is composite (a proof), True when none does and n <
    _MR_LIMIT, else PrimalityRangeError."""
    s = ((n - 1) & -(n - 1)).bit_length() - 1
    odd = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise PrimalityRangeError(
            f"{n} passes Miller-Rabin on every base, past the deterministic bound {_MR_LIMIT}")
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of the composite n with no prime factor below 1000:
    Pollard's rho with Brent's cycle search and products of 128 differences
    per gcd (Brent, BIT 20, 1980), x -> x^2 + c from x = 2, c = 1, 2, ..."""
    for c in range(1, n):
        y, r, g, prod = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = gcd(prod, n)
                k += 128
            r *= 2
        if g == n:
            # The batch overshot: step from its start one difference at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
    raise ValueError(f"{n} is prime")


# ---------------------------------------------------------------------------
# Smith normal form

def _hnf_split(m: Mat, t: Mat) -> tuple[Mat, Mat]:
    """Row HNF of [M | T] (T unimodular: no row vanishes), split into (M', T')."""
    n = len(m[0])
    h = hnf_row([r + s for r, s in zip(m, t)])[0]
    return [r[:n] for r in h], [r[n:] for r in h]


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[list[int], Mat, Mat]:
    """Smith normal form: (divisors, U, V) with U, V unimodular and U*A*V = D.

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
    u = mat_identity(nrows)
    vt = mat_identity(ncols)
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
    return [m[i][i] for i in range(size)], u, mat_transpose(vt)


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
