"""Exact integer and rational linear algebra used throughout the package.

Matrices are lists of lists of Python ints (arbitrary precision) unless a
function explicitly works on numpy arrays.  numpy is used only where the
result is provably exact: float64 matrix products whose every intermediate
value stays below 2**53, and mod-p elimination on float64 residues, whose
moduli satisfy (p - 1)**2 * 128 < 2**53 so that every 128-term product-sum
is exact (checked: other moduli raise ValueError).

Exact dense elimination over Q has one kernel, _fraction_free: Bareiss's
fraction-free elimination on Python ints, in row echelon form for
rank_exact and det_bareiss and in Gauss-Jordan form for solve_rational,
rational_row_space_kernel and fraction_free_inverse, which return
Fractions (or a common denominator) only at the end.  The Hermite and Smith
forms, the symmetric inertia elimination and the mod-p _rref are separate
algorithms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import index
from typing import Sequence

import numpy as np

from .errors import VerificationError

Mat = list[list[int]]
Vec = list[int]

# The 20 largest primes below 2**23, the moduli of the float64 elimination.
MODP_PRIMES: tuple[int, ...] = (
    8388593, 8388587, 8388581, 8388571, 8388547,
    8388539, 8388473, 8388461, 8388451, 8388449,
    8388439, 8388427, 8388421, 8388409, 8388377,
    8388371, 8388319, 8388301, 8388287, 8388283,
)

_FLOAT_EXACT_LIMIT = 2**53


def mat_identity(n: int) -> Mat:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_transpose(a: Sequence[Sequence[int]]) -> Mat:
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Mat:
    """Exact matrix product of lists of rows or integer arrays, as a list of
    rows of Python ints (int_matmul on int_array operands)."""
    if len(a) == 0 or len(b) == 0:
        return []
    return int_matmul(int_array(a), int_array(b)).tolist()


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> Vec:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def vec_mat(v: Sequence[int], a: Sequence[Sequence[int]]) -> Vec:
    n = len(a[0])
    out = [0] * n
    for c, row in zip(v, a):
        if c:
            for j, x in enumerate(row):
                out[j] += c * x
    return out


def dot(v: Sequence[int], w: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(v, w))


# ---------------------------------------------------------------------------
# Hermite normal form

def hnf_row(a: Sequence[Sequence[int]], with_transform: bool = False):
    """Row-style Hermite normal form.

    Returns (H, pivots) or (H, pivots, U) with U unimodular, U*A = (H padded
    with zero rows).  H contains only the nonzero rows, pivots the pivot
    column of each row.  Pivot entries are positive and entries above each
    pivot are reduced into [0, pivot).
    """
    rows = [list(r) for r in a]
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
    if not a:
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


def saturate_row_span(rows: Sequence[Sequence[int]]) -> Mat:
    """Saturation of the row span: {x in Z^n : x in Q-span(rows)}, in row HNF.

    Only primes dividing the HNF pivot product can divide the index, so the
    p-adic densification loop runs over those primes alone.
    """
    h, pivots = hnf_row(rows)
    if not h:
        return []
    cand = 1
    for i, c in enumerate(pivots):
        cand *= h[i][c]
    primes = prime_factors(cand)
    if not all(map(_exact_modulus, primes)):
        # Beyond the mod-p kernel's range: the saturation is the integer
        # kernel of the integer kernel.
        ker = right_kernel(h)
        return right_kernel(ker) if ker else mat_identity(len(h[0]))
    for p in primes:
        while True:
            null = modp_kernel(mat_transpose(h), p)
            if null.shape[0] == 0:
                break
            new_rows = list(h)
            for cvec in null:
                combo = [0] * len(h[0])
                for ci, row in zip(cvec.tolist(), h):
                    if ci:
                        for j, x in enumerate(row):
                            combo[j] += ci * x
                if any(v % p for v in combo):
                    raise VerificationError("mod-p kernel did not lift to a divisible row")
                new_rows.append([v // p for v in combo])
            h, pivots = hnf_row(new_rows)
    return h


# ---------------------------------------------------------------------------
# Smith normal form

def smith_normal_form(a: Sequence[Sequence[int]], with_transform: bool = False):
    """Smith normal form.  Returns divisors, or (divisors, U, V) with U*A*V = D.

    Divisors are nonnegative, in divisibility order, padded with zeros up to
    min(nrows, ncols).
    """
    m = [list(r) for r in a]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    u = mat_identity(nrows) if with_transform else None
    v = mat_identity(ncols) if with_transform else None

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        if v is not None:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        m[dst] = [x - q * y for x, y in zip(m[dst], m[src])]
        if u is not None:
            u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in m:
            row[dst] -= q * row[src]
        if v is not None:
            for row in v:
                row[dst] -= q * row[src]

    t = 0
    size = min(nrows, ncols)
    while t < size:
        # Locate a smallest nonzero entry in the remaining block.
        piv = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = m[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        clean = False
        while not clean:
            clean = True
            for i in range(t + 1, nrows):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    add_row(t, i, q)
                    if m[i][t]:
                        swap_rows(t, i)
                        clean = False
            for j in range(t + 1, ncols):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    add_col(t, j, q)
                    if m[t][j]:
                        swap_cols(t, j)
                        clean = False
        # Ensure divisibility of the remaining block by the pivot.
        p = m[t][t]
        bad = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if m[i][j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, -1)
            continue
        t += 1

    divisors = [abs(m[i][i]) for i in range(size)]
    # Normalize signs in the transforms so U*A*V has nonnegative diagonal.
    if with_transform:
        for i in range(size):
            if m[i][i] < 0:
                u[i] = [-x for x in u[i]]
        return divisors, u, v
    return divisors


# ---------------------------------------------------------------------------
# Fraction-free elimination: rank, determinant, rational solve, kernel, inverse

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
    (anything else raises TypeError).
    """
    m = [list(map(index, r)) for r in a]
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


def rational_row_space_kernel(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right kernel of a rational matrix (rows): one vector per
    non-pivot column f of the reduced row echelon form, with 1 at f."""
    m, pivots, _ = _fraction_free(clear_denominators(rows)[0], reduce=True)
    if not m:
        return []
    den = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for fc in (c for c in range(len(m[0])) if c not in pivots):
        v = [Fraction(0)] * len(m[0])
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = Fraction(-m[i][fc], den)
        basis.append(v)
    return basis


def fraction_free_inverse(a):
    """(X, q) with A^-1 = X / q exactly, q > 0 and gcd(q, entries of X) = 1,
    or None when A is singular.  Gauss-Jordan on [A | I] leaves
    [D*I | D*A^-1] with D = +-det(A)."""
    n = len(a)
    if n == 0:
        return [], 1
    m, pivots, _ = _fraction_free([list(row) + [int(i == j) for j in range(n)]
                                   for i, row in enumerate(a)], reduce=True)
    if pivots != list(range(n)):
        return None
    d = m[n - 1][n - 1]
    g = gcd(d, *(x for row in m for x in row[n:]))
    if d < 0:
        g = -g
    return [[x // g for x in row[n:]] for row in m], d // g


# ---------------------------------------------------------------------------
# Characteristic polynomial, inertia

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


def inertia(a) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric integer
    matrix, exactly: Sylvester's law of inertia on a fraction-free symmetric
    elimination (Bareiss, Math. Comp. 1968).

    Each step pivots on a nonzero diagonal entry of the remaining block,
    swapping its row and column to the front.  When that diagonal is zero
    but some entry m_ij is not, the congruence e_i += e_j (on rows and
    columns) makes the diagonal entry 2 m_ij.  A remaining block of zeros
    counts as zero eigenvalues.  The remaining block is D_k times the Schur
    complement, where D_k is the k-th leading minor of the transformed
    matrix and the last pivot, so each division by it is exact, and the
    k-th diagonal entry of the congruent diagonal form has the sign of
    D_(k+1) * D_k.  Only Python ints are used.  Raises ValueError for a
    matrix that is not symmetric.
    """
    if len(a) == 0:
        return 0, 0, 0
    m = int_array(a).astype(object)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or np.any(m != m.T):
        raise ValueError("inertia requires a symmetric matrix")
    pos = neg = 0
    prev = 1
    while len(m):
        nz = np.flatnonzero(m.diagonal())
        if nz.size:
            i = int(nz[0])
        else:
            off = np.argwhere(m)
            if not len(off):
                break
            i, j = (int(x) for x in off[0])
            m[i] += m[j]
            m[:, i] += m[:, j]
        if i:
            m[[0, i]] = m[[i, 0]]
            m[:, [0, i]] = m[:, [i, 0]]
        pivot = m[0, 0]
        if (pivot > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        col = m[1:, 0]
        m = (m[1:, 1:] * pivot - np.outer(col, col)) // prev
        prev = pivot
    return pos, neg, len(m)


# ---------------------------------------------------------------------------
# Mod-p linear algebra: blocked elimination on float64 residues

# Column panel width.  Every product-sum below has at most _PANEL terms, each
# a residue times a value in [0, p], plus one residue: for an integer p with
# (p - 1)**2 * _PANEL < 2**53, i.e. p <= 2**23, that stays below 2**53, so
# float64 (and BLAS dgemm) computes it exactly.
_PANEL = 128


def _exact_modulus(p: int) -> bool:
    return p >= 2 and (p - 1) ** 2 * _PANEL < _FLOAT_EXACT_LIMIT


def _residues(blocks, p: int) -> np.ndarray:
    """The integer matrices in blocks, side by side, reduced mod p into one
    float64 array (written by the ufunc, with no integer copy).  Raises
    ValueError for a modulus outside the exact range of the elimination."""
    if not _exact_modulus(p):
        raise ValueError(f"modulus {p} is outside the exact float64 range")
    blocks = [int_array(b) for b in blocks]
    if any(b.ndim != 2 for b in blocks):
        raise ValueError("matrix expected")
    m = np.empty((len(blocks[0]), sum(b.shape[1] for b in blocks)))
    c = 0
    for b in blocks:
        np.mod(b, p, out=m[:, c:c + b.shape[1]], casting="unsafe")
        c += b.shape[1]
    return m


def _as_int64(m: np.ndarray) -> np.ndarray:
    """The integer-valued float64 array m as int64, converted in place a row
    chunk at a time (the returned array shares m's memory)."""
    out = m.view(np.int64)
    for s in range(0, len(m), _PANEL):
        out[s:s + _PANEL] = m[s:s + _PANEL]
    return out


def _cols(idx: list[int]):
    """Column index: a slice (so a view) when idx is a contiguous run."""
    if idx and idx[-1] - idx[0] == len(idx) - 1:
        return slice(idx[0], idx[-1] + 1)
    return np.array(idx, dtype=np.intp)


def _lower_inverse(low: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of the lower triangle (diagonal included, nonzero) of a
    square residue matrix, by forward substitution."""
    k = len(low)
    inv = np.zeros((k, k))
    for t in range(k):
        row = p - np.mod(low[t, :t] @ inv[:t], p)
        row[t] += 1
        inv[t] = np.mod(row * pow(int(low[t, t]), p - 2, p), p)
    return inv


def _eliminate_panel(m: np.ndarray, r: int, c0: int, c1: int, p: int,
                     pivots: list[int]) -> None:
    """Row echelon step for columns c0:c1 of m below row r, in place.

    The per-pivot loop runs on a copy of the panel and keeps, LU style, each
    pivot and the multipliers under it; the rows of m are swapped along.
    Panel entries are reduced only where they are read: a column before its
    pivot search, a row before it is scaled; each entry takes at most _PANEL
    updates in between.  The trailing columns then take one triangular solve
    for the new pivot rows and one matrix product for the rows under them.
    """
    w = m[r:, c0:c1].copy()
    local: list[int] = []
    for j in range(c1 - c0):
        t = len(local)
        if t == len(w):
            break
        col = w[t:, j]
        np.mod(col, p, out=col)
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        i = t + int(nz[0])
        if i != t:
            w[[t, i]] = w[[i, t]]
            m[[r + t, r + i]] = m[[r + i, r + t]]
        row = np.mod(w[t, j + 1:], p)
        row = np.mod(row * pow(int(w[t, j]), p - 2, p), p)
        w[t, j + 1:] = row
        below = t + 1 + np.flatnonzero(w[t + 1:, j])
        w[below, j + 1:] += np.outer(w[below, j], p - row)
        local.append(j)
    k = len(local)
    if k and c1 < m.shape[1]:
        low = w[:, local]
        top = m[r:r + k, c1:]
        top[:] = np.mod(_lower_inverse(low[:k], p) @ top, p)
        neg = p - top
        bottom = m[r + k:, c1:]
        for s in range(0, bottom.shape[1], _PANEL):
            blk = bottom[:, s:s + _PANEL]
            prod = low[k:] @ neg[:, s:s + _PANEL]
            prod += blk
            np.mod(prod, p, out=blk)
    panel = m[r:, c0:c1]
    panel[:] = 0
    for t, j in enumerate(local):
        panel[t, j] = 1
        panel[t, j + 1:] = w[t, j + 1:]
    pivots.extend(c0 + j for j in local)


def _back_reduce(m: np.ndarray, pivots: list[int], p: int) -> None:
    """Row echelon form (unit pivots) to reduced row echelon form, in place.

    Pivot rows are taken in blocks of _PANEL from the bottom up.  A block's
    non-pivot columns are solved against its unit upper triangular pivot
    minor, then cleared from the rows above with one product per column
    chunk.  Pivot columns become the identity.
    """
    rank = len(pivots)
    pivot_set = set(pivots)
    free = [c for c in range(m.shape[1]) if c not in pivot_set]
    for b0 in reversed(range(0, rank, _PANEL)):
        b1 = min(b0 + _PANEL, rank)
        pcols = _cols(pivots[b0:b1])
        rows = m[b0:b1]
        if free:
            fcols = _cols(free)
            # Reversing rows and columns makes the minor lower triangular.
            minor = rows[:, pcols][::-1, ::-1]
            x = np.mod(_lower_inverse(minor, p)[::-1, ::-1] @ rows[:, fcols], p)
            rows[:, fcols] = x
            coef = m[:b0, pcols]
            neg = p - x
            for s in range(0, len(free), _PANEL):
                chunk = _cols(free[s:s + _PANEL])
                prod = coef @ neg[:, s:s + _PANEL]
                prod += m[:b0, chunk]
                m[:b0, chunk] = np.mod(prod, p)
        m[:b1, pcols] = 0
        rows[:, pcols] = np.eye(b1 - b0)


def _rref(m: np.ndarray, p: int) -> list[int]:
    """Reduce the float64 residue matrix m to its reduced row echelon form
    mod p, in place; returns the pivot columns.

    Blocked elimination with delayed reduction (Dumas, Giorgi and Pernet,
    "FFLAS and FFPACK", ACM TOMS 2008): per-pivot work is confined to a
    panel of _PANEL columns, the rest is float64 matrix products reduced
    mod p after each product of at most _PANEL terms; _residues checks p.
    """
    pivots: list[int] = []
    for c0 in range(0, m.shape[1], _PANEL):
        if len(pivots) == len(m):
            break
        _eliminate_panel(m, len(pivots), c0, min(c0 + _PANEL, m.shape[1]), p, pivots)
    _back_reduce(m, pivots, p)
    return pivots


def modp_eliminate(a, p: int):
    """Reduced row echelon form of A mod p: (reduced, pivot_columns), with
    reduced an int64 array of A's shape whose rows past the rank are zero."""
    m = _residues([a], p)
    pivots = _rref(m, p)
    return _as_int64(m), pivots


def modp_rank(a, p: int) -> int:
    return len(modp_eliminate(a, p)[1])


def modp_kernel(a, p: int) -> np.ndarray:
    """Basis (rows) of the right kernel of A mod p."""
    m, pivots = modp_eliminate(a, p)
    pivot_set = set(pivots)
    free = [c for c in range(m.shape[1]) if c not in pivot_set]
    basis = np.zeros((len(free), m.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -m[:len(pivots), free].T % p
    return basis


def modp_solve_matrix(a, b, p: int):
    """Solve A*X = B mod p for square A; returns X or None if singular.

    Reduces [A | B]: A is invertible mod p exactly when the pivots are the
    columns of A, and then the reduced form is [I | X].
    """
    m = _residues([a, b], p)
    n = len(m)
    if _rref(m, p) != list(range(n)):
        return None
    return _as_int64(m)[:, n:]


def _inv_mod(a: int, m: int) -> tuple[int, int]:
    g, x, _ = _xgcd(a % m, m)
    return g, x % m


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def symmetric_residues(a: np.ndarray, m: int) -> np.ndarray:
    """The residues a in [0, m) moved to the symmetric range (-m/2, m/2]."""
    return np.where(2 * a > m, a - m, a)


def _crt_combine(acc: np.ndarray, mod: int, res: np.ndarray, p: int) -> np.ndarray:
    """The array congruent to acc (in [0, mod)) mod `mod` and to res (in
    [0, p)) mod p, with entries in [0, mod*p): int64 while mod*p < 2**62,
    Python ints beyond."""
    _g, inv = _inv_mod(mod % p, p)
    if mod * p >= _INT64_SAFE:
        acc, res = acc.astype(object), res.astype(object)
    return acc + (res - acc) % p * inv % p * mod


def crt_reconstruct_int_matrix(residue_fn, verify_fn, max_primes: int = 18):
    """Reconstruct an integer matrix from mod-p images, verifying exactly.

    residue_fn(p) returns the matrix mod p as a numpy array (or None to skip
    the prime).  After each new prime the symmetric-range CRT candidate, an
    integer array, is tested with verify_fn(candidate); the first verified
    candidate is returned.  Returns None if no candidate verifies.
    """
    acc, mod, last = None, 1, None
    for p in MODP_PRIMES[:max_primes]:
        res = residue_fn(p)
        if res is None:
            continue
        res = np.mod(res, p)
        acc = res if acc is None else _crt_combine(acc, mod, res, p)
        mod *= p
        cand = symmetric_residues(acc, mod)
        if last is not None and np.array_equal(cand, last):
            continue
        last = cand
        if verify_fn(cand):
            return cand
    return None


# ---------------------------------------------------------------------------
# Integer numpy arrays and certified pivot columns

_INT64_SAFE = 2**62


def int_array(a) -> np.ndarray:
    """An integer matrix as a numpy array: int64 when every entry is below
    2**62 in absolute value, Python ints (dtype object) otherwise."""
    arr = np.asarray(a)
    if arr.dtype.kind == "f" and not isinstance(a, np.ndarray):
        # numpy reads an int in [2**63, 2**64) next to small ints as float64.
        arr = np.array(a, dtype=object)
        if not all(isinstance(x, (int, np.integer)) for x in arr.flat):
            raise TypeError("integer matrix expected")
    if arr.dtype == object or arr.dtype.kind == "u":
        if not arr.size or max(abs(int(x)) for x in arr.flat) < _INT64_SAFE:
            return arr.astype(np.int64)
        return arr.astype(object)
    if arr.size == 0:
        return arr.astype(np.int64)
    if arr.dtype.kind != "i":
        raise TypeError(f"integer matrix expected, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _abs_max(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min())) if a.size else 0


def int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of integer arrays (numpy matmul broadcasting).

    float64 BLAS when every entry and every partial sum is below 2**53,
    int64 when all are below 2**62, Python ints (dtype object) otherwise;
    the result is int64 in the first two cases.
    """
    ma, mb = _abs_max(a), _abs_max(b)
    top, bound = max(ma, mb), ma * mb * max(a.shape[-1], 1)
    if top < _FLOAT_EXACT_LIMIT and bound < _FLOAT_EXACT_LIMIT:
        prod = a.astype(np.float64) @ b.astype(np.float64)
        return _as_int64(prod) if np.ndim(prod) else np.int64(prod)
    if top < _INT64_SAFE and bound < _INT64_SAFE:
        return a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)
    return a.astype(object) @ b.astype(object)


def _ratrecon(x: int, m: int, bound: int):
    """(a, b) with a/b = x mod m, |a| <= bound, 0 < b <= bound, or None."""
    r0, r1, s0, s1 = m, x % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _rational_matrix(residues: np.ndarray, m: int):
    """(den, N) with N/den = residues mod m entrywise and the entries of
    N/den in lowest terms below sqrt(m/2), or None when none exists."""
    bound = isqrt(m // 2)
    sym = symmetric_residues(residues, m)
    if _abs_max(sym) <= bound:
        return 1, sym
    fracs = {}
    den = 1
    for idx, x in np.ndenumerate(sym):
        if abs(int(x)) > bound:
            ab = _ratrecon(int(x), m, bound)
            if ab is None:
                return None
            fracs[idx] = ab
            den = lcm(den, ab[1])
    n = sym.astype(object) * den
    for idx, (num, b) in fracs.items():
        n[idx] = num * (den // b)
    return den, n


def _pivots_precede(a: list[int], b: list[int]) -> bool:
    """Whether pivot list a comes first: at the first difference a has the
    smaller column, or b has run out.  The exact pivot set precedes every
    mod-p pivot set that differs from it."""
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return len(a) > len(b)


def _certify_pivots(a: np.ndarray, pivots: list[int], den: int, n: np.ndarray,
                    block: int) -> bool:
    """Exact checks that pivots are the lexicographically first independent
    columns of A, given N with A[:, pivots] . N == den . A (pivot columns
    are independent by their rank mod p)."""
    if set(pivots) != {b * block + t for b in {c // block for c in pivots} for t in range(block)}:
        return False
    if any(n[i, c] != den for i, c in enumerate(pivots)):
        return False
    mask = np.arange(a.shape[1])[None, :] < np.array(pivots, dtype=np.int64)[:, None]
    if mask.size and np.any(n[mask] != 0):
        return False
    left = a[:, pivots]
    if _abs_max(a) * den >= _INT64_SAFE:
        a = a.astype(object)
    for s in range(0, a.shape[1], 64):
        if np.any(int_matmul(left, n[:, s:s + 64]) != a[:, s:s + 64] * den):
            return False
    return True


def _echelon_rows(a: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """Pivot columns and nonzero reduced rows of A mod p.  A is fed to the
    kernel 64 rows at a time below the rows kept, so at most rank + 64 rows
    are held: the realified matrices here are often of low rank."""
    ech, pivots = np.zeros((0, a.shape[1]), dtype=np.int64), []
    for s in range(0, len(a), 64):
        reduced, pivots = modp_eliminate(np.vstack([ech, a[s:s + 64]]), p)
        ech = reduced[:len(pivots)].copy()
        del reduced
    return pivots, ech


def certified_pivot_columns(a, block: int = 1) -> list[int]:
    """Lexicographically first maximal set of Q-independent columns of the
    integer matrix A, chosen mod p and certified exactly.

    Each prime gives a pivot set P and reduced rows E mod p; primes that
    agree on P are combined by CRT and rational reconstruction into N/den
    with A[:, P] . N == den . A, which is checked as an exact integer product
    together with the reduced-echelon support of N.  P must be a union of
    whole blocks of `block` consecutive columns.  Raises VerificationError
    when no prime certifies.
    """
    a = int_array(a)
    if a.ndim != 2:
        raise ValueError("matrix expected")
    best, acc, mod = None, None, 1
    for p in MODP_PRIMES:
        pivots, ech = _echelon_rows(a, p)
        if best is None or _pivots_precede(pivots, best):
            best, acc, mod = pivots, ech, p
        elif pivots != best:
            continue
        else:
            acc = _crt_combine(acc, mod, ech, p)
            mod *= p
        rat = _rational_matrix(acc, mod)
        if rat is not None and _certify_pivots(a, best, rat[0], int_array(rat[1]), block):
            return best
    raise VerificationError("no prime certified the pivot columns")


# ---------------------------------------------------------------------------
# Misc

def floor_sqrt_fraction(x: Fraction) -> int:
    """floor(sqrt(x)) for a nonnegative rational x."""
    if x < 0:
        raise ValueError("negative radicand")
    n, d = x.numerator, x.denominator
    return isqrt(n * d) // d
