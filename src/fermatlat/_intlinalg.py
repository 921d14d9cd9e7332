"""Exact integer and rational linear algebra used throughout the package:
the numpy kernels, and the pure-Python ones re-exported from _pylinalg.

The package splits its linear algebra along the numpy line.  _pylinalg
holds the kernels on lists of Python ints (mat_vec, vec_mat, dot,
mat_transpose, int_rows, the Hermite and Smith forms, the fraction-free
elimination _fraction_free behind rank_exact, det_bareiss and
solve_rational, charpoly) and imports no numpy, so the GIT tests run
without it.  This module re-exports each of them as the same object, so
la.X works for both halves.

numpy is used here only where the result is provably exact: float32 and
float64 matrix products whose every intermediate value stays below 2**24
and 2**53, and mod-p arithmetic for moduli with (p - 1)**2 * 128 < 2**53
(checked: other moduli raise ValueError), so that every 128-term
product-sum of float64 residues is exact and every product of two int64
residues is below 2**46.  Two float64 LAPACK results propose integer
candidates that are accepted only by exact integer checks: an inverse,
for scaled_integer_inverse (the exact product, which also judges a
caller's own candidate), and eigenvectors, for inertia (the exact
congruence X^T.G.X must be strictly diagonally dominant).
The modular Smith divisors, the inertia certificate and the symmetric
elimination behind it, the one mod-p elimination _gauss_jordan (behind
modp_eliminate, modp_kernel, modp_det and modp_solve_matrix), scaled
integer inverses and certified pivot columns live here.  Each
certificate makes one cheap guess, checks it exactly, and otherwise runs
one exact kernel: certified_pivot_columns lifts the reduced echelon form
mod MODP_PRIMES[0] or else takes the pivots of _fraction_free, and
scaled_integer_inverse falls back to solve_rational.  CRT reconstruction
(crt_reconstruct_int_matrix over modp_solve_matrix) has no caller in the
package; bench/recorder.py still wraps both by name.
"""

from __future__ import annotations

from math import gcd, prod
from typing import Sequence

import numpy as np

from ._pylinalg import (  # noqa: F401  (re-exported: la.X reaches both halves)
    Mat,
    Vec,
    _fraction_free,
    charpoly,
    clear_denominators,
    det_bareiss,
    dot,
    floor_sqrt_fraction,
    hnf_row,
    int_rows,
    left_kernel,
    mat_identity,
    mat_transpose,
    mat_vec,
    prime_factors,
    rank_exact,
    right_kernel,
    smith_normal_form,
    solve_rational,
    vec_mat,
    xgcd,
)
from .errors import VerificationError

# The 20 largest primes below 2**23, the moduli of the mod-p elimination.
MODP_PRIMES: tuple[int, ...] = (
    8388593, 8388587, 8388581, 8388571, 8388547,
    8388539, 8388473, 8388461, 8388451, 8388449,
    8388439, 8388427, 8388421, 8388409, 8388377,
    8388371, 8388319, 8388301, 8388287, 8388283,
)
# CRT reconstruction gives up after this many primes (a modulus of about 2**414).
_CRT_MAX_PRIMES = 18

_FLOAT_EXACT_LIMIT = 2**53
_FLOAT32_EXACT_LIMIT = 2**24


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Mat:
    """Exact matrix product of lists of rows or integer arrays, as a list of
    rows of Python ints (int_matmul on int_array operands)."""
    if len(a) == 0 or len(b) == 0:
        return []
    return int_matmul(int_array(a), int_array(b)).tolist()


def saturate_row_span(rows: Sequence[Sequence[int]]) -> Mat:
    """Saturation of the row span: {x in Z^n : x in Q-span(rows)}, in row HNF:
    the integer kernel of the integer kernel of the row HNF (all of Z^n
    when that kernel is zero)."""
    h, _pivots = hnf_row(rows)
    if not h:
        return []
    ker = right_kernel(h)
    return right_kernel(ker) if ker else mat_identity(len(h[0]))


def smith_divisors_mod(a, modulus: int) -> list[int]:
    """Smith divisors of a square integer matrix A whose row lattice L
    contains modulus * Z^n (modulus > 0), i.e. modulus * A^-1 is integral,
    as when |det A| = modulus; by elimination over Z/(modulus) (Domich,
    Kannan and Trotter, Math. Oper. Res. 12, 1987).  As L contains
    modulus * Z^n, every entry may be reduced mod the modulus (in int64
    while products of two residues stay below 2**62) and none grows.
    Euclidean row and column steps on a smallest nonzero residue leave a
    diagonal, and then L is the sum of (p_i Z + modulus Z) e_i: cyclic
    factors of order gcd(p_i, modulus), put in divisibility order by
    gcd/lcm exchanges.  Their product is the index of L, which is |det A|.
    Raises VerificationError unless it equals the modulus, so a return
    proves |det A| = modulus.
    """
    n = len(a)
    m = int_array(a).reshape(n, n).astype(object) % modulus
    if modulus < 2**31:
        m = m.astype(np.int64)
    orders: list[int] = []
    while len(orders) < n:
        t = len(orders)
        block = np.where(m[t:, t:] == 0, modulus, m[t:, t:])
        i, j = divmod(int(np.argmin(block)), n - t)
        if block[i, j] == modulus:
            orders += [modulus] * (n - t)
            break
        m[[t, t + i]] = m[[t + i, t]]
        m[:, [t, t + j]] = m[:, [t + j, t]]
        p = m[t, t]
        m[t + 1:, t:] = (m[t + 1:, t:] - np.outer(m[t + 1:, t] // p, m[t, t:])) % modulus
        m[t:, t + 1:] = (m[t:, t + 1:] - np.outer(m[t:, t], m[t, t + 1:] // p)) % modulus
        if not (m[t + 1:, t].any() or m[t, t + 1:].any()):
            orders.append(gcd(int(p), modulus))
    for i in range(n):
        if orders[i] == 1:
            continue  # gcd(1, x) = 1: the exchanges leave every order as it is
        for j in range(i + 1, n):
            g = gcd(orders[i], orders[j])
            orders[i], orders[j] = g, orders[i] * orders[j] // g
    if prod(orders) != modulus:
        raise VerificationError("Smith divisors do not multiply to the modulus")
    return orders


# ---------------------------------------------------------------------------
# Inertia

def inertia(a) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric integer
    matrix, exactly.  Raises ValueError for a matrix that is not symmetric.

    An int64 matrix G with entries below 2**53 first tries a congruence
    certificate (_congruence_inertia); anything else, and any G it
    refuses, takes Sylvester's law of inertia on a fraction-free symmetric
    elimination (Bareiss, Math. Comp. 1968).

    Each step pivots on a nonzero diagonal entry of the remaining block,
    swapping its row and column to the front.  When that diagonal is zero
    but some entry m_ij is not, the congruence e_i += e_j (on rows and
    columns) makes the diagonal entry 2 m_ij.  A remaining block of zeros
    counts as zero eigenvalues.  The remaining block is D_k times the Schur
    complement, where D_k is the k-th leading minor of the transformed
    matrix and the last pivot, so each division by it is exact, and the
    k-th diagonal entry of the congruent diagonal form has the sign of
    D_(k+1) * D_k.  The elimination uses Python ints only.
    """
    if len(a) == 0:
        return 0, 0, 0
    m = int_array(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or np.any(m != m.T):
        raise ValueError("inertia requires a symmetric matrix")
    if m.dtype != object and _abs_max(m) < _FLOAT_EXACT_LIMIT:
        counts = _congruence_inertia(m)
        if counts is not None:
            return counts
    m = m.astype(object)
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


# Largest scale 2**k of the rounded eigenvectors: past it the candidate is
# not tried (a near-singular G needs one, and a singular G fails anyway).
_CONGRUENCE_MAX_SCALE = 2**30


def _congruence_inertia(g: np.ndarray):
    """Inertia of the nonsingular symmetric int64 matrix G (entries below
    2**53, so its float64 copy is exact) from a rounded congruence, or None.

    With G = V.diag(w).V^T from float64 eigh, X = rint(2**k V) for the
    first k with 2**k > 4 n (1 + max|w| / min|w|), and M = X^T.G.X is
    computed exactly (int_matmul).  M is accepted only if it is strictly
    diagonally dominant, 2|M_ii| > sum_j |M_ij|, tested on integers that
    cannot wrap.  Then the counts are those of the signs of M_ii:
    D + t(M - D), with D = diag M, stays strictly dominant, so nonsingular,
    for every t in [0, 1], and no eigenvalue crosses 0 on the way from D to
    M.  M nonsingular makes X nonsingular (det M = det(X)**2 det G), so
    Sylvester's law of inertia gives inertia(G) = inertia(M), and G has no
    zero eigenvalue.  Nothing rests on the float values: a wrong basis
    fails the test, and so does every singular G.  None on a LinAlgError,
    a non-finite value, a scale past _CONGRUENCE_MAX_SCALE or a failed test.
    """
    n = len(g)
    try:
        w, v = np.linalg.eigh(g.astype(np.float64))
    except np.linalg.LinAlgError:
        return None
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(v))):
        return None
    low = np.abs(w).min()
    if not low > 0:
        return None
    scale = 4 * n * (1 + np.abs(w).max() / low)
    if not scale < _CONGRUENCE_MAX_SCALE:
        return None
    x = np.rint(v * 2.0 ** int(scale).bit_length()).astype(np.int64)
    m = int_matmul(int_matmul(x.T, g), x)
    mag = np.abs(m)
    if mag.dtype != object and _abs_max(m) * n >= _INT64_SAFE:
        mag = mag.astype(object)
    diag = mag.diagonal()
    if not np.all(2 * diag > mag.sum(axis=1)):
        return None
    signs = m.diagonal() > 0
    return int(np.count_nonzero(signs)), n - int(np.count_nonzero(signs)), 0


# ---------------------------------------------------------------------------
# Mod-p linear algebra: Gauss-Jordan elimination on int64 residues

# Row and column block size of the float64 products below (_echelon_rows,
# and the row blocks of lattice_core and fermat_homology).  Each product-sum
# has at most _PANEL terms, each a residue times a value in [0, p], plus one
# residue: for an integer p with (p - 1)**2 * _PANEL < 2**53, i.e. p <=
# 2**23, that stays below 2**53, so float64 (and BLAS dgemm) computes it
# exactly.
_PANEL = 128
# Arrays below this many entries are reduced by _float_mod with one np.mod.
_SMALL_MOD = 2048


def _exact_modulus(p: int) -> bool:
    return p >= 2 and (p - 1) ** 2 * _PANEL < _FLOAT_EXACT_LIMIT


def _float_mod(x: np.ndarray, p: int, out=None) -> np.ndarray:
    """x mod p in [0, p) for an integer-valued float array x with -L + 2p
    <= x < L, L = 2**53 in float64 and 2**24 in float32.  An array below
    _SMALL_MOD entries takes one np.mod, exact on integer-valued floats,
    which costs less there than the several calls below.  A larger one
    avoids np.mod's per-entry cost (ten times this path's on a 64 x 486
    block): x - floor(x.(1/p)).p, then one +-p correction.  x.(1/p) is x/p
    to within |x/p|.2**-52 < 2/p, so the floor is off by at most one,
    floor(x.(1/p)).p lies in [x - 2p, x + 1] and is exact, and the
    difference lies in [-p, 2p) before the correction.  p is a Python int,
    so a float32 x stays float32 (numpy 1 and 2 alike); out may be x."""
    p = int(p)
    if x.size < _SMALL_MOD:
        return np.mod(x, p, out=out)
    t = np.floor(x * (1.0 / p))
    t *= p
    out = np.subtract(x, t, out=out)
    out[out < 0] += p
    out[out >= p] -= p
    return out


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


def column_index(idx: list[int]):
    """Column index: a slice (so a view) when idx is a contiguous run."""
    if idx and idx[-1] - idx[0] == len(idx) - 1:
        return slice(idx[0], idx[-1] + 1)
    return np.array(idx, dtype=np.intp)


def _gauss_jordan(m: np.ndarray, p: int) -> tuple[list[int], int]:
    """Reduce the int64 residue matrix m (entries in [0, p), p <= 2**23) to
    its reduced row echelon form mod p, in place.  Returns the pivot
    columns and, for a square m, det m mod p in [0, p).

    The next pivot column is the first with a nonzero residue at or below
    the pivot row: the column after the last pivot, or else the first one
    past it that any(axis=0) finds, so a run of zero columns costs one
    scan, not one step per column.  The first row with that nonzero
    residue is swapped up (negating the determinant) and scaled to a unit
    pivot (the determinant takes the pivot as a factor); one outer product
    and one % p clear the column in every other row where it is nonzero.
    Every product of two residues is below 2**46, so nothing wraps.
    """
    rows, cols = m.shape
    pivots: list[int] = []
    det, j = 1, 0
    while len(pivots) < rows and j < cols:
        t = len(pivots)
        if not m[t:, j].any():
            live = np.flatnonzero(m[t:, j:].any(axis=0))
            if not live.size:
                break
            j += int(live[0])
        i = t + int(np.flatnonzero(m[t:, j])[0])
        if i != t:
            m[[t, i]] = m[[i, t]]
            det = -det
        pivot = int(m[t, j])
        det = det * pivot % p
        row = m[t, j:] * pow(pivot, -1, p) % p
        col = m[:, j].copy()
        col[t] = 0
        rest = np.flatnonzero(col)
        m[rest, j:] = (m[rest, j:] - np.outer(col[rest], row)) % p
        m[t, j:] = row
        pivots.append(j)
        j += 1
    return pivots, det if len(pivots) == rows == cols else 0


def modp_eliminate(a, p: int):
    """Reduced row echelon form of A mod p: (reduced, pivot_columns), with
    reduced an int64 array of A's shape whose rows past the rank are zero."""
    m = _as_int64(_residues([a], p))
    return m, _gauss_jordan(m, p)[0]


def modp_kernel(a, p: int) -> np.ndarray:
    """Basis (rows) of the right kernel of A mod p."""
    m, pivots = modp_eliminate(a, p)
    pivot_set = set(pivots)
    free = [c for c in range(m.shape[1]) if c not in pivot_set]
    basis = np.zeros((len(free), m.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -m[:len(pivots), free].T % p
    return basis


def modp_det(a, p: int) -> int:
    """det A mod p, in [0, p), of a square integer matrix A, for a modulus
    in the exact range of the elimination (_gauss_jordan's determinant)."""
    m = _as_int64(_residues([a], p))
    if m.shape != (len(m), len(m)):
        raise ValueError("square matrix expected")
    return _gauss_jordan(m, p)[1]


def modp_solve_matrix(a, b, p: int):
    """Solve A*X = B mod p for square A; returns X or None if singular.

    Reduces [A | B]: A is invertible mod p exactly when the pivots are the
    columns of A, and then the reduced form is [I | X].
    """
    m = _as_int64(_residues([a, b], p))
    n = len(m)
    if _gauss_jordan(m, p)[0] != list(range(n)):
        return None
    return m[:, n:]


def symmetric_residues(a: np.ndarray, m: int) -> np.ndarray:
    """The residues a in [0, m) moved to the symmetric range (-m/2, m/2]."""
    return np.where(2 * a > m, a - m, a)


def _crt_combine(acc: np.ndarray, mod: int, res: np.ndarray, p: int) -> np.ndarray:
    """The array congruent to acc (in [0, mod)) mod `mod` and to res (in
    [0, p)) mod p, with entries in [0, mod*p): int64 while mod*p < 2**62,
    Python ints beyond."""
    inv = pow(mod % p, -1, p)
    if mod * p >= _INT64_SAFE:
        acc, res = acc.astype(object), res.astype(object)
    return acc + (res - acc) % p * inv % p * mod


def crt_reconstruct_int_matrix(residue_fn, verify_fn):
    """Reconstruct an integer matrix from mod-p images, verifying exactly.

    residue_fn(p) returns the matrix mod p as a numpy array (or None to skip
    the prime).  After each new prime the symmetric-range CRT candidate, an
    integer array, is tested with verify_fn(candidate); the first verified
    candidate is returned.  Returns None if no candidate verifies within
    the first _CRT_MAX_PRIMES primes.
    """
    acc, mod, last = None, 1, None
    for p in MODP_PRIMES[:_CRT_MAX_PRIMES]:
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


def scaled_integer_inverse(a: np.ndarray, d: int, candidate=None):
    """The integer matrix X = d.A^{-1} of a square integer array A, proven
    by the exact product int_matmul(A, X) == d.I, or by an exact rational
    solve; None only when A is singular or d.A^{-1} is not integral.

    The first candidate is the caller's, when it gives one: an integer
    array that the caller knows in closed form (lattice_core takes it from
    the lattice that A is the Gram of).  The next is a float64 LAPACK
    inverse times d, rounded to integers (Wan, J. Symbolic Comput. 41,
    2006).  It is used only if the inverse raised no LinAlgError and every
    entry is finite and below 2**53 in absolute value, checked before the
    int64 cast, so nothing wraps; A past int64 (dtype object) or |d| >=
    2**53 skips it.  Only the exact product accepts a candidate.  When
    none passes, solve_rational on [A | d.I] decides.  The product runs
    _PANEL rows of A at a time, in the dtype that _matmul_dtype picks once
    for A and X, so it holds no N x N product and no N x N copy of d.I, and
    one N x N copy of X (in that dtype, unless X has it already).
    """
    n = len(a)

    def solves(x):
        dtype = _matmul_dtype(a, x)
        x = x.astype(dtype, copy=False)
        for s in range(0, n, _PANEL):
            prod = a[s:s + _PANEL].astype(dtype) @ x
            diag = prod.diagonal(s)
            if not (np.all(diag == d) and np.count_nonzero(prod) == np.count_nonzero(diag)):
                return False
        return True

    if candidate is not None and candidate.shape == a.shape and solves(candidate):
        return candidate
    if a.dtype != object and abs(d) < _FLOAT_EXACT_LIMIT:
        try:
            x = np.linalg.inv(a.astype(np.float64))
        except np.linalg.LinAlgError:
            x = None
        if x is not None:
            x *= d
            np.rint(x, out=x)
            # False for NaN and infinity too: only finite entries below 2**53 pass.
            if np.all(np.abs(x) < _FLOAT_EXACT_LIMIT):
                x = _as_int64(x)
                if solves(x):
                    return x
    x = solve_rational(a.tolist(), [[d if i == j else 0 for j in range(n)] for i in range(n)])
    if x is None or any(v.denominator != 1 for row in x for v in row):
        return None
    return int_array([[v.numerator for v in row] for row in x])


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
    if arr.dtype == object or arr.dtype.kind == "u":
        if not all(isinstance(x, (int, np.integer)) for x in arr.flat):
            raise TypeError("integer matrix expected")
        if not arr.size or max(abs(int(x)) for x in arr.flat) < _INT64_SAFE:
            return arr.astype(np.int64)
        return arr.astype(object, copy=False)
    if arr.size == 0:
        return arr.astype(np.int64)
    if arr.dtype.kind != "i":
        raise TypeError(f"integer matrix expected, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def frozen_int_array(a) -> np.ndarray:
    """The integer matrix a as a read-only array in the narrowest signed
    dtype that holds every entry and its negative (dtype object where
    int_array keeps Python ints); a read-only array already in that form is
    returned as it is, so its holders share it.  Its negation cannot wrap,
    its sums and products can: widen it with int_array first."""
    arr = a if isinstance(a, np.ndarray) and a.dtype.kind == "i" else int_array(a)
    dtype = arr.dtype
    if dtype != object:
        top = _abs_max(arr)
        dtype = next((np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)
                      if np.iinfo(t).max >= top), np.dtype(object))
    if dtype == arr.dtype and not arr.flags.writeable:
        return arr
    out = arr.astype(dtype)
    out.flags.writeable = False
    return out


def _abs_max(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min())) if a.size else 0


# float32 BLAS streams half the bytes of float64, which pays on long
# products: the 128-row blocks of an 820 x 820 check take 8 ms against 23
# ms.  But the first long float32 product of a process maps OpenBLAS's
# sgemm kernels, about 0.2 MB of resident memory, so products of fewer
# multiply-adds than this stay in float64.
_FLOAT32_MIN_WORK = 2**24


def _matmul_dtype(a: np.ndarray, b: np.ndarray) -> np.dtype:
    """The dtype in which int_matmul multiplies the integer arrays a and b:
    float32 when every entry and every partial sum of a @ b is below 2**24
    and the product has at least _FLOAT32_MIN_WORK multiply-adds, else
    float64 when all are below 2**53, int64 when all are below 2**62, and
    object (Python ints) otherwise."""
    ma, mb = _abs_max(a), _abs_max(b)
    top, bound = max(ma, mb), ma * mb * max(a.shape[-1], 1)
    if (top < _FLOAT32_EXACT_LIMIT and bound < _FLOAT32_EXACT_LIMIT
            and a.size * (b.shape[-1] if b.ndim > 1 else 1) >= _FLOAT32_MIN_WORK):
        return np.dtype(np.float32)
    if top < _FLOAT_EXACT_LIMIT and bound < _FLOAT_EXACT_LIMIT:
        return np.dtype(np.float64)
    if top < _INT64_SAFE and bound < _INT64_SAFE:
        return np.dtype(np.int64)
    return np.dtype(object)


def int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of integer arrays (numpy matmul broadcasting).

    In the dtype of _matmul_dtype: float32 BLAS when every entry and every
    partial sum is below 2**24 (for a long product), float64 BLAS below
    2**53, int64 below 2**62, Python ints (dtype object) otherwise.  Every
    integer below a float type's limit is exact in it, so the BLAS sums
    are exact; the result is int64 in the first three cases.
    """
    dtype = _matmul_dtype(a, b)
    if dtype == object:
        return a.astype(object) @ b.astype(object)
    prod = a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
    if not np.ndim(prod):
        return np.int64(prod)
    return _as_int64(prod) if dtype == np.float64 else prod.astype(np.int64, copy=False)


def _certify_pivots(a: np.ndarray, pivots: list[int], n: np.ndarray) -> bool:
    """Exact checks that pivots are the lexicographically first independent
    columns of A, given N with A[:, pivots] . N == A (pivot columns are
    independent by their rank mod p)."""
    if any(n[i, c] != 1 for i, c in enumerate(pivots)):
        return False
    mask = np.arange(a.shape[1])[None, :] < np.array(pivots, dtype=np.int64)[:, None]
    if mask.size and np.any(n[mask] != 0):
        return False
    left = a[:, pivots]
    for s in range(0, a.shape[1], 64):
        if np.any(int_matmul(left, n[:, s:s + 64]) != a[:, s:s + 64]):
            return False
    return True


def _minus_pivot_combination(x: np.ndarray, rows: np.ndarray, cols: list[int],
                             p: int) -> np.ndarray:
    """x - x[:, cols].rows for float64 residue arrays, as a new array that is
    not reduced mod p after the last product.  Each product has at most
    _PANEL terms of a residue times p - residue, so every value stays an
    exact integer below 2**53."""
    coef, neg = x[:, cols], p - rows
    for t in range(0, len(cols), _PANEL):
        if t:
            x = _float_mod(x, p)
        x = x + coef[:, t:t + _PANEL] @ neg[t:t + _PANEL]
    return x


def _divisible(x: np.ndarray, p: int) -> bool:
    """Whether p divides every entry of the integer-valued float64 array x
    (entries below 2**53), without np.mod's cost.  Where p | x, x / p is an
    integer q, computed exactly, and q * p = x exactly; elsewhere
    rint(x / p) * p is a multiple of p, exact below 2**53 and at least 2**53
    above, so it is not x."""
    return bool(np.array_equal(np.rint(x / p) * p, x))


def _echelon_rows(a: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """Pivot columns and nonzero reduced rows of A mod p.

    A is read 64 rows at a time, so at most rank + 64 rows are held: the
    realified matrices here are often of low rank.  Each chunk C is reduced
    against the kept rows E with pivots P, C' = C - C[:, P].E mod p, which
    vanishes on P.  A chunk with C' = 0 lies in the row span of E and is
    skipped.  Otherwise C' alone is brought to its reduced form R, with
    pivots Q disjoint from P, and E to E' = E - E[:, Q].R.  The rows of E'
    and R, sorted by pivot, are in reduced row echelon form: each pivot
    column is a unit vector (E'[:, P] = I, E'[:, Q] = 0, R[:, P] = 0), and a
    row of E' still vanishes left of its pivot, as R's rows vanish left of
    theirs.  Their span is that of [E; C], and the reduced row echelon form
    of a span mod p is unique, so the pivots and rows are those of
    eliminating A whole.
    """
    ech, pivots = np.zeros((0, a.shape[1])), []
    for s in range(0, len(a), 64):
        chunk = _residues([a[s:s + 64]], p)
        if pivots:
            chunk = _minus_pivot_combination(chunk, ech, pivots, p)
            if _divisible(chunk, p):
                continue
            _float_mod(chunk, p, out=chunk)
        elif not chunk.any():
            continue
        reduced, new = modp_eliminate(_as_int64(chunk), p)
        rows = reduced[:len(new)].astype(np.float64)
        if pivots:
            ech = _minus_pivot_combination(ech, rows, new, p)
            _float_mod(ech, p, out=ech)
        order = np.argsort(pivots + new, kind="stable")
        ech = np.vstack([ech, rows])[order]
        pivots = sorted(pivots + new)
    return pivots, _as_int64(ech)


def certified_pivot_columns(a, block: int = 1) -> list[int]:
    """Lexicographically first maximal set of Q-independent columns of the
    integer matrix A, chosen mod one prime and certified exactly, else
    found by the fraction-free elimination.

    The prime p = MODP_PRIMES[0] gives a pivot set P and reduced rows E
    mod p.  E lifted to symmetric residues is N, accepted by the exact
    product A[:, P] . N == A together with the reduced-echelon support of
    N.  When N fails (p divides a minor of A, or the reduced row echelon
    form of A is not integral), P is the pivot set of _fraction_free(A),
    Bareiss's elimination over Q.  P must be a union of whole blocks of
    `block` consecutive columns: VerificationError otherwise.
    """
    a = int_array(a)
    if a.ndim != 2:
        raise ValueError("matrix expected")
    p = MODP_PRIMES[0]
    pivots, ech = _echelon_rows(a, p)
    if not _certify_pivots(a, pivots, symmetric_residues(ech, p)):
        pivots = _fraction_free(a)[1]
    if set(pivots) != {b * block + t for b in {c // block for c in pivots} for t in range(block)}:
        raise VerificationError("the pivot columns are not whole blocks")
    return pivots
