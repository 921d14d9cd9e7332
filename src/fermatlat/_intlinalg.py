"""Exact integer and rational linear algebra used throughout the package:
the numpy kernels, and the pure-Python ones re-exported from _pylinalg.

The package splits its linear algebra along the numpy line.  _pylinalg
holds the kernels on lists of Python ints (mat_vec, vec_mat, dot,
mat_transpose, int_rows, the Hermite and Smith forms, the fraction-free
elimination _fraction_free behind rank_exact, det_bareiss and
solve_rational, charpoly) and imports no numpy, so the GIT tests run
without it.  This module re-exports each of them as the same object, so
la.X works for both halves.

numpy is used here only where the result is provably exact: float64 matrix
products whose every intermediate value stays below 2**53, and mod-p
elimination on float64 residues, whose moduli satisfy (p - 1)**2 * 128 <
2**53 so that every 128-term product-sum is exact (checked: other moduli
raise ValueError).  One float64 LAPACK inverse proposes integer candidates
for scaled_integer_inverse, which accepts one only by the exact product.
The modular Smith divisors, the symmetric inertia elimination, the mod-p
_rref, CRT reconstruction, scaled integer inverses and certified pivot
columns live here.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm, prod
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
    same_row_span,
    smith_normal_form,
    solve_rational,
    vec_mat,
)
from .errors import VerificationError

# The 20 largest primes below 2**23, the moduli of the float64 elimination.
MODP_PRIMES: tuple[int, ...] = (
    8388593, 8388587, 8388581, 8388571, 8388547,
    8388539, 8388473, 8388461, 8388451, 8388449,
    8388439, 8388427, 8388421, 8388409, 8388377,
    8388371, 8388319, 8388301, 8388287, 8388283,
)
# CRT reconstruction gives up after this many primes (a modulus of about 2**414).
_CRT_MAX_PRIMES = 18

_FLOAT_EXACT_LIMIT = 2**53


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Mat:
    """Exact matrix product of lists of rows or integer arrays, as a list of
    rows of Python ints (int_matmul on int_array operands)."""
    if len(a) == 0 or len(b) == 0:
        return []
    return int_matmul(int_array(a), int_array(b)).tolist()


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


def smith_divisors_mod(a, modulus: int) -> list[int]:
    """Smith divisors of a square integer matrix A with |det A| = modulus > 0,
    by elimination over Z/(modulus) (Domich, Kannan and Trotter, Math. Oper.
    Res. 12, 1987): the row lattice L of A contains modulus * Z^n, so every
    entry may be reduced mod the modulus (in int64 while products of two
    residues stay below 2**62) and none grows.  Euclidean row and column
    steps on a smallest nonzero residue leave a diagonal, and then L is the
    sum of (p_i Z + modulus Z) e_i: cyclic factors of order gcd(p_i,
    modulus), put in divisibility order by gcd/lcm exchanges.  Raises
    VerificationError when their orders do not multiply to the modulus.
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


def scaled_integer_inverse(a: np.ndarray, d: int):
    """The integer matrix X = d.A^{-1} of a square integer array A, proven
    by the exact product int_matmul(A, X) == d.I; None when A is singular
    or no candidate passes (d.A^{-1} is not integral).

    The first candidate is a float64 LAPACK inverse times d, rounded to
    integers (Wan, J. Symbolic Comput. 41, 2006).  It is used only if the
    inverse raised no LinAlgError and every entry is finite and below 2**53
    in absolute value, checked before the int64 cast, so nothing wraps; A
    past int64 (dtype object) or |d| >= 2**53 skips it.  Otherwise, or when
    the product disagrees, X comes from CRT reconstruction over
    modp_solve_matrix.  No result comes from the approximation: either way
    the exact product decides.  The float path holds no N x N copy of d.I.
    """
    n = len(a)

    def solves(x):
        prod = int_matmul(a, x)
        diag = prod.diagonal()
        return bool(np.all(diag == d)) and np.count_nonzero(prod) == np.count_nonzero(diag)

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
    eye = np.eye(n, dtype=np.int64 if abs(d) < _INT64_SAFE else object) * d
    return crt_reconstruct_int_matrix(lambda p: modp_solve_matrix(a, eye, p), solves)


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
