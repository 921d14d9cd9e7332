"""Milnor and primitive homology lattices of Fermat hypersurfaces.

Constructs the rank (d-1)^(n+1) module carried by the affine Fermat variety
with its group-ring-valued pairing, the nondegenerate primitive quotient with
its symmetry action, and the free resolution connecting consecutive
dimensions.

The Milnor module Z[mu_d^(n+1)]/(sum_j u_i^j) is the (n+1)-fold tensor
power of Z[u]/(1 + u + ... + u^(d-1)) (Pham, Bull. SMF 1965; Sebastiani and
Thom, Invent. Math. 1971).  A vector on its monomial basis {0..d-2}^(n+1)
is an array with one axis per coordinate, and multiplication by u_i^e acts
on axis i alone by the (d-1) x (d-1) matrix U^e.  One fold applies it,
x.U^e or U^e.x (_times_u), and _axis_check checks it on both sides.  The
radical's invariance check, the symmetry actions and the monomial
coordinates run that fold; the orbit sums, the connecting maps and the
Seifert inverse read the powers U^e that it folds from the identity
(_u_powers).  The Gram is the Seifert form V_1 x ... x V_1 plus (-1)^n
its transpose, and its radical is the set of vectors fixed by the
monodromy u_0.  Its basis K comes from the u_0-orbit sums of the first r
basis vectors, one r x r float64 inverse times the rest of the sums,
proven exactly by a proof whose count of the radical's dimension is the
trace of the average of the powers of u_0 (_certified_radical).
The same factorization gives d times the inverse of the primitive Gram in
closed form, the candidate of the cyclic-discriminant certificate
(_seifert_inverse).  Kronecker products are broadcast products (_kron).
"""

from __future__ import annotations

import math
import os
from collections import Counter
from functools import lru_cache, partial, reduce
from itertools import product
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from . import _intlinalg as la
from .exact_algebra import GroupRingElement
from .errors import ResourceBoundError, VerificationError
from .hodge_characters import rank_formula
from .lattice_core import ANTISYMMETRIC, SYMMETRIC, IntegerLattice, radical_quotient

SIZE_BOUND_ENV = "FERMATLAT_SIZE_BOUND"
DEFAULT_SIZE_BOUND = 4096


def size_bound() -> int:
    return int(os.environ.get(SIZE_BOUND_ENV, DEFAULT_SIZE_BOUND))


def parity_sign(n: int) -> int:
    return -1 if (n * (n + 1) // 2) % 2 else 1


# ---------------------------------------------------------------------------
# Exponent bookkeeping

def milnor_basis(d: int, n: int) -> list[tuple[int, ...]]:
    """Monomial exponents in {0..d-2}^(n+1), lexicographic."""
    return list(product(range(d - 1), repeat=n + 1))


def class_rep(exps: Sequence[int], d: int) -> tuple[int, ...]:
    """Canonical representative modulo the diagonal: first entry zero."""
    s = exps[0] % d
    return tuple((e - s) % d for e in exps)


def _times_u(x: np.ndarray, axis: int, e: int, d: int, left: bool = False) -> np.ndarray:
    """u^e, 0 <= e < d, on one axis of coefficient arrays on 1, u, ...,
    u^(d-2): x.U^e, or U^e.x with left, for the (d-1) x (d-1) matrix U^e
    whose row j holds the coordinates of u^(j+e), u^(d-1) = -(1 + u + ...
    + u^(d-2)).  On the right slot k is slot k-e (mod d) of x, zero at k =
    e-1, minus slot d-1-e: an entry at most doubles.  On the left slot j is
    slot j+e (mod d) of x, and slot d-1-e is minus the sum of x's slots:
    an entry grows at most (d-1)-fold.  One slice copy and one subtraction
    or sum, written into an array of x's dtype and layout.  Negation is a
    subtraction from 0: numpy 2.4.6's np.negative with out= writes zeros
    past the first entry of an int64 input at a stride of 8 entries (a
    column of the identity at d = 9), which _axis_check refuses."""
    out = np.empty_like(x)
    src, dst = np.moveaxis(x, axis, 0), np.moveaxis(out, axis, 0)
    if not e:
        dst[...] = src
    elif left:
        dst[:d - 1 - e] = src[e:]
        dst[d - e:] = src[:e - 1]
        total = dst[d - 1 - e]
        np.subtract(0, np.sum(src, axis=0, dtype=x.dtype, out=total), out=total)
    else:
        last = src[d - 1 - e]
        np.subtract(src[:d - 1 - e], last, out=dst[e:])
        np.subtract(src[d - e:], last, out=dst[:e - 1])
        np.subtract(0, last, out=dst[e - 1])
    return out


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of 2-d arrays, as one broadcast product and a reshape
    (np.kron pays for expand_dims and concatenate on every call).  Its
    inner loop runs along a row of b, so it is fastest with b the wide
    factor."""
    return np.multiply(a[:, None, :, None], b[None, :, None, :], order="C").reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _kron_power(m: np.ndarray, k: int) -> np.ndarray:
    """m x ... x m, k >= 0 factors (the 1 x 1 one for k = 0), built from the
    right so that the power so far is the wide factor of each _kron: 20 to
    50 times faster than from the left at Milnor rank 256 to 2048."""
    out = np.ones((1, 1), m.dtype)
    for _ in range(k):
        out = _kron(m, out)
    return out


def _u_powers(d: int) -> list[np.ndarray]:
    """U^0, ..., U^(d-1): row j of U^e holds the coordinates of u^(j+e)."""
    return [_times_u(np.eye(d - 1, dtype=np.int64), 1, e, d) for e in range(d)]


# ---------------------------------------------------------------------------
# Star elements

@lru_cache(maxsize=None)
def star_halves(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, B), the coefficients of prod (1 - u_i) and prod (1 - u_i^(-1)) in
    Z[mu_d^(n+1)] as read-only arrays with one axis per u_i: the (n+1)-fold
    outer powers of the axis [1, -1, 0, ..., 0] and of its reversal."""
    axis = np.array([1, -1] + [0] * (d - 2))
    return tuple(la.frozen_int_array(reduce(np.multiply.outer, [v] * (n + 1)))
                 for v in (axis, axis[-np.arange(d) % d]))


def monomial_pairing(d: int, n: int, K: Sequence[int], L: Sequence[int]) -> int:
    """Intersection pairing of the monomial classes u^K, u^L in the primitive
    lattice: the Milnor star element at K - L, taken modulo the diagonal
    (u_0 = (u_1...u_{n+1})^(-1) there)."""
    a, b = star_halves(d, n)
    e = class_rep([k - l for k, l in zip(K, L)], d)[1:]
    return parity_sign(n) * int(a[e] + (-1) ** n * b[e])


# ---------------------------------------------------------------------------
# The Milnor module

class MilnorModule:
    """Middle homology of the affine Fermat variety, on the monomial basis."""

    def __init__(self, d: int, n: int, basis: list[tuple[int, ...]], lattice: IntegerLattice):
        self.d = d
        self.n = n
        self.basis = basis
        self.lattice = lattice

    @property
    def gram(self):
        return self.lattice.gram


def build_milnor(d: int, n: int) -> MilnorModule:
    """Milnor lattice of rank (d-1)^(n+1).  Its Gram takes the star element
    (1 - bar(u_1...u_{n+1})) prod (1 - u_i) = prod (1 - u_i) + (-1)^n prod
    (1 - u_i^(-1)) at K - L: G = sign * (V + (-1)^n V^T) for the Seifert
    form V, the Kronecker power of V_1 (Sebastiani and Thom, Invent. Math.
    1971)."""
    if d < 3 or n < 0:
        raise ValueError("need d >= 3 and n >= 0")
    rank = (d - 1) ** (n + 1)
    if rank > size_bound():
        raise ResourceBoundError(
            f"(d-1)^(n+1) = {rank} exceeds the size bound {size_bound()}")
    v1 = _seifert_axis(d)
    # V^T is the power of V_1^T, so no N x N transpose is read.  Off the
    # diagonal at most one of V and V^T is nonzero: int8 holds G, written
    # over V in C order (rows are read whole).
    v = _kron_power(v1, n + 1)
    gram = (np.add if n % 2 == 0 else np.subtract)(v, _kron_power(v1.T, n + 1), out=v)
    if parity_sign(n) < 0:
        np.negative(gram, out=gram)
    gram.flags.writeable = False
    lattice = IntegerLattice(gram, SYMMETRIC if n % 2 == 0 else ANTISYMMETRIC,
                             label=f"milnor(d={d},n={n})")
    return MilnorModule(d, n, milnor_basis(d, n), lattice)


def _seifert_axis(d: int) -> np.ndarray:
    """V_1 = I minus the subdiagonal of ones: the axis of star_halves at j - k."""
    return star_halves(d, 0)[0][(np.arange(d - 1)[:, None] - np.arange(d - 1)) % d]


# ---------------------------------------------------------------------------
# Resolution connecting maps

@lru_cache(maxsize=None)
def connecting_element(d: int, k: int) -> GroupRingElement:
    """(1 - v_k) * sum_{0 <= j <= l <= d-2} u_{k+1}^j v_k^l in Z[mu_d^(k+1)],
    v_k = u_1...u_k."""
    terms = Counter((l,) * k + (j,) for l in range(d - 1) for j in range(l + 1))
    v = GroupRingElement.monomial(d, k + 1, [1] * k + [0])
    return (GroupRingElement.one(d, k + 1) - v) * GroupRingElement(d, k + 1, terms)


def connecting_map(d: int, k: int) -> la.Mat:
    """Matrix of R_k -> R_{k+1} on monomial bases; rows are images of basis vectors.

    u^K maps to c.u^(K,0), c the connecting element, so the matrix is the
    sum over the terms c_t u^e of c of c_t U^(e_1) x ... x U^(e_k) x (row 0
    of U^(e_(k+1))), Kronecker products in the lexicographic basis order.
    """
    size = (d - 1) ** (k + 1)
    if size > size_bound():
        raise ResourceBoundError(
            f"(d-1)^(k+1) = {size} exceeds the size bound {size_bound()}")
    powers = _u_powers(d)
    out = np.zeros(((d - 1) ** k, size), dtype=np.int64)
    for exps, c in connecting_element(d, k).coeffs.items():
        out += c * reduce(_kron, [powers[e] for e in exps[:-1]] + [powers[exps[-1]][:1]])
    return out.tolist()


# ---------------------------------------------------------------------------
# The primitive Fermat lattice

class PrimitiveFermatLattice:
    """Primitive middle homology with pairing, monomial images, and symmetry
    action: read-only integer arrays, like lattice.gram."""

    def __init__(self, d: int, n: int, lattice: IntegerLattice,
                 monomial_images: dict[tuple[int, ...], np.ndarray], projection: np.ndarray,
                 milnor: MilnorModule):
        self.d = d
        self.n = n
        self.lattice = lattice
        self.monomial_images = monomial_images
        self.projection = projection
        self.milnor = milnor

    @property
    def actions(self) -> Mapping[str, np.ndarray]:
        """The read-only mapping of _primitive_actions(d, n), built on first
        read and shared by every build_primitive(d, n)."""
        return _primitive_actions(self.d, self.n)

    def class_image(self, K: Sequence[int]) -> list[int]:
        """Image in the primitive lattice of the monomial class u^K,
        K in (Z/d)^(n+2) taken modulo the diagonal."""
        unit = np.eye(1, self.d - 1, dtype=np.int64)
        rows = [_times_u(unit, 1, e, self.d)[0] for e in class_rep(K, self.d)[1:]]
        return la.vec_mat(reduce(np.multiply.outer, rows).ravel().tolist(), self.projection)


def build_primitive(d: int, n: int) -> PrimitiveFermatLattice:
    """Radical quotient of the Milnor lattice with its symmetry action.

    The deterministic construction is cached per (d, n).  Every call
    returns new lattice, module and dict objects over the cached read-only
    arrays, which all calls share and no caller can write to.
    """
    prim = _build_primitive_cached(d, n)
    lattice, milnor = prim.lattice, prim.milnor
    module = MilnorModule(d, n, list(milnor.basis), milnor.lattice.relabel(milnor.lattice.label))
    return PrimitiveFermatLattice(d, n, lattice.relabel(lattice.label), dict(prim.monomial_images),
                                  prim.projection, module)


@lru_cache(maxsize=None)
def _build_primitive_cached(d: int, n: int) -> PrimitiveFermatLattice:
    return _build_primitive(d, n)


def _build_primitive(d: int, n: int) -> PrimitiveFermatLattice:
    milnor = build_milnor(d, n)
    # _certified_radical proves its K is the radical's row HNF with pivots
    # 0 ... r-1, so radical_quotient takes it unchecked.  No reference to K
    # is kept here, so radical_quotient frees it once it has narrowed it.
    # At n = 0, r = 0: K has no rows, and its proof shows G nondegenerate.
    r = len(milnor.basis) - rank_formula(d, n)
    quotient, projection, _ = radical_quotient(
        milnor.lattice, _certified_radical(d, n, r), range(r))
    quotient = quotient.relabel(f"primitive(d={d},n={n})")
    quotient._scaled_inverse = (d, partial(_seifert_inverse, d, n, projection))
    return PrimitiveFermatLattice(d, n, quotient, dict(zip(milnor.basis, projection)),
                                  projection, milnor)


def _seifert_inverse(d: int, n: int, projection: np.ndarray) -> Optional[np.ndarray]:
    """X = d.G_q^(-1) for the primitive Gram G_q, in closed form from the
    Seifert form, as a candidate: None unless every entry is below 2**24.
    It is computed in float32 and proven by nothing here;
    la.scaled_integer_inverse accepts it only by the exact product
    G_q.X == d.I, and otherwise runs its LAPACK candidate and then the
    exact solve.

    Let sigma = parity_sign(n), A = U^(d-1), V_1^(-T) the upper triangular
    matrix of ones, C_e = V_1^(-T).A^e, M_0 = A x ... x A, K = (I_r | B)
    the radical of _certified_radical and P = (-B; I_q) the projection.
    Then X = -(-1)^n.sigma.P^T.Z.P for Z = sum_{e=1}^{d-1} e.C_e^(x(n+1)),
    by facts the build proves:
    (1) G = sigma.V.(I - M_0^T) (_certified_radical (a)) and G^T =
        (-1)^n.G, so G = (-1)^n.sigma.(I - M_0).V^T.
    (2) M_0^d = I, from U^d = I (_axis_check), so Y = sum_e e.M_0^e has
        (I - M_0).Y = W - d.I for W = M_0^0 + ... + M_0^(d-1).
    (3) V^(-T).M_0^e = C_e^(x(n+1)), so G.Z' = d.I - W for Z' =
        -(-1)^n.sigma.V^(-T).Y = -(-1)^n.sigma.Z.
    (4) W.M_0 = W puts the rows of W in the radical, and K.P = 0, so W.P = 0.
    (5) P.G_q.P^T = G and S.P = I for the section S = (0 | I_q) give
        G_q.(P^T.Z'.P) = S.G.Z'.P = d.S.P - S.W.P = d.I.
    Z[(i, a), (j, b)] = sum_e T_e[i, j].C_e[a, b] with T_e = e.C_e^(x n).
    Neither Z nor Z.P is held: the rows (i, a) of Z are formed for a
    block of i at a time, about la._PANEL rows, by one product of the
    block's rows of the stacked T_e by the stacked C_e.  The block's rows
    of Z.P follow, and go straight into X = P^T.(Z.P): those of index
    below r times -B^T, la._PANEL rows of X at a time, the others added
    in place.  X, q x q, is the only large array.  Every product is of
    integers, so a float32 partial sum is an integer; past 2**24 it can
    round, and X then fails the exact product (or the bound below).  At n
    = 0 none of this is needed: X is (d-1) x (d-1), exact in integers from
    _seifert_inverse_axis, which forms no power of U and no stack of C_e.
    """
    if n == 0:
        return _seifert_inverse_axis(d)
    m, k = d - 1, (d - 1) ** n
    powers = _u_powers(d)
    upper = np.triu(np.ones((m, m), dtype=np.int64))
    c = np.stack([upper @ powers[-e % d] for e in range(1, d)]).astype(np.float32)
    t = (-(-1) ** n * parity_sign(n) * np.arange(1, d, dtype=np.float32)).reshape(m, 1, 1)
    for _ in range(n):
        t = (t[:, :, None, :, None] * c[:, None, :, None, :]).reshape(m, len(t[0]) * m, -1)
    r = len(projection) - projection.shape[1]
    neg_b = projection[:r].astype(np.float32)
    x = np.zeros((k * m - r,) * 2, dtype=np.float32)
    panel, step = la._PANEL, max(1, la._PANEL // m)
    for i in range(0, k, step):
        rows = min(step, k - i)
        z = (t[:, i:i + rows].reshape(m, rows * k).T @ c.reshape(m, m * m)).reshape(rows, k, m, m)
        z = z.transpose(0, 2, 1, 3).reshape(rows * m, k * m)
        zp = z[:, :r] @ neg_b
        zp += z[:, r:]
        lo, hi = i * m, (i + rows) * m
        if lo < r:
            b, head = neg_b[lo:hi], zp[:r - lo]
            for s in range(0, len(x), panel):
                x[s:s + panel] += b[:, s:s + panel].T @ head
        if hi > r:
            x[max(lo - r, 0):hi - r] += zp[max(r - lo, 0):]
    # NaN fails; np.maximum keeps it.
    top = np.maximum(x.max(initial=0), -x.min(initial=0))
    if not top < 2 ** 24:
        return None
    return x.astype(np.min_scalar_type(-int(top) - 1))


def _seifert_inverse_axis(d: int) -> np.ndarray:
    """_seifert_inverse at n = 0, exactly and in O(d^2): X = -Z, Z =
    V_1^(-T).W (r = 0, P = I, sigma = 1) for W = sum_e e.A^e = sum_f
    (d-f).U^f, f = 1, ..., d-1.  Row j of U^f is u^(j+f) on 1, ..., u^(d-2):
    a one at (j+f) mod d, or minus all ones when that is d-1, which happens
    for f = d-1-j.  So W[j, c] = d - ((c-j) mod d) for c != j, minus j+1
    everywhere, and row i of V_1^(-T).W sums rows i, ..., d-2 of W.  No
    power of U is formed."""
    j = np.arange(d - 1)
    w = (j - j[:, None]) % d
    np.subtract(d, w, out=w)
    w[j, j] = 0
    w -= j[:, None] + 1
    x = np.cumsum(w[::-1], axis=0)[::-1]
    np.negative(x, out=x)
    return x.astype(np.min_scalar_type(-la._abs_max(x) - 1))


def _certified_radical(d: int, n: int, r: int) -> np.ndarray:
    """The radical {x : x.G = 0} of the Milnor Gram as its row HNF K, r x N
    with the identity on its first r columns (no rows at n = 0);
    VerificationError when a step of this proof fails.

    A = U^(d-1) is the matrix of u^(-1) on one axis, and M_0 = A x ... x A
    that of u_0.
    (a) Nullity_Q G = _character_count(d, n), by the per-axis checks of
        _axis_check.  V_1.A^T = -V_1^T gives G = sign * V.(I - M_0^T) with
        V unitriangular, so the nullity of G is dim Fix(M_0).  U is the
        companion matrix of 1 + u + ... + u^(d-1), so M_0^d = I and tr(A^e)
        = tr(U^(d-e)) is d-1 at e = 0 and -1 at e = 1, ..., d-1.  So
        (1/d) sum_e M_0^e is a projection onto Fix(M_0), and its trace,
        the dimension, is (1/d) sum_e tr(A^e)^(n+1) = ((d-1)^(n+1) +
        (-1)^(n+1) (d-1))/d.
    (b) K.G = 0: G^T = +-G, so x.G = 0 iff x.(I - M_0).V^T = 0 iff
        x.M_0 = x, checked by _times_u folding every coordinate axis of K
        by A on the right (e = d-1, a fold _axis_check checks).
    (c) K has r independent rows with the identity on r columns, so c.K is
        integral only for integral c: a saturated sublattice of rank r.
    With r = the count, K is a Z-basis of the radical and, with its identity
    pivot minor, its unique row HNF.  r = N - rank_formula(d, n) is checked.
    The proof does not depend on where K comes from; K is the u_0-orbit-sum
    candidate (_orbit_candidate), and a missing candidate, or one that fails
    (b) or (c), raises with the name of the check.
    """
    _axis_check(d)
    count = _character_count(d, n)
    if count != r:
        raise VerificationError(f"the radical has dimension {count}, expected {r} rows (count)")
    k = _orbit_candidate(d, n, r)
    refusal = ("the u_0-orbit sums give no integral candidate (orbit candidate)" if k is None
               else _radical_refusal(k, d, n, r))
    if refusal:
        raise VerificationError(refusal)
    return k


def _radical_refusal(k: np.ndarray, d: int, n: int, r: int) -> Optional[str]:
    """Which check of _certified_radical the candidate K fails (the count of
    its rows, (c) or (b)), or None when it passes them all."""
    if len(k) != r:
        return f"{len(k)} radical rows, expected {r} (count)"
    if not np.array_equal(k[:, :r], np.eye(r, dtype=k.dtype)):
        return "the radical rows do not start with the identity (pivot minor)"
    # x.M_0 folds every coordinate axis by u^(d-1) = u^(-1) on the right;
    # each fold at most doubles an entry.
    x = _widened(k, 2 ** (n + 1)).reshape((r,) + (d - 1,) * (n + 1))
    if not np.array_equal(reduce(lambda y, i: _times_u(y, i, d - 1, d), range(1, n + 2), x), x):
        return "a radical row is not fixed by u_0 (invariance)"
    return None


def _character_count(d: int, n: int) -> int:
    """The nullity of the Milnor Gram by _certified_radical (a), (1/d) sum_e
    tr(A^e)^(n+1): also #{a in {1..d-1}^(n+1) : a_0 + ... + a_n = 0 (mod
    d)}, the number of characters of u_0 with eigenvalue 1."""
    return ((d - 1) ** (n + 1) + (-1) ** (n + 1) * (d - 1)) // d


def _orbit_candidate(d: int, n: int, r: int) -> Optional[np.ndarray]:
    """[I_r | rint(S_1^(-1).S_2)] for S = (S_1 | S_2), rows 0, ..., r-1 of
    sum_e (U^e) x ... x (U^e) = sum_e M_0^e ((d-1)e runs over Z/d): the
    u_0-orbit sums of the first r basis vectors.  M_0^d = I, so S is fixed
    by M_0 and lies in the radical, where each vector is its first r
    coordinates times the HNF K: S = S_1.K, and K is this candidate when
    S_1 is invertible.  S_1^(-1).S_2 is one float64 LAPACK inverse and one
    product, which cost less than a solve's wrapper at these sizes.  None
    when the inverse fails or the product is not near an integer matrix;
    _certified_radical proves the rest.  At r = 0 (n = 0) it has no rows."""
    if not r:
        return np.zeros((0, (d - 1) ** (n + 1)), dtype=np.int64)
    s = sum(_kron_prefix(u.astype(np.min_scalar_type(-d)), n + 1, r) for u in _u_powers(d))
    try:
        inv = np.linalg.inv(s[:, :r].astype(np.float64))
    except np.linalg.LinAlgError:
        return None
    x = inv @ s[:, r:].astype(np.float64)
    k = np.rint(x)
    x -= k
    # NaN fails both comparisons (np.maximum keeps it); below 2**53 the
    # int64 cast is exact.
    if not (np.maximum(x.max(initial=0), -x.min(initial=0)) < 1e-6
            and np.maximum(k.max(initial=0), -k.min(initial=0)) < 2.0 ** 53):
        return None
    out = np.empty((r, s.shape[1]), dtype=np.int64)
    out[:, :r] = np.eye(r, dtype=np.int64)
    out[:, r:] = k
    return out


def _kron_prefix(m: np.ndarray, k: int, rows: int) -> np.ndarray:
    """Rows 0, ..., rows-1 (rows >= 1) of the Kronecker power m x ... x m,
    k factors.  Its rows come in blocks m[i] x m^(k-1), one per row i of m:
    the whole blocks before the last one needed, then the first rows of
    that one, recursively.  No power of m larger than the result is built."""
    block = len(m) ** (k - 1)
    q, rem = divmod(rows, block)
    parts = []
    if q:
        parts.append(_kron(m[:q], _kron_power(m, k - 1)))
    if rem:
        parts.append(_kron(m[q:q + 1], _kron_prefix(m, k - 1, rem)))
    return np.concatenate(parts)


def _axis_check(d: int) -> None:
    """The per-axis facts behind _certified_radical (a) and
    _primitive_actions, checked exactly on U and A = U^(d-1) as _times_u
    folds them on the identity, at e = 1 and e = d-1 on both sides (I.U^e
    along the columns, U^e.I along the rows): both sides equal, U is the
    companion matrix of 1 + x + ... + x^(d-1) (ones above the diagonal
    and a last row of -1, built apart from _times_u), U.A = I and V_1.A^T
    = -V_1^T.  These are the folds that the radical's invariance check (e
    = d-1 on the right) and the actions (e = 1 and e = d-1 on the left)
    run.  So the eigenvalues of U are the d-th roots of unity other than
    1, once each, and U^d = I (Cayley-Hamilton, as (x - 1)(1 + ... +
    x^(d-1)) = x^d - 1): A = U^(-1), and tr(U^f) = -1 unless d | f.
    Transposed, the last check is V_1^T = -U.V_1, so V_1.A^T = U.V_1 and
    U.V_1.U^T = V_1.  Raises VerificationError naming the check that
    fails."""
    eye = np.eye(d - 1, dtype=np.int64)
    u, a = (_times_u(eye, 1, e, d) for e in (1, d - 1))
    sides = all(np.array_equal(_times_u(eye, 0, e, d, left=True), m)
                for e, m in ((1, u), (d - 1, a)))
    companion = np.eye(d - 1, k=1, dtype=np.int64)
    companion[-1] = -1
    if not (sides and np.array_equal(u, companion) and np.array_equal(la.int_matmul(u, a), eye)):
        raise VerificationError(f"a per-axis check of the actions and of the radical's trace "
                                f"fails at d = {d} (U^e the same on both sides, U the "
                                "companion matrix, U.A = I)")
    v1 = _seifert_axis(d).astype(np.int64)
    if not np.array_equal(la.int_matmul(v1, a.T), -v1.T):
        raise VerificationError(f"a per-axis check of the radical fails at d = {d} "
                                "(V_1.A^T = -V_1^T)")


def _widened(x: np.ndarray, growth: int) -> np.ndarray:
    """x in the narrowest signed dtype (object past int64) that holds every
    entry times growth."""
    top = (max(int(x.max()), -int(x.min())) if x.size else 0) * growth
    return x.astype(np.min_scalar_type(-top - 1))


def _milnor_products(d: int, n: int, p: np.ndarray) -> Iterator[tuple[str, np.ndarray]]:
    """(name, M.P) for each generator M of the symmetry action, with no N x N
    matrix: P, with one axis per coordinate, folded by _times_u from the
    left, by U (e = 1) on axis i for u_i and by A = U^(d-1) on every axis
    for u_0 = (u_1...u_{n+1})^(-1), the two left folds _axis_check checks;
    s_i (z_i and z_{i+1} swapped, twisted by the sign) negates a swap of
    axes.  The dtype holds max|P| (d-1)^(n+1), so no fold can wrap."""
    x = _widened(p, (d - 1) ** (n + 1)).reshape((d - 1,) * (n + 1) + p.shape[1:])
    for i in range(n + 1):
        yield f"u_{i + 1}", _times_u(x, i, 1, d, left=True).reshape(p.shape)
    for i in range(1, n + 1):
        yield f"s_{i}", -x.swapaxes(i - 1, i).reshape(p.shape)
    yield "u_0", reduce(lambda y, i: _times_u(y, i, d - 1, d, left=True), range(n + 1),
                        x).reshape(p.shape)


@lru_cache(maxsize=None)
def _primitive_actions(d: int, n: int) -> Mapping[str, np.ndarray]:
    """u_1, ..., u_{n+1}, s_1, ..., s_n and u_0 on the primitive lattice, as
    a read-only mapping of read-only arrays.

    The projection P is the identity on its last q rows, which the section
    S = (0 | I) picks (the pivots 0, ..., r-1 of _certified_radical), so M
    acts on the quotient as A_M = S.M.P, rows r, ..., N-1 of M.P, which
    _milnor_products folds with _times_u on the left.  With
    U^d = I and U.V_1.U^T = V_1, which follow from the per-axis checks of
    _axis_check (run by every build, at n = 0 too), and the radical R =
    {x : x.M_0 = x} with basis K of _certified_radical, every relation of
    the group holds on the quotient:
    (a) Every M commutes with M_0 = A x ... x A, A = U^(d-1): the u_i
        and u_0 are Kronecker products of powers of U, and a swap of two
        axes fixes M_0.  So R.M = R.
    (b) K.P = 0, and x - x.P.S = (x_1, ..., x_r).K lies in R for every x,
        so by (a) A_M.A_M' = S.M.(P.S).M'.P = S.M.M'.P = A_(MM').
    (c) So u_i^d = 1, s_i^2 = 1 and u_0.u_1...u_(n+1) = 1 follow from
        U^d = I on every axis and S.P = I.
    (d) The rows of sum_k M_0^k are fixed by M_0, since M_0^d = I: they lie
        in R, which P kills, so sum_k u_0^k = 0.
    (e) K.G = 0 gives P.G_22.P^T = G for G_22 = S.G.S^T, the quotient
        Gram.  U.V_1.U^T = V_1, so every power of U preserves V_1, and M,
        a Kronecker product of powers of U up to a signed swap of axes,
        preserves V = V_1 x ... x V_1 and G = sign * (V + (-1)^n V^T).
        So A_M.G_22.A_M^T = S.M.G.M^T.S^T = G_22.
    At n = 0, r = 0 and P = S = I: A_M = M.
    """
    p = _build_primitive_cached(d, n).projection
    r = len(p) - p.shape[1]
    return MappingProxyType({name: la.frozen_int_array(m[r:])
                             for name, m in _milnor_products(d, n, p)})


# ---------------------------------------------------------------------------
# Resolution exactness report

def resolution_check(d: int, n: int) -> dict:
    """Verify exactness of 0 -> R_1 -> ... -> R_{n+1} -> R'_{n+1} -> 0.

    Exactness is checked by composite-zero and exact rank accounting
    (rank ker = rank im at every stage, via SNF-grade integer ranks), which is
    the sense in which the rank formula uses the resolution.  The integral
    index [ker : im] is additionally measured and reported at each stage; it
    can be a proper power of d at odd stages.  Raises VerificationError naming
    the first failing stage.
    """
    prim = build_primitive(d, n)
    maps = [connecting_map(d, k) for k in range(1, n + 1)]
    module_ranks = [(d - 1) ** k for k in range(1, n + 2)] + [prim.lattice.rank]
    stages = []
    for idx, m in enumerate(maps):
        nxt = maps[idx + 1] if idx + 1 < len(maps) else prim.projection
        comp = la.mat_mul(m, nxt)
        if any(x for row in comp for x in row):
            raise VerificationError(f"composite through R_{idx + 2} is nonzero")
        rank_im = la.rank_exact(m)
        rank_next = la.rank_exact(nxt)
        rank_ker = module_ranks[idx + 1] - rank_next
        if rank_im != rank_ker:
            raise VerificationError(
                f"rank accounting fails at R_{idx + 2}: im {rank_im}, ker {rank_ker}")
        stages.append({
            "stage": f"R_{idx + 2}",
            "image_rank": rank_im,
            "kernel_rank": rank_ker,
            "image_kernel_index": _image_kernel_index(m, la.left_kernel(nxt)),
            "rank_exact": True,
        })
    first = maps[0] if maps else prim.projection
    if la.rank_exact(first) != module_ranks[0]:
        raise VerificationError("first map is not injective")
    if la.rank_exact(prim.projection) != prim.lattice.rank:
        raise VerificationError("final projection is not surjective")
    alternating = sum((-1) ** (n + 1 - k) * (d - 1) ** k for k in range(1, n + 2))
    if alternating != prim.lattice.rank:
        raise VerificationError("alternating rank sum disagrees with the primitive rank")
    return {
        "d": d,
        "n": n,
        "module_ranks": module_ranks,
        "stages": stages,
        "alternating_sum": alternating,
        "exact": True,
    }


def _image_kernel_index(image_rows: la.Mat, kernel_rows: la.Mat) -> int:
    """Index of the image inside the kernel (both of equal rank).

    Lattices with the same Q-span have row HNFs with the same pivot columns,
    and the covolume of each is the product of its HNF pivots, so the index
    is the ratio of the two products."""
    if not kernel_rows:
        return 1
    ker_h, ker_pivots = la.hnf_row(kernel_rows)
    if la.hnf_row(kernel_rows + image_rows)[0] != ker_h:
        raise VerificationError("image does not lie in the kernel")
    im_h, im_pivots = la.hnf_row(image_rows)
    return (math.prod(r[c] for r, c in zip(im_h, im_pivots))
            // math.prod(r[c] for r, c in zip(ker_h, ker_pivots)))
