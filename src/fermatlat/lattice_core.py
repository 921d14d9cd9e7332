"""Exact integer-lattice linear algebra.

Normal forms, radical quotients, signatures, discriminant groups, unimodular
gluing, and definite short-vector enumeration.  All computations are exact;
floating point is never used for a result, only (elsewhere) for provably
lossless integer work and for integer candidates that an exact product
accepts or rejects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import _intlinalg as la
from ._intlinalg import Mat
from .errors import (
    DegenerateLatticeError,
    IndefiniteLatticeError,
    InvalidGlueError,
    VerificationError,
    WrongSymmetryError,
)

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"


class IntegerLattice:
    """Finitely generated free abelian group with an integer Gram matrix.

    gram is a read-only integer array in the narrowest signed dtype that
    holds every entry and its negative (_intlinalg.frozen_int_array), so
    lattices, quotients and cached builds share it instead of copying it.
    Products of it go through int_matmul; widen it with int_array before
    any other arithmetic, since numpy wraps narrow integers silently.

    _scaled_inverse is None, or (s, build) when the code that built the
    lattice knows s.G^-1 in closed form: build() returns that candidate,
    which scaled_integer_inverse accepts only by its exact product
    (_inverse_candidate).  fermat_homology sets it on primitive lattices.
    """

    __slots__ = ("rank", "gram", "symmetry", "label", "_scaled_inverse")

    def __init__(self, gram, symmetry: str = SYMMETRIC, label: Optional[str] = None):
        g = la.frozen_int_array(gram)
        if g.shape == (0,):
            g = g.reshape(0, 0)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("gram matrix must be square")
        if symmetry not in (SYMMETRIC, ANTISYMMETRIC):
            raise ValueError(f"unknown symmetry {symmetry!r}")
        if not np.array_equal(g, g.T if symmetry == SYMMETRIC else -g.T):
            raise ValueError("gram matrix does not match its symmetry flag")
        self.rank = len(g)
        self.gram = g
        self.symmetry = symmetry
        self.label = label
        self._scaled_inverse = None

    def pairing(self, v: Sequence[int], w: Sequence[int]) -> int:
        return la.dot(la.vec_mat(v, self.gram), w)

    def norm(self, v: Sequence[int]) -> int:
        return self.pairing(v, v)

    def is_symmetric(self) -> bool:
        return self.symmetry == SYMMETRIC

    def relabel(self, label: str) -> "IntegerLattice":
        """The same lattice under another label.  Its gram was frozen and
        checked against its symmetry when this lattice was built, so the
        fields are copied with no second check, and so is the inverse
        candidate of that gram."""
        lattice = object.__new__(IntegerLattice)
        lattice.rank, lattice.gram, lattice.symmetry, lattice.label, lattice._scaled_inverse = (
            self.rank, self.gram, self.symmetry, label, self._scaled_inverse)
        return lattice

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntegerLattice) and np.array_equal(self.gram, other.gram)
                and self.symmetry == other.symmetry)

    def __repr__(self) -> str:
        name = self.label or "lattice"
        return f"<{name}: rank {self.rank}, {self.symmetry}>"


@dataclass(frozen=True)
class DiscriminantData:
    """Elementary divisors (> 1, in divisibility order) of L*/L and the group order."""

    elementary_divisors: tuple[int, ...]
    group_order: int

    def is_trivial(self) -> bool:
        return self.group_order == 1


@dataclass
class GlueSpec:
    """Orthogonal components plus rational glue vectors in their combined basis."""

    components: list[IntegerLattice]
    glue_vectors: list[list[Fraction]] = field(default_factory=list)

    def total_rank(self) -> int:
        return sum(c.rank for c in self.components)

    def combined_gram(self) -> Mat:
        n = self.total_rank()
        g = [[0] * n for _ in range(n)]
        off = 0
        for c in self.components:
            for i, row in enumerate(c.gram.tolist()):
                g[off + i][off:off + c.rank] = row
            off += c.rank
        return g

    def symmetry(self) -> str:
        kinds = {c.symmetry for c in self.components}
        if len(kinds) != 1:
            raise InvalidGlueError("components mix symmetric and antisymmetric pairings")
        return kinds.pop()


# ---------------------------------------------------------------------------
# Normal forms

def smith_normal_form(m: Sequence[Sequence[int]]):
    """Smith divisors plus the unimodular transform pair (U, V) with U*M*V diagonal."""
    divisors, u, v = la.smith_normal_form(m)
    return divisors, (u, v)


# ---------------------------------------------------------------------------
# Radical quotient

def radical_quotient(lattice: IntegerLattice, kernel_rows=None, proven_pivots=None):
    """Quotient by the kernel of the pairing.

    Returns (quotient, projection, representatives): projection is a
    rank x quotient-rank integer matrix whose row i gives the class of old
    basis vector e_i in the quotient basis; representatives lifts the quotient
    basis back (representatives * projection = identity).  Both are
    read-only arrays in the format of IntegerLattice.gram.  The quotient
    basis is saturated and deterministic (HNF of the kernel, then either a
    coordinate subsection certified by a unimodular minor or an SNF basis
    completion).  Without kernel_rows the kernel is the certified mod-p
    radical, or the integer right kernel of the Gram when no prime
    certifies it.  Supplied kernel_rows are checked to lie in the radical
    and put in row HNF, unless proven_pivots is given too: then they are
    taken as already proven to be the radical's row HNF with those pivot
    columns, and nothing about them is checked here.
    """
    g = lattice.gram
    n = lattice.rank
    if kernel_rows is None:
        kernel_rows = certified_radical(g)
        if kernel_rows is None:
            kernel_rows = la.right_kernel(g)
        pivots = [next(c for c, x in enumerate(row) if x) for row in kernel_rows]
    elif proven_pivots is None:
        if len(kernel_rows) and np.any(la.int_matmul(la.int_array(kernel_rows), g)):
            raise ValueError("supplied kernel rows are not in the radical")
        kernel_rows, pivots = la.hnf_row(kernel_rows)
    else:
        pivots = list(proven_pivots)
    # From here on only k holds the kernel rows (a caller passing a
    # temporary keeps none), so narrowing k below frees the wide rows.
    k = kernel_rows
    del kernel_rows
    r = len(k)
    if r == 0:
        ident = la.frozen_int_array(np.eye(n, dtype=np.int64))
        return IntegerLattice(g, lattice.symmetry, lattice.label), ident, ident

    # Fast path: k is in row HNF, so its pivot minor is upper triangular with
    # positive pivots and the entries above each pivot reduced modulo it.  It
    # is unimodular iff every pivot is 1, and then it is the identity, so the
    # kernel rows already solve for the pivot coordinates T.  The projection
    # and representatives are built in the narrow dtype they are frozen in,
    # with no N x N temporaries.  A run of columns is sliced, not gathered,
    # and copied, so the quotient Gram is C-contiguous like a gathered one
    # (a view of a Fortran-ordered Gram would slow row operations on it).
    if all(k[i][c] == 1 for i, c in enumerate(pivots)):
        pivot_set = set(pivots)
        s_cols = [c for c in range(n) if c not in pivot_set]
        q = len(s_cols)
        cols = la.column_index(s_cols)
        k = la.frozen_int_array(k)
        proj = np.zeros((n, q), dtype=k.dtype)
        proj[s_cols, range(q)] = 1
        proj[pivots] = -k[:, cols]
        reps = np.zeros((q, n), dtype=np.int8)
        reps[range(q), s_cols] = 1
        sub = g[cols, cols].copy() if isinstance(cols, slice) else g[np.ix_(cols, cols)]
        quotient = IntegerLattice(sub, lattice.symmetry, lattice.label)
    else:
        # General path: complete the saturated kernel to a basis via SNF.
        divisors, u, v = la.smith_normal_form(k)
        if any(dv != 1 for dv in divisors[:r]):
            raise DegenerateLatticeError("kernel of the pairing is not saturated")
        w = la.solve_rational(v, la.mat_identity(n))
        reps = [[int(x) for x in row] for row in w][r:]
        qgram = la.mat_mul(la.mat_mul(reps, g), la.mat_transpose(reps))
        proj = [row[r:] for row in v]
        quotient = IntegerLattice(qgram, lattice.symmetry, lattice.label)
    return quotient, la.frozen_int_array(proj), la.frozen_int_array(reps)


def certified_radical(gram: np.ndarray) -> Optional[np.ndarray]:
    """Row HNF of the radical {x : x.G = 0}, from the mod-p kernel of G and
    certified exactly; None when none of the first four primes certifies.

    For each prime, one reduced row echelon form of G with its columns
    reversed gives the kernel of G mod p already in reduced row echelon
    form, lifted to symmetric residues K (_radical_candidate), which
    is accepted by _is_radical_basis.  Those checks prove that K is a
    Z-basis of the radical.  K has one row per dimension of the mod-p
    kernel, and the mod-p nullity is at least the nullity over Q, since the
    rank mod p is at most the rank over Q.  K.G = 0 with an identity pivot
    minor puts that many independent rows in the radical, so the two
    nullities are equal and K spans the radical over Q.  An integer vector
    c.K of that span has the integer coefficients c on the pivot columns, so
    K is saturated.  A lifted RREF keeps its zeros, so K is also the
    radical's unique row HNF.
    """
    for p in la.MODP_PRIMES[:4]:
        k, pivots = _radical_candidate(gram, p)
        if _is_radical_basis(k, pivots, gram):
            return k
    return None


def _radical_candidate(gram: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """The kernel of G mod p in reduced row echelon form, lifted to
    symmetric residues, and its pivot columns, from one elimination.

    Let R be the RREF of G' = G with its N columns reversed, with pivot
    columns P and free columns F.  la.modp_kernel gives the kernel of G' in
    the basis v_f (f in F): 1 at f, -R[i, f] at the pivot P[i], zero
    elsewhere; R[i, f] is zero unless P[i] < f, so v_f lives on columns
    <= f and is zero on the other free columns.  Reversing the coordinates
    maps v_f to a kernel vector of G that starts with 1 at column N-1-f,
    lives on columns >= N-1-f and is zero at N-1-g for the other g in F.
    With the rows in descending f, that is the kernel's RREF (unique, so
    the same as an RREF of any other kernel basis), with pivots N-1-f in
    ascending order: the first nonzero of each row.
    """
    k = la.modp_kernel(gram[:, ::-1], p)[::-1, ::-1]
    pivots = np.argmax(k != 0, axis=1).tolist()
    return la.symmetric_residues(k, p), pivots


def _is_radical_basis(k: np.ndarray, pivots: list[int], gram: np.ndarray) -> bool:
    """Exact checks on a lifted kernel basis K of G mod p: its pivot
    columns form the identity (so K has one row per pivot, unit pivots and
    zeros elsewhere in the pivot columns), and K.G == 0 (int_matmul, a
    float64 product under the 2**53 guard)."""
    return (np.array_equal(k[:, pivots], np.eye(len(k), dtype=k.dtype))
            and not np.any(la.int_matmul(k, gram)))


# ---------------------------------------------------------------------------
# Signature, parity, discriminant

def signature(lattice: IntegerLattice) -> tuple[int, int]:
    """Counts of positive and negative eigenvalues, exactly.

    _intlinalg.inertia: a congruence from rounded float64 eigenvectors,
    accepted only when the exact product is strictly diagonally dominant,
    else Sylvester's law on a fraction-free symmetric elimination.  No
    count rests on a float value.
    """
    if not lattice.is_symmetric():
        raise WrongSymmetryError("signature requires a symmetric pairing")
    pos, neg, _zero = la.inertia(lattice.gram)
    return pos, neg


def is_even(lattice: IntegerLattice) -> bool:
    """Whether every vector has even self-pairing (diagonal test)."""
    if not lattice.is_symmetric():
        raise WrongSymmetryError("parity requires a symmetric pairing")
    return not np.any(np.diagonal(lattice.gram) % 2)


def _inverse_candidate(lattice: IntegerLattice, scale: int) -> Optional[np.ndarray]:
    """The lattice's closed-form candidate for scale.G^-1, or None when the
    code that built the lattice gave none for this scale."""
    known = lattice._scaled_inverse
    return known[1]() if known is not None and known[0] == scale else None


def determinant(lattice: IntegerLattice) -> int:
    """det G, from the certificate of _certified_determinant when it holds,
    else from det_bareiss."""
    return determinant_with_divisors(lattice)[0]


def determinant_with_divisors(lattice: IntegerLattice) -> tuple[int, Optional[list[int]]]:
    """(det G, the Smith divisors of G) from the certificate of
    _certified_determinant when it holds, else (det_bareiss(G), None).
    discriminant takes it as known, so a caller that wants the
    determinant and the discriminant runs the certificate once."""
    return _certified_determinant(lattice) or (la.det_bareiss(lattice.gram), None)


def _certified_determinant(lattice: IntegerLattice) -> Optional[tuple[int, list[int]]]:
    """(det G, the Smith divisors of G), proven exactly from a float
    candidate, or None when G is empty, dtype object or singular, or the
    candidate is too large or fails a check.

    Let p = MODP_PRIMES[0].  M = round(|det G|) from a float64 slogdet is
    tried when 1 <= M <= p // 2.  (a) la.scaled_integer_inverse(G, M),
    given the lattice's closed-form candidate for M.G^-1 when it has one
    (_inverse_candidate), returns X only after the exact product G.X ==
    M.I, so X = M.G^-1 is integral and X.G = M.I puts M.Z^n in the row
    lattice of G.  (b) That is
    the premise of la.smith_divisors_mod(G, M), whose divisors multiply to
    the index of the row lattice, |det G|; it raises unless they multiply
    to M, so a return proves |det G| = M.  (c) det G is congruent to
    la.modp_det(G, p) mod p, and |det G| = M < p/2, so det G is that
    residue taken in the symmetric range; an antisymmetric G (G == -G^T,
    checked exactly) skips (c), as det G = Pf(G)**2 > 0 once G is
    nonsingular.  Nothing rests on the float value: a wrong candidate fails
    (a) or (b).
    """
    p, g = la.MODP_PRIMES[0], lattice.gram
    if not len(g) or g.dtype == object:
        return None
    sign, logdet = np.linalg.slogdet(g.astype(np.float64))
    if not (sign and logdet < np.log(p)):
        return None
    m = round(float(np.exp(logdet)))
    if not 1 <= m <= p // 2 or la.scaled_integer_inverse(
            g, m, _inverse_candidate(lattice, m)) is None:
        return None
    try:
        divisors = la.smith_divisors_mod(g, m)
    except VerificationError:
        return None
    if np.array_equal(g, -g.T):
        return m, divisors
    r = la.modp_det(g, p)
    return (r if 2 * r < p else r - p), divisors


def discriminant(lattice: IntegerLattice,
                 known: Optional[tuple[int, Optional[list[int]]]] = None) -> DiscriminantData:
    """Elementary divisors of coker(L -> L*), for nondegenerate L: the order
    D = |det|, and the Smith divisors by elimination mod D, whose entries
    stay below D where a Smith form over Z lets them grow without bound.
    Both come from the determinant certificate when it holds; known is
    determinant_with_divisors(lattice) when the caller has it already."""
    det, divisors = known or determinant_with_divisors(lattice)
    if det == 0:
        raise DegenerateLatticeError("discriminant requires a nondegenerate pairing")
    if divisors is None:
        divisors = la.smith_divisors_mod(lattice.gram, abs(det))
    return DiscriminantData(tuple(dv for dv in divisors if dv > 1), abs(det))


def discriminant_is_cyclic_of_order(lattice: IntegerLattice, d: int) -> bool:
    """Exact certificate that L*/L is cyclic of order d, feasible at large rank.

    (a) X = d * G^{-1} is integral, so every invariant factor e_i of G
    divides d: X is la.scaled_integer_inverse(G, d), given the lattice's
    closed-form candidate when it has one for d (a primitive Fermat
    lattice has one from its Seifert form, fermat_homology._seifert_inverse),
    else a float64 LAPACK inverse rounded under the 2**53 guard or, when
    that fails, CRT reconstruction.  Each is accepted only by the exact
    product G.X == d.I; nothing rests on where it came from.  (b) For each
    p^v || d, X mod p^v is a rank-one matrix with a unit entry: for the
    first entry X[i, j] that is a unit mod p, X == X[:, j] . X[i, :] .
    X[i, j]^{-1} (mod p^v) (_is_rank_one_with_unit).  That is O(N^2)
    integer work in row blocks and no elimination.

    Why (b) pins the p-part: write G = U.diag(e).V with U, V unimodular.
    Then X = V^{-1}.diag(d/e_i).U^{-1}, and d/e_i has p-valuation
    v - v_p(e_i), so it is 0 mod p^v when p does not divide e_i and a unit
    when v_p(e_i) = v.  Multiplying by invertible matrices over Z/p^v keeps
    the ideal of the entries and the ideal of the 2 x 2 minors.  If exactly
    one e_k is divisible by p and v_p(e_k) = v, X is (d/e_k) times the
    outer product of column k of V^{-1} and row k of U^{-1}, both primitive
    mod p, so X has a unit entry and the rank-one identity holds.
    Conversely, the identity makes every 2 x 2 minor of X vanish mod p^v,
    so c_i.c_k == 0 for the diagonal entries c = d/e of i != k, and a unit
    entry of X makes one c_k a unit, so every other c_i is 0 mod p^v:
    v_p(e_k) = v and p divides no other e_i.  As e_1 | ... | e_N, the e_i
    divisible by p is e_N for every p | d, so e_N = d and every other e_i
    is 1: L*/L is cyclic of order d.  Avoids a full Smith normal form.
    """
    dd = int(d)
    x = la.scaled_integer_inverse(lattice.gram, dd, _inverse_candidate(lattice, dd))
    if x is None:
        return False
    # Exponent divides d; now pin each p-part.
    for p in la.prime_factors(dd):
        q = p
        while dd % (q * p) == 0:
            q *= p
        if not _is_rank_one_with_unit(x, p, q):
            return False
    return True


def _is_rank_one_with_unit(x: np.ndarray, p: int, q: int) -> bool:
    """Whether X mod q, q a power of the prime p, has an entry that is a
    unit mod p and, for the first such entry X[i, j] in row-major order,
    X == X[:, j] . X[i, :] . X[i, j]^{-1} (mod q): test (b) of
    discriminant_is_cyclic_of_order.

    X is read la._PANEL rows at a time, once to find the first unit
    (stopping at the first block that has one) and once to compare each
    block with its rows of the outer product, so no N x N array is made.

    The float path runs when (max|X| + q + 1).q is below 2**24 (float32)
    or 2**53 (float64), a bound on every value it forms: X itself, X[i, :]
    times an inverse below q, and X - c.r for residues c, r in [0, q),
    at most max|X| + q^2 (+ q for the rounding in _divisible).  All are
    integers exact in that float type.  A unit is an entry that p does not
    divide, the residues come from la._float_mod, and a block passes when
    q divides X - c.r (la._divisible), so no integer mod is taken.  Past
    the guard the integer path reduces X mod q in int64 when q < 2**31, so
    no product of two residues wraps, and in Python ints otherwise.
    """
    bound = (la._abs_max(x) + q + 1) * q
    ftype = (np.float32 if bound < la._FLOAT32_EXACT_LIMIT
             else np.float64 if bound < la._FLOAT_EXACT_LIMIT else None)
    if ftype is None:
        return _is_rank_one_with_unit_int(x, p, q)
    rows = range(0, len(x), la._PANEL)
    for s in rows:
        block = x[s:s + la._PANEL].astype(ftype)
        units = np.flatnonzero(np.rint(block / p) * p != block)
        if units.size:
            i, j = divmod(int(units[0]), x.shape[1])
            row = la._float_mod(block[i] * pow(int(block[i, j]), -1, q), q)
            break
    else:
        return False
    col = la._float_mod(x[:, j].astype(ftype), q)
    for s in rows:
        diff = x[s:s + la._PANEL].astype(ftype)
        diff -= np.outer(col[s:s + la._PANEL], row)
        if not la._divisible(diff, q):
            return False
    return True


def _is_rank_one_with_unit_int(x: np.ndarray, p: int, q: int) -> bool:
    """The integer path of _is_rank_one_with_unit."""
    dtype = np.int64 if q < 2**31 else object
    rows = range(0, len(x), la._PANEL)

    def residues(a: np.ndarray) -> np.ndarray:
        # In a dtype that holds q even when a narrow candidate's does not.
        return np.mod(a, q, dtype=dtype) if a.dtype != object else (a % q).astype(dtype)

    for s in rows:
        block = residues(x[s:s + la._PANEL])
        units = np.flatnonzero(block % p)
        if units.size:
            i, j = divmod(int(units[0]), x.shape[1])
            row = block[i] * pow(int(block[i, j]), -1, q) % q
            break
    else:
        return False
    col = residues(x[:, j])
    return all(np.array_equal(np.outer(col[s:s + la._PANEL], row) % q,
                              residues(x[s:s + la._PANEL])) for s in rows)


# ---------------------------------------------------------------------------
# Gluing

def glue_with_basis(spec: GlueSpec):
    """Glued overlattice plus the rational basis rows expressing it in the
    orthogonal-sum coordinates.

    The glue vectors are scaled once by their common denominator den into
    integer rows S; every integrality check is then a divisibility test on
    an exact integer product (S.G0 by den, S.G0.S^T by den^2), and the glued
    Gram is H.G0.H^T / den^2 for the HNF rows H of [den.I; S].
    """
    g0 = spec.combined_gram()
    n = spec.total_rank()
    sym = spec.symmetry()
    gvs = spec.glue_vectors
    # Checked in generator order: a wrong length is reported unless an
    # earlier glue vector already pairs non-integrally.
    short = next((k for k, gv in enumerate(gvs) if len(gv) != n), len(gvs))
    scaled, den = la.clear_denominators(gvs[:short])
    with_lattice = la.mat_mul(scaled, g0)
    if any(x % den for row in with_lattice for x in row):
        raise InvalidGlueError("glue vector pairs non-integrally with a component vector")
    if short < len(gvs):
        raise InvalidGlueError("glue vector of wrong length")
    if any(x % (den * den) for row in la.mat_mul(with_lattice, la.mat_transpose(scaled))
           for x in row):
        raise InvalidGlueError("glue vectors pair non-integrally with each other")
    h, _ = la.hnf_row([[den if i == j else 0 for j in range(n)] for i in range(n)] + scaled)
    if len(h) != n:
        raise InvalidGlueError("glued generators do not span the rational span")
    gram = la.mat_mul(la.mat_mul(h, g0), la.mat_transpose(h))
    if any(x % (den * den) for row in gram for x in row):
        raise InvalidGlueError("glued lattice has a non-integral pairing")
    glued = IntegerLattice([[x // (den * den) for x in row] for row in gram], sym)
    basis = [[Fraction(x, den) for x in row] for row in h]
    return glued, basis


def glue(spec: GlueSpec) -> IntegerLattice:
    return glue_with_basis(spec)[0]


# ---------------------------------------------------------------------------
# Short vectors (definite lattices)

def definiteness(lattice: IntegerLattice) -> int:
    """+1 positive definite, -1 negative definite, 0 indefinite or degenerate."""
    if lattice.rank == 0:
        return 1
    pos, neg = signature(lattice)
    if pos == lattice.rank:
        return 1
    if neg == lattice.rank:
        return -1
    return 0


def short_vectors(lattice: IntegerLattice, norm: int) -> list[tuple[int, ...]]:
    """All v with v.v == norm in a definite lattice, lexicographically sorted."""
    sign = definiteness(lattice)
    if sign == 0:
        raise IndefiniteLatticeError(
            "short_vectors requires a definite lattice; use bounded_box_vectors")
    if norm == 0:
        return [tuple([0] * lattice.rank)]
    if sign * norm < 0:
        return []
    g = (lattice.gram if sign > 0 else -lattice.gram).tolist()
    target = norm if sign > 0 else -norm
    found = _fincke_pohst(g, target)
    return sorted(found)


def _fincke_pohst(g: Mat, target: int) -> list[tuple[int, ...]]:
    """Exact enumeration of {v : v^T G v == target} for positive definite G."""
    n = len(g)
    d, mu = _ldl(g)
    out: list[tuple[int, ...]] = []
    x = [0] * n

    def rec(i: int, remaining: Fraction):
        if i < 0:
            if remaining == 0:
                out.append(tuple(x))
            return
        center = sum(mu[i][j] * x[j] for j in range(i + 1, n))
        bound = remaining / d[i]
        s = la.floor_sqrt_fraction(bound)
        # candidates t with d_i*(t + center)^2 <= remaining
        lo = -s - 1
        while d[i] * (Fraction(lo) + center) ** 2 > remaining:
            lo += 1
        hi = s + 1
        while d[i] * (Fraction(hi) + center) ** 2 > remaining:
            hi -= 1
        for t in range(lo, hi + 1):
            x[i] = t
            used = d[i] * (Fraction(t) + center) ** 2
            rec(i - 1, remaining - used)
        x[i] = 0

    rec(n - 1, Fraction(target))
    return out


def _ldl(g: Mat) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Rational LDL^T with unit upper-triangular factor: q(x) = sum d_i (x_i + sum_{j>i} mu_ij x_j)^2."""
    n = len(g)
    a = [[Fraction(g[i][j]) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i] - sum(d[k] * mu[k][i] * mu[k][i] for k in range(i))
        if d[i] <= 0:
            raise IndefiniteLatticeError("matrix is not positive definite")
        for j in range(i + 1, n):
            val = a[i][j] - sum(d[k] * mu[k][i] * mu[k][j] for k in range(i))
            mu[i][j] = val / d[i]
    return d, mu


# ---------------------------------------------------------------------------
# Serialization

def lattice_to_json(lattice: IntegerLattice) -> dict:
    flat = lattice.gram.ravel().tolist()
    return {
        "rank": lattice.rank,
        "symmetry": lattice.symmetry,
        "gram": flat,
        "label": lattice.label,
    }


def lattice_from_json(obj: dict) -> IntegerLattice:
    rank = int(obj["rank"])
    flat = [int(x) for x in obj["gram"]]
    if len(flat) != rank * rank:
        raise ValueError("gram array has wrong length")
    gram = [flat[i * rank:(i + 1) * rank] for i in range(rank)]
    return IntegerLattice(gram, obj.get("symmetry", SYMMETRIC), obj.get("label"))
