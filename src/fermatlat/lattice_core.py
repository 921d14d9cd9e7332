"""Exact integer-lattice linear algebra.

Normal forms, radical quotients, signatures, discriminant groups, unimodular
gluing, and definite short-vector enumeration.  All computations are exact;
floating point is never used for a result, only (elsewhere) for provably
lossless integer work.
"""

from __future__ import annotations

import json
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
    """

    __slots__ = ("rank", "gram", "symmetry", "label")

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

    def pairing(self, v: Sequence[int], w: Sequence[int]) -> int:
        return la.dot(la.vec_mat(v, self.gram), w)

    def norm(self, v: Sequence[int]) -> int:
        return self.pairing(v, v)

    def is_symmetric(self) -> bool:
        return self.symmetry == SYMMETRIC

    def relabel(self, label: str) -> "IntegerLattice":
        return IntegerLattice(self.gram, self.symmetry, label)

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

    def is_cyclic(self) -> bool:
        return len(self.elementary_divisors) <= 1


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
    divisors, u, v = la.smith_normal_form(m, with_transform=True)
    return divisors, (u, v)


# ---------------------------------------------------------------------------
# Radical quotient

def radical_quotient(lattice: IntegerLattice, kernel_rows=None):
    """Quotient by the kernel of the pairing.

    Returns (quotient, projection, representatives): projection is a
    rank x quotient-rank integer matrix whose row i gives the class of old
    basis vector e_i in the quotient basis; representatives lifts the quotient
    basis back (representatives * projection = identity).  Both are
    read-only arrays in the format of IntegerLattice.gram.  The quotient
    basis is saturated and deterministic (HNF of the kernel, then either a
    coordinate subsection certified by a unimodular minor or an SNF basis
    completion).
    """
    g = lattice.gram
    n = lattice.rank
    if kernel_rows is None:
        kernel_rows = la.right_kernel(g)
        pivots = [next(c for c, x in enumerate(row) if x) for row in kernel_rows]
    else:
        if len(kernel_rows) and np.any(la.int_matmul(la.int_array(kernel_rows), g)):
            raise ValueError("supplied kernel rows are not in the radical")
        kernel_rows, pivots = la.hnf_row(kernel_rows)
    r = len(kernel_rows)
    if r == 0:
        ident = la.frozen_int_array(np.eye(n, dtype=np.int64))
        return IntegerLattice(g, lattice.symmetry, lattice.label), ident, ident

    k = kernel_rows
    # Fast path: k is in row HNF, so its pivot minor is upper triangular with
    # positive pivots and the entries above each pivot reduced modulo it.  It
    # is unimodular iff every pivot is 1, and then it is the identity, so the
    # kernel rows already solve for the pivot coordinates T.
    if all(k[i][c] == 1 for i, c in enumerate(pivots)):
        pivot_set = set(pivots)
        s_cols = [c for c in range(n) if c not in pivot_set]
        kernel = la.int_array(k)
        proj = np.zeros((n, len(s_cols)), dtype=kernel.dtype)
        proj[s_cols, range(len(s_cols))] = 1
        proj[pivots] = -kernel[:, s_cols]
        reps = np.eye(n, dtype=np.int64)[s_cols]
        quotient = IntegerLattice(g[np.ix_(s_cols, s_cols)], lattice.symmetry, lattice.label)
    else:
        # General path: complete the saturated kernel to a basis via SNF.
        divisors, u, v = la.smith_normal_form(k, with_transform=True)
        if any(dv != 1 for dv in divisors[:r]):
            raise DegenerateLatticeError("kernel of the pairing is not saturated")
        w = la.solve_rational(v, la.mat_identity(n))
        reps = [[int(x) for x in row] for row in w][r:]
        qgram = la.mat_mul(la.mat_mul(reps, g), la.mat_transpose(reps))
        proj = [row[r:] for row in v]
        quotient = IntegerLattice(qgram, lattice.symmetry, lattice.label)
    return quotient, la.frozen_int_array(proj), la.frozen_int_array(reps)


# ---------------------------------------------------------------------------
# Signature, parity, discriminant

def signature(lattice: IntegerLattice) -> tuple[int, int]:
    """Counts of positive and negative eigenvalues, exactly.

    Sylvester's law of inertia on a fraction-free symmetric elimination of
    the Gram matrix (_intlinalg.inertia): O(n^3) integer operations, no
    floats.
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


def determinant(lattice: IntegerLattice) -> int:
    return la.det_bareiss(lattice.gram)


def discriminant(lattice: IntegerLattice) -> DiscriminantData:
    """Elementary divisors of coker(L -> L*), for nondegenerate L: the order
    D = |det|, then the Smith divisors by elimination mod D, whose entries
    stay below D where a Smith form over Z lets them grow without bound."""
    order = abs(determinant(lattice))
    if order == 0:
        raise DegenerateLatticeError("discriminant requires a nondegenerate pairing")
    divisors = la.smith_divisors_mod(lattice.gram, order)
    return DiscriminantData(tuple(dv for dv in divisors if dv > 1), order)


def discriminant_group_generators(lattice: IntegerLattice) -> list[tuple[list[Fraction], int]]:
    """Generators of L*/L as rational vectors in basis coordinates, with orders."""
    divisors, (u, v) = smith_normal_form(lattice.gram)
    if any(dv == 0 for dv in divisors):
        raise DegenerateLatticeError("degenerate pairing has no discriminant group")
    gens = []
    for i, dv in enumerate(divisors):
        if dv > 1:
            vec = [Fraction(v[row][i], dv) for row in range(lattice.rank)]
            gens.append((vec, dv))
    return gens


def discriminant_is_cyclic_of_order(lattice: IntegerLattice, d: int) -> bool:
    """Exact certificate that L*/L is cyclic of order d, feasible at large rank.

    Verifies (a) d * G^{-1} is integral (so the exponent divides d), via CRT
    reconstruction checked exactly, and (b) for each prime p | d the p-part is
    cyclic of the right order, via mod-p kernel dimension and an exact
    non-divisibility check.  Avoids a full Smith normal form.
    """
    n = lattice.rank
    gnp = lattice.gram
    dd = int(d)

    def residue(p):
        if dd % p == 0:
            return None
        inv = la.modp_solve_matrix(gnp, dd * np.eye(n, dtype=np.int64), p)
        return inv

    def verify(candidate):
        return np.array_equal(la.int_matmul(gnp, candidate), dd * np.eye(n, dtype=np.int64))

    x = la.crt_reconstruct_int_matrix(residue, verify)
    if x is None:
        return False
    # Exponent divides d; now pin each p-part.
    for p in la.prime_factors(dd):
        if n - la.modp_rank(gnp, p) != 1:
            return False
        if dd % (p * p) == 0:
            # The unique p-divisor must be exactly p^v: (d/p) * G^{-1} must be
            # non-integral, i.e. X is not divisible by p.
            if not np.any(x % p):
                return False
    return True


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


def dumps_canonical(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace variance, no floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
