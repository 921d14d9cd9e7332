"""Milnor and primitive homology lattices of Fermat hypersurfaces.

Constructs the rank (d-1)^(n+1) module carried by the affine Fermat variety
with its group-ring-valued pairing, the nondegenerate primitive quotient with
its symmetry action, and the free resolution connecting consecutive
dimensions.

The Milnor module Z[mu_d^(n+1)]/(sum_j u_i^j) is the (n+1)-fold tensor
power of Z[u]/(1 + u + ... + u^(d-1)) (Pham, Bull. SMF 1965; Sebastiani and
Thom, Invent. Math. 1971).  A vector on its monomial basis {0..d-2}^(n+1)
is an array with one axis per coordinate, and multiplication by u_i^e acts
on axis i alone (_times_u, the (d-1) x (d-1) matrix U^e).  The symmetry
actions, the connecting maps and the monomial coordinates are read off
that one rule.  The Gram is the Seifert form V_1 x ... x V_1 plus (-1)^n
its transpose, and its radical is the set of vectors fixed by the
monodromy u_0, found from the characters of u_0 mod p (_certified_radical).
"""

from __future__ import annotations

import math
import os
from collections import Counter
from functools import lru_cache, reduce
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from . import _intlinalg as la
from .exact_algebra import GroupRingElement
from .errors import ResourceBoundError, VerificationError
from .lattice_core import ANTISYMMETRIC, SYMMETRIC, IntegerLattice, radical_quotient

SIZE_BOUND_ENV = "FERMATLAT_SIZE_BOUND"
DEFAULT_SIZE_BOUND = 4096


def size_bound() -> int:
    return int(os.environ.get(SIZE_BOUND_ENV, DEFAULT_SIZE_BOUND))


def rank_formula(d: int, n: int) -> int:
    """Z-rank of the primitive lattice: (d-1)*((d-1)^(n+1) + (-1)^n)/d."""
    if d < 2 or n < 0:
        raise ValueError("need d >= 2 and n >= 0")
    num = (d - 1) * ((d - 1) ** (n + 1) + (-1) ** n)
    if num % d:
        raise VerificationError("rank formula is not integral")
    return num // d


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


def _times_u(x: np.ndarray, axis: int, e: int, d: int) -> np.ndarray:
    """x times u^e along one axis of coefficient arrays on 1, u, ..., u^(d-2):
    pad a zero u^(d-1) slot, roll by e, and fold the slot back into the
    others (u^(d-1) = -(1 + u + ... + u^(d-2))).  Each fold at most
    doubles an entry."""
    padded = np.concatenate([x, np.zeros_like(x.take([0], axis=axis))], axis=axis)
    rolled = np.roll(padded, e, axis=axis)
    return rolled.take(range(d - 1), axis=axis) - rolled.take([d - 1], axis=axis)


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


@lru_cache(maxsize=None)
def milnor_star_element(d: int, n: int) -> GroupRingElement:
    """e_n * e_n = (1 - bar(u_1...u_{n+1})) prod (1 - u_i) = A + (-1)^n B for
    (A, B) = star_halves(d, n), with no group-ring product."""
    a, b = star_halves(d, n)
    w = a + (-1) ** n * b
    return GroupRingElement(d, n + 1, {e: int(c) for e, c in np.ndenumerate(w) if c})


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

    @property
    def star_value(self) -> GroupRingElement:
        """The star element e_n * e_n, read off star_halves on first use (cached)."""
        return milnor_star_element(self.d, self.n)

    def star(self, K: Sequence[int], L: Sequence[int]) -> GroupRingElement:
        """Group-ring-valued pairing u^K e * u^L e = u^(K-L) (e * e)."""
        d, k = self.d, self.n + 1
        mono = GroupRingElement.monomial(d, k, [(a - b) % d for a, b in zip(K, L)])
        return mono * self.star_value


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
    v = reduce(np.kron, [_seifert_axis(d)] * (n + 1))
    # Off the diagonal at most one of V and V^T is nonzero: int8 holds G.
    gram = parity_sign(n) * (v + (-1) ** n * v.T)
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
        out += c * reduce(np.kron, [powers[e] for e in exps[:-1]] + [powers[exps[-1]][:1]])
    return out.tolist()


# ---------------------------------------------------------------------------
# The primitive Fermat lattice

class PrimitiveFermatLattice:
    """Primitive middle homology with pairing, monomial images, and symmetry
    action: read-only integer arrays, like lattice.gram."""

    def __init__(self, d: int, n: int, lattice: IntegerLattice,
                 monomial_images: dict[tuple[int, ...], np.ndarray],
                 actions: dict[str, np.ndarray], projection: np.ndarray,
                 milnor: MilnorModule):
        self.d = d
        self.n = n
        self.lattice = lattice
        self.monomial_images = monomial_images
        self.actions = actions
        self.projection = projection
        self.milnor = milnor

    def action(self, name: str) -> np.ndarray:
        if not self.actions:
            raise ResourceBoundError(
                f"no symmetry actions at Milnor rank {(self.d - 1) ** (self.n + 1)}: "
                f"they are built up to Milnor rank {_ACTION_RANK_BOUND}")
        return self.actions[name]

    def class_image(self, K: Sequence[int]) -> list[int]:
        """Image in the primitive lattice of the monomial class u^K,
        K in (Z/d)^(n+2) taken modulo the diagonal."""
        powers = _u_powers(self.d)
        vec = reduce(np.kron, [powers[e][0] for e in class_rep(K, self.d)[1:]])
        return la.vec_mat(vec.tolist(), self.projection)


def build_primitive(d: int, n: int) -> PrimitiveFermatLattice:
    """Radical quotient of the Milnor lattice, with the symmetry action when
    the Milnor rank (d-1)^(n+1) is at most 256 (above it, `action` raises
    ResourceBoundError).

    The deterministic construction is cached per (d, n).  Every call
    returns new lattice, module and dict objects over the cached read-only
    arrays, which all calls share and no caller can write to.
    """
    prim = _build_primitive_cached(d, n)
    lattice, milnor = prim.lattice, prim.milnor
    module = MilnorModule(d, n, list(milnor.basis), milnor.lattice.relabel(milnor.lattice.label))
    return PrimitiveFermatLattice(d, n, lattice.relabel(lattice.label), dict(prim.monomial_images),
                                  dict(prim.actions), prim.projection, module)


@lru_cache(maxsize=None)
def _build_primitive_cached(d: int, n: int) -> PrimitiveFermatLattice:
    return _build_primitive(d, n)


# The symmetry actions are built when the Milnor rank is at most this.
_ACTION_RANK_BOUND = 256


def _build_primitive(d: int, n: int) -> PrimitiveFermatLattice:
    milnor = build_milnor(d, n)
    rank = len(milnor.basis)
    expected = rank_formula(d, n)
    # _certified_radical proves its K is the radical's row HNF with pivots
    # 0 ... r-1, so radical_quotient takes it unchecked.  No reference to K
    # is kept here, so radical_quotient frees it once it has narrowed it.
    # With r = 0 the certified mod-p radical proves the Gram nondegenerate.
    r = rank - expected
    quotient, projection, reps = (
        radical_quotient(milnor.lattice, _certified_radical(d, n, r), range(r)) if r > 0
        else radical_quotient(milnor.lattice))
    quotient = quotient.relabel(f"primitive(d={d},n={n})")
    if quotient.rank != expected:
        raise VerificationError(
            f"primitive rank {quotient.rank} disagrees with the rank formula {expected}")
    actions = (_build_actions(d, n, quotient, projection, reps)
               if rank <= _ACTION_RANK_BOUND else {})
    return PrimitiveFermatLattice(d, n, quotient, dict(zip(milnor.basis, projection)), actions,
                                  projection, milnor)


def _certified_radical(d: int, n: int, r: int) -> np.ndarray:
    """The radical {x : x.G = 0} of the Milnor Gram as its row HNF K, r x N
    with the identity on its first r columns; VerificationError when a step
    of this proof fails.

    Over F_p the rows e_a of E diagonalize A = U^(d-1), the matrix of
    u^(-1) on one axis, with eigenvalues w^(-a) (_axis_eigenvectors), so
    their Kronecker products diagonalize M_0 = A x ... x A, the matrix of
    u_0.  C holds those with eigenvalue 1 (a_0 + ... + a_n = 0 mod d), and
    K is the RREF of C mod p in symmetric residues: one elimination.
    (a) Nullity_Q G <= len(C): V_1.A^T = -V_1^T gives G = sign * V.(I -
        M_0^T) with V unitriangular, so rank_Q G = rank_Q (I - M_0) >=
        rank_p (I - M_0) = N - len(C), as the Kronecker power of E,
        invertible with E, conjugates M_0 to its eigenvalues.
    (b) K.G = 0: G^T = +-G, so x.G = 0 iff x.(I - M_0).V^T = 0 iff
        x.M_0 = x, checked by folding K along every axis.
    (c) K has r independent rows with the identity on r columns, so c.K is
        integral only for integral c: a saturated sublattice of rank r.
    With r = len(C), K is a Z-basis of the radical and, with its identity
    pivot minor, its unique row HNF.  r = N - rank_formula(d, n) is checked.
    """
    p, e = _axis_eigenvectors(d)
    c = _character_rows(d, n, p, e)
    k = _character_candidate(c, p)
    if not len(c) == len(k) == r:
        raise VerificationError(
            f"{len(k)} radical rows from {len(c)} characters, expected {r} (count)")
    if not np.array_equal(k[:, :r], np.eye(r, dtype=k.dtype)):
        raise VerificationError("the radical rows do not start with the identity (pivot minor)")
    x = _module_rows(k, d, n)
    if not np.array_equal(_times_u0(x, d), x):
        raise VerificationError("a radical row is not fixed by u_0 (invariance)")
    return k


@lru_cache(maxsize=None)
def _axis_eigenvectors(d: int) -> tuple[int, np.ndarray]:
    """(p, E): p the largest prime = 1 (mod d) up to MODP_PRIMES[0], the
    exact range of the float64 elimination; w of order d mod p; row a-1 of E
    the coefficients of e_a = prod_{b != a} (u - w^b) = (1 + ... + u^(d-1))
    / (u - w^a), sum_{t <= d-2-j} w^(at) at u^j.  Raises VerificationError
    unless the per-axis checks of _certified_radical hold exactly:
    V_1.A^T = -V_1^T for A = U^(d-1); E.A = diag(w^(-a)).E (mod p); and E.W
    (mod p), W[j, b-1] = w^(bj), is diagonal with a nonzero diagonal
    (e_a(w^b) = 0 exactly when b != a), so E is invertible."""
    p = la.MODP_PRIMES[0] - (la.MODP_PRIMES[0] - 1) % d
    while any(p % f == 0 for f in range(2, math.isqrt(p) + 1)):
        p -= d
    w = next(x for x in (pow(g, (p - 1) // d, p) for g in range(2, p))
             if all(pow(x, k, p) != 1 for k in range(1, d)))
    powers = np.array([pow(w, k, p) for k in range(d)], dtype=np.int64)
    table = powers[np.outer(np.arange(1, d), np.arange(d - 1)) % d]  # [a-1, j] = w^(aj)
    e = np.cumsum(table, axis=1)[:, ::-1] % p
    a, v1 = _u_powers(d)[d - 1], _seifert_axis(d).astype(np.int64)
    ew = la.int_matmul(e, table.T) % p
    if not (np.array_equal(v1 @ a.T, -v1.T)
            and not np.any((la.int_matmul(e, a) - powers[-np.arange(1, d) % d, None] * e) % p)
            and np.count_nonzero(ew) == np.count_nonzero(np.diagonal(ew)) == d - 1):
        raise VerificationError(f"a per-axis check of the radical fails at d = {d}")
    e.flags.writeable = False
    return p, e


def _character_rows(d: int, n: int, p: int, e: np.ndarray) -> np.ndarray:
    """The rows e_(a_0) x ... x e_(a_n) mod p with a_0 + ... + a_n = 0
    (mod d), n >= 1: each half of the axes is a Kronecker power of E, and
    a row of one pairs with the rows of the other of opposite index sum."""
    halves = []
    for k in ((n + 1) // 2, n + 1 - (n + 1) // 2):
        rows = reduce(lambda x, y: np.kron(x, y) % p, [e] * k)
        halves.append((rows, reduce(np.add.outer, [np.arange(1, d)] * k).ravel() % d))
    (left, left_sums), (right, right_sums) = halves
    pairs = [left[left_sums == s][:, None, :, None] * right[right_sums == -s % d][None, :, None, :]
             for s in range(d)]
    return np.concatenate([x.reshape(-1, len(e) ** (n + 1)) % p for x in pairs])


def _character_candidate(c: np.ndarray, p: int) -> np.ndarray:
    """The RREF of C mod p without its zero rows, in symmetric residues."""
    k, pivots = la.modp_eliminate(c, p)
    return la.symmetric_residues(k[:len(pivots)], p)


def _module_rows(rows, d: int, n: int) -> np.ndarray:
    """Rows on the monomial basis as one array with one axis per coordinate
    after the row axis, in the narrowest signed dtype (object past int64)
    that holds every entry times 2^(n+1): each fold at most doubles one."""
    x = la.int_array(rows)
    top = (max(int(x.max()), -int(x.min())) if x.size else 0) << (n + 1)
    return x.astype(np.min_scalar_type(-top - 1)).reshape((len(x),) + (d - 1,) * (n + 1))


def _times_u0(x: np.ndarray, d: int) -> np.ndarray:
    """x times u_0 = (u_1...u_{n+1})^(-1): every coordinate axis folded by d-1."""
    return reduce(lambda y, i: _times_u(y, i, d - 1, d), range(1, x.ndim), x)


def _milnor_actions(d: int, n: int, section: np.ndarray) -> Iterator[tuple[str, np.ndarray]]:
    """(name, section.M) for each generator M of the symmetry action on the
    Milnor module, one at a time and with no N x N matrix: the rows of the
    section, as arrays with one axis per coordinate, are folded along axis
    i for u_i and along every axis by d-1 for u_0 = (u_1...u_{n+1})^(-1);
    s_i, the swap of z_i and z_{i+1} twisted by the sign character, negates
    and swaps axes i and i+1."""
    x = _module_rows(section, d, n)
    shape = (len(x), (d - 1) ** (n + 1))
    for i in range(1, n + 2):
        yield f"u_{i}", _times_u(x, i, 1, d).reshape(shape)
    for i in range(1, n + 1):
        yield f"s_{i}", -x.swapaxes(i, i + 1).reshape(shape)
    yield "u_0", _times_u0(x, d).reshape(shape)


def _build_actions(d: int, n: int, quotient: IntegerLattice, projection: np.ndarray,
                   section: np.ndarray) -> dict[str, np.ndarray]:
    # The radical is preserved by every action, so pushing through any
    # representative section is well defined: M acts on the quotient as
    # section.M.projection.  u_0 is built on its own, so _verify_actions
    # compares it with the product of the u_i.
    proj = la.int_array(projection)
    actions = {name: la.int_matmul(m, proj) for name, m in _milnor_actions(d, n, section)}
    prod = reduce(la.int_matmul, [actions[f"u_{i}"] for i in range(1, n + 2)])
    _verify_actions(d, quotient, actions, prod)
    return {name: la.frozen_int_array(m) for name, m in actions.items()}


def _verify_actions(d: int, quotient: IntegerLattice,
                    actions: dict[str, np.ndarray], mu_product: np.ndarray) -> None:
    g = quotient.gram
    ident = np.eye(quotient.rank, dtype=np.int64)
    for name, m in actions.items():
        if not np.array_equal(la.int_matmul(la.int_matmul(m, g), m.T), g):
            raise VerificationError(f"action {name} does not preserve the pairing")
        order = d if name.startswith("u_") else 2
        if not np.array_equal(reduce(la.int_matmul, [m] * order), ident):
            raise VerificationError(f"action {name} does not have order dividing {order}")
    if not np.array_equal(la.int_matmul(actions["u_0"], mu_product), ident):
        raise VerificationError("u_0 is not inverse to u_1...u_{n+1}")
    # The defining relation sum_k u_0^k = 0 must hold on the quotient.
    acc = np.zeros_like(ident)
    p = ident
    for _ in range(d):
        acc = acc + p
        p = la.int_matmul(p, actions["u_0"])
    if np.any(acc):
        raise VerificationError("sum of powers of u_0 does not vanish")


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
    if not la.same_row_span(kernel_rows + image_rows, kernel_rows):
        raise VerificationError("image does not lie in the kernel")
    im_h, im_pivots = la.hnf_row(image_rows)
    ker_h, ker_pivots = la.hnf_row(kernel_rows)
    return (math.prod(r[c] for r, c in zip(im_h, im_pivots))
            // math.prod(r[c] for r, c in zip(ker_h, ker_pivots)))
