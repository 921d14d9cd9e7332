"""Milnor and primitive homology lattices of Fermat hypersurfaces.

Constructs the rank (d-1)^(n+1) module carried by the affine Fermat variety
with its group-ring-valued pairing, the nondegenerate primitive quotient with
its symmetry action, and the free resolution connecting consecutive
dimensions.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import _intlinalg as la
from .exact_algebra import GroupRingElement
from .errors import ResourceBoundError, VerificationError
from .lattice_core import (
    ANTISYMMETRIC,
    SYMMETRIC,
    IntegerLattice,
    radical_quotient,
)

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
    out: list[tuple[int, ...]] = [()]
    for _ in range(n + 1):
        out = [t + (e,) for t in out for e in range(d - 1)]
    return sorted(out)


def class_rep(exps: Sequence[int], d: int) -> tuple[int, ...]:
    """Canonical representative modulo the diagonal: first entry zero."""
    s = exps[0] % d
    return tuple((e - s) % d for e in exps)


def reduce_to_basis(elt: GroupRingElement, coeff_index: dict[tuple[int, ...], int],
                    size: int) -> list[int]:
    """Coordinates of a group-ring element in the quotient by (sum_k u_i^k).

    Exponent d-1 is rewritten as minus the sum of lower powers until every
    term lies in the monomial basis {0..d-2}^arity.
    """
    d = elt.d
    vec = [0] * size
    work = dict(elt.coeffs)
    while work:
        exps, c = work.popitem()
        if c == 0:
            continue
        bad = next((i for i, e in enumerate(exps) if e == d - 1), None)
        if bad is None:
            vec[coeff_index[exps]] += c
            continue
        for e in range(d - 1):
            key = exps[:bad] + (e,) + exps[bad + 1:]
            work[key] = work.get(key, 0) - c
    return vec


# ---------------------------------------------------------------------------
# Star elements

@lru_cache(maxsize=None)
def milnor_star_element(d: int, n: int) -> GroupRingElement:
    """e_n * e_n = (1 - bar(u_1...u_{n+1})) prod (1 - u_i) in Z[mu_d^(n+1)]."""
    k = n + 1
    one = GroupRingElement.one(d, k)
    v = one
    for i in range(k):
        v = v * GroupRingElement.generator(d, k, i)
    w = one - v.bar()
    for i in range(k):
        w = w * (one - GroupRingElement.generator(d, k, i))
    return w


@lru_cache(maxsize=None)
def primitive_star_element(d: int, n: int) -> GroupRingElement:
    """e'_n * e'_n = prod_{v=0}^{n+1} (1 - u_v) in Z[mu_d^(n+2)/mu_d]."""
    k = n + 2
    one = GroupRingElement.one(d, k)
    w = one
    for i in range(k):
        w = w * (one - GroupRingElement.generator(d, k, i))
    return w.quotient_by_diagonal()


# ---------------------------------------------------------------------------
# Monomial pairing on the primitive lattice

def monomial_pairing(d: int, n: int, K: Sequence[int], L: Sequence[int]) -> int:
    """Intersection pairing of the monomial classes u^K, u^L in the primitive
    lattice, via the four-case formula taken modulo the diagonal subgroup."""
    k = n + 2
    K = class_rep(K, d)
    L = class_rep(L, d)
    diff = tuple((a - b) % d for a, b in zip(K, L))
    return parity_sign(n) * _four_case(diff, d, n)


def _four_case(diff: tuple[int, ...], d: int, n: int) -> int:
    k = len(diff)
    if all(e == 0 for e in diff):
        return 1 + (-1) ** n
    # u^K = u^L u_I: diff == 1_I + c*diag for some shift c, I proper nonempty.
    for c in range(d):
        shifted = tuple((e - c) % d for e in diff)
        if all(e in (0, 1) for e in shifted):
            size = sum(shifted)
            if 0 < size < k:
                return (-1) ** size
    # u_I u^K = u^L: -diff == 1_I + c*diag.
    for c in range(d):
        shifted = tuple((-e - c) % d for e in diff)
        if all(e in (0, 1) for e in shifted):
            size = sum(shifted)
            if 0 < size < k:
                return (-1) ** (size + n)
    return 0


def monomial_pairing_oracle(d: int, n: int, K: Sequence[int], L: Sequence[int]) -> int:
    """Same pairing read off from the expanded star element (test oracle)."""
    w = primitive_star_element(d, n)
    diff = class_rep(tuple((a - b) % d for a, b in zip(class_rep(K, d), class_rep(L, d))), d)
    return parity_sign(n) * w.coefficient(diff)


# ---------------------------------------------------------------------------
# The Milnor module

class MilnorModule:
    """Middle homology of the affine Fermat variety, on the monomial basis."""

    def __init__(self, d: int, n: int, basis: list[tuple[int, ...]],
                 lattice: IntegerLattice, star_value: GroupRingElement):
        self.d = d
        self.n = n
        self.basis = basis
        self.index = {b: i for i, b in enumerate(basis)}
        self.lattice = lattice
        self.star_value = star_value

    @property
    def gram(self):
        return self.lattice.gram

    def star(self, K: Sequence[int], L: Sequence[int]) -> GroupRingElement:
        """Group-ring-valued pairing u^K e * u^L e = u^(K-L) (e * e)."""
        d, k = self.d, self.n + 1
        mono = GroupRingElement.monomial(d, k, [(a - b) % d for a, b in zip(K, L)])
        return mono * self.star_value


def build_milnor(d: int, n: int) -> MilnorModule:
    """Milnor lattice of rank (d-1)^(n+1) with the star-derived Gram matrix."""
    if d < 3 or n < 0:
        raise ValueError("need d >= 3 and n >= 0")
    rank = (d - 1) ** (n + 1)
    if rank > size_bound():
        raise ResourceBoundError(
            f"(d-1)^(n+1) = {rank} exceeds the size bound {size_bound()}")
    basis = milnor_basis(d, n)
    w = milnor_star_element(d, n)
    sign = parity_sign(n)
    k = n + 1
    # Gram[i][j] = sign * w[(K_i - K_j) mod d], read off a table over the
    # full group (Z/d)^(n+1) at the mixed-radix code of K_i - K_j.  The codes
    # are accumulated one coordinate at a time, so no (N, N, n+1) array forms.
    table = np.zeros(d ** k, dtype=np.int64)
    for exps, c in w.coeffs.items():
        table[sum(e * d ** i for i, e in enumerate(exps))] = sign * c
    # int32 codes: d**(n+1) < 2**31 for every N = (d-1)**(n+1) whose N x N
    # arrays fit in memory (every N up to 2**19 at d = 3, more at larger d).
    b = np.array(basis, dtype=np.int32)
    codes = np.zeros((rank, rank), dtype=np.int32)
    for i in range(k):
        diff = np.subtract.outer(b[:, i], b[:, i])
        np.mod(diff, d, out=diff)
        diff *= d ** i
        codes += diff
    del diff
    gram = la.frozen_int_array(table)[codes]
    del codes
    gram.flags.writeable = False
    lattice = IntegerLattice(gram, SYMMETRIC if n % 2 == 0 else ANTISYMMETRIC,
                             label=f"milnor(d={d},n={n})")
    return MilnorModule(d, n, basis, lattice, w)


# ---------------------------------------------------------------------------
# Resolution connecting maps

@lru_cache(maxsize=None)
def connecting_element(d: int, k: int) -> GroupRingElement:
    """(1 - v_k) * sum_{0 <= j <= l <= d-2} u_{k+1}^j v_k^l in Z[mu_d^(k+1)]."""
    arity = k + 1
    one = GroupRingElement.one(d, arity)
    v = one
    for i in range(k):
        v = v * GroupRingElement.generator(d, arity, i)
    u_last = GroupRingElement.generator(d, arity, k)
    acc = GroupRingElement.zero(d, arity)
    v_pow = [one]
    u_pow = [one]
    for _ in range(d - 2):
        v_pow.append(v_pow[-1] * v)
        u_pow.append(u_pow[-1] * u_last)
    for j in range(d - 1):
        for l in range(j, d - 1):
            acc = acc + u_pow[j] * v_pow[l]
    return (one - v) * acc


def connecting_map(d: int, k: int) -> la.Mat:
    """Matrix of R_k -> R_{k+1} on monomial bases; rows are images of basis vectors."""
    src = milnor_basis(d, k - 1)
    dst = milnor_basis(d, k)
    dst_index = {b: i for i, b in enumerate(dst)}
    c = connecting_element(d, k)
    rows = []
    for K in src:
        mono = GroupRingElement.monomial(d, k + 1, K + (0,))
        rows.append(reduce_to_basis(c * mono, dst_index, len(dst)))
    return rows


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
        return self.actions[name]

    def mu_generator_names(self) -> list[str]:
        return [f"u_{i}" for i in range(self.n + 2)]

    def transposition_names(self) -> list[str]:
        return [f"s_{i}" for i in range(1, self.n + 1)]

    def class_image(self, K: Sequence[int]) -> list[int]:
        """Image in the primitive lattice of the monomial class u^K,
        K in (Z/d)^(n+2) taken modulo the diagonal."""
        rep = class_rep(K, self.d)[1:]
        mono = GroupRingElement.monomial(self.d, self.n + 1, rep)
        vec = reduce_to_basis(mono, self.milnor.index, len(self.milnor.basis))
        return la.vec_mat(vec, self.projection)


def build_primitive(d: int, n: int, with_actions: Optional[bool] = None) -> PrimitiveFermatLattice:
    """Radical quotient of the Milnor lattice, with the symmetry action.

    The deterministic construction is cached per (d, n, actions).  Every
    call returns new lattice, module and dict objects over the cached
    read-only arrays, which all calls share and no caller can write to.
    """
    if with_actions is None:
        with_actions = (d - 1) ** (n + 1) <= 256
    prim = _build_primitive_cached(d, n, bool(with_actions))
    lattice, milnor = prim.lattice, prim.milnor
    module = MilnorModule(d, n, list(milnor.basis), milnor.lattice.relabel(milnor.lattice.label),
                          milnor.star_value)
    return PrimitiveFermatLattice(d, n, lattice.relabel(lattice.label), dict(prim.monomial_images),
                                  dict(prim.actions), prim.projection, module)


@lru_cache(maxsize=None)
def _build_primitive_cached(d: int, n: int, with_actions: bool) -> PrimitiveFermatLattice:
    return _build_primitive(d, n, with_actions)


# Builds whose radical no prime certified, so that the HNF of the
# connecting image was taken instead (_build_primitive counts them).
radical_fallbacks = 0


def _build_primitive(d: int, n: int, with_actions: bool) -> PrimitiveFermatLattice:
    global radical_fallbacks
    milnor = build_milnor(d, n)
    rank = len(milnor.basis)
    expected = rank_formula(d, n)
    expected_radical = rank - expected

    kernel = None
    if expected_radical:
        kernel = _certified_radical(milnor.gram, expected_radical)
        if kernel is None:
            radical_fallbacks += 1
            kernel = _saturated_radical(d, n, milnor, expected)

    quotient, projection, reps = radical_quotient(milnor.lattice, kernel_rows=kernel)
    quotient = quotient.relabel(f"primitive(d={d},n={n})")
    if quotient.rank != expected:
        raise VerificationError(
            f"primitive rank {quotient.rank} disagrees with the rank formula {expected}")

    monomial_images = dict(zip(milnor.basis, projection))

    actions: dict[str, np.ndarray] = {}
    if with_actions:
        actions = _build_actions(d, n, milnor, quotient, projection, reps)
    return PrimitiveFermatLattice(d, n, quotient, monomial_images, actions,
                                  projection, milnor)


def _certified_radical(gram: np.ndarray, size: int) -> Optional[np.ndarray]:
    """Row HNF of the radical {x : x.G = 0}, from the mod-p kernel of G and
    certified exactly; None when none of the first four primes certifies.

    For each prime the kernel of G mod p is put in reduced row echelon form
    and lifted to symmetric residues K (_radical_candidate), which is
    accepted by _is_radical_basis.  Those checks prove that K is a Z-basis
    of the radical: K.G = 0 with an identity pivot minor puts `size`
    independent rows in the radical, so rank(G) <= N - size, while the
    mod-p kernel has dimension `size` and the rank mod p is at most the
    rank over Q, so rank(G) = N - size (the rank formula) and K spans the
    radical over Q.  An integer vector c.K of that span has the integer
    coefficients c on the pivot columns, so K is saturated.  A lifted RREF
    keeps its zeros, so K is also the radical's unique row HNF.
    """
    for p in la.MODP_PRIMES[:4]:
        k, pivots = _radical_candidate(gram, p)
        if _is_radical_basis(k, pivots, gram, size):
            return k
    return None


def _radical_candidate(gram: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """A basis of the kernel of G mod p in reduced row echelon form, lifted
    to symmetric residues, and its pivot columns."""
    k, pivots = la.modp_eliminate(la.modp_kernel(gram, p), p)
    return la.symmetric_residues(k[:len(pivots)], p), pivots


def _is_radical_basis(k: np.ndarray, pivots: list[int], gram: np.ndarray, size: int) -> bool:
    """Exact checks on a lifted kernel basis K of G mod p: its pivot
    columns form the size x size identity (so K has exactly `size` rows,
    unit pivots and zeros elsewhere in the pivot columns), and K.G == 0
    (int_matmul, a float64 product under the 2**53 guard)."""
    return (np.array_equal(k[:, pivots], np.eye(size, dtype=k.dtype))
            and not np.any(la.int_matmul(k, gram)))


def _saturated_radical(d: int, n: int, milnor: MilnorModule, expected: int) -> la.Mat:
    """The radical as the saturation of the connecting image R_n -> R_{n+1}
    (integer HNF), with the Milnor rank certified mod p."""
    gens = connecting_map(d, n)
    gnp = milnor.gram
    if np.any(la.int_matmul(la.int_array(gens), gnp)):
        raise VerificationError("resolution image is not in the radical")
    # The connecting image can sit with finite index inside the radical
    # (index d at odd stages); saturate to get the radical itself.
    kernel = la.saturate_row_span(gens)
    if len(kernel) != len(milnor.basis) - expected:
        raise VerificationError(
            f"radical generators span rank {len(kernel)}, expected {len(milnor.basis) - expected}")
    # Certify rank(G) = rank - radical: mod-p lower bound meets the kernel bound.
    for p in la.MODP_PRIMES[:4]:
        if la.modp_rank(gnp, p) == expected:
            return kernel
    raise VerificationError("could not certify the Milnor rank")


def _milnor_mu_action(d: int, n: int, milnor: MilnorModule, i: int) -> np.ndarray:
    """Row-convention matrix of multiplication by u_i (1-indexed) on the Milnor basis."""
    size = len(milnor.basis)
    rows = np.zeros((size, size), dtype=np.int64)
    pos = i - 1
    for r, K in enumerate(milnor.basis):
        e = K[pos]
        if e < d - 2:
            rows[r, milnor.index[K[:pos] + (e + 1,) + K[pos + 1:]]] = 1
        else:
            for j in range(d - 1):
                rows[r, milnor.index[K[:pos] + (j,) + K[pos + 1:]]] = -1
    return rows


def _milnor_transposition_action(d: int, n: int, milnor: MilnorModule, i: int) -> np.ndarray:
    """Swap of z_i and z_{i+1} (1-indexed), twisted by the sign character."""
    size = len(milnor.basis)
    rows = np.zeros((size, size), dtype=np.int64)
    for r, K in enumerate(milnor.basis):
        swapped = list(K)
        swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
        rows[r, milnor.index[tuple(swapped)]] = -1
    return rows


def _build_actions(d: int, n: int, milnor: MilnorModule,
                   quotient: IntegerLattice, projection: np.ndarray,
                   section: np.ndarray) -> dict[str, np.ndarray]:
    # The radical is preserved by every action, so pushing through any
    # representative section is well defined.
    sec, proj = la.int_array(section), la.int_array(projection)
    actions: dict[str, np.ndarray] = {}

    def push(mat: np.ndarray) -> np.ndarray:
        return la.int_matmul(la.int_matmul(sec, mat), proj)

    for i in range(1, n + 2):
        actions[f"u_{i}"] = push(_milnor_mu_action(d, n, milnor, i))
    for i in range(1, n + 1):
        actions[f"s_{i}"] = push(_milnor_transposition_action(d, n, milnor, i))

    prod = np.eye(quotient.rank, dtype=np.int64)
    for i in range(1, n + 2):
        prod = la.int_matmul(prod, actions[f"u_{i}"])
    u0 = np.eye(quotient.rank, dtype=np.int64)
    for _ in range(d - 1):
        u0 = la.int_matmul(u0, prod)
    actions["u_0"] = u0

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
        p = ident
        for _ in range(order):
            p = la.int_matmul(p, m)
        if not np.array_equal(p, ident):
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
    prim = build_primitive(d, n, with_actions=False)
    maps = [connecting_map(d, k) for k in range(1, n + 1)]
    module_ranks = [(d - 1) ** k for k in range(1, n + 2)] + [prim.lattice.rank]
    stages = []
    for idx in range(len(maps)):
        m = maps[idx]
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
