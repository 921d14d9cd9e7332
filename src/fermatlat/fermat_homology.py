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
that one rule.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache, reduce
from typing import Iterator, Sequence

import numpy as np

from . import _intlinalg as la
from .exact_algebra import GroupRingElement
from .errors import ResourceBoundError, VerificationError
from .lattice_core import (
    ANTISYMMETRIC,
    SYMMETRIC,
    IntegerLattice,
    certified_radical,
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


# ---------------------------------------------------------------------------
# The Milnor module

class MilnorModule:
    """Middle homology of the affine Fermat variety, on the monomial basis."""

    def __init__(self, d: int, n: int, basis: list[tuple[int, ...]],
                 lattice: IntegerLattice, star_value: GroupRingElement):
        self.d = d
        self.n = n
        self.basis = basis
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
    module = MilnorModule(d, n, list(milnor.basis), milnor.lattice.relabel(milnor.lattice.label),
                          milnor.star_value)
    return PrimitiveFermatLattice(d, n, lattice.relabel(lattice.label), dict(prim.monomial_images),
                                  dict(prim.actions), prim.projection, module)


@lru_cache(maxsize=None)
def _build_primitive_cached(d: int, n: int) -> PrimitiveFermatLattice:
    return _build_primitive(d, n)


# The symmetry actions are built when the Milnor rank is at most this.
_ACTION_RANK_BOUND = 256

# Builds whose radical no prime certified, so that the HNF of the
# connecting image was taken instead (_build_primitive counts them).
radical_fallbacks = 0


def _build_primitive(d: int, n: int) -> PrimitiveFermatLattice:
    global radical_fallbacks
    milnor = build_milnor(d, n)
    rank = len(milnor.basis)
    expected = rank_formula(d, n)
    expected_radical = rank - expected

    kernel = None
    if expected_radical:
        # A certified radical of another size means the mod-p candidate or
        # the rank formula is wrong: the connecting image decides.
        kernel = certified_radical(milnor.gram)
        if kernel is None or len(kernel) != expected_radical:
            radical_fallbacks += 1
            kernel = _saturated_radical(d, n, milnor, expected)

    quotient, projection, reps = radical_quotient(milnor.lattice, kernel_rows=kernel)
    quotient = quotient.relabel(f"primitive(d={d},n={n})")
    if quotient.rank != expected:
        raise VerificationError(
            f"primitive rank {quotient.rank} disagrees with the rank formula {expected}")

    monomial_images = dict(zip(milnor.basis, projection))

    actions: dict[str, np.ndarray] = {}
    if rank <= _ACTION_RANK_BOUND:
        actions = _build_actions(d, n, quotient, projection, reps)
    return PrimitiveFermatLattice(d, n, quotient, monomial_images, actions,
                                  projection, milnor)


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


def _milnor_actions(d: int, n: int, section: np.ndarray) -> Iterator[tuple[str, np.ndarray]]:
    """(name, section.M) for each generator M of the symmetry action on the
    Milnor module, one at a time and with no N x N matrix: the rows of the
    section, as arrays with one axis per coordinate, are folded along axis
    i for u_i and along every axis by d-1 for u_0 = (u_1...u_{n+1})^(-1);
    s_i, the swap of z_i and z_{i+1} twisted by the sign character, negates
    and swaps axes i and i+1."""
    sec = la.int_array(section)
    if sec.dtype != object and int(np.abs(sec).max(initial=0)) << (n + 1) >= 2 ** 62:
        sec = sec.astype(object)  # u_0 folds n + 1 times
    x = sec.reshape((len(sec),) + (d - 1,) * (n + 1))
    shape = sec.shape
    for i in range(1, n + 2):
        yield f"u_{i}", _times_u(x, i, 1, d).reshape(shape)
    for i in range(1, n + 1):
        yield f"s_{i}", -x.swapaxes(i, i + 1).reshape(shape)
    yield "u_0", reduce(lambda y, i: _times_u(y, i, d - 1, d), range(1, n + 2), x).reshape(shape)


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
    prim = build_primitive(d, n)
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
