import pickle
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from fermatlat import _intlinalg as la
from fermatlat.errors import ResourceBoundError, VerificationError
from fermatlat.exact_algebra import CyclotomicElement, GroupRingElement
from fermatlat.fermat_homology import (
    _image_kernel_index,
    build_milnor,
    build_primitive,
    class_rep,
    connecting_element,
    connecting_map,
    milnor_basis,
    milnor_star_element,
    monomial_pairing,
    parity_sign,
    rank_formula,
    resolution_check,
    star_halves,
)
from fermatlat.lattice_core import (
    IntegerLattice,
    determinant,
    discriminant,
    is_even,
    lattice_to_json,
    short_vectors,
    signature,
)


def test_rank_formula_values():
    assert [rank_formula(3, n) for n in range(5)] == [2, 2, 6, 10, 22]
    assert rank_formula(5, 2) == 52
    assert rank_formula(4, 1) == 6
    assert rank_formula(3, 0) == 2


def test_milnor_shapes():
    m = build_milnor(3, 1)
    assert m.lattice.rank == 4 and m.lattice.symmetry == "antisymmetric"
    m2 = build_milnor(3, 2)
    assert m2.lattice.rank == 8 and m2.lattice.symmetry == "symmetric"
    assert la.rank_exact(m2.gram) == 6  # radical of rank 2
    m0 = build_milnor(3, 0)
    assert m0.lattice.rank == 2
    assert m0.lattice.gram.tolist() == [[2, -1], [-1, 2]]


def test_milnor_size_bound():
    with pytest.raises(ResourceBoundError):
        build_milnor(3, 99)


def test_star_parity_identity():
    # star(a, b) = (-1)^n bar(star(b, a)) on monomials
    rng = random.Random(2)
    for n in (1, 2, 3):
        m = build_milnor(3, n)
        for _ in range(10):
            K = rng.choice(m.basis)
            L = rng.choice(m.basis)
            lhs = m.star(K, L)
            rhs = m.star(L, K).bar() * ((-1) ** n)
            assert lhs == rhs


def test_monomial_pairing_examples():
    assert monomial_pairing(3, 4, (0,) * 6, (0,) * 6) == 2
    assert monomial_pairing(3, 3, (0,) * 5, (0,) * 5) == 0
    assert monomial_pairing(3, 4, (0,) * 6, (0, 2, 0, 0, 0, 0)) == -1


@lru_cache(maxsize=None)
def primitive_star_element(d, n):
    """e'_n * e'_n = prod_{v=0}^{n+1} (1 - u_v) in Z[mu_d^(n+2)/mu_d]."""
    k = n + 2
    one = GroupRingElement.one(d, k)
    w = one
    for i in range(k):
        w = w * (one - GroupRingElement.generator(d, k, i))
    return w.quotient_by_diagonal()


def monomial_pairing_oracle(d, n, K, L):
    """The monomial pairing read off from the expanded star element."""
    w = primitive_star_element(d, n)
    diff = class_rep(tuple((a - b) % d for a, b in zip(class_rep(K, d), class_rep(L, d))), d)
    return parity_sign(n) * w.coefficient(diff)


def four_case_pairing(d, n, K, L):
    """The paper's four-case formula for the monomial pairing, on the
    difference of K and L modulo the diagonal (the formula monomial_pairing
    replaced by a look-up in the star element)."""
    k = n + 2
    diff = tuple((a - b) % d for a, b in zip(class_rep(K, d), class_rep(L, d)))
    if all(e == 0 for e in diff):
        return parity_sign(n) * (1 + (-1) ** n)
    for c in range(d):
        # u^K = u^L u_I: diff == 1_I + c*diag for I proper and nonempty.
        shifted = tuple((e - c) % d for e in diff)
        if all(e in (0, 1) for e in shifted) and 0 < sum(shifted) < k:
            return parity_sign(n) * (-1) ** sum(shifted)
    for c in range(d):
        # u_I u^K = u^L: -diff == 1_I + c*diag.
        shifted = tuple((-e - c) % d for e in diff)
        if all(e in (0, 1) for e in shifted) and 0 < sum(shifted) < k:
            return parity_sign(n) * (-1) ** (sum(shifted) + n)
    return 0


def reduction_entry_oracle(d, n, K, L):
    """(u^K . u^L)_1 = sum_i (u^(K,0) . u^(L,i)) zeta^i from the four-case
    formula: the loop that reduction_entry ran before it read the star
    table."""
    out = CyclotomicElement.zero(d)
    for i in range(d):
        c = four_case_pairing(d, n, tuple(K) + (0,), tuple(L) + (i,))
        if c:
            out = out + CyclotomicElement.zeta(d, i) * c
    return out


def product_star_element(d, n):
    """e_n * e_n = (1 - bar(u_1...u_{n+1})) prod (1 - u_i), multiplied out in
    the group ring: the construction milnor_star_element replaced."""
    k = n + 1
    one = GroupRingElement.one(d, k)
    w = one - GroupRingElement.monomial(d, k, [-1] * k)
    for i in range(k):
        w = w * (one - GroupRingElement.generator(d, k, i))
    return w


@pytest.mark.parametrize("d,n", [(d, n) for d in range(3, 8) for n in range(5)
                                 if d ** (n + 1) <= 5000])
def test_milnor_star_element_is_the_group_ring_product(d, n):
    w = milnor_star_element(d, n)
    assert w == product_star_element(d, n)
    assert all(type(c) is int and all(type(e) is int for e in exps)
               for exps, c in w.coeffs.items())


@pytest.mark.parametrize("d,n", [(3, 0), (3, 1), (3, 2), (3, 3), (3, 4), (4, 1), (4, 2), (4, 3),
                                 (5, 1), (5, 2), (6, 2), (7, 1)])
def test_monomial_pairing_is_the_four_case_formula(d, n):
    rng = random.Random(d * 10 + n)
    for K in product(range(d), repeat=n + 2):
        L = tuple(rng.randrange(d) for _ in range(n + 2))
        assert monomial_pairing(d, n, K, L) == four_case_pairing(d, n, K, L)


def test_monomial_pairing_against_expansion_oracle():
    rng = random.Random(3)
    for _ in range(200):
        d = rng.choice([3, 4, 5])
        n = rng.randrange(0, 4)
        K = tuple(rng.randrange(d) for _ in range(n + 2))
        L = tuple(rng.randrange(d) for _ in range(n + 2))
        assert monomial_pairing(d, n, K, L) == monomial_pairing_oracle(d, n, K, L)


@pytest.mark.parametrize("n,rank", [(0, 2), (1, 2), (2, 6), (3, 10), (4, 22)])
def test_primitive_ranks_d3(n, rank):
    assert build_primitive(3, n).lattice.rank == rank


def test_primitive_rank_d4():
    assert build_primitive(4, 1).lattice.rank == 6
    assert build_primitive(4, 1).lattice.symmetry == "antisymmetric"


def test_cubic_surface_lattice():
    lat = build_primitive(3, 2).lattice
    assert signature(lat) == (0, 6)
    assert is_even(lat)
    assert discriminant(lat).elementary_divisors == (3,)
    assert len(short_vectors(lat, -2)) == 72


def test_odd_n_unimodular():
    for n in (1, 3):
        lat = build_primitive(3, n).lattice
        assert lat.symmetry == "antisymmetric"
        assert abs(determinant(lat)) == 1


def test_fourfold_lattice():
    prim = build_primitive(3, 4)
    assert signature(prim.lattice) == (20, 2)
    assert is_even(prim.lattice)
    assert discriminant(prim.lattice).elementary_divisors == (3,)
    for v in prim.monomial_images.values():
        assert prim.lattice.norm(v) == 2


def test_actions_preserve_gram_and_orders():
    for d, n in [(3, 2), (3, 4), (4, 1)]:
        prim = build_primitive(d, n)
        g = prim.lattice.gram.tolist()
        ident = la.mat_identity(prim.lattice.rank)
        for name, m in prim.actions.items():
            assert la.mat_mul(la.mat_mul(m, g), la.mat_transpose(m)) == g
            order = d if name.startswith("u_") else 2
            p = ident
            for _ in range(order):
                p = la.mat_mul(p, m)
            assert p == ident
        prod = ident
        for i in range(n + 2):
            prod = la.mat_mul(prod, prim.actions[f"u_{i}"])
        assert prod == ident


def test_class_image_consistency():
    # pairing of class images equals the monomial pairing
    rng = random.Random(4)
    prim = build_primitive(3, 2)
    for _ in range(30):
        K = tuple(rng.randrange(3) for _ in range(4))
        L = tuple(rng.randrange(3) for _ in range(4))
        vk = prim.class_image(K)
        vl = prim.class_image(L)
        assert prim.lattice.pairing(vk, vl) == monomial_pairing(3, 2, K, L)


def test_resolution_reports():
    rep = resolution_check(3, 2)
    assert rep["module_ranks"] == [2, 4, 8, 6]
    assert rep["exact"]
    rep41 = resolution_check(4, 1)
    assert rep41["module_ranks"] == [3, 9, 6]
    rep34 = resolution_check(3, 4)
    assert rep34["module_ranks"] == [2, 4, 8, 16, 32, 22]
    # the integral image sits with index d inside the kernel at odd stages
    assert [s["image_kernel_index"] for s in rep34["stages"]] == [3, 1, 3, 1]


def test_image_kernel_index_is_a_pivot_ratio():
    kernel = [[1, 1, 0], [0, 2, 0]]
    assert _image_kernel_index([[3, 3, 0], [0, 2, 0]], kernel) == 3
    assert _image_kernel_index([[2, 0, 0], [1, 3, 0]], kernel) == 3
    assert _image_kernel_index([[1, 3, 0], [0, 2, 0]], kernel) == 1
    assert _image_kernel_index([], []) == 1
    with pytest.raises(VerificationError, match="image does not lie in the kernel"):
        _image_kernel_index([[1, 0, 0], [0, 1, 0]], kernel)


def test_resolution_composites_are_zero():
    for d, n in [(3, 3), (4, 2)]:
        maps = [connecting_map(d, k) for k in range(1, n + 1)]
        for a, b in zip(maps, maps[1:]):
            comp = la.mat_mul(a, b)
            assert not any(x for row in comp for x in row)


def test_build_deterministic_json():
    a = lattice_to_json(build_primitive(3, 3).lattice)
    b = lattice_to_json(build_primitive(3, 3).lattice)
    assert a == b


def test_milnor_basis_order():
    basis = milnor_basis(3, 1)
    assert basis == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_frozen_builds_keep_every_entry():
    # Each matrix M, and the symmetric lattice [[0, M], [M^T, 0]] around
    # it, keeps every entry in the narrowest read-only array.
    for mat in ([[1, -128], [127, 0]], [[300, -40000]], [[2**40, -(2**62)]], [[2**70, 1]], [[]]):
        frozen = la.frozen_int_array(mat)
        assert frozen.tolist() == mat and not frozen.flags.writeable
        assert la.frozen_int_array(frozen) is frozen
        r, c = len(mat), len(mat[0])
        block = ([[0] * r + row for row in mat]
                 + [[mat[i][j] for i in range(r)] + [0] * c for j in range(c)])
        lattice = IntegerLattice(block)
        assert lattice.gram.tolist() == block and lattice.gram.dtype == frozen.dtype
        with pytest.raises(ValueError):
            lattice.gram[0, 0] = 1
    assert la.frozen_int_array([[1, -127]]).dtype == np.int8
    assert la.frozen_int_array([[128]]).dtype == np.int16
    assert la.frozen_int_array([[2**70]]).dtype == object
    with pytest.raises(ValueError, match="square"):
        IntegerLattice([[]])
    with pytest.raises(ValueError, match="symmetry"):
        IntegerLattice([[0, 1], [1, 0]], "antisymmetric")
    with pytest.raises(TypeError):
        IntegerLattice([[Fraction(1, 2)]])


def test_cached_group_ring_elements_are_read_only():
    # The star and connecting elements are lru_cached and shared: a caller
    # that could change their coefficients would change every later build.
    gram, conn = build_milnor(3, 2).gram, connecting_map(3, 2)
    for elt in (milnor_star_element(3, 2), connecting_element(3, 2),
                build_primitive(3, 2).milnor.star_value):
        key = next(iter(elt.coeffs))
        with pytest.raises(TypeError):
            elt.coeffs[key] += 5
        assert pickle.loads(pickle.dumps(elt)) == elt
    assert np.array_equal(build_milnor(3, 2).gram, gram)
    assert connecting_map(3, 2) == conn
    assert not any(h.flags.writeable for h in star_halves(3, 2))
