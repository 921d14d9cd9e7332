import random

import pytest

from fermatlat import _intlinalg as la
from fermatlat.cubic_period import (
    ball_meets_restriction,
    bounded_box_vectors,
    build_cubic_lattices,
    construct_special_vector,
    eigenlattice,
    hyperplane_meets_eigenball,
    nodal_complement_signature,
    nodal_vectors_in_box,
    orbit_specials,
    planted_remark_self_test,
    special_vectors_in_box,
    verify_remark_52,
)
from fermatlat.errors import ResourceBoundError, VerificationError
from fermatlat.exact_algebra import CyclotomicElement
from fermatlat.fermat_homology import build_primitive
from fermatlat.hermitian_eigen import hermitian_signature
from fermatlat.lattice_core import (
    IntegerLattice,
    determinant,
    discriminant,
    is_even,
    signature,
)


@pytest.fixture(scope="module")
def built():
    return build_cubic_lattices()


def test_glued_lattice_invariants(built):
    assert abs(determinant(built.lambda_full)) == 1
    assert not is_even(built.lambda_full)
    assert signature(built.lambda_full) == (21, 2)
    assert signature(built.lambda_o) == (20, 2)
    assert is_even(built.lambda_o)
    assert discriminant(built.lambda_o).elementary_divisors == (3,)
    assert built.pair_full(built.eta_in_lambda, built.eta_in_lambda) == 3


def test_eta_fixed_and_disc_action_trivial(built):
    for name, m in built.actions_full.items():
        assert la.vec_mat(built.eta_in_lambda, m) == built.eta_in_lambda, name
    # induced action on the order-3 discriminant group of lambda_o is trivial
    gamma3 = [int(3 * x) for x in built.disc_generator]
    for name, m in built.actions_o.items():
        moved = la.vec_mat(gamma3, m)
        assert all((a - b) % 3 == 0 for a, b in zip(moved, gamma3)), name


def test_monomial_images_are_nodal(built):
    prim = build_primitive(3, 4)
    for v in prim.monomial_images.values():
        assert built.is_nodal(v)


def test_special_box_search(built):
    specials = special_vectors_in_box(built, 2)
    assert len(specials) >= 1
    for v in specials:
        assert built.is_special(v)
        e = built.special_e_vector(v)
        assert built.pair_full(e, e) == 1
        assert built.pair_full(e, built.eta_in_lambda) == 1


def test_special_characterizations_on_orbit(built):
    seeds = special_vectors_in_box(built, 2)
    sample = orbit_specials(built, seeds, limit=20)
    assert len(sample) >= 10
    for v in sample:
        assert built.is_special(v)
        assert built.special_eta_sign(v) in (1, -1)
        assert built.special_eta_sign([-x for x in v]) == -built.special_eta_sign(v)


def test_non_special_vectors(built):
    prim = build_primitive(3, 4)
    nodal = next(iter(prim.monomial_images.values()))
    assert not built.is_special(nodal)  # norm 2, not 6
    tripled = [3 * x for x in nodal]   # norm 18, divisibility holds
    assert not built.is_special(tripled)


def test_constructed_special_deterministic(built):
    v1 = construct_special_vector(built)
    v2 = construct_special_vector(built)
    assert v1 == v2
    assert built.is_special(v1)


def test_bounded_box_small_lattice():
    lat = IntegerLattice([[2, 0], [0, 2]])
    hits = bounded_box_vectors(lat, 2, 1)
    assert hits == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert bounded_box_vectors(lat, -10 ** 6, 1) == []


def test_bounded_box_congruence_filter():
    lat = IntegerLattice([[2, 0], [0, 2]])
    # require both pairings divisible by 2, i.e. both coordinates even
    hits = bounded_box_vectors(lat, 8, 2, congruence=(lat.gram, 2))
    assert hits == [(-2, 0), (0, -2), (0, 2), (2, 0)]


def test_bounded_box_cap():
    g = [[2 if i == j else 0 for j in range(22)] for i in range(22)]
    lat = IntegerLattice(g)
    with pytest.raises(ResourceBoundError):
        bounded_box_vectors(lat, 2, 2)


def test_bounded_box_float_guard():
    # 2**49 * bound**2 * n**2 = 2**51: the float64 norm filter is exact.
    ok = IntegerLattice([[2**49, 0], [0, 1]])
    assert bounded_box_vectors(ok, 2**49 + 1, 1) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    for big in (2**51, 2**70):
        with pytest.raises(ResourceBoundError):
            bounded_box_vectors(IntegerLattice([[big, 0], [0, 1]]), big + 1, 1)


def test_rational_inverse_in_lowest_terms():
    from fractions import Fraction
    from fermatlat.cubic_period import _int_inverse, _rational_inverse

    assert _rational_inverse([[Fraction(1, 3), 0], [0, 1]]) == ([[3, 0], [0, 1]], 1)
    assert _rational_inverse([[Fraction(3, 2), 0], [0, 1]]) == ([[2, 0], [0, 3]], 3)
    assert _int_inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    with pytest.raises(VerificationError):
        _int_inverse([[2, 0], [0, 1]])
    with pytest.raises(VerificationError):
        _rational_inverse([[1, 2], [2, 4]])


def test_cached_builders_hand_out_copies():
    prim = build_primitive(3, 4)
    reference = (prim.lattice.gram, prim.projection, prim.actions, prim.monomial_images,
                 prim.milnor.gram)
    built = build_cubic_lattices()
    cubic_reference = (built.actions_o, built.actions_full, built.lambda_full.gram,
                       built.reduction_transform, built.eta_in_lambda)
    eigen_reference = eigenlattice(1)[0].gram
    # The reproduction: this used to change the cached build, after which
    # the cubic construction raised "transported action is not integral".
    build_primitive(3, 4).actions["u_1"][0][0] += 7
    prim = build_primitive(3, 4)
    prim.lattice.gram[0][0] += 1
    prim.projection[0][0] += 1
    prim.monomial_images[next(iter(prim.monomial_images))][0] += 1
    prim.milnor.gram[0][0] += 1
    built = build_cubic_lattices()
    built.actions_o["u_1"][0][0] += 7
    built.lambda_full.gram[0][0] += 1
    built.reduction_transform[0][0] += 1
    built.eta_in_lambda[0] += 1
    h, basis = eigenlattice(1)
    h.gram[0][0] = h.gram[0][0] * 2
    basis.pop()
    prim = build_primitive(3, 4)
    assert (prim.lattice.gram, prim.projection, prim.actions, prim.monomial_images,
            prim.milnor.gram) == reference
    built = build_cubic_lattices()
    assert (built.actions_o, built.actions_full, built.lambda_full.gram,
            built.reduction_transform, built.eta_in_lambda) == cubic_reference
    h, basis = eigenlattice(1)
    assert h.gram == eigen_reference and len(basis) == h.rank


def test_nodal_box_on_sublattice(built):
    hits = nodal_vectors_in_box(built, 1, sublattice_rank=8)
    assert hits
    for v in hits:
        assert built.is_nodal(v)


def test_nodal_complement_signatures(built):
    prim = build_primitive(3, 4)
    rng = random.Random(6)
    monos = list(prim.monomial_images.values())
    for v in rng.sample(monos, 12):
        assert nodal_complement_signature(built, v) == (19, 2)
    with pytest.raises(VerificationError):
        nodal_complement_signature(built, [0] * 22)


@pytest.mark.parametrize("k,sig", [(1, (10, 1)), (2, (4, 1)), (3, (1, 1))])
def test_eigenlattice_signatures(k, sig):
    h, basis = eigenlattice(k)
    assert hermitian_signature(h) == sig
    assert h.rank == sum(sig)
    assert len(basis) == h.rank


def test_eigenlattice_conjugate_convention():
    h, _ = eigenlattice(1, conjugate=True)
    assert hermitian_signature(h) == (10, 1)


def test_eigenlattice_bad_k():
    with pytest.raises(ValueError):
        eigenlattice(4)


def test_hyperplanes_vs_eigenballs(built):
    seeds = special_vectors_in_box(built, 2)
    sample = orbit_specials(built, seeds, limit=25)
    for v in sample:
        meets2, contained2 = hyperplane_meets_eigenball(v, 2)
        assert not meets2          # the k=2 ball avoids special hyperplanes
        assert not contained2
    # at least the k=1 ball is met by some special hyperplane
    assert any(hyperplane_meets_eigenball(v, 1)[0] for v in sample)


def test_hyperplane_requires_special(built):
    prim = build_primitive(3, 4)
    nodal = next(iter(prim.monomial_images.values()))
    with pytest.raises(VerificationError):
        hyperplane_meets_eigenball(nodal, 2)


def test_ball_restriction_containment_branch():
    three = CyclotomicElement.from_int(3, 3)
    zero = CyclotomicElement.zero(3)
    gram = [[three, zero], [zero, -three]]
    meets, contained = ball_meets_restriction(gram, [zero, zero])
    assert meets and contained
    # restricting the (1,1) form to the kernel of x_2 leaves only +3
    one = CyclotomicElement.one(3)
    meets, contained = ball_meets_restriction(gram, [zero, one])
    assert not meets and not contained


def test_remark_search_empty(built):
    for bound in (1, 2):
        rep = verify_remark_52(bound)
        assert rep["hits"] == []
        assert rep["evidence"]
        assert rep["bound"] == bound


def test_remark_planted_self_test():
    assert planted_remark_self_test()
