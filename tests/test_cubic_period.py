import random

import numpy as np
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
from fermatlat.fermat_homology import build_primitive
from fermatlat.hermitian_eigen import HermitianLattice, hermitian_signature
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
        assert tuple(la.vec_mat(built.eta_in_lambda, m)) == built.eta_in_lambda, name
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
    assert any(abs(x) == 1 for x in v1)


def test_special_vector_without_a_unit_coefficient_is_refused(built, monkeypatch):
    from fermatlat import cubic_period
    monkeypatch.setattr(cubic_period, "construct_special_vector", lambda _built: [2] * 22)
    with pytest.raises(VerificationError, match="no \\+-1 coefficient"):
        cubic_period._special_adapted_basis(built)


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


def test_conjugate_int_refuses_a_non_unimodular_matrix():
    from fermatlat.cubic_period import _conjugate_int

    assert _conjugate_int([[2, 1], [1, 1]], [[0, 1], [1, 0]]) == [[-1, 3], [0, 1]]
    with pytest.raises(VerificationError, match="not unimodular"):
        _conjugate_int([[2, 0], [0, 1]], [[1, 0], [0, 1]])


def primitive_arrays(prim):
    return ([prim.lattice.gram, prim.projection, prim.milnor.gram]
            + [prim.actions[name] for name in sorted(prim.actions)]
            + [prim.monomial_images[K] for K in sorted(prim.monomial_images)])


def cubic_arrays(built):
    return ([built.lambda_o.gram, built.lambda_full.gram, built.lambda_o_in_lambda,
             built.reduced_basis, built.reduction_transform]
            + [built.actions_o[name] for name in sorted(built.actions_o)]
            + [built.actions_full[name] for name in sorted(built.actions_full)])


def test_cached_builders_share_read_only_arrays():
    # The primitive build is shared read-only arrays: every write raises.
    prim = build_primitive(3, 4)
    reference = [a.copy() for a in primitive_arrays(prim)]
    # The reproduction: this used to change the cached build, after which
    # the cubic construction raised "transported action is not integral".
    with pytest.raises(ValueError):
        build_primitive(3, 4).actions["u_1"][0][0] += 7
    prim = build_primitive(3, 4)
    for a in primitive_arrays(prim):
        with pytest.raises(ValueError):
            a[0] += 1
    with pytest.raises(TypeError):
        prim.actions["u_1"] = None
    with pytest.raises(AttributeError):
        prim.actions.clear()
    assert build_primitive(3, 4).actions is prim.actions
    prim.monomial_images.clear()
    prim.lattice.label = prim.milnor.lattice.label = "changed"
    prim = build_primitive(3, 4)
    later = primitive_arrays(prim)
    assert len(later) == len(reference)
    assert all(np.array_equal(a, b) for a, b in zip(later, reference))
    assert (prim.lattice.label, prim.milnor.lattice.label) == ("primitive(d=3,n=4)",
                                                               "milnor(d=3,n=4)")

    # So are the glued lattices and the eigenlattices, and two calls share
    # the very same arrays.
    built = build_cubic_lattices()
    arrays, eta = cubic_arrays(built), built.eta_in_lambda
    assert isinstance(eta, tuple) and isinstance(built.disc_generator, tuple)
    assert len(arrays) == 5 + 2 * len(prim.actions)
    assert built.actions_o["u_1"] is prim.actions["u_1"]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0, 0] += 1
    eigen = {k: eigenlattice(k) for k in (1, 2, 3)}
    for h, basis in eigen.values():
        for a in (h.coords, basis):
            with pytest.raises(ValueError):
                a[0, 0, 0] += 1
    eigen_grams = {k: h.gram for k, (h, _basis) in eigen.items()}

    # Rebinding fields, clearing dicts or changing element rows on one
    # call's objects does not reach the next call.
    built.actions_o.clear()
    built.actions_full.clear()
    built.lambda_o.label = built.lambda_full.label = "changed"
    built.reduction_transform = built.eta_in_lambda = None
    h, basis = eigen[1]
    h.gram[0][0] = h.gram[0][0] * 2
    h.coords = h.basis_labels = None

    again = build_cubic_lattices()
    assert again is not built
    assert (again.lambda_o.label, again.lambda_full.label) == ("lambda_o", "lambda")
    assert again.eta_in_lambda == eta
    assert len(cubic_arrays(again)) == len(arrays)
    assert all(a is b for a, b in zip(cubic_arrays(again), arrays))
    for k, (h, basis) in eigen.items():
        h2, basis2 = eigenlattice(k)
        assert h2 is not h and h2.gram == eigen_grams[k]
        assert h2.coords is eigenlattice(k)[0].coords and basis2 is basis
        assert len(basis2) == h2.rank


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
    h = HermitianLattice(3, np.array([[[3, 0], [0, 0]], [[0, 0], [-3, 0]]]), "raw")
    meets, contained = ball_meets_restriction(h, np.zeros((2, 2), dtype=np.int64))
    assert meets and contained
    # restricting the (1,1) form to the kernel of x_2 leaves only +3
    meets, contained = ball_meets_restriction(h, np.array([[0, 0], [1, 0]]))
    assert not meets and not contained


def test_remark_search_empty(built):
    for bound in (1, 2):
        rep = verify_remark_52(bound)
        assert rep["hits"] == []
        assert rep["evidence"]
        assert rep["bound"] == bound


def test_remark_planted_self_test():
    assert planted_remark_self_test()
