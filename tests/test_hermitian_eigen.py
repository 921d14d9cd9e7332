import numpy as np
import pytest

from fermatlat.errors import VerificationError
from fermatlat.exact_algebra import CyclotomicElement
from fermatlat.fermat_homology import build_primitive
from fermatlat.hermitian_eigen import (
    HermitianLattice,
    chi_form_on_classes,
    chi_reduce,
    cor23_rank,
    det_norms_agree_up_to_ramified,
    expected_sign,
    hermitian_gram,
    hermitian_signature,
    signatures_agree_up_to_sign,
    _parity_normalize,
)


def off_parity_consistency_report(d, n):
    """Diagnostics for the opposite-parity table variant, whose
    well-definedness is not established: literal rank versus reduction rank."""
    sign = -expected_sign(n)
    h = hermitian_gram(d, n, sign)
    expected = cor23_rank(d, n - 1)
    return {
        "d": d,
        "n": n,
        "sign": sign,
        "literal_table_rank": h.rank,
        "reduction_rank": expected,
        "consistent": h.rank == expected,
    }


def test_cor23_rank_values():
    assert cor23_rank(3, 3) == 11
    assert cor23_rank(3, 2) == 5
    assert cor23_rank(3, 0) == 1


def test_chi_reduce_fourfold():
    prim = build_primitive(3, 4)
    expected = {1: (11, (10, 1), False), 2: (5, (4, 1), False), 3: (2, (1, 1), True)}
    for k, (rank, sig, excluded) in expected.items():
        h = chi_reduce(prim, k)
        assert h.rank == rank
        assert hermitian_signature(h) == sig
        assert h.excluded == excluded
        assert h.scaling == 1


def test_chi_reduce_rank_formula_grid():
    for d, n, k in [(3, 1, 1), (3, 2, 1), (3, 2, 2), (3, 3, 2), (4, 2, 1),
                    (4, 2, 2), (4, 3, 3), (5, 1, 1)]:
        prim = build_primitive(d, n)
        h = chi_reduce(prim, k)
        assert h.rank == cor23_rank(d, n - k), (d, n, k)


def test_hermitian_gram_diagonals():
    assert hermitian_gram(3, 2, +1).gram[0][0] == 3
    assert hermitian_gram(3, 1, -1).gram[0][0] == 1


def test_hermitian_gram_rank_small():
    h = hermitian_gram(3, 2, +1)
    assert h.rank == cor23_rank(3, 1) == 3
    # The normalization pins the table-positive diagonal, so the stored form
    # is the negative of the (negative definite) geometric one.
    assert hermitian_signature(h) == (3, 0)


def test_hermitian_gram_matches_reduction_on_basis():
    for d, n in [(3, 1), (3, 2), (4, 1)]:
        sign = expected_sign(n)
        h = hermitian_gram(d, n, sign)
        prim = build_primitive(d, n)
        classes = [K + (0,) for K in h.basis_labels]
        chi, _ = _parity_normalize(d, n, chi_form_on_classes(prim, 1, classes))
        assert np.array_equal(chi, h.coords)


def test_off_parity_table_is_inconsistent():
    # The opposite-parity table variant is not known to be well defined; the
    # report must expose the rank mismatch rather than assume consistency.
    rep = off_parity_consistency_report(3, 2)
    assert not rep["consistent"]
    h = hermitian_gram(3, 2, -1)
    assert not h.parity_consistent


def test_across_k_shadow():
    for m in (0, 1, 2):
        data = []
        for k in (1, 2):
            prim = build_primitive(3, m + k)
            h = chi_reduce(prim, k)
            data.append((h.rank, hermitian_signature(h), h.det_norm()))
        (r0, s0, d0), (r1, s1, d1) = data
        assert r0 == r1
        assert signatures_agree_up_to_sign(s0, s1)
        assert det_norms_agree_up_to_ramified(d0, d1, 3)


def test_signature_helpers():
    assert signatures_agree_up_to_sign((4, 1), (1, 4))
    assert signatures_agree_up_to_sign((4, 1), (4, 1))
    assert not signatures_agree_up_to_sign((4, 1), (3, 2))
    assert det_norms_agree_up_to_ramified(9, 1, 3)
    assert det_norms_agree_up_to_ramified(1, 27, 3)
    assert not det_norms_agree_up_to_ramified(2, 1, 3)


def test_hermitian_signature_diagonal():
    h = hermitian_gram(3, 2, +1)
    one_by_one = type(h)(3, [[CyclotomicElement.from_int(3, 3)]], "h_plus")
    assert hermitian_signature(one_by_one) == (1, 0)


def test_signature_refused_when_embeddings_disagree():
    # At zeta -> exp(2 pi i/5) and exp(4 pi i/5) these reductions have
    # signatures (10, 3), (12, 1) for k = 1 and (1, 2), (3, 0) for k = 2.
    prim = build_primitive(5, 2)
    for k in (1, 2):
        with pytest.raises(VerificationError):
            hermitian_signature(chi_reduce(prim, k))


def test_signature_per_embedding_over_q_zeta5():
    # sqrt(5) = z - z^2 - z^3 + z^4 is positive at t = 1 and negative at t = 2.
    z = CyclotomicElement.zeta(5)
    root5 = z - z * z - z * z * z + z * z * z * z
    zero = CyclotomicElement.zero(5)
    h = HermitianLattice(5, [[root5, zero], [zero, root5]], "raw")
    with pytest.raises(VerificationError):
        hermitian_signature(h)
    five = root5 * root5
    assert five == 5
    h = HermitianLattice(5, [[five, zero], [zero, -five]], "raw")
    assert hermitian_signature(h) == (1, 1)


def test_gram_is_hermitian_validated():
    z = CyclotomicElement.zeta(3)
    with pytest.raises(VerificationError):
        from fermatlat.hermitian_eigen import HermitianLattice
        HermitianLattice(3, [[z]], "raw")  # zeta is not real


def test_k_out_of_range():
    prim = build_primitive(3, 2)
    with pytest.raises(ValueError):
        chi_reduce(prim, 5)
