"""The Milnor module as a tensor power: the symmetry actions, the connecting
maps and the monomial coordinates read off one fold per axis, against the
constructions they replaced (dense N x N action matrices, group-ring
products and the rewrite of u^(d-1) as minus the lower powers)."""

import random
import tracemalloc

import numpy as np
import pytest

from fermatlat import _intlinalg as la
from fermatlat import fermat_homology as fh
from fermatlat.errors import ResourceBoundError
from fermatlat.exact_algebra import GroupRingElement
from fermatlat.hermitian_eigen import chi_reduce

# Every (d, n) with d in 3..6, n in 0..4 and Milnor rank at most 256.
RUNGS = [(d, n) for d in (3, 4, 5, 6) for n in range(5) if (d - 1) ** (n + 1) <= 256]


def oracle_reduce_to_basis(elt, coeff_index, size):
    """Coordinates of a group-ring element in the quotient by (sum_k u_i^k):
    exponent d-1 is rewritten as minus the sum of lower powers until every
    term lies in the monomial basis."""
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


def basis_index(d, n):
    return {b: i for i, b in enumerate(fh.milnor_basis(d, n))}


def oracle_mu_action(d, n, i):
    """Dense row-convention matrix of multiplication by u_i (1-indexed)."""
    index = basis_index(d, n)
    rows = np.zeros((len(index), len(index)), dtype=np.int64)
    pos = i - 1
    for r, K in enumerate(index):
        e = K[pos]
        if e < d - 2:
            rows[r, index[K[:pos] + (e + 1,) + K[pos + 1:]]] = 1
        else:
            for j in range(d - 1):
                rows[r, index[K[:pos] + (j,) + K[pos + 1:]]] = -1
    return rows


def oracle_transposition_action(d, n, i):
    """Dense matrix of the swap of z_i and z_{i+1}, twisted by the sign."""
    index = basis_index(d, n)
    rows = np.zeros((len(index), len(index)), dtype=np.int64)
    for r, K in enumerate(index):
        swapped = list(K)
        swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
        rows[r, index[tuple(swapped)]] = -1
    return rows


def oracle_milnor_actions(d, n):
    """Dense u_i, s_i and u_0 = (u_1...u_{n+1})^(d-1), in the build's order."""
    mats = {f"u_{i}": oracle_mu_action(d, n, i) for i in range(1, n + 2)}
    mats.update({f"s_{i}": oracle_transposition_action(d, n, i) for i in range(1, n + 1)})
    prod = np.eye((d - 1) ** (n + 1), dtype=np.int64)
    for i in range(1, n + 2):
        prod = prod @ mats[f"u_{i}"]
    mats["u_0"] = np.linalg.matrix_power(prod, d - 1)
    return mats


def oracle_connecting_map(d, k):
    """R_k -> R_{k+1} from the group-ring products c.u^(K,0), rewritten."""
    index = basis_index(d, k)
    c = fh.connecting_element(d, k)
    return [oracle_reduce_to_basis(c * GroupRingElement.monomial(d, k + 1, K + (0,)),
                                   index, len(index))
            for K in fh.milnor_basis(d, k - 1)]


@pytest.mark.parametrize("d,n", RUNGS)
def test_folded_actions_match_dense_milnor_matrices(d, n):
    rng = np.random.default_rng(100 * d + n)
    size = (d - 1) ** (n + 1)
    oracle = oracle_milnor_actions(d, n)
    # Identity rows (the certified radical's section) and random integer
    # sections (the Smith-form fallback's section is a general one).
    sections = [np.eye(size, dtype=np.int64)[rng.permutation(size)[:max(1, size // 2)]],
                rng.integers(-9, 10, size=(int(rng.integers(1, size + 1)), size))]
    for sec in sections:
        folded = dict(fh._milnor_actions(d, n, la.frozen_int_array(sec)))
        assert list(folded) == list(oracle)
        for name, mat in oracle.items():
            assert np.array_equal(folded[name], sec @ mat), name


def test_folded_actions_keep_large_sections_exact():
    # Entries just under 2**61 with the signs of the columns of u_0: the
    # n + 1 = 4 folds of u_0 reach 16 * (2**61 - 1), past int64.
    d, n = 3, 3
    oracle = oracle_milnor_actions(d, n)
    sec = (2**61 - 1) * np.sign(oracle["u_0"].T).astype(object)
    folded = dict(fh._milnor_actions(d, n, sec))
    assert max(abs(x) for x in folded["u_0"].flat) == 16 * (2**61 - 1)
    for name, mat in oracle.items():
        assert (folded[name] == sec @ mat.astype(object)).all(), name


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_connecting_maps_match_group_ring_products(d):
    assert fh.connecting_map(d, 0) == [[0] * (d - 1)]
    for k in range(5):
        if (d - 1) ** (k + 1) <= 256:
            assert fh.connecting_map(d, k) == oracle_connecting_map(d, k), k


@pytest.mark.parametrize("d,n", RUNGS)
def test_class_image_matches_rewritten_monomials(d, n):
    # class_image reads only d, n and the projection: a random one will do.
    index = basis_index(d, n)
    projection = np.random.default_rng(d + 10 * n).integers(-9, 10, size=(len(index), 5))
    prim = fh.PrimitiveFermatLattice(d, n, None, {}, {}, la.frozen_int_array(projection), None)
    rng = random.Random(10 * d + n)
    for _ in range(8):
        K = tuple(rng.randrange(d) for _ in range(n + 2))
        mono = GroupRingElement.monomial(d, n + 1, fh.class_rep(K, d)[1:])
        expected = la.vec_mat(oracle_reduce_to_basis(mono, index, len(index)), projection)
        assert prim.class_image(K) == expected


def test_connecting_map_size_bound_refuses_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBoundError, match="8192 exceeds the size bound 4096"):
            fh.connecting_map(3, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_no_actions_above_the_cutoff_is_a_typed_error():
    prim = fh.build_primitive(3, 8)
    assert not prim.actions
    with pytest.raises(ResourceBoundError, match="Milnor rank 512.*Milnor rank 256"):
        prim.action("u_1")
    with pytest.raises(ResourceBoundError, match="Milnor rank 256"):
        chi_reduce(prim, 1)
