"""The Milnor module as a tensor power: the symmetry actions, the connecting
maps and the monomial coordinates read off one fold per axis, against the
constructions they replaced (dense N x N action matrices, section.M.P with
the dense relation checks, group-ring products and the rewrite of u^(d-1)
as minus the lower powers)."""

import random
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from fermatlat import _intlinalg as la
from fermatlat import fermat_homology as fh
from fermatlat.errors import ResourceBoundError, VerificationError
from fermatlat.exact_algebra import GroupRingElement
from fermatlat.hermitian_eigen import chi_reduce, cor23_rank
from fermatlat.lattice_core import radical_quotient

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


def oracle_verify_actions(d, g, actions, mu_product):
    """The dense relation checks on the quotient: isometry, order d (u_i)
    or 2 (s_i), u_0 inverse to mu_product = u_1...u_{n+1}, and sum_k u_0^k
    = 0."""
    ident = np.eye(len(g), dtype=np.int64)
    for name, m in actions.items():
        if not np.array_equal(la.int_matmul(la.int_matmul(m, g), m.T), g):
            raise VerificationError(f"action {name} does not preserve the pairing")
        order = d if name.startswith("u_") else 2
        if not np.array_equal(reduce(la.int_matmul, [m] * order), ident):
            raise VerificationError(f"action {name} does not have order dividing {order}")
    if not np.array_equal(la.int_matmul(actions["u_0"], mu_product), ident):
        raise VerificationError("u_0 is not inverse to u_1...u_{n+1}")
    acc = np.zeros_like(ident)
    p = ident
    for _ in range(d):
        acc = acc + p
        p = la.int_matmul(p, actions["u_0"])
    if np.any(acc):
        raise VerificationError("sum of powers of u_0 does not vanish")


def oracle_primitive_actions(d, n):
    """section.M.P with the dense Milnor matrices, on the radical quotient
    of the Milnor lattice taken on its own."""
    quotient, projection, section = radical_quotient(fh.build_milnor(d, n).lattice)
    actions = {name: la.frozen_int_array(la.int_matmul(la.int_matmul(section, m), projection))
               for name, m in oracle_milnor_actions(d, n).items()}
    return quotient.gram, projection, actions


@pytest.mark.parametrize("d,n", RUNGS + [(3, 8)])
def test_actions_match_the_dense_construction(d, n):
    prim = fh.build_primitive(d, n)
    gram, projection, oracle = oracle_primitive_actions(d, n)
    assert np.array_equal(prim.lattice.gram, gram)
    assert np.array_equal(prim.projection, projection)
    assert list(prim.actions) == list(oracle)
    for name, mat in oracle.items():
        assert prim.actions[name].dtype == mat.dtype, name
        assert np.array_equal(prim.actions[name], mat), name
    prod = reduce(la.int_matmul, [prim.actions[f"u_{i}"] for i in range(1, n + 2)])
    oracle_verify_actions(d, la.int_array(gram), prim.actions, prod)


@pytest.mark.parametrize("d,n", RUNGS)
def test_folded_actions_match_dense_milnor_matrices(d, n):
    # The left folds of a random integer P against the dense M.P.
    rng = np.random.default_rng(100 * d + n)
    size = (d - 1) ** (n + 1)
    p = la.frozen_int_array(rng.integers(-9, 10, size=(size, int(rng.integers(1, size + 1)))))
    oracle = oracle_milnor_actions(d, n)
    folded = dict(fh._milnor_products(d, n, p))
    assert list(folded) == list(oracle)
    for name, mat in oracle.items():
        assert np.array_equal(folded[name], mat @ p), name


def test_folded_actions_keep_large_sections_exact():
    # Entries near 2**63 / N with the signs of the rows of u_0: its n + 1 =
    # 4 folds reach N * c, just below 2**63 (int64) or just past it (object).
    d, n = 3, 3
    oracle = oracle_milnor_actions(d, n)
    for c, dtype in ((2**63 // 16 - 1, np.int64), (2**63 // 16 + 1, object)):
        p = c * np.sign(oracle["u_0"].T).astype(object)
        folded = dict(fh._milnor_products(d, n, p))
        assert folded["u_0"].dtype == dtype
        assert max(abs(int(x)) for x in folded["u_0"].flat) == 16 * c
        for name, mat in oracle.items():
            assert (folded[name] == mat.astype(object) @ p).all(), name


@pytest.mark.parametrize("d", [3, 5, 7])
def test_per_axis_checks_refuse_a_wrong_u_or_v1(d, monkeypatch):
    times_u, seifert_axis = fh._times_u, fh._seifert_axis
    # -U keeps the isometry but has order 2d (d odd), and U^T has order d
    # but moves V_1; neither is the companion matrix of 1 + ... + u^(d-1).
    # The build runs the check at every n, n = 0 too.
    for u in (lambda u: -u, lambda u: u.T):
        monkeypatch.setattr(fh, "_times_u", lambda x, axis, e, d, left=False:
                            u(times_u(x, axis, e, d, left)) if e == 1
                            else times_u(x, axis, e, d, left))
        for check in (lambda: fh._axis_check(d), lambda: fh._build_primitive(d, 0)):
            with pytest.raises(VerificationError, match="per-axis check of the actions"):
                check()
    # V_1.A^T = -V_1^T with U.A = I implies U.V_1.U^T = V_1, so a wrong V_1
    # fails the radical's check.
    monkeypatch.setattr(fh, "_times_u", times_u)
    monkeypatch.setattr(fh, "_seifert_axis", lambda d: seifert_axis(d).T)
    for check in (lambda: fh._axis_check(d), lambda: fh._build_primitive(d, 0)):
        with pytest.raises(VerificationError, match="per-axis check of the radical"):
            check()


@pytest.mark.parametrize("dtype", [np.int16, np.int64])
@pytest.mark.parametrize("d", range(3, 13))
def test_fold_is_the_product_with_the_power_of_u(d, dtype):
    # x.U^e and U^e.x along every axis, exactly in object dtype, for the
    # matrices U^e of _u_powers.  Entries at most 200 grow at most 11-fold.
    rng = np.random.default_rng(d)
    powers = [u.astype(object) for u in fh._u_powers(d)]
    for ndim in (3, 4):
        x = rng.integers(-200, 201, size=(d - 1,) * (ndim - 1) + (3,)).astype(dtype)
        for axis in range(ndim - 1):
            moved = np.moveaxis(x, axis, -1).astype(object)
            for e in range(d):
                right = np.moveaxis(moved @ powers[e], -1, axis)
                left = np.moveaxis(moved @ powers[e].T, -1, axis)
                for side, want in ((False, right), (True, left)):
                    got = fh._times_u(x, axis, e, d, left=side)
                    assert got.dtype == dtype and got.flags.c_contiguous
                    assert (got == want).all(), (axis, e, side)
    # The result keeps x's layout: a Fortran-ordered x gives one.
    x = np.asfortranarray(rng.integers(-9, 10, size=(d - 1, d - 1, 2)))
    assert fh._times_u(x, 1, 1, d, left=True).flags.f_contiguous


@pytest.mark.parametrize("d", [3, 5, 7])
def test_per_axis_checks_refuse_a_wrong_left_fold(d, monkeypatch):
    # The actions run the left fold: its transpose (the right fold) or a
    # wrong sign in the summed slot is refused before any action is built.
    times_u = fh._times_u

    def plus_sum(x, axis, e, d, left=False):
        out = times_u(x, axis, e, d, left)
        if left and e:
            np.moveaxis(out, axis, 0)[d - 1 - e] *= -1
        return out

    for wrong in (lambda x, axis, e, d, left=False: times_u(x, axis, e, d), plus_sum):
        monkeypatch.setattr(fh, "_times_u", wrong)
        for n in (0, 1, 2):
            with pytest.raises(VerificationError, match="per-axis check of the actions"):
                fh._build_primitive(d, n)


def test_relations_hold_on_random_vectors_at_milnor_rank_2048():
    # The relations of oracle_verify_actions, at O(rank^2) per action:
    # vector-matrix products of random integer vectors only.
    d, n = 3, 10
    prim = fh.build_primitive(d, n)
    acts = {name: la.int_array(m) for name, m in prim.actions.items()}
    g = la.int_array(prim.lattice.gram)
    x = np.random.default_rng(7).integers(-5, 6, size=(3, prim.lattice.rank))
    assert len(acts) == 2 * n + 2
    for name, m in acts.items():
        xm = la.int_matmul(x, m)
        assert np.array_equal(la.int_matmul(la.int_matmul(xm, g), xm.T),
                              la.int_matmul(la.int_matmul(x, g), x.T)), name
        assert np.array_equal(reduce(la.int_matmul, [m] * (d if name[0] == "u" else 2), x), x), name
    assert np.array_equal(reduce(la.int_matmul, [acts[f"u_{i}"] for i in range(n + 2)], x), x)
    powers = [x]
    for _ in range(d - 1):
        powers.append(la.int_matmul(powers[-1], acts["u_0"]))
    assert not np.any(sum(powers))


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
    prim = fh.PrimitiveFermatLattice(d, n, None, {}, la.frozen_int_array(projection), None)
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


@pytest.mark.parametrize("k", [1, 2])
def test_chi_reduce_past_milnor_rank_256(k):
    h = chi_reduce(fh.build_primitive(3, 8), k)
    assert h.rank == cor23_rank(3, 8 - k) == {1: 171, 2: 85}[k]
