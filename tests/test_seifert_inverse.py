"""The cyclic-discriminant certificate from the Seifert form: the closed-form
candidate for d.G^-1 of a primitive Fermat lattice against the LAPACK
inverse, the exact product as its only judge, the lattices that carry it,
the float32 tier of int_matmul behind the product, the row-blocked
rank-one test against its unblocked form, the certificate's memory, and
the u^(-1) fold of the radical's invariance check."""

import json
import tracemalloc

import numpy as np
import pytest

from fermatlat import _intlinalg as la
from fermatlat import fermat_homology as fh
from fermatlat import lattice_core as lc
from fermatlat.cli import main
from fermatlat.lattice_core import IntegerLattice, discriminant_is_cyclic_of_order
from test_modp_kernel import count_calls

# Every (d, n) with Milnor rank (d-1)^(n+1) <= 1024 and n >= 1 has d <= 33.
SMALL_RUNGS = [(d, n) for d in range(3, 34) for n in range(10) if (d - 1) ** (n + 1) <= 1024]


def refuse_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.inv was called")

    monkeypatch.setattr(np.linalg, "inv", refuse)


@pytest.mark.parametrize("d,n", SMALL_RUNGS)
def test_closed_form_is_the_lapack_inverse(d, n):
    prim = fh._build_primitive(d, n)
    candidate = lc._inverse_candidate(prim.lattice, d)
    assert candidate is not None and candidate.dtype.kind == "i"
    # No candidate passed: the LAPACK inverse (or CRT) is what is proven.
    x = la.scaled_integer_inverse(prim.lattice.gram, d)
    assert x is not None and np.array_equal(candidate, x)


def test_closed_form_passes_the_exact_product_at_milnor_rank_2048():
    prim = fh._build_primitive(3, 10)
    candidate = lc._inverse_candidate(prim.lattice, 3)
    assert la.scaled_integer_inverse(prim.lattice.gram, 3, candidate) is candidate


@pytest.mark.parametrize("d,n", [(4, 4), (3, 8), (5, 4)])
def test_certificate_needs_no_lapack_inverse(monkeypatch, d, n):
    lattice = fh.build_primitive(d, n).lattice
    refuse_lapack(monkeypatch)
    calls = count_calls(monkeypatch, "modp_solve_matrix")
    assert discriminant_is_cyclic_of_order(lattice, d) is True
    assert calls["modp_solve_matrix"] == 0


def test_determinant_takes_the_candidate_when_its_scale_is_d(monkeypatch):
    lattice = fh.build_primitive(4, 4).lattice
    refuse_lapack(monkeypatch)
    calls = count_calls(monkeypatch, "det_bareiss", "modp_solve_matrix")
    assert lc.determinant(lattice) == 4
    assert lc.discriminant(lattice).elementary_divisors == (4,)
    assert calls == {"det_bareiss": 0, "modp_solve_matrix": 0}


def test_a_wrong_candidate_is_refused_and_lapack_decides():
    lattice = fh.build_primitive(4, 4).lattice
    good = lc._inverse_candidate(lattice, 4)
    bad = good.astype(np.int64)
    bad[3, 5] += 1
    x = la.scaled_integer_inverse(lattice.gram, 4, bad)
    assert x is not bad and np.array_equal(x, good)
    # The same through the lattice: its candidate is off by one, and the
    # LAPACK inverse gives the answer.
    wrong = lattice.relabel("wrong")
    wrong._scaled_inverse = (4, lambda: bad)
    assert discriminant_is_cyclic_of_order(wrong, 4) is True
    assert lc.determinant(wrong) == 4


def test_a_candidate_of_another_scale_or_shape_is_not_taken():
    lattice = fh.build_primitive(3, 4).lattice
    assert lc._inverse_candidate(lattice, 6) is None
    x = lc._inverse_candidate(lattice, 3)
    assert np.array_equal(la.scaled_integer_inverse(lattice.gram, 3, x[:-1]), x)
    # 2.G^-1 is not integral, and no candidate claims it is.
    assert discriminant_is_cyclic_of_order(lattice, 2) is False


def test_a_hand_built_lattice_has_no_candidate_and_the_same_answer():
    prim = fh.build_primitive(5, 4)
    hand = IntegerLattice(prim.lattice.gram, prim.lattice.symmetry)
    assert hand._scaled_inverse is None and lc._inverse_candidate(hand, 5) is None
    assert discriminant_is_cyclic_of_order(hand, 5) is discriminant_is_cyclic_of_order(
        prim.lattice, 5) is True
    assert not discriminant_is_cyclic_of_order(hand, 25)


def test_relabel_keeps_the_candidate():
    lattice = fh.build_primitive(3, 4).lattice
    other = lattice.relabel("other")
    assert other._scaled_inverse is lattice._scaled_inverse is not None
    assert np.array_equal(lc._inverse_candidate(other, 3), lc._inverse_candidate(lattice, 3))
    assert fh.build_milnor(3, 4).lattice._scaled_inverse is None


def test_float32_tier_is_exact_at_the_edge_and_refused_past_it():
    # 128 x 1024 times 1024 x 128: 2**24 multiply-adds, a long product.
    rng = np.random.default_rng(0)
    a = np.full((128, 1024), 127, dtype=np.int64)
    b = rng.integers(128, 130, size=(1024, 128))
    b[0, 0] = 129  # abs max 129: every partial sum <= 127 * 129 * 1024 < 2**24
    assert 127 * 129 * 1024 == 2**24 - 1024
    assert la._matmul_dtype(a, b) == np.float32
    prod = la.int_matmul(a, b)
    assert prod.dtype == np.int64 and np.array_equal(prod, a.astype(object) @ b.astype(object))
    # One more in a: the bound reaches 2**24, and odd sums past it (which
    # float32 cannot hold) come out exact from float64.
    a[:, 0] = 128
    assert la._matmul_dtype(a, b) == np.float64
    prod = la.int_matmul(a, b * 2 - 1)
    assert prod.max() > 2**24 and np.array_equal(prod, a.astype(object) @ (b * 2 - 1).astype(object))
    # One row fewer is a short product: it stays in float64.
    assert la._matmul_dtype(np.full((127, 1024), 127), b) == np.float64
    assert la._matmul_dtype(np.ones((1, 1), dtype=np.int8), np.ones((1, 1), dtype=np.int8)) == np.float64
    assert la._matmul_dtype(np.array([[2**53]]), np.array([[1]])) == np.int64


def test_the_5_4_certificate_peaks_below_10_mb():
    # numpy reports its buffers to tracemalloc.  The unblocked certificate
    # peaked at 16.3 MB here: two 1024 x 1024 float32 copies of Z, Z.P,
    # and q x q int64 residues and products (q = 820).
    lattice = fh.build_primitive(5, 4).lattice
    tracemalloc.start()
    try:
        assert discriminant_is_cyclic_of_order(lattice, 5) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_lattice_primitive_runs_one_determinant_certificate(monkeypatch, capsys):
    cached = fh._build_primitive_cached(4, 4).lattice
    scale, build = cached._scaled_inverse
    calls = count_calls(monkeypatch, "scaled_integer_inverse", "smith_divisors_mod")
    calls["_seifert_inverse"] = 0

    def counted():
        calls["_seifert_inverse"] += 1
        return build()

    monkeypatch.setattr(cached, "_scaled_inverse", (scale, counted))
    assert main(["lattice", "--d", "4", "--n", "4", "--primitive"]) == 0
    invariants = json.loads(capsys.readouterr().out)["invariants"]
    assert (invariants["determinant"], invariants["discriminant_divisors"]) == (4, [4])
    assert calls == {"scaled_integer_inverse": 1, "smith_divisors_mod": 1, "_seifert_inverse": 1}


def rank_one_oracle(x, p, q):
    """The rank-one test of discriminant_is_cyclic_of_order as it was before
    it ran in row blocks: q x q int64 residues and one outer product."""
    r = np.asarray(x % q, dtype=np.int64) if x.dtype == object else np.mod(x, q, dtype=np.int64)
    units = np.flatnonzero(r % p)
    if not units.size:
        return False
    i, j = divmod(int(units[0]), len(x))
    row = r[i] * pow(int(r[i, j]), -1, q) % q
    return np.array_equal(np.outer(r[:, j], row) % q, r)


CASES = ["rank one", "unit past row 128", "unit past row 128, broken before it", "no unit",
         "rank two", "rank one mod p only"]


def synthetic_x(case, p, q, dtype, size=300):
    """A size x size integer X with the residues mod q that case names,
    lifted by random multiples of q within the range of dtype."""
    rng = np.random.default_rng([size, p, q, CASES.index(case)])
    col, row = rng.integers(0, q, size), rng.integers(0, q, size)
    row[7] = 1  # a unit in every row whose col entry is a unit
    if case == "unit past row 128":
        col[:200] = p * rng.integers(0, q, 200) % q
        col[200] = 1
        res = np.outer(col, row) % q
    elif case == "unit past row 128, broken before it":
        col[:200] = p * rng.integers(0, q, 200) % q
        col[200] = 1
        res = np.outer(col, row) % q
        res[20, 3] = (res[20, 3] + p) % q
    elif case == "no unit":
        res = p * rng.integers(0, q, (size, size)) % q
    elif case == "rank two":
        col2, row2 = rng.integers(0, q, size), rng.integers(0, q, size)
        col2[:2], row2[:8] = (0, 1), 0
        row2[9] = 1
        res = (np.outer(col, row) + np.outer(col2, row2)) % q
    elif case == "rank one mod p only":
        res = (np.outer(col, row) + p * rng.integers(0, 2, (size, size))) % q
    else:
        res = np.outer(col, row) % q
    top = 127 if dtype == np.int8 else 30000
    lift = rng.integers(-(top // q) + 1, top // q, (size, size))
    if dtype == object:
        return (res + q * lift).astype(object) + q * 2**70
    return (res + q * lift).astype(dtype)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64, object], ids=str)
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("p,q", [(2, 4), (5, 5), (3, 9)])
def test_blocked_rank_one_test_is_the_unblocked_one(dtype, case, p, q):
    x = synthetic_x(case, p, q, dtype)
    assert x.dtype == dtype
    want = {"rank one": True, "unit past row 128": True, "no unit": False,
            "rank two": False}.get(case)
    if case.endswith("broken before it") or case == "rank one mod p only":
        want = q == p  # rank one mod p is the whole test when q = p
    assert rank_one_oracle(x, p, q) is want
    assert lc._is_rank_one_with_unit(x, p, q) is want


def test_rank_one_test_past_int64_products():
    # q = 2**61 - 1 is prime: residues are Python ints, where int64 products
    # of two would wrap.
    q = 2**61 - 1
    col, row = np.array([3, q - 2, 2**60], dtype=object), np.array([1, q - 5, 2**59], dtype=object)
    x = np.outer(col, row) % q
    assert lc._is_rank_one_with_unit(x, q, q) is True
    x[2, 2] += 1
    assert lc._is_rank_one_with_unit(x, q, q) is False


def padded_rolled_fold(x, axis, e, d):
    """The right fold x.U^e as it was: pad a zero u^(d-1) slot, roll by e,
    and fold that slot back into the others."""
    padded = np.concatenate([x, np.zeros_like(x.take([0], axis=axis))], axis=axis)
    rolled = np.roll(padded, e, axis=axis)
    return rolled.take(range(d - 1), axis=axis) - rolled.take([d - 1], axis=axis)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64])
@pytest.mark.parametrize("d", [3, 4, 5, 7])
def test_u_inverse_fold_is_the_rolled_fold(dtype, d):
    rng = np.random.default_rng(d)
    top = min(np.iinfo(dtype).max // 8, 1000)  # three folds, each at most doubling
    x = rng.integers(-top, top + 1, size=(d - 1,) * 4).astype(dtype)
    for axis in range(4):
        folded = fh._times_u(x, axis, d - 1, d)
        assert folded.dtype == dtype
        assert np.array_equal(folded, padded_rolled_fold(x, axis, d - 1, d))
    # Axis 0 holds the rows, as in the radical's check; u_0 folds every other axis.
    expected, folded = x, x
    for axis in range(1, 4):
        expected = padded_rolled_fold(expected, axis, d - 1, d)
        folded = fh._times_u(folded, axis, d - 1, d)
    assert np.array_equal(folded, expected)
