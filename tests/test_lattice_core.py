import random
import time
from fractions import Fraction

import numpy as np
import pytest

from fermatlat import _intlinalg as la
from fermatlat import lattice_core as lc
from fermatlat.errors import (
    DegenerateLatticeError,
    IndefiniteLatticeError,
    InvalidGlueError,
    WrongSymmetryError,
)
from fermatlat.lattice_core import (
    ANTISYMMETRIC,
    SYMMETRIC,
    GlueSpec,
    IntegerLattice,
    determinant,
    discriminant,
    discriminant_is_cyclic_of_order,
    glue,
    glue_with_basis,
    is_even,
    lattice_from_json,
    lattice_to_json,
    radical_quotient,
    short_vectors,
    signature,
    smith_normal_form,
)
from test_modp_kernel import count_calls

A2 = IntegerLattice([[2, 1], [1, 2]])


def discriminant_group_generators(lattice):
    """Generators of L*/L as rational vectors in basis coordinates, with
    orders, from the Smith form with transforms."""
    divisors, (u, v) = smith_normal_form(lattice.gram)
    if any(dv == 0 for dv in divisors):
        raise DegenerateLatticeError("degenerate pairing has no discriminant group")
    return [([Fraction(v[row][i], dv) for row in range(lattice.rank)], dv)
            for i, dv in enumerate(divisors) if dv > 1]


def random_symmetric(rng, n, lo=-4, hi=4):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randrange(lo, hi + 1)
    return m


def test_snf_examples():
    divisors, (u, v) = smith_normal_form([[2, 1], [1, 2]])
    assert divisors == [1, 3]
    assert la.mat_mul(la.mat_mul(u, [[2, 1], [1, 2]]), v) == [[1, 0], [0, 3]]
    assert smith_normal_form([[1, 0], [0, 1]])[0] == [1, 1]
    assert smith_normal_form([[0, 0], [0, 0]])[0] == [0, 0]


# U.diag(36, 24, 8, -1, 4).U^T: a pivot loop that fixed divisibility by
# adding a whole row ran past 20 s on it with entries of hundreds of digits.
GRAM_5 = [[379, 1093, 16, -727, 1169], [1093, 3327, 80, -2037, 3447],
          [16, 80, 8, -16, 64], [-727, -2037, -16, 1427, -2217],
          [1169, 3447, 64, -2217, 3639]]
# A divisibility fix that adds a row loops on this one: the next row
# Hermite form reduces the added row straight back.
RECT_5x3 = [[3, -1, 1], [-2, 4, 2], [3, 5, -6], [0, 6, 5], [2, 6, -4]]


def assert_smith_form(m, divisors, u, v):
    rows, cols = len(m), len(m[0])
    prod = la.mat_mul(la.mat_mul(u, m), v)
    assert prod == [[divisors[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
    assert len(divisors) == min(rows, cols)
    assert all(x >= 0 for x in divisors)
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0 if a else b == 0
    assert abs(la.det_bareiss(u)) == 1 and abs(la.det_bareiss(v)) == 1


def test_snf_of_a_gram_with_growing_entries():
    divisors, (u, v) = smith_normal_form(GRAM_5)
    assert divisors == [1, 4, 4, 24, 72]
    assert_smith_form(GRAM_5, divisors, u, v)


def test_snf_divisibility_chain():
    rng = random.Random(5)
    cases = [RECT_5x3, [[0, 3], [0, 0]], [[0, 0, 0]]]
    for _ in range(60):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        m = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.4:
            # A multiple of another row makes the matrix rank-deficient.
            i, j = rng.sample(range(rows), 2)
            m[i] = [rng.randrange(-3, 4) * x for x in m[j]]
        cases.append(m)
    for m in cases:
        divisors, (u, v) = smith_normal_form(m)
        assert_smith_form(m, divisors, u, v)
        assert la.smith_normal_form(m)[0] == divisors


def test_radical_quotient_explicit():
    q, proj, reps = radical_quotient(IntegerLattice([[2, 0], [0, 0]]))
    assert q.gram.tolist() == [[2]]
    assert proj.tolist() == [[1], [0]]
    assert la.mat_mul(reps, proj) == [[1]]


def test_radical_quotient_supplied_kernel_edge_cases():
    # Entries beyond int64, with the kernel supplied.
    big = IntegerLattice([[2**70, 0, 2**70], [0, 0, 0], [2**70, 0, 2**70]])
    q, proj, reps = radical_quotient(big, [[0, 1, 0], [1, 0, -1]])
    assert q.gram.tolist() == [[2**70]] and proj.tolist() == [[1], [0], [1]]
    assert reps.tolist() == [[0, 0, 1]]
    # Everything is radical: the quotient has rank 0.
    q, proj, reps = radical_quotient(IntegerLattice([[0, 0], [0, 0]]), [[1, 0], [0, 1]])
    assert q.rank == 0 and proj.tolist() == [[], []] and reps.tolist() == []
    with pytest.raises(ValueError):
        radical_quotient(A2, [[1, 0]])


def test_radical_quotient_slices_a_run_and_gathers_otherwise():
    # The kept columns 1, 2 are a run: the quotient Gram is a slice of the
    # Gram, copied C-contiguous even from a Fortran-ordered Gram.  The kept
    # columns 0, 2 are gathered.  The representatives are q x N unit rows
    # either way.
    run = IntegerLattice(np.asfortranarray([[0, 0, 0], [0, 2, -1], [0, -1, 2]]))
    assert run.gram.flags.f_contiguous and not run.gram.flags.c_contiguous
    q, proj, reps = radical_quotient(run)
    assert q.gram.tolist() == [[2, -1], [-1, 2]] and q.gram.flags.c_contiguous
    assert proj.tolist() == [[0, 0], [1, 0], [0, 1]]
    assert reps.dtype == np.int8 and reps.tolist() == [[0, 1, 0], [0, 0, 1]]
    gap = IntegerLattice([[2, 0, -1], [0, 0, 0], [-1, 0, 2]])
    q, proj, reps = radical_quotient(gap)
    assert q.gram.tolist() == [[2, -1], [-1, 2]] and not np.shares_memory(q.gram, gap.gram)
    assert proj.tolist() == [[1, 0], [0, 0], [0, 1]]
    assert reps.dtype == np.int8 and reps.tolist() == [[1, 0, 0], [0, 0, 1]]


def test_relabel_copies_the_checked_fields(monkeypatch):
    lattice = IntegerLattice([[0, 3], [-3, 0]], ANTISYMMETRIC, label="a")

    def refuse(*args, **kwargs):
        raise AssertionError("relabel checked the gram again")

    monkeypatch.setattr(IntegerLattice, "__init__", refuse)
    other = lattice.relabel("b")
    assert other.gram is lattice.gram and other.label == "b" and lattice.label == "a"
    assert other.rank == 2 and other.symmetry == ANTISYMMETRIC and other == lattice


def test_a_new_gram_is_checked_against_its_symmetry():
    for gram, symmetry in [([[0, 1], [2, 0]], SYMMETRIC), ([[0, 1], [1, 0]], ANTISYMMETRIC),
                           ([[1, 0], [0, 0]], ANTISYMMETRIC)]:
        with pytest.raises(ValueError, match="symmetry flag"):
            IntegerLattice(gram, symmetry)


def test_radical_quotient_nondegenerate_identity():
    q, proj, _ = radical_quotient(A2)
    assert q == A2 and proj.tolist() == [[1, 0], [0, 1]]



@pytest.mark.parametrize("d, n", [(4, 3), (3, 5), (4, 4)])
def test_integer_right_kernel_of_a_milnor_gram_is_the_certified_radical(d, n):
    # Two independent radicals: the Hermite form of [G | I] and the mod-p
    # kernel with its exact certificate.
    from fermatlat.fermat_homology import build_milnor
    gram = build_milnor(d, n).gram
    assert la.right_kernel(gram) == lc.certified_radical(gram).tolist()


def test_radical_quotient_of_a_milnor_lattice_takes_the_certified_radical():
    # The integer right kernel of this rank-243 Gram takes about 0.4 s, the
    # certified radical about 0.02 s, so radical_quotient takes the latter.
    from fermatlat.fermat_homology import build_milnor, build_primitive
    milnor = build_milnor(4, 4).lattice
    started = time.perf_counter()
    q, proj, _ = radical_quotient(milnor)
    assert time.perf_counter() - started < 1
    prim = build_primitive(4, 4)
    assert np.array_equal(q.gram, prim.lattice.gram)
    assert np.array_equal(proj, prim.projection)


def test_radical_with_a_non_unit_hnf_pivot_falls_back(monkeypatch):
    # The radical is spanned by (2, 3): no mod-p kernel lifts to it, so the
    # integer kernel and the Smith completion take over.
    gram = [[9, -6], [-6, 4]]
    assert lc.certified_radical(la.int_array(gram)) is None
    kernels = []
    right_kernel = la.right_kernel

    def recorded(g):
        kernels.append(right_kernel(g))
        return kernels[-1]

    monkeypatch.setattr(la, "right_kernel", recorded)
    q, proj, reps = radical_quotient(IntegerLattice(gram))
    assert kernels == [[[2, 3]]]
    assert q.gram.tolist() == [[1]]
    assert la.mat_mul(reps, proj) == [[1]]
    assert la.mat_mul(la.mat_mul(proj, q.gram), la.mat_transpose(proj)) == gram

def test_radical_quotient_preserves_pairings():
    rng = random.Random(7)
    for _ in range(15):
        r, z = rng.randrange(1, 4), rng.randrange(1, 3)
        core = random_symmetric(rng, r)
        if la.rank_exact(core) < r:
            continue
        n = r + z
        g = [[core[i][j] if i < r and j < r else 0 for j in range(n)] for i in range(n)]
        u = la.mat_identity(n)
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randrange(-2, 3)
                for t in range(n):
                    u[i][t] += c * u[j][t]
        gu = la.mat_mul(la.mat_mul(u, g), la.mat_transpose(u))
        q, proj, reps = radical_quotient(IntegerLattice(gu))
        assert q.rank == r
        assert la.rank_exact(q.gram) == r
        assert la.mat_mul(la.mat_mul(proj, q.gram), la.mat_transpose(proj)) == gu
        assert la.mat_mul(reps, proj) == la.mat_identity(r)


def test_signature_examples():
    assert signature(IntegerLattice([[1, 0], [0, -1]])) == (1, 1)
    assert signature(IntegerLattice([[2]])) == (1, 0)
    with pytest.raises(WrongSymmetryError):
        signature(IntegerLattice([[0, 1], [-1, 0]], "antisymmetric"))


def test_signature_rank_identity():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randrange(1, 6)
        m = random_symmetric(rng, n)
        p, q = signature(IntegerLattice(m))
        assert p + q == la.rank_exact(m)


def test_discriminant():
    assert discriminant(A2).elementary_divisors == (3,)
    assert discriminant(A2).group_order == 3
    assert discriminant(IntegerLattice([[1, 0], [0, 1]])).is_trivial()
    with pytest.raises(DegenerateLatticeError):
        discriminant(IntegerLattice([[2, 0], [0, 0]]))


def test_discriminant_order_is_det():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randrange(1, 5)
        m = random_symmetric(rng, n)
        det = la.det_bareiss(m)
        if det == 0:
            continue
        assert discriminant(IntegerLattice(m)).group_order == abs(det)


def test_discriminant_cyclic_certificate():
    assert discriminant_is_cyclic_of_order(A2, 3)
    assert not discriminant_is_cyclic_of_order(A2, 2)
    d4 = IntegerLattice([[4]])
    assert discriminant_is_cyclic_of_order(d4, 4)
    klein = IntegerLattice([[2, 0], [0, 2]])
    assert not discriminant_is_cyclic_of_order(klein, 4)  # (Z/2)^2 is not cyclic


def congruent_form(rng, e, ops=None, bound=2):
    """U.diag(e).U^T for a random unimodular U (a product of `ops`
    elementary row operations, 3n by default, with multipliers in
    [-bound, bound]): a Gram matrix with the invariant factors of diag(e)."""
    n = len(e)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range((3 * n if n > 1 else 0) if ops is None else ops):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-bound, bound)
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return la.mat_mul(la.mat_mul(u, [[e[i] if i == j else 0 for j in range(n)] for i in range(n)]),
                      la.mat_transpose(u))


CYCLIC_ORDERS = [2, 3, 4, 6, 8, 9, 12, 18, 27, 36]


def invariant_factors(e):
    """The Smith form of diag(e): for each prime, the p-parts of the
    nonzero entries sorted into a divisibility chain; zeros last."""
    nonzero = [abs(x) for x in e if x]
    factors = [1] * len(nonzero)
    for p in {q for x in nonzero for q in la.prime_factors(x)}:
        valuations = sorted(next(v for v in range(x) if x % p ** (v + 1)) for x in nonzero)
        factors = [f * p**v for f, v in zip(factors, valuations)]
    return factors + [0] * (len(e) - len(nonzero))


def is_cyclic_of_order(e, d):
    """Smith-form truth: the invariant factors other than 1 are exactly [d]."""
    return [x for x in invariant_factors(e) if x != 1] == [d]


@pytest.mark.parametrize("e", [[2, 2], [2, 4], [3, 9], [1, 36], [4, 9], [2, 9, 1], [6, 6],
                               [-3, 1, 9], [12, 0], [8], [-27]])
def test_cyclic_certificate_on_fixed_groups(e):
    rng = random.Random(sum(e))
    gram = congruent_form(rng, e)
    for d in CYCLIC_ORDERS:
        assert discriminant_is_cyclic_of_order(IntegerLattice(gram), d) == is_cyclic_of_order(e, d)


def test_cyclic_certificate_matches_smith_form():
    rng = random.Random(12)
    factors = [1, 1, 1, 1, 1, -1, 2, 3, 4, 6, 8, 9, 12, 18, 27, 36, 5, 24, 0]
    seen = 0
    for _ in range(80):
        e = [rng.choice(factors) for _ in range(rng.randrange(1, 6))]
        lattice = IntegerLattice(congruent_form(rng, e))
        for d in CYCLIC_ORDERS:
            truth = is_cyclic_of_order(e, d)
            assert discriminant_is_cyclic_of_order(lattice, d) == truth
            seen += truth
    assert seen >= 10


def test_cyclic_certificate_falls_back_to_crt_on_an_ill_conditioned_form(monkeypatch):
    # G has entries below 2**53, so the float64 inverse runs, but d * G^{-1},
    # the only solution, has 77-bit entries: no float candidate can pass
    # the 2**53 guard and the product, whatever the LAPACK build.
    e = [1, 1, 1, 1, 1, 9]
    gram = congruent_form(random.Random(9), e, ops=60, bound=9)
    assert 2**40 < la._abs_max(la.int_array(gram)) < 2**53
    calls = count_calls(monkeypatch, "modp_solve_matrix")
    assert discriminant_is_cyclic_of_order(IntegerLattice(gram), 9) is is_cyclic_of_order(e, 9)
    assert is_cyclic_of_order(e, 9) and calls["modp_solve_matrix"]


def test_cyclic_certificate_skips_float_candidates_past_2_53(monkeypatch):
    # X = [[2**55]]: d itself is past 2**53, so CRT finds X, and L*/L is
    # trivial, not cyclic of order 2**55.
    calls = count_calls(monkeypatch, "modp_solve_matrix")
    assert discriminant_is_cyclic_of_order(IntegerLattice([[1]]), 2**55) is False
    assert calls["modp_solve_matrix"]
    # A unimodular G whose inverse, the only candidate that can pass the
    # product, has the entry 1 - 2**54: the float guess is refused by the
    # 2**53 guard whatever LAPACK returns, and CRT certifies L*/L = 0.
    calls["modp_solve_matrix"] = 0
    k = 2**27
    assert discriminant_is_cyclic_of_order(IntegerLattice([[1, k], [k, k * k - 1]]), 1) is True
    assert calls["modp_solve_matrix"]


def test_cyclic_certificate_past_the_crt_cap():
    # 5.G^-1 has 769-bit entries, past the modulus of the CRT primes (about
    # 2**414): no CRT candidate can pass, and the exact rational solve
    # decides, so the answer is True, as the Smith form says.
    rng = random.Random(1)
    u = [[int(i == j) for j in range(6)] for i in range(6)]
    for _ in range(40):
        i, j = rng.sample(range(6), 2)
        c = rng.randint(-2**30, 2**30)
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    diag = [[(5 if i == 5 else 1) * (i == j) for j in range(6)] for i in range(6)]
    gram = la.mat_mul(la.mat_mul(la.mat_transpose(u), diag), u)
    assert max(abs(x) for row in gram for x in row).bit_length() == 705
    x = la.scaled_integer_inverse(la.int_array(gram), 5)
    assert max(abs(int(v)) for v in x.flat).bit_length() == 769
    assert discriminant_is_cyclic_of_order(IntegerLattice(gram), 5) is True
    assert discriminant(IntegerLattice(gram)).elementary_divisors == (5,)


def test_cyclic_certificate_on_singular_and_empty_lattices():
    for gram in ([[1, 1], [1, 1]], [[0]], [[2, 4], [4, 8]]):
        assert discriminant_is_cyclic_of_order(IntegerLattice(gram), 2) is False
    empty = IntegerLattice(np.zeros((0, 0), dtype=np.int64))
    assert discriminant_is_cyclic_of_order(empty, 1) is True
    assert discriminant_is_cyclic_of_order(empty, 2) is False


def test_radical_quotient_refuses_supplied_rows_outside_the_radical():
    degenerate = IntegerLattice([[2, 0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match="supplied kernel rows are not in the radical"):
        radical_quotient(degenerate, [[0, 1, 0], [1, 0, 0]])
    q, _, _ = radical_quotient(degenerate, [[0, 1, 0], [0, 0, 1]])
    assert q.gram.tolist() == [[2]]


def test_is_even():
    assert is_even(IntegerLattice([[2, 1], [1, 4]]))
    assert not is_even(IntegerLattice([[1]]))
    assert is_even(IntegerLattice([[2, 0], [0, 4]]))


def test_glue_a2_pair():
    # The sign-flipped copy is forced: two positive copies admit no integral glue.
    a2n = IntegerLattice([[-2, -1], [-1, -2]])
    gamma = discriminant_group_generators(A2)[0][0]
    spec = GlueSpec([A2, a2n], [gamma + gamma])
    glued, basis = glue_with_basis(spec)
    assert abs(determinant(glued)) == 1
    assert signature(glued) == (2, 2)
    bad = GlueSpec([A2, A2], [gamma + gamma])
    with pytest.raises(InvalidGlueError):
        glue(bad)


def test_empty_glue_is_orthogonal_sum():
    s = GlueSpec([A2, A2], [])
    assert determinant(glue(s)) == 9


def test_glue_determinant_identity_random():
    rng = random.Random(17)
    # glue an even lattice with determinant k^2 against nothing vs itself
    for _ in range(10):
        g = random_symmetric(rng, 2, -3, 3)
        lat = IntegerLattice(g)
        if la.det_bareiss(g) == 0:
            continue
        s = GlueSpec([lat], [])
        assert determinant(glue(s)) == la.det_bareiss(g)


def test_short_vectors():
    diag22 = IntegerLattice([[2, 0], [0, 2]])
    assert len(short_vectors(diag22, 2)) == 4
    assert short_vectors(diag22, -2) == []
    assert len(short_vectors(A2, 2)) == 6
    neg = IntegerLattice([[-2, 0], [0, -2]])
    assert len(short_vectors(neg, -2)) == 4
    assert short_vectors(neg, 2) == []
    with pytest.raises(IndefiniteLatticeError):
        short_vectors(IntegerLattice([[1, 0], [0, -1]]), 1)


def test_short_vectors_deterministic_and_complete():
    rng = random.Random(23)
    for _ in range(10):
        g = random_symmetric(rng, 3, -2, 3)
        lat = IntegerLattice(g)
        p, q = signature(lat)
        if p != 3:
            continue
        target = rng.randrange(1, 7)
        got = short_vectors(lat, target)
        brute = []
        for a in range(-6, 7):
            for b in range(-6, 7):
                for c in range(-6, 7):
                    if lat.norm([a, b, c]) == target:
                        brute.append((a, b, c))
        assert got == sorted(brute)


def test_json_roundtrip():
    obj = lattice_to_json(A2)
    assert obj["gram"] == [2, 1, 1, 2]
    back = lattice_from_json(obj)
    assert back == A2
