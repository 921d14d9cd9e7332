import random

import pytest

from fermatlat import _intlinalg as la
from fermatlat.errors import (
    DegenerateLatticeError,
    IndefiniteLatticeError,
    InvalidGlueError,
    WrongSymmetryError,
)
from fermatlat.lattice_core import (
    GlueSpec,
    IntegerLattice,
    determinant,
    discriminant,
    discriminant_group_generators,
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

A2 = IntegerLattice([[2, 1], [1, 2]])


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


def test_snf_divisibility_chain():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        divisors, (u, v) = smith_normal_form(m)
        prod = la.mat_mul(la.mat_mul(u, m), v)
        assert all(prod[i][j] == 0 for i in range(n) for j in range(n) if i != j)
        assert [prod[i][i] for i in range(n)] == divisors
        for a, b in zip(divisors, divisors[1:]):
            if b:
                assert a == 0 or b % a == 0
        assert abs(la.det_bareiss(u)) == 1 and abs(la.det_bareiss(v)) == 1


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


def test_radical_quotient_nondegenerate_identity():
    q, proj, _ = radical_quotient(A2)
    assert q == A2 and proj.tolist() == [[1, 0], [0, 1]]


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
