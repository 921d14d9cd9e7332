import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlat.errors import IncompatibleRingError
from fermatlat.exact_algebra import (
    CyclotomicElement,
    GroupRingElement,
    _multiplication_matrix,
    _power_trace,
    bar,
    cyclotomic_polynomial,
    euler_phi,
    zeta_powers,
)


def character_eval(a, d, powers):
    """Evaluate the character u_i -> zeta_d^{powers[i]} on a group-ring element."""
    pw = list(powers)
    out = CyclotomicElement.zero(d)
    for exps, c in a.coeffs.items():
        total = sum(p * e for p, e in zip(pw, exps)) % d
        out = out + CyclotomicElement.zeta(d, total) * c
    return out


def gre(d, k, items):
    return GroupRingElement(d, k, dict(items))


def test_annihilator_relation():
    one = GroupRingElement.one(3, 1)
    u = GroupRingElement.generator(3, 1, 0)
    assert (one - u) * (one + u + u * u) == GroupRingElement.zero(3, 1)


def test_product_expansion():
    one = GroupRingElement.one(3, 1)
    u = GroupRingElement.generator(3, 1, 0)
    assert (one - u) * (one - u * u) == gre(3, 1, {(0,): 2, (1,): -1, (2,): -1})


def test_identity_element():
    rng = random.Random(0)
    one = GroupRingElement.one(3, 2)
    for _ in range(20):
        a = gre(3, 2, {(rng.randrange(3), rng.randrange(3)): rng.randrange(-5, 6)
                       for _ in range(4)})
        assert a * one == a


def test_bar_basics():
    u = GroupRingElement.generator(3, 1, 0)
    assert bar(u) == u * u
    a = gre(3, 2, {(0, 0): 1, (1, 1): -1})
    assert bar(a) == gre(3, 2, {(0, 0): 1, (2, 2): -1})
    assert bar(bar(a)) == a


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_star_element_parity(n):
    # w = (1 - bar(u_1...u_{n+1})) prod (1 - u_i) satisfies bar(w) = (-1)^n w
    k = n + 1
    one = GroupRingElement.one(3, k)
    v = one
    for i in range(k):
        v = v * GroupRingElement.generator(3, k, i)
    w = one - v.bar()
    for i in range(k):
        w = w * (one - GroupRingElement.generator(3, k, i))
    assert w.bar() == (w if n % 2 == 0 else -w)


def test_incompatible_rings():
    a = GroupRingElement.one(3, 1)
    b = GroupRingElement.one(3, 2)
    c = GroupRingElement.one(4, 1)
    with pytest.raises(IncompatibleRingError):
        a * b
    with pytest.raises(IncompatibleRingError):
        a + c


small_elements = st.builds(
    lambda items: gre(3, 2, items),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    st.integers(-4, 4), max_size=5))


@settings(max_examples=60, deadline=None)
@given(small_elements, small_elements, small_elements)
def test_ring_mul_associative_commutative(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(small_elements, small_elements)
def test_bar_is_ring_map(a, b):
    assert bar(a * b) == bar(a) * bar(b)


@settings(max_examples=40, deadline=None)
@given(small_elements, small_elements)
def test_character_is_ring_hom(a, b):
    assert character_eval(a * b, 3, [1, 1]) == \
        character_eval(a, 3, [1, 1]) * character_eval(b, 3, [1, 1])


# -- cyclotomic ring ---------------------------------------------------------

def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert euler_phi(12) == 4


def test_cyclotomic_relation():
    z = CyclotomicElement.zeta(3)
    assert z * z + z + 1 == 0


def test_eisenstein_norm_value():
    one = CyclotomicElement.one(3)
    z = CyclotomicElement.zeta(3)
    assert (one - z) * (one - z.conj()) == 3
    assert (one - z).norm() == 3


def test_conj_involution():
    rng = random.Random(1)
    for d in (3, 4, 5):
        for _ in range(10):
            a = CyclotomicElement(d, [rng.randrange(-9, 10) for _ in range(euler_phi(d))])
            assert a.conj().conj() == a


def test_inverse_roundtrip():
    for coords in ([2, 5], [1, 0], [0, 1], [-3, 7]):
        a = CyclotomicElement(3, coords)
        assert a.inverse() * a == 1


def test_zeta_powers_cycle():
    for d in (3, 4, 5, 8):
        z = CyclotomicElement.zeta(d)
        acc = CyclotomicElement.one(d)
        for _ in range(d):
            acc = acc * z
        assert acc == 1


def test_mismatched_conductor():
    with pytest.raises(IncompatibleRingError):
        CyclotomicElement.zeta(3) * CyclotomicElement.zeta(4)


def test_poly_divide_exact_raises_typed_errors():
    from fermatlat.errors import VerificationError
    from fermatlat.exact_algebra import _poly_divide_exact

    assert _poly_divide_exact([-1, 0, 1], [1, 1]) == [-1, 1]
    with pytest.raises(VerificationError, match="not integral"):
        _poly_divide_exact([0, 1], [0, 2])          # x / 2x: non-integral quotient
    with pytest.raises(VerificationError, match="remainder"):
        _poly_divide_exact([1, 0, 1], [1, 1])       # x^2 + 1 = (x + 1)(x - 1) + 2


# -- the table of zeta powers against the reductions it replaced -------------

def zeta_long_division(d, power):
    """Coordinates of zeta_d^power by long division of x^(power mod d) by Phi_d."""
    power %= d
    phi = euler_phi(d)
    if power < phi:
        coords = [0] * phi
        coords[power] = 1
        return tuple(coords)
    work = [0] * (power + 1)
    work[power] = 1
    poly = cyclotomic_polynomial(d)
    for i in range(power, phi - 1, -1):
        lead = work[i]
        if lead:
            for j in range(phi + 1):
                work[i - phi + j] -= lead * poly[j]
    return tuple(work[:phi])


def reduction_rows(d):
    """Coordinates of zeta^j for j in [0, 2*phi - 2], one shift at a time:
    enough rows to reduce a product of two reduced elements."""
    poly = cyclotomic_polynomial(d)
    phi = len(poly) - 1
    rows = []
    cur = [1] + [0] * (phi - 1)
    for _ in range(2 * phi - 1):
        rows.append(tuple(cur))
        nxt = [0] + cur[:-1]
        lead = cur[-1]
        if lead:
            for i in range(phi):
                nxt[i] -= lead * poly[i]
        cur = nxt
    return tuple(rows)


def product_oracle(d, a, b):
    """Coordinates of a * b: the convolution, reduced by reduction_rows."""
    phi = euler_phi(d)
    rows = reduction_rows(d)
    out = [0] * phi
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            for s in range(phi):
                out[s] += x * y * rows[i + j][s]
    return out


def multiplication_matrix_oracle(d, coords):
    """Column j is the element times zeta^j, by reduction_rows."""
    phi = euler_phi(d)
    rows = reduction_rows(d)
    cols = [[sum(a * rows[i + j][t] for i, a in enumerate(coords)) for t in range(phi)]
            for j in range(phi)]
    return [[cols[j][i] for j in range(phi)] for i in range(phi)]


# Every conductor up to 60: among them the d with d - 1 > 2 phi - 2 (the even
# ones here), whose table holds rows a product never reads, and the d with
# 2 phi - 2 >= d (5, 7, 9, ...), where a product reads the table at s % d.
CONDUCTORS = range(1, 61)


def random_coords(rng, d, fractions=False):
    coords = [rng.randrange(-9, 10) for _ in range(euler_phi(d))]
    if fractions:
        coords[rng.randrange(len(coords))] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return coords


@pytest.mark.parametrize("d", CONDUCTORS)
def test_zeta_powers_match_long_division(d):
    assert zeta_powers(d) == tuple(zeta_long_division(d, s) for s in range(d))
    assert zeta_powers(d)[:2 * euler_phi(d) - 1] == reduction_rows(d)[:d]
    for power in range(-d, 2 * d + 1):
        assert CyclotomicElement.zeta(d, power).coords == zeta_long_division(d, power)


@pytest.mark.parametrize("d", CONDUCTORS)
def test_products_match_reduction_rows(d):
    rng = random.Random(d)
    for fractions in (False, True):
        a, b = random_coords(rng, d, fractions), random_coords(rng, d)
        got = CyclotomicElement(d, a) * CyclotomicElement(d, b)
        assert got == CyclotomicElement(d, product_oracle(d, a, b))
    c = random_coords(rng, d)
    assert _multiplication_matrix(d, c) == multiplication_matrix_oracle(d, c)


@pytest.mark.parametrize("d", CONDUCTORS)
def test_galois_and_power_trace_match_long_division(d):
    rng = random.Random(-d)
    a = random_coords(rng, d, fractions=True)
    phi = euler_phi(d)
    for t in {1, d - 1, *rng.sample([t for t in range(1, d + 1) if gcd(t, d) == 1], 1)}:
        want = [0] * phi
        for i, x in enumerate(a):
            for s, z in enumerate(zeta_long_division(d, i * t)):
                want[s] += x * z
        assert CyclotomicElement(d, a).galois(t) == CyclotomicElement(d, want)
    for i in {-1, 0, 1, d - 1, d, rng.randrange(d)}:
        m = multiplication_matrix_oracle(d, zeta_long_division(d, i))
        assert _power_trace(d, i) == sum(m[t][t] for t in range(phi))


# -- hashing and immutability ------------------------------------------------

def test_constant_elements_hash_as_their_constant_term():
    for d in (3, 4, 12):
        for n in (5, -2, 0, Fraction(1, 2)):
            c = CyclotomicElement.from_int(d, n)
            assert c == n and hash(c) == hash(n)
            assert c in {n} and n in {c}
    z = CyclotomicElement.zeta(5)
    assert z in {CyclotomicElement(5, [0, 1, 0, 0])}


def test_equality_is_transitive_across_conductors():
    # A constant equals the equal constant of any conductor, so a set of
    # them does not depend on the order of insertion.
    a, b = CyclotomicElement.from_int(3, 5), CyclotomicElement.from_int(4, 5)
    assert a == b and b == a and len({a, 5, b}) == len({5, a, b}) == 1
    half = CyclotomicElement.from_int(12, Fraction(1, 2))
    assert half == CyclotomicElement.from_int(5, Fraction(1, 2)) != a
    # Non-constants are equal only at the same conductor.
    z3, z6 = CyclotomicElement.zeta(3), CyclotomicElement.zeta(6)
    assert z3 != z6 and z3 != CyclotomicElement.zeta(3, 2) and z3 != 0
    assert len({z3, z6, CyclotomicElement(3, [0, 1])}) == 2


def test_equality_with_a_bool_answers():
    one, zero = CyclotomicElement.one(3), CyclotomicElement.zero(5)
    assert one == True and zero == False and one != False  # noqa: E712
    assert CyclotomicElement.zeta(3) != True  # noqa: E712
    assert one != "1" and one != None  # noqa: E711


def test_elements_refuse_assignment_and_deletion():
    z = CyclotomicElement.zeta(3)
    u = GroupRingElement.generator(3, 2, 0)
    for element, field, value in ((z, "coords", (5, 5)), (z, "d", 4),
                                  (u, "coeffs", {(0, 0): 1}), (u, "k", 1)):
        with pytest.raises(AttributeError):
            setattr(element, field, value)
        with pytest.raises(AttributeError):
            delattr(element, field)
    assert z.coords == (0, 1) and u.coeffs == {(1, 0): 1}


def test_cached_connecting_element_cannot_be_changed():
    from fermatlat import fermat_homology

    before = fermat_homology.connecting_map(3, 1)
    with pytest.raises(AttributeError):
        fermat_homology.connecting_element(3, 1).coeffs = {(0, 0): 1}
    assert fermat_homology.connecting_map(3, 1) == before


@pytest.mark.parametrize("element", [
    CyclotomicElement(5, [1, Fraction(-2, 3), 0, 4]),
    GroupRingElement(3, 2, {(1, 2): 4, (0, 0): -1}),
])
def test_elements_pickle_and_copy(element):
    for twin in (pickle.loads(pickle.dumps(element)), copy.copy(element),
                 copy.deepcopy(element)):
        assert twin == element and hash(twin) == hash(element)
