import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlat.errors import IncompatibleRingError
from fermatlat.exact_algebra import (
    CyclotomicElement,
    GroupRingElement,
    bar,
    cyclotomic_polynomial,
    euler_phi,
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
