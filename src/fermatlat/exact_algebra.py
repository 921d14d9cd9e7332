"""Exact arithmetic foundations: group rings of (Z/d)^k and cyclotomic integers.

Everything here is immutable and exact.  Group-ring elements are finite
integer combinations of exponent tuples, held in a read-only mapping (the
cached star and connecting elements are shared); cyclotomic elements are
vectors in the power basis of Z[zeta_d] reduced modulo the d-th cyclotomic
polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import IncompatibleRingError, VerificationError
from ._intlinalg import clear_denominators, det_bareiss, solve_rational


# ---------------------------------------------------------------------------
# Group ring of (Z/d)^k

class GroupRingElement:
    """Element of the integral group ring of (Z/d)^k.

    Exponent tuples are the canonical group-element representation; zero
    coefficients are pruned on construction so structural equality equals
    mathematical equality.
    """

    __slots__ = ("d", "k", "coeffs")

    def __init__(self, d: int, k: int, coeffs: Mapping[tuple[int, ...], int]):
        if d < 2:
            raise ValueError("modulus must be >= 2")
        if k < 0:
            raise ValueError("arity must be >= 0")
        clean: dict[tuple[int, ...], int] = {}
        for exps, c in coeffs.items():
            if c == 0:
                continue
            if len(exps) != k:
                raise ValueError("exponent tuple of wrong length")
            key = tuple(e % d for e in exps)
            clean[key] = clean.get(key, 0) + c
        self.d = d
        self.k = k
        self.coeffs = MappingProxyType({e: c for e, c in clean.items() if c != 0})

    def __reduce__(self):
        return GroupRingElement, (self.d, self.k, dict(self.coeffs))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, d: int, k: int) -> "GroupRingElement":
        return cls(d, k, {})

    @classmethod
    def one(cls, d: int, k: int) -> "GroupRingElement":
        return cls(d, k, {(0,) * k: 1})

    @classmethod
    def monomial(cls, d: int, k: int, exps: Iterable[int], coeff: int = 1) -> "GroupRingElement":
        return cls(d, k, {tuple(exps): coeff})

    @classmethod
    def generator(cls, d: int, k: int, i: int) -> "GroupRingElement":
        """The group generator u_i (0-indexed)."""
        exps = [0] * k
        exps[i] = 1
        return cls(d, k, {tuple(exps): 1})

    # -- ring structure ------------------------------------------------------

    def _check_compatible(self, other: "GroupRingElement") -> None:
        if self.d != other.d or self.k != other.k:
            raise IncompatibleRingError(
                f"group rings (d={self.d},k={self.k}) and (d={other.d},k={other.k}) differ")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return GroupRingElement(self.d, self.k, out)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.d, self.k, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other) -> "GroupRingElement":
        if isinstance(other, int):
            return GroupRingElement(self.d, self.k, {e: c * other for e, c in self.coeffs.items()})
        self._check_compatible(other)
        d = self.d
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                key = tuple((a + b) % d for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return GroupRingElement(self.d, self.k, out)

    __rmul__ = __mul__

    def bar(self) -> "GroupRingElement":
        """The involution g -> g^{-1}, coefficients unchanged."""
        d = self.d
        return GroupRingElement(
            self.d, self.k, {tuple((-a) % d for a in e): c for e, c in self.coeffs.items()})

    def coefficient(self, exps: Iterable[int]) -> int:
        key = tuple(e % self.d for e in exps)
        return self.coeffs.get(key, 0)

    def identity_coefficient(self) -> int:
        return self.coeffs.get((0,) * self.k, 0)

    def quotient_by_diagonal(self) -> "GroupRingElement":
        """Push forward to Z[(Z/d)^k / diagonal], canonical reps with first entry 0."""
        d = self.d
        out: dict[tuple[int, ...], int] = {}
        for e, c in self.coeffs.items():
            shift = e[0]
            key = tuple((a - shift) % d for a in e)
            out[key] = out.get(key, 0) + c
        return GroupRingElement(self.d, self.k, out)

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupRingElement) and self.d == other.d
                and self.k == other.k and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.d, self.k, frozenset(self.coeffs.items())))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            mon = "*".join(f"u{i}^{a}" if a > 1 else f"u{i}"
                           for i, a in enumerate(e) if a) or "1"
            parts.append(f"{c}*{mon}" if c != 1 or mon == "1" else mon)
        return " + ".join(parts)


def bar(a: GroupRingElement) -> GroupRingElement:
    return a.bar()


# ---------------------------------------------------------------------------
# Cyclotomic integers

@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Coefficients of the d-th cyclotomic polynomial, low degree first."""
    if d < 1:
        raise ValueError("d must be positive")
    # x^d - 1 divided by the product of Phi_e over proper divisors e of d.
    num = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            num = _poly_divide_exact(num, list(cyclotomic_polynomial(e)))
    return tuple(num)


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        q, r = divmod(num[i + len(den) - 1], den[-1])
        if r:
            raise VerificationError("polynomial quotient is not integral")
        out[i] = q
        if q:
            for j, c in enumerate(den):
                num[i + j] -= q * c
    if any(num):
        raise VerificationError("polynomial division leaves a remainder")
    return out


@lru_cache(maxsize=None)
def _reduction_rows(d: int) -> tuple[tuple[int, ...], ...]:
    """Power-basis expansion of zeta^j for j in [0, 2*phi-2], mod Phi_d."""
    phi = len(cyclotomic_polynomial(d)) - 1
    rows: list[tuple[int, ...]] = []
    cur = [1] + [0] * (phi - 1)
    for _ in range(2 * phi - 1):
        rows.append(tuple(cur))
        nxt = [0] + cur[:-1]
        lead = cur[-1]
        if lead:
            poly = cyclotomic_polynomial(d)
            for i in range(phi):
                nxt[i] -= lead * poly[i]
        cur = nxt
    return tuple(rows)


class CyclotomicElement:
    """Element of Z[zeta_d] (or Q(zeta_d)) in the reduced power basis."""

    __slots__ = ("d", "coords")

    def __init__(self, d: int, coords: Iterable):
        self.d = d
        phi = euler_phi(d)
        cs = tuple(_as_number(x) for x in coords)
        if len(cs) != phi:
            raise ValueError(f"need {phi} coordinates for conductor {d}")
        self.coords = cs

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "CyclotomicElement":
        return cls(d, [0] * euler_phi(d))

    @classmethod
    def one(cls, d: int) -> "CyclotomicElement":
        return cls.from_int(d, 1)

    @classmethod
    def from_int(cls, d: int, n) -> "CyclotomicElement":
        coords = [0] * euler_phi(d)
        coords[0] = n
        return cls(d, coords)

    @classmethod
    def zeta(cls, d: int, power: int = 1) -> "CyclotomicElement":
        """zeta_d^power, reduced modulo the d-th cyclotomic polynomial."""
        power %= d
        phi = euler_phi(d)
        if power < phi:
            coords = [0] * phi
            coords[power] = 1
            return cls(d, coords)
        # Long division of x^power by the monic Phi_d.
        work = [0] * (power + 1)
        work[power] = 1
        poly = cyclotomic_polynomial(d)
        for i in range(power, phi - 1, -1):
            lead = work[i]
            if lead:
                for j in range(phi + 1):
                    work[i - phi + j] -= lead * poly[j]
        return cls(d, work[:phi])

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "CyclotomicElement") -> None:
        if self.d != other.d:
            raise IncompatibleRingError(f"conductors {self.d} and {other.d} differ")

    def __add__(self, other) -> "CyclotomicElement":
        other = self._coerce(other)
        return CyclotomicElement(self.d, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other) -> "CyclotomicElement":
        other = self._coerce(other)
        return CyclotomicElement(self.d, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "CyclotomicElement":
        return CyclotomicElement(self.d, [-a for a in self.coords])

    def __mul__(self, other) -> "CyclotomicElement":
        other = self._coerce(other)
        phi = len(self.coords)
        conv = [0] * (2 * phi - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    if b:
                        conv[i + j] += a * b
        rows = _reduction_rows(self.d)
        out = [0] * phi
        for j, c in enumerate(conv):
            if c:
                row = rows[j]
                for i in range(phi):
                    out[i] += c * row[i]
        return CyclotomicElement(self.d, out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "CyclotomicElement":
        return self._coerce(other) - self

    def _coerce(self, other) -> "CyclotomicElement":
        if isinstance(other, CyclotomicElement):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicElement.from_int(self.d, other)
        raise TypeError(f"cannot coerce {other!r} into Z[zeta_{self.d}]")

    def galois(self, t: int) -> "CyclotomicElement":
        """Image under zeta -> zeta^t (t coprime to d)."""
        out = CyclotomicElement.zero(self.d)
        for i, a in enumerate(self.coords):
            if a:
                out = out + CyclotomicElement.zeta(self.d, (i * t) % self.d) * a
        return out

    def conj(self) -> "CyclotomicElement":
        """Complex conjugation zeta -> zeta^{d-1}."""
        return self.galois(self.d - 1)

    def norm(self) -> Fraction:
        """Field norm from Q(zeta_d) to Q (product over all Galois conjugates)."""
        (scaled,), den = clear_denominators([self.coords])
        m = _multiplication_matrix(self.d, scaled)
        return Fraction(det_bareiss(m), den ** len(self.coords))

    def inverse(self) -> "CyclotomicElement":
        """Exact inverse in Q(zeta_d); raises ZeroDivisionError on zero."""
        if not any(self.coords):
            raise ZeroDivisionError("zero has no inverse")
        phi = len(self.coords)
        (scaled,), den = clear_denominators([self.coords])
        m = _multiplication_matrix(self.d, scaled)
        rhs = [[den if i == 0 else 0] for i in range(phi)]
        sol = solve_rational(m, rhs)
        if sol is None:
            raise ZeroDivisionError("zero divisor in cyclotomic ring")
        return CyclotomicElement(self.d, [row[0] for row in sol])

    # -- predicates and conversions ------------------------------------------

    def is_integral(self) -> bool:
        return all(not isinstance(c, Fraction) or c.denominator == 1 for c in self.coords)

    def integral_coords(self) -> tuple[int, ...]:
        if not self.is_integral():
            raise ValueError(f"{self!r} is not integral")
        return tuple(int(c) for c in self.coords)

    def trace(self) -> Fraction:
        """Field trace to Q (sum over all Galois conjugates)."""
        t = Fraction(0)
        for i, a in enumerate(self.coords):
            if a:
                t += Fraction(a) * _power_trace(self.d, i)
        return t

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicElement.from_int(self.d, other)
        return (isinstance(other, CyclotomicElement) and self.d == other.d
                and all(Fraction(a) == Fraction(b) for a, b in zip(self.coords, other.coords)))

    def __hash__(self) -> int:
        return hash((self.d, tuple(Fraction(c) for c in self.coords)))

    def __bool__(self) -> bool:
        return any(self.coords)

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coords):
            if c:
                base = "1" if i == 0 else ("z" if i == 1 else f"z^{i}")
                terms.append(f"{c}" if i == 0 else (base if c == 1 else f"{c}*{base}"))
        return " + ".join(terms) if terms else "0"


def _as_number(x):
    if isinstance(x, bool):
        raise TypeError("bool is not a coordinate")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x if x.denominator != 1 else int(x)
    raise TypeError(f"coordinate {x!r} must be int or Fraction")


@lru_cache(maxsize=None)
def euler_phi(d: int) -> int:
    return len(cyclotomic_polynomial(d)) - 1


def _multiplication_matrix(d: int, coords: list[int]) -> list[list[int]]:
    """Matrix of multiplication by the element on the power basis."""
    phi = euler_phi(d)
    rows = _reduction_rows(d)
    cols = []
    for j in range(phi):
        # element * zeta^j expanded on the power basis
        acc = [0] * phi
        for i, a in enumerate(coords):
            if a:
                row = rows[i + j]
                for t in range(phi):
                    acc[t] += a * row[t]
        cols.append(acc)
    return [[cols[j][i] for j in range(phi)] for i in range(phi)]


@lru_cache(maxsize=None)
def _power_trace(d: int, i: int) -> Fraction:
    """Trace of zeta_d^i, as the trace of its multiplication matrix."""
    z = CyclotomicElement.zeta(d, i)
    m = _multiplication_matrix(d, [int(c) for c in z.coords])
    return Fraction(sum(m[t][t] for t in range(len(m))))


def character_eval(a: GroupRingElement, d: int, powers: Iterable[int]) -> CyclotomicElement:
    """Evaluate the character u_i -> zeta_d^{powers[i]} on a group-ring element."""
    pw = list(powers)
    out = CyclotomicElement.zero(d)
    for exps, c in a.coeffs.items():
        total = sum(p * e for p, e in zip(pw, exps)) % d
        out = out + CyclotomicElement.zeta(d, total) * c
    return out
