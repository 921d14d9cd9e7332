"""Characters of the primitive Fermat lattice and their Hodge types.

A character is a tuple K in {1,...,d-1}^(n+2) with d | sum(K); it indexes an
eigenline of the mu-action on the primitive middle cohomology.  The Hodge
type is p = |K|/d - 1, q = n - p: the eigenline of K is spanned by the
residue form with index tuple d - K (entrywise), whose total degree fixes its
Hodge level.  The alternative closed form p = -1 + (n+2+|K|)/d sometimes
found for this quantity overshoots (it gives p > n for the extreme character
of the cubic fourfold); the tests compare the two values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import NonUniqueError, VerificationError


def rank_formula(d: int, n: int) -> int:
    """Z-rank of the primitive lattice: (d-1)*((d-1)^(n+1) + (-1)^n)/d, the
    number of characters (hodge_numbers checks the count)."""
    if d < 2 or n < 0:
        raise ValueError("need d >= 2 and n >= 0")
    num = (d - 1) * ((d - 1) ** (n + 1) + (-1) ** n)
    if num % d:
        raise VerificationError("rank formula is not integral")
    return num // d


@dataclass(frozen=True)
class HodgeCharacter:
    """An eigenline index: entries in {1,...,d-1}, sum divisible by d."""

    d: int
    n: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) != self.n + 2:
            raise ValueError("character tuple must have length n+2")
        if any(not 1 <= e <= self.d - 1 for e in self.exponents):
            raise ValueError("character entries must lie in {1,...,d-1}")
        if sum(self.exponents) % self.d:
            raise ValueError("character sum must be divisible by d")

    @property
    def weight(self) -> int:
        return sum(self.exponents)

    def hodge_type(self) -> tuple[int, int]:
        p = self.weight // self.d - 1
        return p, self.n - p

    def conjugate(self) -> "HodgeCharacter":
        return HodgeCharacter(self.d, self.n,
                              tuple(self.d - e for e in self.exponents))


def enumerate_characters(d: int, n: int) -> list[HodgeCharacter]:
    """All characters, in lexicographic order of their exponent tuples."""
    if d < 3 or n < 0:
        raise ValueError("need d >= 3 and n >= 0")
    out = [HodgeCharacter(d, n, exps)
           for exps in itertools.product(range(1, d), repeat=n + 2)
           if sum(exps) % d == 0]
    return out


def hodge_type(character: HodgeCharacter) -> tuple[int, int]:
    return character.hodge_type()


def hodge_numbers(d: int, n: int) -> dict[int, int]:
    """Primitive Hodge numbers: p -> h^{p, n-p}."""
    counts: dict[int, int] = {}
    chars = enumerate_characters(d, n)
    for ch in chars:
        p, _q = ch.hodge_type()
        counts[p] = counts.get(p, 0) + 1
    total = sum(counts.values())
    if total != rank_formula(d, n):
        raise VerificationError("character count disagrees with the rank formula")
    return dict(sorted(counts.items()))


def fermat_class_character(d: int, n: int) -> HodgeCharacter:
    """The character of the top holomorphic eigenline, when unique.

    Returns the unique character of maximal p; raises NonUniqueError when the
    extreme Hodge type has multiplicity greater than one.
    """
    chars = enumerate_characters(d, n)
    best = max(ch.hodge_type()[0] for ch in chars)
    top = [ch for ch in chars if ch.hodge_type()[0] == best]
    if len(top) != 1:
        raise NonUniqueError(
            f"extreme Hodge type (p={best}) has multiplicity {len(top)}")
    return top[0]
