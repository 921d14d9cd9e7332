"""Small exact-rational simplex solver (Bland's rule, two phases).

Solves min c.x subject to A x = b, x >= 0 over Fractions.  Sized for the
convex-geometry tests in this package (a handful of rows, tens of columns);
clarity and exactness over speed.

The tableau is [A | I | b]: the artificial identity stays through both
phases (it never re-enters in phase two), so its columns always hold B^-1
for the current basis B, and the duals y = c_B.B^-1 are read off them
(Chvatal, Linear Programming, 1983, ch. 10) instead of solving y.B = c_B
again.  The callers re-check every certificate built from them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import VerificationError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LPResult:
    def __init__(self, status: str, x: Optional[list[Fraction]] = None,
                 objective: Optional[Fraction] = None,
                 duals: Optional[list[Fraction]] = None):
        self.status = status
        self.x = x
        self.objective = objective
        self.duals = duals


def solve_lp(a_rows: Sequence[Sequence[Fraction]], b: Sequence[Fraction],
             c: Sequence[Fraction]) -> LPResult:
    """Two-phase primal simplex; exact optimum and duals.

    For an infeasible system the duals are a Farkas certificate y with
    y.A <= 0 componentwise and y.b > 0 (relative to the given rows).
    """
    m = len(a_rows)
    n = len(c)
    # Rows with b_i < 0 are negated so that the artificial basis is feasible.
    flips = [-1 if Fraction(bi) < 0 else 1 for bi in b]
    tab = [[f * Fraction(x) for x in row]
           + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [f * Fraction(bi)]
           for i, (row, bi, f) in enumerate(zip(a_rows, b, flips))]
    basis = [n + i for i in range(m)]
    cost1 = [Fraction(0)] * n + [Fraction(1)] * m
    status = _run_simplex(tab, basis, cost1, n + m)
    if status != OPTIMAL:
        # The phase-one objective is bounded below by 0.
        raise VerificationError(f"phase-one LP ended {status}, not optimal")
    obj1 = sum(cost1[basis[i]] * tab[i][-1] for i in range(m))
    if obj1 > 0:
        return LPResult(INFEASIBLE, duals=_tableau_duals(tab, basis, cost1, flips))

    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if tab[i][j] != 0), None)
            if piv is not None:
                _pivot(tab, basis, i, piv)
    redundant = [i for i in range(m) if basis[i] >= n]
    # Zero-cost padding for artificials parked on redundant rows.
    cost2 = [Fraction(x) for x in c] + [Fraction(0)] * m
    status = _run_simplex(tab, basis, cost2, n, skip_rows=redundant)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
    obj = sum(cost2[j] * x[j] for j in range(n))
    return LPResult(OPTIMAL, x=x, objective=obj, duals=_tableau_duals(tab, basis, cost2, flips))


def _run_simplex(tab, basis, cost, ncols, skip_rows=()) -> str:
    m = len(tab)
    skip = set(skip_rows)
    while True:
        cb = [cost[basis[i]] for i in range(m)]
        entering = None
        for j in range(ncols):
            if j in basis:
                continue
            red = cost[j] - sum(cb[i] * tab[i][j] for i in range(m) if cb[i])
            if red < 0:
                entering = j  # Bland: first improving index
                break
        if entering is None:
            return OPTIMAL
        leaving = None
        best = None
        for i in range(m):
            if i in skip:
                continue
            aij = tab[i][entering]
            if aij > 0:
                ratio = tab[i][-1] / aij
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            return UNBOUNDED
        _pivot(tab, basis, leaving, entering)


def _pivot(tab, basis, i, j):
    # Zero entries of the pivot row are skipped: most of the artificial
    # block is zero, and Fraction arithmetic dominates the cost.
    piv = tab[i][j]
    tab[i] = [x / piv if x else x for x in tab[i]]
    for r in range(len(tab)):
        if r != i and tab[r][j] != 0:
            f = tab[r][j]
            tab[r] = [x - f * y if y else x for x, y in zip(tab[r], tab[i])]
    basis[i] = j


def _tableau_duals(tab, basis, cost, flips):
    """y = c_B.B^-1 from the artificial columns of the tableau, as duals of
    the given (unflipped) rows."""
    m = len(tab)
    art = len(tab[0]) - 1 - m
    cb = [cost[j] for j in basis]
    return [f * sum(cb[i] * tab[i][art + r] for i in range(m)) for r, f in enumerate(flips)]
