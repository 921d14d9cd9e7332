"""Small exact-rational simplex solver (Bland's rule, two phases).

Solves min c.x subject to A x = b, x >= 0 over Fractions.  Sized for the
convex-geometry tests in this package (a handful of rows, tens of columns);
clarity and exactness over speed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from ._pylinalg import solve_rational
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
    flips = []
    a = []
    rhs = []
    for row, bi in zip(a_rows, b):
        if Fraction(bi) < 0:
            a.append([-Fraction(x) for x in row])
            rhs.append(-Fraction(bi))
            flips.append(-1)
        else:
            a.append([Fraction(x) for x in row])
            rhs.append(Fraction(bi))
            flips.append(1)

    tab = [a[i][:] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [rhs[i]]
           for i in range(m)]
    basis = [n + i for i in range(m)]
    cost1 = [Fraction(0)] * n + [Fraction(1)] * m
    status = _run_simplex(tab, basis, cost1, n + m)
    if status != OPTIMAL:
        # The phase-one objective is bounded below by 0.
        raise VerificationError(f"phase-one LP ended {status}, not optimal")
    obj1 = sum(cost1[basis[i]] * tab[i][-1] for i in range(m))
    if obj1 > 0:
        y = _duals(a, basis, cost1, n, m)
        return LPResult(INFEASIBLE, duals=_unflip(y, flips))

    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if tab[i][j] != 0), None)
            if piv is not None:
                _pivot(tab, basis, i, piv)
    redundant = [i for i in range(m) if basis[i] >= n]
    tab = [tab[i][:n] + [tab[i][-1]] for i in range(m)]
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
    y = _duals(a, basis, cost2, n, m)
    return LPResult(OPTIMAL, x=x, objective=obj, duals=None if y is None else _unflip(y, flips))


def _run_simplex(tab, basis, cost, ncols, skip_rows=()) -> str:
    m = len(tab)
    skip = set(skip_rows)
    while True:
        cb = [cost[basis[i]] for i in range(m)]
        entering = None
        for j in range(ncols):
            if j in basis:
                continue
            red = cost[j] - sum(cb[i] * tab[i][j] for i in range(m))
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
    piv = tab[i][j]
    tab[i] = [x / piv for x in tab[i]]
    for r in range(len(tab)):
        if r != i and tab[r][j] != 0:
            f = tab[r][j]
            tab[r] = [x - f * y for x, y in zip(tab[r], tab[i])]
    basis[i] = j


def _duals(a, basis, cost, n, m):
    """y with y.B = c_B for the final basis B (columns of [A | I])."""
    cols = []
    cb = []
    for i in range(m):
        j = basis[i]
        if j < n:
            cols.append([a[r][j] for r in range(m)])
        else:
            cols.append([Fraction(1) if r == j - n else Fraction(0) for r in range(m)])
        cb.append(cost[j] if j < len(cost) else Fraction(1))
    den = 1
    for col in cols + [cb]:
        for x in col:
            fx = Fraction(x)
            den = lcm(den, fx.denominator)
    bt = [[int(Fraction(cols[c][r]) * den) for c in range(m)] for r in range(m)]
    rhs = [[int(Fraction(cb[c]) * den)] for c in range(m)]
    # Solve y.B = c_B  <=>  (B^T) y^T = c_B^T; bt is already B arranged by rows.
    sol = solve_rational([[bt[c][r] for c in range(m)] for r in range(m)], rhs)
    if sol is None:
        return None
    return [row[0] for row in sol]


def _unflip(y, flips):
    if y is None:
        return None
    return [v * f for v, f in zip(y, flips)]
