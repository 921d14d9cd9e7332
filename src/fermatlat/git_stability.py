"""Diagonal (simplex-criterion) stability tests for homogeneous forms.

A degree-d form in m variables is semistable for the diagonal torus in the
given coordinates iff the barycenter (d/m, ..., d/m) lies in the convex hull
of its exponent vectors, and stable iff the hull moreover has full dimension
inside the degree hyperplane and contains the barycenter in its interior.
All decisions are exact rational LP feasibility with re-checkable
certificates: convex coefficients, or an integer one-parameter-subgroup
weight vector.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import _pylinalg as la
from ._simplex import OPTIMAL, solve_lp
from .errors import EmptyFormError, VerificationError


class HomogeneousForm:
    """Degree-d form in m variables as a map exponent-vector -> coefficient.

    Read-only once built: the terms are normalised to integer exponent
    tuples and nonzero Fraction coefficients, repeated exponent vectors
    added.  A plain class rather than a dataclass, so that the `git`
    commands do not import dataclasses and what it loads."""

    __slots__ = ("m", "degree", "terms")

    def __init__(self, m: int, degree: int, terms: dict | None = None):
        clean = {}
        for exps, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != m or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps}")
            if sum(exps) != degree:
                raise ValueError(f"exponents {exps} do not sum to the degree")
            clean[exps] = clean.get(exps, Fraction(0)) + coeff
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", {e: c for e, c in clean.items() if c != 0})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m, self.degree, self.terms) == (other.m, other.degree, other.terms)

    # Unhashable, like a frozen dataclass with a dict field.
    __hash__ = None

    def __repr__(self) -> str:
        return f"HomogeneousForm(m={self.m!r}, degree={self.degree!r}, terms={self.terms!r})"

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not __setattr__.
        return HomogeneousForm, (self.m, self.degree, self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "degree": self.degree,
            "terms": [{"exponents": list(e), "coeff": str(c)}
                      for e, c in sorted(self.terms.items())],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "HomogeneousForm":
        """The form of {"m", "degree", "terms": [{"exponents", "coeff"}, ...]},
        the sum of its terms (repeated exponent vectors are added); ValueError
        naming the field that is missing or malformed."""
        if not isinstance(obj, dict):
            raise ValueError(f"a form is a JSON object, not {type(obj).__name__}")
        for key in ("m", "degree", "terms"):
            if key not in obj:
                raise ValueError(f"form has no field {key!r}")
            if key != "terms" and not _is_json_int(obj[key]):
                raise ValueError(f"form field {key!r} is not an integer: {obj[key]!r}")
        terms = obj["terms"]
        if not isinstance(terms, list) or not all(
                isinstance(t, dict) and "exponents" in t and "coeff" in t for t in terms):
            raise ValueError("form field 'terms' is not a list of {exponents, coeff} objects")
        parsed = {}
        for i, t in enumerate(terms):
            exps = t["exponents"]
            if not isinstance(exps, list) or not all(map(_is_json_int, exps)):
                raise ValueError(f"form field 'exponents' of term {i} is not a list of "
                                 f"integers: {exps!r}")
            try:
                coeff = Fraction(t["coeff"])
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                raise ValueError(f"form field 'coeff' of term {i} is not a rational "
                                 f"number: {t['coeff']!r}") from None
            key = tuple(exps)
            parsed[key] = parsed.get(key, 0) + coeff
        return cls(obj["m"], obj["degree"], parsed)

    @classmethod
    def fermat(cls, m: int, degree: int) -> "HomogeneousForm":
        terms = {}
        for i in range(m):
            e = [0] * m
            e[i] = degree
            terms[tuple(e)] = Fraction(1)
        return cls(m, degree, terms)


def _is_json_int(x) -> bool:
    """Whether a parsed JSON value is an integer (true and false are not)."""
    return isinstance(x, int) and not isinstance(x, bool)


def exponent_points(form: HomogeneousForm) -> list[tuple[int, ...]]:
    """Deduplicated exponent vectors of the monomials in the form, lex order."""
    if form.is_zero():
        raise EmptyFormError("the zero form has no exponent points")
    return sorted(form.terms.keys())


def barycenter(form: HomogeneousForm) -> list[Fraction]:
    return [Fraction(form.degree, form.m)] * form.m


def is_semistable_diagonal(form: HomogeneousForm) -> tuple[bool, dict]:
    """Barycenter membership in the hull of exponent points, with certificate.

    True: certificate carries exact convex coefficients.  False: certificate
    carries an integer weight vector w with sum(w) = 0 and w.p > 0 for every
    exponent point p (a destabilizing diagonal one-parameter subgroup in the
    given coordinates).
    """
    points = exponent_points(form)
    b = barycenter(form)
    res = _membership_lp(points, b, form.m)
    if res.status == OPTIMAL:
        lam = res.x[:len(points)]
        return True, {"lambda": [str(v) for v in lam],
                      "points": [list(p) for p in points]}
    # The Farkas dual y has y.(p - b) < 0 on every point: flip it.
    weights = _normalize_weights([-v for v in res.duals[:form.m]], form.m)
    return False, {"separating_weights": weights,
                   "points": [list(p) for p in points]}


def is_stable_diagonal(form: HomogeneousForm) -> tuple[bool, dict]:
    """Barycenter interiority inside the degree hyperplane, with certificate.

    Interior means interior relative to the ambient hyperplane {sum x = d}:
    the affine span of the points must be the full hyperplane and the
    barycenter must admit a convex expression with all coefficients strictly
    positive (equivalently it avoids every supporting hyperplane).
    """
    points = exponent_points(form)
    b = barycenter(form)
    m = form.m
    rank = _affine_rank(points)
    if rank < m - 1:
        return False, {"affine_rank": rank, "required": m - 1,
                       "points": [list(p) for p in points]}
    res = _interior_lp(points, b, m)
    if res.status == OPTIMAL and res.objective < 0:
        lam = [res.x[j] + (-res.objective) for j in range(len(points))]
        cert = {"lambda": [str(v) for v in lam], "margin": str(-res.objective),
                "points": [list(p) for p in points]}
        return True, cert
    support = _supporting_weights(points, b, res, m)
    return False, {"supporting_weights": support,
                   "points": [list(p) for p in points]}


def cone_extend(form: HomogeneousForm) -> HomogeneousForm:
    """The form plus X_{m+1}^d, in m+1 variables."""
    terms = {exps + (0,): c for exps, c in form.terms.items()}
    apex = (0,) * form.m + (form.degree,)
    terms[apex] = terms.get(apex, Fraction(0)) + 1
    return HomogeneousForm(form.m + 1, form.degree, terms)


def verify_semistable_certificate(form: HomogeneousForm, flag: bool, cert: dict) -> bool:
    """Exact re-check of a semistability certificate."""
    points = exponent_points(form)
    b = barycenter(form)
    if flag:
        return _is_convex_combination(cert["lambda"], points, b, strict=False)
    w = cert["separating_weights"]
    if sum(w) != 0 or all(x == 0 for x in w):
        return False
    return all(sum(wi * pi for wi, pi in zip(w, p)) > 0 for p in points)


def verify_stable_certificate(form: HomogeneousForm, flag: bool, cert: dict) -> bool:
    """Exact re-check of a stability certificate."""
    points = exponent_points(form)
    b = barycenter(form)
    if flag:
        return (_is_convex_combination(cert["lambda"], points, b, strict=True)
                and _affine_rank(points) == form.m - 1)
    if "affine_rank" in cert:
        return _affine_rank(points) == cert["affine_rank"] < form.m - 1
    w = cert["supporting_weights"]
    return any(x != 0 for x in w) and _supports(w, points, b)


def _is_convex_combination(lam, points, b, strict: bool) -> bool:
    """Whether the coefficients lam (strings or Fractions) are >= 0 (> 0 if
    strict), sum to 1 and combine the points to b."""
    lam = [Fraction(s) for s in lam]
    if len(lam) != len(points) or any(v < 0 or (strict and v == 0) for v in lam):
        return False
    return sum(lam) == 1 and all(sum(l * p[i] for l, p in zip(lam, points)) == bi
                                 for i, bi in enumerate(b))


def _supports(w, points, b) -> bool:
    """Whether w.(p - b) <= 0 on every point and < 0 on some."""
    vals = [sum(Fraction(wi) * (pi - bi) for wi, pi, bi in zip(w, p, b)) for p in points]
    return all(v <= 0 for v in vals) and any(v < 0 for v in vals)


# ---------------------------------------------------------------------------
# LP plumbing

def _membership_lp(points, b, m):
    ncols = len(points)
    rows = [[Fraction(p[i]) for p in points] for i in range(m)]
    rows.append([Fraction(1)] * ncols)
    rhs = list(b) + [Fraction(1)]
    cost = [Fraction(0)] * ncols
    return solve_lp(rows, rhs, cost)


def _interior_lp(points, b, m):
    """max t st sum (mu_i + t) p_i = b, sum(mu_i + t) = 1, mu >= 0, t free."""
    npts = len(points)
    s = [sum(Fraction(p[i]) for p in points) for i in range(m)]
    rows = []
    for i in range(m):
        rows.append([Fraction(p[i]) for p in points] + [s[i], -s[i]])
    rows.append([Fraction(1)] * npts + [Fraction(npts), Fraction(-npts)])
    rhs = list(b) + [Fraction(1)]
    cost = [Fraction(0)] * npts + [Fraction(-1), Fraction(1)]
    return solve_lp(rows, rhs, cost)


def _supporting_weights(points, b, res, m):
    """Integer weights w with w.(p - b) <= 0 on every point and < 0 on some,
    read off the optimal duals of the interior LP.

    is_stable_diagonal runs _interior_lp only at affine rank m - 1, so the
    LP is feasible (b lies in the affine hull, the whole degree hyperplane)
    and bounded (mu >= 0 in the last row gives t.npts <= 1).  It ends
    OPTIMAL, with t* <= 0 on this branch.  Its optimal duals (w, y0) satisfy
    w.p_j + y0 <= 0 for every j (the mu_j columns), sum_j (w.p_j + y0) = -1
    (the t+ and t- columns) and w.b + y0 = -t* (strong duality).  So every
    w.(p_j - b) = (w.p_j + y0) + t* is <= 0, and at least one is < 0.
    """
    if res.status != OPTIMAL or not _supports(res.duals[:m], points, b):
        raise VerificationError("no supporting functional found for a boundary barycenter")
    return _normalize_weights(res.duals[:m], m)


def _normalize_weights(w, m):
    """Integer weights proportional to w shifted to sum zero (a shift allowed
    on the degree hyperplane), divided by their content."""
    shift = Fraction(sum(Fraction(v) for v in w), m)
    wi = la.clear_denominators([[Fraction(v) - shift for v in w]])[0][0]
    g = gcd(*wi)
    return [v // g for v in wi] if g > 1 else wi


def _affine_rank(points) -> int:
    if len(points) <= 1:
        return 0
    p0 = points[0]
    rows = [[p[i] - p0[i] for i in range(len(p0))] for p in points[1:]]
    return la.rank_exact(rows)
