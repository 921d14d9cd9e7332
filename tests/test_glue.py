"""Integer glue_with_basis against the Fraction implementation it replaced,
on random glue specs, valid and invalid."""

from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlat import _intlinalg as la
from fermatlat.errors import DegenerateLatticeError, InvalidGlueError
from fermatlat.lattice_core import GlueSpec, IntegerLattice, glue_with_basis
from test_lattice_core import discriminant_group_generators


def fraction_glue_with_basis(spec):
    """Every pairing as a sum of Fraction products, as before."""
    g0 = spec.combined_gram()
    n = spec.total_rank()
    sym = spec.symmetry()
    for gv in spec.glue_vectors:
        if len(gv) != n:
            raise InvalidGlueError("glue vector of wrong length")
        pair_with_lattice = [sum(Fraction(g0[i][j]) * gv[j] for j in range(n)) for i in range(n)]
        if any(x.denominator != 1 for x in pair_with_lattice):
            raise InvalidGlueError("glue vector pairs non-integrally with a component vector")
    for a in spec.glue_vectors:
        for b in spec.glue_vectors:
            val = sum(a[i] * Fraction(g0[i][j]) * b[j] for i in range(n) for j in range(n))
            if val.denominator != 1:
                raise InvalidGlueError("glue vectors pair non-integrally with each other")
    den = 1
    for gv in spec.glue_vectors:
        for x in gv:
            den = lcm(den, x.denominator)
    rows = [[den if i == j else 0 for j in range(n)] for i in range(n)]
    for gv in spec.glue_vectors:
        rows.append([int(x * den) for x in gv])
    h, _ = la.hnf_row(rows)
    if len(h) != n:
        raise InvalidGlueError("glued generators do not span the rational span")
    basis = [[Fraction(x, den) for x in row] for row in h]
    gram = []
    for brow in basis:
        tmp = [sum(brow[i] * g0[i][j] for i in range(n)) for j in range(n)]
        gram.append([sum(tmp[j] * bcol[j] for j in range(n)) for bcol in basis])
    if any(x.denominator != 1 for row in gram for x in row):
        raise InvalidGlueError("glued lattice has a non-integral pairing")
    glued = IntegerLattice([[int(x) for x in row] for row in gram], sym)
    return glued, basis


def outcome(fn, spec):
    try:
        glued, basis = fn(spec)
    except InvalidGlueError as exc:
        return "error", str(exc)
    return glued.gram.tolist(), glued.symmetry, basis


@st.composite
def components(draw):
    n = draw(st.integers(1, 3))
    if draw(st.integers(0, 5)) == 0:
        vals = [draw(st.integers(-4, 4)) for _ in range(n * (n - 1) // 2)]
        g = [[0] * n for _ in range(n)]
        it = iter(vals)
        for i in range(n):
            for j in range(i + 1, n):
                g[i][j] = next(it)
                g[j][i] = -g[i][j]
        return IntegerLattice(g, "antisymmetric")
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(st.integers(-6, 6))
    return IntegerLattice(g)


def _dual_classes(lattice):
    """Discriminant-group generators of a nondegenerate symmetric lattice."""
    if lattice.symmetry != "symmetric":
        return []
    try:
        return [vec for vec, _order in discriminant_group_generators(lattice)]
    except DegenerateLatticeError:
        return []


@st.composite
def glue_specs(draw):
    comps = draw(st.lists(components(), min_size=1, max_size=3))
    n = sum(c.rank for c in comps)
    classes = []
    off = 0
    for c in comps:
        for vec in _dual_classes(c):
            classes.append([Fraction(0)] * off + vec + [Fraction(0)] * (n - off - c.rank))
        off += c.rank
    gvs = []
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        kind = draw(st.sampled_from(["dual"] * 4 + ["lattice", "random", "short"]))
        if kind == "lattice":
            # A vector of the orthogonal sum itself: always a valid glue.
            gv = [Fraction(draw(st.integers(-3, 3))) for _ in range(n)]
        elif kind == "dual" and classes:
            # Integer combinations of dual classes pair integrally with L.
            coeffs = [draw(st.integers(-2, 2)) for _ in classes]
            gv = [sum((c * v[i] for c, v in zip(coeffs, classes)), Fraction(0)) for i in range(n)]
        elif kind == "short":
            gv = [Fraction(draw(st.integers(-3, 3)), 2) for _ in range(max(0, n - 1))]
        else:
            gv = [Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 2, 3, 4, 6])))
                  for _ in range(n)]
        gvs.append(gv)
    return GlueSpec(comps, gvs)


@settings(max_examples=400, deadline=None)
@given(glue_specs())
def test_integer_glue_matches_fraction_glue(spec):
    assert outcome(glue_with_basis, spec) == outcome(fraction_glue_with_basis, spec)


def test_glue_outcomes_cover_valid_and_each_error():
    a2 = IntegerLattice([[2, 1], [1, 2]])
    a2n = IntegerLattice([[-2, -1], [-1, -2]])
    gamma = discriminant_group_generators(a2)[0][0]
    half = [Fraction(1, 2), Fraction(0)]
    cases = {
        "valid": GlueSpec([a2, a2n], [gamma + gamma]),
        "glue vector pairs non-integrally with a component vector":
            GlueSpec([a2], [half]),
        "glue vectors pair non-integrally with each other":
            GlueSpec([a2, a2], [gamma + gamma]),
        "glue vector of wrong length": GlueSpec([a2], [[Fraction(1)]]),
    }
    for expected, spec in cases.items():
        got = outcome(glue_with_basis, spec)
        assert got == outcome(fraction_glue_with_basis, spec)
        assert (got[0] != "error") if expected == "valid" else got == ("error", expected)
