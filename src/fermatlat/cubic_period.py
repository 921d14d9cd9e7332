"""The d=3, n=4 specialization: the cubic fourfold middle-homology lattices.

Builds the even rank-22 lattice of signature (20,2) with its distinguished
norm-3 vector eta adjoined, glues the odd unimodular rank-23 overlattice,
and implements the special/nodal vector predicates, bounded box searches,
Eisenstein eigenlattices, and the hyperplane-versus-eigenball tests used to
check the arrangement claims at evidence level.

Both cached builds, the glued lattices and the eigenlattices, are read-only
integer arrays that every call shares: a call gets a new object, with new
dicts and lattice labels, over the same arrays, so no caller can change what
the next one sees.  The eigenlattices and eigenball tests work on integer
coordinate arrays over Z[zeta_3] (see hermitian_eigen): the eigenspace is
the left kernel of one integer matrix, its Gram and the restricted forms are
_hermitian_product calls, and the Euclidean echelon takes and returns a
coordinate array.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import _intlinalg as la
from .errors import InvalidGlueError, ResourceBoundError, VerificationError
from .exact_algebra import euler_phi
from .fermat_homology import build_primitive
from .hermitian_eigen import (
    HermitianLattice,
    _embedding_signatures,
    _hermitian_product,
    _zeta_table,
    cyclotomic_row_echelon,
)
from .lattice_core import (
    GlueSpec,
    IntegerLattice,
    determinant,
    discriminant,
    glue_with_basis,
    is_even,
    signature,
)

BOX_POINT_LIMIT = 40_000_000


class CubicFourfoldLattice:
    """The glued unimodular lattice with its fixed vector and symmetry action.

    Matrices are read-only integer arrays and vectors are tuples."""

    def __init__(self, lambda_o: IntegerLattice, lambda_full: IntegerLattice,
                 eta_in_lambda: tuple[int, ...], lambda_o_in_lambda: np.ndarray,
                 actions_o: dict[str, np.ndarray], actions_full: dict[str, np.ndarray],
                 disc_generator: tuple[Fraction, ...], glue_class: tuple[int, int],
                 reduced_basis: np.ndarray, reduction_transform: np.ndarray):
        self.lambda_o = lambda_o
        self.lambda_full = lambda_full
        self.eta_in_lambda = eta_in_lambda
        self.lambda_o_in_lambda = lambda_o_in_lambda
        self.actions_o = actions_o
        self.actions_full = actions_full
        self.disc_generator = disc_generator
        self.glue_class = glue_class
        self.reduced_basis = reduced_basis
        self.reduction_transform = reduction_transform

    # -- pairings -------------------------------------------------------

    def norm_o(self, v: Sequence[int]) -> int:
        return self.lambda_o.norm(v)

    def embed(self, v: Sequence[int]) -> list[int]:
        """Coordinates in the glued lattice of a vector of lambda_o."""
        return la.int_matmul(la.int_array(v), self.lambda_o_in_lambda).tolist()

    # -- predicates -------------------------------------------------------

    def is_nodal(self, v: Sequence[int]) -> bool:
        return self.norm_o(v) == 2

    def is_special(self, v: Sequence[int]) -> bool:
        """v.v = 6 with every pairing against lambda_o divisible by 3.

        The coordinate-free divisibility characterization (v -+ eta divisible
        by 3 in the glued lattice, for one of the two signs) is recomputed and
        must agree; disagreement raises.
        """
        vg = la.int_matmul(la.int_array(v), self.lambda_o.gram).tolist()
        norm_six = la.dot(vg, v) == 6
        flag1 = norm_six and all(x % 3 == 0 for x in vg)
        flag2 = norm_six and self.special_eta_sign(v) is not None
        if flag1 != flag2:
            raise VerificationError(
                "special-vector characterizations disagree on " + repr(list(v)))
        return flag1

    def special_eta_sign(self, v: Sequence[int]) -> Optional[int]:
        """+1 if v - eta is divisible by 3 in the glued lattice, -1 if
        v + eta is, None if neither."""
        ve = self.embed(v)
        for sign in (1, -1):
            if all((a - sign * b) % 3 == 0 for a, b in zip(ve, self.eta_in_lambda)):
                return sign
        return None

    def special_e_vector(self, v: Sequence[int]) -> list[int]:
        """e = (eta - v)/3 in glued coordinates (up to replacing v by -v)."""
        sign = self.special_eta_sign(v)
        if sign is None:
            raise VerificationError("vector is not special")
        ve = self.embed([sign * x for x in v])
        return [(b - a) // 3 for a, b in zip(ve, self.eta_in_lambda)]

    def pair_full(self, a: Sequence[int], b: Sequence[int]) -> int:
        return self.lambda_full.pairing(a, b)


def build_cubic_lattices() -> CubicFourfoldLattice:
    """Construct the pair (even rank-22 lattice, glued unimodular rank-23).

    The glue class is found by exhaustive search over the nine candidate
    discriminant classes of lambda_o + Z eta; exactly one works up to sign.
    Every structural claim is checked: parities, signatures, discriminants,
    the fixed vector, and the orthogonal-complement relation.  The
    construction is cached; every call returns new lattice and dict objects
    over the cached read-only arrays.
    """
    c = _glued_cubic_lattices()
    return CubicFourfoldLattice(
        c.lambda_o.relabel(c.lambda_o.label), c.lambda_full.relabel(c.lambda_full.label),
        c.eta_in_lambda, c.lambda_o_in_lambda, dict(c.actions_o), dict(c.actions_full),
        c.disc_generator, c.glue_class, c.reduced_basis, c.reduction_transform)


@lru_cache(maxsize=None)
def _glued_cubic_lattices() -> CubicFourfoldLattice:
    prim = build_primitive(3, 4)
    lambda_o = prim.lattice.relabel("lambda_o")
    if signature(lambda_o) != (20, 2) or not is_even(lambda_o):
        raise VerificationError("lambda_o must be even of signature (20,2)")
    if discriminant(lambda_o).elementary_divisors != (3,):
        raise VerificationError("lambda_o must have cyclic discriminant of order 3")

    gamma = _disc_generator(lambda_o)
    eta_lattice = IntegerLattice([[3]], label="Z eta")

    winners = []
    seen_lattices = []
    for a, b in itertools.product(range(3), repeat=2):
        if (a, b) == (0, 0):
            continue
        gv = [Fraction(a) * x for x in gamma] + [Fraction(b, 3)]
        spec = GlueSpec([lambda_o, eta_lattice], [gv])
        try:
            glued, basis = glue_with_basis(spec)
        except InvalidGlueError:
            continue
        if abs(determinant(glued)) == 1:
            # (a, b) and (2a, 2b) generate the same glue group; keep one
            # winner per distinct glued lattice.
            if basis not in seen_lattices:
                seen_lattices.append(basis)
                winners.append(((a, b), glued, basis))
    if len(winners) != 2:
        raise VerificationError(
            f"expected exactly one glue class up to sign, found {len(winners)}")
    (glue_class, lambda_full, basis) = winners[0]
    lambda_full = lambda_full.relabel("lambda")

    if signature(lambda_full) != (21, 2):
        raise VerificationError("glued lattice must have signature (21,2)")
    if is_even(lambda_full):
        raise VerificationError("glued lattice must be odd")

    # basis = S / den, so basis^-1 = den * S^-1.  Row i of basis^-1 holds the
    # glued coordinates of the i-th orthogonal-sum basis vector (e_0..e_21
    # span lambda_o, e_22 is eta): it must be integral.
    scaled, den = la.clear_denominators(basis)
    scaled = la.int_array(scaled)
    coords = la.scaled_integer_inverse(scaled, den)
    if coords is None:
        raise VerificationError("vector does not lie in the glued lattice")
    eta_in_lambda = tuple(coords[22].tolist())
    lambda_o_in_lambda = coords[:22]

    actions_full = {}
    for name, m in prim.actions.items():
        block = la.int_array([row + [0] for row in m.tolist()] + [[0] * 22 + [1]])
        # basis . block . basis^-1 = S . block . coords / den, checked integral.
        mat, rem = np.divmod(la.int_matmul(la.int_matmul(scaled, block), coords), den)
        if rem.any():
            raise VerificationError("transported action is not integral")
        actions_full[name] = la.frozen_int_array(mat)
        moved = la.mat_mul(la.mat_mul(mat, lambda_full.gram), la.mat_transpose(mat))
        if moved != lambda_full.gram.tolist():
            raise VerificationError(f"action {name} does not preserve the glued pairing")
        if tuple(la.vec_mat(eta_in_lambda, mat)) != eta_in_lambda:
            raise VerificationError(f"action {name} does not fix eta")

    _assert_orthogonal_complement(lambda_full, eta_in_lambda, lambda_o_in_lambda)

    built = CubicFourfoldLattice(
        lambda_o, lambda_full, eta_in_lambda, la.frozen_int_array(lambda_o_in_lambda),
        prim.actions, actions_full, tuple(gamma), glue_class, None, None)
    reduced_gram, u = _special_adapted_basis(built)
    built.reduced_basis = la.frozen_int_array(reduced_gram)
    built.reduction_transform = la.frozen_int_array(u)
    return built


def construct_special_vector(built: CubicFourfoldLattice) -> list[int]:
    """Deterministically construct one special vector, as v = eta - 3e for an
    explicit e with e.e = e.eta = 1 (found by a fixed bounded scan)."""
    full = built.lambda_full
    eta = built.eta_in_lambda
    # e0 with e0.eta = 1, folding extended gcds over the entries of eta.G.
    gcd_f, e0 = 0, [0] * full.rank
    for i, x in enumerate(la.vec_mat(eta, full.gram)):
        gcd_f, s, t = la.xgcd(gcd_f, x)
        e0 = [s * y for y in e0]
        e0[i] += t
    if gcd_f != 1:
        raise VerificationError("eta is not primitive in the glued lattice")
    target = 1 - full.pairing(e0, e0)
    emb = built.lambda_o_in_lambda.tolist()
    # e = e0 + a emb_i + b emb_j has e.e = 1 iff
    # a^2 G_ii + 2ab G_ij + b^2 G_jj + 2 (a f_i + b f_j) = 1 - e0.e0.
    pair = la.mat_mul(emb, full.gram)
    g = la.mat_mul(pair, la.mat_transpose(emb))
    f = la.mat_vec(pair, e0)
    hit = next(((i, j, a, b) for i in range(22) for j in range(i, 22)
                for a, b in itertools.product(range(-3, 4), repeat=2)
                if a * a * g[i][i] + 2 * a * b * g[i][j] + b * b * g[j][j]
                + 2 * (a * f[i] + b * f[j]) == target), None)
    if hit is None:
        raise VerificationError("no norm adjustment found for the e-vector scan")
    i, j, a, b = hit
    e = [x + a * y + b * z for x, y, z in zip(e0, emb[i], emb[j])]
    v_full = [b - 3 * a for a, b in zip(e, eta)]
    rows = emb + [list(eta)]
    sol = la.solve_rational(la.mat_transpose(rows), [[x] for x in v_full])
    coords = [r[0] for r in sol]
    if any(c.denominator != 1 for c in coords) or coords[22] != 0:
        raise VerificationError("constructed vector is not in lambda_o")
    v = [int(c) for c in coords[:22]]
    if not built.is_special(v):
        raise VerificationError("constructed vector is not special")
    return v


def _special_adapted_basis(built: CubicFourfoldLattice):
    """Deterministic search basis: a constructed special vector completed to a
    basis of lambda_o, then size-reduced with the special vector frozen.

    Returns (gram, rows) with rows the basis vectors in original coordinates.
    The adapted basis guarantees the bounded box searches see at least one
    special vector; every search result is mapped back to original
    coordinates."""
    v = construct_special_vector(built)
    pivot = next((j for j, x in enumerate(v) if abs(x) == 1), None)
    if pivot is None:
        raise VerificationError("the constructed special vector has no +-1 coefficient")
    # Replacing basis vector `pivot` by v is unimodular when v has a +-1
    # coefficient there; this keeps the rest of the basis the nodal
    # monomial vectors.
    rows = la.mat_identity(22)
    rows[pivot] = list(v)
    rows[0], rows[pivot] = rows[pivot], rows[0]
    g = la.mat_mul(la.mat_mul(rows, built.lambda_o.gram), la.mat_transpose(rows))
    # Guarded size-reduction sweeps on rows 1..; a step is applied only when
    # it strictly shrinks |g_ii|, which keeps indefinite reduction monotone.
    for _ in range(16):
        changed = False
        for j in range(22):
            if g[j][j] == 0:
                continue
            for i in range(1, 22):
                if i == j:
                    continue
                q = _round_nearest(g[i][j], g[j][j])
                if q == 0:
                    continue
                new_gii = g[i][i] - 2 * q * g[i][j] + q * q * g[j][j]
                if abs(new_gii) >= abs(g[i][i]):
                    continue
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[j])]
                for t in range(22):
                    g[i][t] -= q * g[j][t]
                for t in range(22):
                    g[t][i] -= q * g[t][j]
                changed = True
        if not changed:
            break
    return g, rows


def _round_nearest(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1 if b > 0 else -1
    return q


def _disc_generator(lattice: IntegerLattice) -> list[Fraction]:
    """A generator of the order-3 discriminant group, as a dual vector."""
    ker = la.modp_kernel(lattice.gram, 3)
    if ker.shape[0] != 1:
        raise VerificationError("discriminant group is not cyclic of order 3")
    x = [int(v) % 3 for v in ker[0]]
    if all(v == 0 for v in x):
        raise VerificationError("trivial discriminant generator")
    gx = la.vec_mat(x, lattice.gram)
    if any(v % 3 for v in gx):
        raise VerificationError("mod-3 kernel vector does not lift to the dual")
    return [Fraction(v, 3) for v in x]


def _assert_orthogonal_complement(lambda_full, eta_in_lambda, lambda_o_in_lambda):
    comp = la.right_kernel([la.vec_mat(eta_in_lambda, lambda_full.gram)])
    if comp != la.hnf_row(lambda_o_in_lambda)[0]:
        raise VerificationError("lambda_o is not the orthogonal complement of eta")


# ---------------------------------------------------------------------------
# Bounded box search

def bounded_box_vectors(lattice: IntegerLattice, norm: int, bound: int,
                        congruence: Optional[tuple[la.Mat, int]] = None,
                        transform: Optional[la.Mat] = None) -> list[tuple[int, ...]]:
    """All v = sum c_i b_i with |c_i| <= bound and v.v = norm, sorted.

    congruence, when given, is (rows, m): only coefficient vectors with
    rows . c == 0 (mod m) are enumerated; the affine classes are solved first
    so the per-coordinate domains shrink accordingly.  The full grid size is
    capped; searches beyond the cap need a congruence filter.  transform, when
    given, re-expresses the enumerated coefficients in another basis before
    returning (used for size-reduced search bases).
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    n = lattice.rank
    # _scan_grid filters norms in float64 and rechecks them in int64: both are
    # exact when every partial sum of c.G.c is below 2**53.
    gram = la.int_array(lattice.gram)
    gmax = int(abs(gram).max()) if n else 0
    if bound * bound * gmax * n * n >= 2**53:
        raise ResourceBoundError(
            "box norms may reach 2**53, beyond the exact float64 norm filter")
    domains = _coefficient_domains(n, bound, congruence)
    hits: list[tuple[int, ...]] = []
    for dom in domains:
        total = 1
        for dvals in dom:
            total *= len(dvals)
        if total > BOX_POINT_LIMIT:
            raise ResourceBoundError(
                f"box of {total} points exceeds the enumeration cap; "
                "restrict with a congruence filter")
        hits.extend(_scan_grid(gram, dom, norm))
    if transform is not None:
        hits = [tuple(la.vec_mat(list(h), transform)) for h in hits]
    return sorted(set(hits))


def _coefficient_domains(n, bound, congruence):
    base = list(range(-bound, bound + 1))
    if congruence is None:
        return [[base[:] for _ in range(n)]]
    rows, mod = congruence
    null = la.modp_kernel(rows, mod)
    reps = []
    # Enumerate nonzero classes of the solution space mod `mod` (small by
    # construction: the searches here have solution spaces of dimension <= 2).
    dim = null.shape[0]
    if mod ** dim > 729:
        raise ResourceBoundError("congruence solution space too large to enumerate")
    for coeffs in itertools.product(range(mod), repeat=dim):
        vec = tuple(int(sum(c * null[t][j] for t, c in enumerate(coeffs))) % mod
                    for j in range(n))
        reps.append(vec)
    reps = sorted(set(reps))
    domains = []
    for rep in reps:
        dom = []
        ok = True
        for j in range(n):
            vals = [c for c in base if (c - rep[j]) % mod == 0]
            if not vals:
                ok = False
                break
            dom.append(vals)
        if ok:
            domains.append(dom)
    return domains


def _scan_grid(gram, domains, norm, chunk=1 << 18):
    n = len(domains)
    sizes = [len(d) for d in domains]
    total = 1
    for s in sizes:
        total *= s
    doms = [np.array(d, dtype=np.int64) for d in domains]
    gram_f = gram.astype(np.float64)
    out = []
    radix = np.ones(n, dtype=np.int64)
    for i in range(n - 2, -1, -1):
        radix[i] = radix[i + 1] * sizes[i + 1]
    start = 0
    while start < total:
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        coords = np.empty((stop - start, n), dtype=np.int64)
        for j in range(n):
            coords[:, j] = doms[j][(idx // radix[j]) % sizes[j]]
        cf = coords.astype(np.float64)
        norms = np.einsum("ij,ij->i", cf @ gram_f, cf)
        mask = norms == float(norm)
        for row in coords[mask]:
            v = [int(x) for x in row]
            # exact recheck in integer arithmetic
            val = 0
            gv = gram @ np.array(v, dtype=np.int64)
            val = int(np.dot(gv, np.array(v, dtype=np.int64)))
            if val == norm:
                out.append(tuple(v))
        start = stop
    return out


def special_vectors_in_box(built: CubicFourfoldLattice, bound: int) -> list[tuple[int, ...]]:
    """All special vectors with size-reduced coefficients in the box, in the
    original lambda_o basis, sorted."""
    u = built.reduction_transform
    reduced = IntegerLattice(built.reduced_basis, "symmetric", "lambda_o (reduced)")
    # pairings against all of lambda_o must be divisible by 3: rows = reduced gram
    congruence = (built.reduced_basis, 3)
    hits = bounded_box_vectors(reduced, 6, bound, congruence=congruence, transform=u)
    return [h for h in hits if built.is_special(h)]


def nodal_vectors_in_box(built: CubicFourfoldLattice, bound: int,
                         sublattice_rank: Optional[int] = None) -> list[tuple[int, ...]]:
    """Nodal (norm 2) vectors with bounded coefficients; optionally restricted
    to the span of the first few size-reduced basis vectors so the grid stays
    within the enumeration cap."""
    g = built.reduced_basis
    r = len(g) if sublattice_rank is None else min(sublattice_rank, len(g))
    return bounded_box_vectors(IntegerLattice(g[:r, :r], "symmetric"), 2, bound,
                               transform=built.reduction_transform[:r])


# ---------------------------------------------------------------------------
# Eisenstein eigenlattices

def eigenlattice(k: int, conjugate: bool = False):
    """The chi_k-eigenlattice V_k of the last-k-coordinate action on the
    rank-22 lattice, as a saturated Z[zeta_3]-lattice with the hermitian form
    h(x, y) = x . conj(y).

    Returns (HermitianLattice, z_basis) where z_basis is the read-only
    (rank, 22, 2) coordinate array of the Z[zeta_3] basis vectors.  The
    eigenvalue convention on homology is u -> zeta_3; `conjugate` switches
    to the other member of the conjugate pair.  The arrays are cached and
    shared by every call; each call returns a new HermitianLattice over them.
    """
    gram, basis = _eigenlattice_arrays(k, conjugate)
    return HermitianLattice(3, gram, "raw"), basis


@lru_cache(maxsize=None)
def _eigenlattice_arrays(k: int, conjugate: bool):
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2, or 3")
    built = build_cubic_lattices()
    prim = build_primitive(3, 4)
    mats = [prim.actions[f"u_{i}"] for i in range(6 - k, 6)]
    zrows = la.int_array(_common_eigenspace_z_basis(3, 22, mats, conjugate=conjugate))
    # Permutations inside the window act by a single scalar on the eigenspace
    # (the sign character under this generator normalization), so the
    # eigenspace is a full G_k-isotypic piece.
    phi = euler_phi(3)
    for j in range(6 - k, 5):
        smat = np.kron(np.eye(phi, dtype=np.int64), la.int_array(prim.actions[f"s_{j}"]))
        moved = la.int_matmul(zrows, smat)
        if not ((moved == zrows).all(axis=1) | (moved == -zrows).all(axis=1)).all():
            raise VerificationError("permutation part is not scalar on the eigenspace")
    coords = zrows.reshape(len(zrows), phi, 22).transpose(0, 2, 1)
    b = la.frozen_int_array(cyclotomic_row_echelon(3, coords))
    gram = _hermitian_product(3, b, la.int_array(built.lambda_o.gram)[..., None], b)
    return la.frozen_int_array(gram), b


def _common_eigenspace_z_basis(d: int, n: int, mats: list[la.Mat], conjugate: bool):
    """Saturated Z-basis of {x in Z[zeta_d]^n : x T = zeta^(+-1) x for every
    T in mats}, each x as the row (x_0, ..., x_{phi-1}) of the integer vectors
    of its power-basis coordinates: the left kernel of the blocks
    kron(I_phi, T) - kron(M, I_n), where row j of M is zeta^j times the
    eigenvalue."""
    phi = euler_phi(d)
    target = d - 1 if conjugate else 1
    eigen = _zeta_table(d)[(np.arange(phi) + target) % d]
    shift = np.kron(eigen, np.eye(n, dtype=np.int64))
    blocks = [np.kron(np.eye(phi, dtype=np.int64), la.int_array(t)) - shift for t in mats]
    return la.left_kernel(np.hstack(blocks).tolist())


# ---------------------------------------------------------------------------
# Hyperplane versus eigenball

def hyperplane_meets_eigenball(v: Sequence[int], k: int) -> tuple[bool, bool]:
    """Whether the hyperplane of the special vector v still meets the
    eigenball of V_k: (meets, contained).

    The restriction of the hermitian form to v-perp in V_k must keep a
    negative direction for the hyperplane to meet the ball; if the constraint
    vanishes identically the eigenspace is contained in the hyperplane.
    """
    built = build_cubic_lattices()
    if not built.is_special(v):
        raise VerificationError("hyperplane test requires a special vector")
    h, basis = eigenlattice(k)
    gv = la.int_matmul(la.int_array(v), built.lambda_o.gram)
    return ball_meets_restriction(h, la.int_matmul(basis.transpose(0, 2, 1), gv))


def ball_meets_restriction(h: HermitianLattice, ell: np.ndarray) -> tuple[bool, bool]:
    """Signature test of a hermitian form restricted to the kernel of a
    functional: (has negative direction, functional vanished identically).

    ell is the (rank, phi) integer coordinate array of the functional's
    values on the basis.  The rows of _kernel_rows(ell) are ell[p] times a
    basis of the kernel over Q(zeta_d), so the form on them is |ell[p]|^2
    times the restriction, and |ell[p]|^2 is positive at every embedding,
    as is the denominator of h.coords; neither changes the negative index,
    which must agree at every embedding.
    """
    e = la.int_array(ell)
    if not e.any():
        return True, True
    rows = _kernel_rows(e)
    sigs, _nullity = _embedding_signatures(h.d, _hermitian_product(h.d, rows, h.coords, rows))
    if len({q for _p, q in sigs}) > 1:
        raise VerificationError("negative index differs across complex embeddings")
    return sigs[0][1] > 0, False


def _kernel_rows(f: np.ndarray) -> np.ndarray:
    """The rows f[p].e_i - f[i].e_p, i != p, for p the first index where
    the functional f, one value (an integer or a coordinate row) per basis
    vector, is nonzero: f[p] times a basis of its kernel over the field of
    the values, with no elimination."""
    r = len(f)
    p = next(i for i in range(r) if f[i].any())
    others = [i for i in range(r) if i != p]
    rows = np.zeros((r - 1,) + f.shape, dtype=f.dtype)
    rows[np.arange(r - 1), others] = f[p]
    rows[:, p] = -f[others]
    return rows


def orbit_specials(built: CubicFourfoldLattice, seeds: Sequence[Sequence[int]],
                   limit: int = 40) -> list[tuple[int, ...]]:
    """Deterministic sample of the symmetry orbit of the given special
    vectors (breadth-first over the action generators, up to `limit`)."""
    names = sorted(built.actions_o)
    frontier = [tuple(v) for v in seeds]
    seen = set(frontier)
    out = list(frontier)
    while frontier and len(out) < limit:
        nxt = []
        for v in frontier:
            for name in names:
                w = tuple(la.int_matmul(la.int_array(v), built.actions_o[name]).tolist())
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
                    out.append(w)
                    if len(out) >= limit:
                        break
            if len(out) >= limit:
                break
        frontier = nxt
    for w in out:
        if not built.is_special(w):
            raise VerificationError("orbit expansion left the special set")
    return sorted(out)


# ---------------------------------------------------------------------------
# The remark-level search

def remark_filter_search(gram: la.Mat, u4: la.Mat, u5: la.Mat, bound: int,
                         special_test, congruence=None) -> list[tuple[int, ...]]:
    """Vectors v in the box with: special_test(v), u4(v) == u5(v), and the
    span of v and u5(v) positive definite of rank two."""
    lattice = IntegerLattice(gram, "symmetric")
    hits = []
    candidates = bounded_box_vectors(lattice, 6, bound, congruence=congruence)
    for v in candidates:
        if not special_test(v):
            continue
        v4 = la.vec_mat(list(v), u4)
        v5 = la.vec_mat(list(v), u5)
        if v4 != v5:
            continue
        a = lattice.norm(v)
        b = lattice.pairing(v, v5)
        c = lattice.norm(v5)
        det2 = a * c - b * b
        if a > 0 and det2 > 0:
            hits.append(v)
    return sorted(hits)


def special_search_report(bound: int) -> dict:
    """JSON-shaped report of the bounded special-vector search."""
    built = build_cubic_lattices()
    hits = special_vectors_in_box(built, bound)
    return {
        "bound": bound,
        "basis_label": "special-adapted size-reduced",
        "hits": [list(h) for h in hits],
    }


def verify_remark_52(bound: int) -> dict:
    """Search for a special v with u4(v) = u5(v) and positive definite rank-2
    span of v and u5(v); expected empty (evidence, not proof).

    The mu-generators u_4 and u_5 act on the final coordinate pair (the
    reading of `acting on the last k coordinates').
    """
    built = build_cubic_lattices()
    prim = build_primitive(3, 4)
    u4 = prim.actions["u_4"]
    u5 = prim.actions["u_5"]
    # search in the size-reduced basis with the mod-3 divisibility filter
    u = built.reduction_transform
    u4r = _conjugate_int(u, u4)
    u5r = _conjugate_int(u, u5)

    def special_in_reduced(v):
        return built.is_special(tuple(la.vec_mat(list(v), u)))

    hits_reduced = remark_filter_search(
        built.reduced_basis, u4r, u5r, bound, special_in_reduced,
        congruence=(built.reduced_basis, 3))
    hits = sorted(tuple(la.vec_mat(list(h), u)) for h in hits_reduced)
    return {
        "bound": bound,
        "generator_indices": [4, 5],
        "basis_label": "special-adapted size-reduced",
        "hits": [list(h) for h in hits],
        "evidence": True,
    }


def planted_remark_self_test() -> bool:
    """The remark filter must find a planted vector on a synthetic lattice.

    diag(6,6,6) with the cyclic shift as both u4 and u5: e_1 is `special'
    (norm 6, all pairings divisible by 3), u4(e_1) = u5(e_1) = e_2, and the
    span of e_1, e_2 is positive definite of rank two.
    """
    gram = [[6, 0, 0], [0, 6, 0], [0, 0, 6]]
    shift = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]

    def special_test(v):
        lat = IntegerLattice(gram, "symmetric")
        return lat.norm(v) == 6 and all(x % 3 == 0 for x in la.vec_mat(list(v), gram))

    hits = remark_filter_search(gram, shift, shift, 1, special_test)
    return (1, 0, 0) in hits


def _conjugate_int(u: la.Mat, m: la.Mat) -> la.Mat:
    """u * m * u^{-1} for unimodular u, exactly."""
    inverse = la.scaled_integer_inverse(la.int_array(u), 1)
    if inverse is None:
        raise VerificationError("matrix is not unimodular")
    return la.mat_mul(la.mat_mul(u, m), inverse.tolist())


def nodal_complement_signature(built: CubicFourfoldLattice, v: Sequence[int]) -> tuple[int, int]:
    """Signature of the orthogonal complement of a nodal vector in lambda_o:
    that of the Gram on _kernel_rows(v.G), f_p^2 times the complement's
    form on a basis of it over Q."""
    if not built.is_nodal(v):
        raise VerificationError("vector is not nodal")
    g = built.lambda_o.gram
    rows = _kernel_rows(la.int_matmul(la.int_array(v), g))
    return signature(IntegerLattice(la.int_matmul(la.int_matmul(rows, g), rows.T), "symmetric"))
