"""Cyclotomic reductions of the primitive Fermat lattice and hermitian forms.

The reduction tensors the integer lattice with Z[zeta_d] along the last k
coordinate actions; its Z[zeta_d]-valued pairing collects the integer
pairings against the action orbit with zeta-power weights.  For k = 1 the
pairing on monomial generators follows the four-case table, corrected by the
zeta-power twists that monomial representatives pick up across the diagonal
coset (the bare table, taken literally with `0 otherwise', presents a form of
the wrong rank; consistency of both readings is reported, not assumed).

Matrices over Z[zeta_d] are handled as integer coordinate arrays of shape
(rows, cols, phi(d)) in the power basis; their restriction of scalars
replaces each entry by its phi x phi multiplication matrix.  Only the
selected Gram matrices become CyclotomicElement objects.
"""

from __future__ import annotations

import copy
import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Optional, Sequence

import numpy as np

from . import _intlinalg as la
from .exact_algebra import (
    CyclotomicElement,
    _multiplication_matrix,
    _power_trace,
    _reduction_rows,
    euler_phi,
)
from .errors import DegenerateLatticeError, VerificationError
from .fermat_homology import PrimitiveFermatLattice, monomial_pairing

H_PLUS = "h_plus"
H_MINUS = "h_minus"


class HermitianLattice:
    """Hermitian Gram matrix over Z[zeta_d] on a chosen generator basis."""

    def __init__(self, d: int, gram: list[list[CyclotomicElement]], form_kind: str,
                 scaling: int = 1, basis_labels: Optional[list] = None,
                 excluded: bool = False, parity_consistent: bool = True):
        self.d = d
        self.rank = len(gram)
        self.gram = gram
        self.form_kind = form_kind
        self.scaling = scaling
        self.basis_labels = basis_labels
        self.excluded = excluded
        self.parity_consistent = parity_consistent
        for i in range(self.rank):
            for j in range(self.rank):
                if gram[i][j].conj() != gram[j][i]:
                    raise VerificationError("gram matrix is not hermitian")

    def copy(self) -> "HermitianLattice":
        """A copy whose lists can be changed without touching this one."""
        out = copy.copy(self)
        out.gram = [row[:] for row in self.gram]
        if self.basis_labels is not None:
            out.basis_labels = list(self.basis_labels)
        return out

    def determinant(self) -> CyclotomicElement:
        return _field_det(self.d, self.gram)

    def det_norm(self) -> Fraction:
        """N(det) as the rational determinant of the restriction of scalars."""
        coords, den = _coords_array(self.d, self.gram)
        det = la.det_bareiss(_realify(self.d, coords).tolist())
        return Fraction(det, den ** (self.rank * euler_phi(self.d)))

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "rank": self.rank,
            "gram": [[[int(c) for c in entry.integral_coords()] for entry in row]
                     for row in self.gram],
            "form_kind": self.form_kind,
            "scaling": self.scaling,
            "excluded": self.excluded,
        }


def cor23_rank(d: int, m: int) -> int:
    """((d-1)^(m+2) + (-1)^(m+1)) / d, the rank of the character reduction."""
    num = (d - 1) ** (m + 2) + (-1) ** (m + 1)
    if num % d:
        raise VerificationError("reduction rank formula is not integral")
    return num // d


def expected_sign(n: int) -> int:
    """The table sign variant carried by ambient parity: h+ for even n."""
    return 1 if n % 2 == 0 else -1


# ---------------------------------------------------------------------------
# Coordinate arrays over Z[zeta_d]

def _coords_array(d: int, gram: Sequence[Sequence[CyclotomicElement]]):
    """(coords, den): integer coordinates of shape (rows, cols, phi) of
    den * gram, den the least common denominator of the entries."""
    den = 1
    for row in gram:
        for e in row:
            for c in e.coords:
                if isinstance(c, Fraction):
                    den = lcm(den, c.denominator)
    coords = [[[int(c * den) for c in e.coords] for e in row] for row in gram]
    shape = (len(gram), len(gram[0]) if gram else 0, euler_phi(d))
    return la.int_array(coords).reshape(shape), den


def _to_elements(d: int, coords: np.ndarray) -> list[list[CyclotomicElement]]:
    return [[CyclotomicElement(d, e) for e in row] for row in coords.tolist()]


def _realify(d: int, coords: np.ndarray, index: Optional[np.ndarray] = None) -> np.ndarray:
    """Restriction of scalars of an (r, c, phi) coordinate array: the
    (r*phi, c*phi) integer matrix whose (i, j) block is the matrix of
    multiplication by entry (i, j) on the power basis.  With `index`, the
    matrix is instead coords[index] for an (r, c) array of positions into a
    list of values, which is never expanded."""
    phi = coords.shape[-1]
    if index is None:
        index = np.arange(coords.size // phi).reshape(coords.shape[:2])
    values = coords.reshape(-1, phi)
    red = la.int_array(_reduction_rows(d))
    # mult[v, s, t] is coordinate s of value v times zeta^t.
    mult = np.stack([la.int_matmul(values, red[t:t + phi]) for t in range(phi)], axis=-1)
    r, c = index.shape
    out = np.empty((r, phi, c, phi), dtype=mult.dtype)
    for s in range(phi):
        for t in range(phi):
            out[:, s, :, t] = mult[index, s, t]
    return out.reshape(r * phi, c * phi)


def _times(d: int, coords: np.ndarray, element: Sequence[int]) -> np.ndarray:
    """Entrywise product of a coordinate array with an integral element."""
    mult = la.int_array(_multiplication_matrix(d, list(element)))
    return la.int_matmul(coords, mult.T)


@lru_cache(maxsize=None)
def _imaginary_unit(d: int) -> tuple[tuple[int, ...], int]:
    """(1 + zeta)(1 - zeta)^{-1} as (integer coordinates, denominator)."""
    zeta = CyclotomicElement.zeta(d)
    mu = (1 + zeta) * (1 - zeta).inverse()
    den = 1
    for c in mu.coords:
        den = lcm(den, Fraction(c).denominator)
    return tuple(int(c * den) for c in mu.coords), den


@lru_cache(maxsize=None)
def _trace_row(d: int, shift: int = 0) -> tuple[int, ...]:
    """Tr(zeta^(i + shift)) for i < phi(d)."""
    return tuple(int(_power_trace(d, (i + shift) % d)) for i in range(euler_phi(d)))


# ---------------------------------------------------------------------------
# Monomial-generator pairings

def hermitian_table_entry(d: int, K: Sequence[int], L: Sequence[int],
                          sign: int) -> CyclotomicElement:
    """The displayed four-case h_sign value, taken literally (no coset twists)."""
    zeta = CyclotomicElement.zeta(d)
    zbar = zeta.conj()
    one = CyclotomicElement.one(d)
    s = -sign
    diff = tuple((a - b) % d for a, b in zip(K, L))
    if all(e == 0 for e in diff):
        return (one + s * zeta) * (one + s * zbar)
    if all(e in (0, 1) for e in diff):
        return (-1) ** sum(diff) * (one + s * zbar)
    neg = tuple((-e) % d for e in diff)
    if all(e in (0, 1) for e in neg):
        return (-1) ** sum(neg) * (one + s * zeta)
    return CyclotomicElement.zero(d)


def reduction_entry(d: int, n: int, K: Sequence[int], L: Sequence[int]) -> CyclotomicElement:
    """(u^K . u^L)_1 = sum_i (u^K . u_{n+1}^i u^L) zeta^i on generators
    K, L in (Z/d)^(n+1), from the intersection pairing of monomial classes."""
    out = CyclotomicElement.zero(d)
    K2 = tuple(K) + (0,)
    for i in range(d):
        L2 = tuple(L) + (i,)
        c = monomial_pairing(d, n, K2, L2)
        if c:
            out = out + CyclotomicElement.zeta(d, i) * c
    return out


def _difference_index(d: int, gens: Sequence[Sequence[int]]) -> np.ndarray:
    """Position of K - L (mod d) in the lexicographic list of (Z/d)^m, for
    every pair (K, L) of generators."""
    digits = np.array(gens, dtype=np.int32).reshape(len(gens), -1)
    idx = np.zeros((len(gens), len(gens)), dtype=np.int32)
    for col in digits.T:
        idx = idx * d + (col[:, None] - col[None, :]) % d
    return idx


def hermitian_gram(d: int, n: int, sign: int) -> HermitianLattice:
    """The hermitian form h+ (sign=+1) or h- (sign=-1) on the spanning
    monomials K in (Z/d)^(n+1), reduced to a deterministic pivot basis.

    For the parity-matching sign (h+ when n is even, h- when n is odd) this is
    the reduction pairing, normalized so the diagonal equals
    (1 -/+ zeta)(1 -/+ zbar); its rank obeys the reduction rank formula.  The
    opposite-parity variant is not known to be well defined; it is returned as
    the literal table on its own pivot basis and tagged parity_consistent=False.

    Both pairings depend on K - L alone, so each of the d^(n+1) values is
    computed once and spread over the generator grid.
    """
    if d < 3:
        raise ValueError("need d >= 3")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    gens = sorted(itertools.product(range(d), repeat=n + 1))
    origin = (0,) * (n + 1)
    parity = sign == expected_sign(n)
    if parity:
        values = [reduction_entry(d, n, delta, origin) for delta in gens]
    else:
        values = [hermitian_table_entry(d, delta, origin, sign) for delta in gens]
    coords = _coords_array(d, [values])[0][0]
    scale = 1
    if parity:
        # Every diagonal entry is the value at K - L = 0.
        coords, scale = _normalize_coords(d, n, coords, coords[0] if values[0] else None)
    index = _difference_index(d, gens)
    selected = _pivot_columns(d, coords, index)
    gram = _to_elements(d, coords[index[np.ix_(selected, selected)]])
    labels = [gens[i] for i in selected]
    if not parity:
        return HermitianLattice(d, gram, H_PLUS if sign > 0 else H_MINUS,
                                basis_labels=labels, parity_consistent=False)
    h = HermitianLattice(d, gram, H_PLUS if sign > 0 else H_MINUS,
                         scaling=scale, basis_labels=labels)
    if h.rank != cor23_rank(d, n - 1):
        raise VerificationError(
            f"hermitian rank {h.rank} disagrees with the formula {cor23_rank(d, n - 1)}")
    return h


def off_parity_consistency_report(d: int, n: int) -> dict:
    """Diagnostics for the opposite-parity table variant, whose
    well-definedness is not established: literal rank versus reduction rank."""
    sign = -expected_sign(n)
    h = hermitian_gram(d, n, sign)
    expected = cor23_rank(d, n - 1)
    return {
        "d": d,
        "n": n,
        "sign": sign,
        "literal_table_rank": h.rank,
        "reduction_rank": expected,
        "consistent": h.rank == expected,
    }


def _parity_normalize(d: int, n: int, gram: list[list[CyclotomicElement]]):
    """Make the raw reduction pairing hermitian with canonical positive diagonal.

    Odd ambient parity is skew-hermitian and is multiplied by the purely
    imaginary unit (1+zeta)(1-zeta)^{-1}; a global sign then pins the diagonal
    to (1 -/+ zeta)(1 -/+ zbar) > 0.  Returns (gram, scale) where scale clears
    any denominators the normalization introduced (expected 1).
    """
    if not gram:
        return gram, 1
    coords, den = _coords_array(d, gram)
    diag = next((coords[i, i] for i in range(min(coords.shape[:2])) if gram[i][i]), None)
    coords, scale = _normalize_coords(d, n, coords, diag, den)
    return _to_elements(d, coords), scale


def _normalize_coords(d: int, n: int, coords: np.ndarray, diag, den: int = 1):
    """_parity_normalize on the coordinate array of den * gram, with diag
    the coordinates of its first nonzero diagonal entry (None if there is
    none).  Returns (coordinates of scale * normalized gram, scale)."""
    if n % 2 == 1:
        mu, mu_den = _imaginary_unit(d)
        coords = _times(d, coords, mu)
        if diag is not None:
            diag = _times(d, diag, mu)
        den *= mu_den
    if diag is not None and sum(int(x) * t for x, t in zip(diag, _trace_row(d))) < 0:
        coords = -coords
    common = gcd(den, *(int(x) for x in np.unique(coords)))
    if common != 1:
        coords = coords // common
    return coords, den // common


def _pivot_columns(d: int, coords: np.ndarray,
                   index: Optional[np.ndarray] = None) -> list[int]:
    """Lexicographically first maximal set of Q(zeta)-independent columns of
    a matrix over Z[zeta_d], given as an (r, c, phi) coordinate array (or as
    in _realify, with an index into values).

    On the restriction of scalars the phi rational columns of column j are
    all pivots or none, so j is a Q(zeta)-pivot iff column j*phi is a
    Q-pivot; the rational pivots are chosen mod p and certified exactly.
    """
    phi = coords.shape[-1]
    pivots = la.certified_pivot_columns(_realify(d, coords, index), block=phi)
    return [c // phi for c in pivots[::phi]]


def _field_det(d: int, gram: list[list[CyclotomicElement]]) -> CyclotomicElement:
    n = len(gram)
    if n == 0:
        return CyclotomicElement.one(d)
    m = [row[:] for row in gram]
    det = CyclotomicElement.one(d)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return CyclotomicElement.zero(d)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c]
        inv = m[c][c].inverse()
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


# ---------------------------------------------------------------------------
# Character reduction of the primitive lattice

def _chi_coefficients(prim: PrimitiveFermatLattice, k: int, vectors: la.Mat) -> np.ndarray:
    """Coordinate array of chi_form_on_vectors, built from the integer
    coefficient matrix of each power of zeta."""
    d, n = prim.d, prim.n
    if not 1 <= k <= n + 1:
        raise ValueError("k out of range")
    g = prim.lattice.gram
    names = [f"u_{i}" for i in range(n + 2 - k, n + 2)]
    mats = [prim.action(name) for name in names]
    powers = []
    for m in mats:
        pw = [la.mat_identity(prim.lattice.rank)]
        for _ in range(d - 1):
            pw.append(la.mat_mul(pw[-1], m))
        powers.append(pw)
    nrows = len(vectors)
    coeff: list[la.Mat] = [[[0] * nrows for _ in range(nrows)] for _ in range(d)]
    vg = la.mat_mul(vectors, g)
    vt = la.mat_transpose(vectors)
    for exps in itertools.product(range(d), repeat=k):
        m = None
        for pw, e in zip(powers, exps):
            m = pw[e] if m is None else la.mat_mul(m, pw[e])
        block = la.mat_mul(vg, la.mat_mul(la.mat_transpose(m), vt))
        s = sum(exps) % d
        coeff[s] = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(coeff[s], block)]
    stacked = la.int_array(coeff).reshape(d, nrows, nrows).transpose(1, 2, 0)
    zetas = la.int_array([CyclotomicElement.zeta(d, s).coords for s in range(d)])
    return la.int_matmul(stacked, zetas)


def chi_form_on_vectors(prim: PrimitiveFermatLattice, k: int,
                        vectors: la.Mat) -> list[list[CyclotomicElement]]:
    """The Z[zeta_d]-valued pairing sum_{i in (Z/d)^k} (a . T^i b) zeta^{|i|}
    on the given lattice vectors, where T runs over the last k mu-actions."""
    return _to_elements(prim.d, _chi_coefficients(prim, k, vectors))


def chi_form_on_classes(prim: PrimitiveFermatLattice, k: int,
                        classes: Sequence[Sequence[int]]) -> list[list[CyclotomicElement]]:
    """The reduction pairing on monomial classes (exponent tuples of length
    n+2, taken modulo the diagonal)."""
    vectors = [prim.class_image(c) for c in classes]
    return chi_form_on_vectors(prim, k, vectors)


def chi_reduce(prim: PrimitiveFermatLattice, k: int) -> HermitianLattice:
    """Tensor the primitive lattice with Z[zeta_d] along the last k coordinate
    actions; hermitian Gram on a deterministic pivot basis of the generators.

    Odd ambient parity is normalized by the imaginary unit as in
    hermitian_gram, with any rescaling reported in `scaling`.  k divisible by
    d falls outside the rank-formula hypothesis and is tagged excluded.
    """
    d, n = prim.d, prim.n
    raw = _chi_coefficients(prim, k, la.mat_identity(prim.lattice.rank))
    diag = next((raw[i, i] for i in range(len(raw)) if raw[i, i].any()), None)
    raw, scaling = _normalize_coords(d, n, raw, diag)
    selected = _pivot_columns(d, raw)
    h = HermitianLattice(d, _to_elements(d, raw[np.ix_(selected, selected)]),
                         H_PLUS if n % 2 == 0 else H_MINUS,
                         scaling=scaling,
                         basis_labels=selected,
                         excluded=(k % d == 0))
    if k % d != 0 and h.rank != cor23_rank(d, n - k):
        raise VerificationError(
            f"reduction rank {h.rank} disagrees with the formula {cor23_rank(d, n - k)}")
    return h


# ---------------------------------------------------------------------------
# Signature and cross-k comparison

def _embedding_pairs(d: int) -> list[int]:
    """t with 1 <= t < d/2 coprime to d: the embedding zeta -> exp(2 pi i t/d)
    stands for its conjugate pair."""
    return [t for t in range(1, (d + 1) // 2) if gcd(t, d) == 1]


def _cos_sign(d: int, a: int, t: int) -> int:
    """Sign of cos(2 pi a t / d), exactly."""
    x = 4 * (a * t % d)
    return 1 if x < d or x > 3 * d else (0 if x in (d, 3 * d) else -1)


def _twists(d: int) -> list[tuple[dict[int, int], list[int]]]:
    """Real elements alpha of Q(zeta + zbar), as {power of zeta: coefficient},
    with their signs at the embedding pairs; alpha = 1 first, then sign
    vectors independent of those before, one alpha per pair."""
    pairs = _embedding_pairs(d)
    cands = [({0: 1}, [1] * len(pairs))]
    for a in range(1, d):
        alpha: dict[int, int] = {}
        for e in (a, -a % d):
            alpha[e] = alpha.get(e, 0) + 1
        cands.append((alpha, [_cos_sign(d, a, t) for t in pairs]))
    chosen: list[tuple[dict[int, int], list[int]]] = []
    for alpha, signs in cands:
        if la.rank_exact([s for _a, s in chosen] + [signs]) > len(chosen):
            chosen.append((alpha, signs))
        if len(chosen) == len(pairs):
            return chosen
    raise VerificationError(f"no twists separate the complex embeddings of Q(zeta_{d})")


def _twisted_trace_form(d: int, coords: np.ndarray, alpha: dict[int, int]) -> np.ndarray:
    """The symmetric rational form Tr(alpha h(x, y)) on the restriction of
    scalars, in the Q-basis e_i zeta^s."""
    r, _c, phi = coords.shape
    rows = {}
    for delta in range(-phi + 1, phi):
        # Tr(alpha zeta^(delta + i)) = sum_e alpha_e Tr(zeta^(delta + e + i))
        vec = [0] * phi
        for e, c in alpha.items():
            for i, t in enumerate(_trace_row(d, delta + e)):
                vec[i] += c * t
        rows[delta] = la.int_array(vec)
    form = np.stack([np.stack([la.int_matmul(coords, rows[s - t]) for t in range(phi)], axis=-1)
                     for s in range(phi)], axis=1)
    return form.reshape(r * phi, r * phi)


def _embedding_signatures(d: int, coords: np.ndarray) -> tuple[list[tuple[int, int]], int]:
    """Signature (p, q) of a hermitian (r, r, phi) coordinate array at each
    embedding pair of _embedding_pairs(d), and the common nullity.

    Over R the trace form Tr(alpha h) splits into the realified forms at the
    embedding pairs, each scaled by the sign of alpha there, so
    pos - neg = sum_j sign_j(alpha) * 2 (p_j - q_j).  One twist per pair
    with independent sign vectors determines every p_j - q_j; the nullity is
    the same at every embedding (the rank over Q(zeta_d)).
    """
    r, phi = coords.shape[0], coords.shape[2]
    signs, diffs, nullity = [], [], 0
    for alpha, alpha_signs in _twists(d):
        pos, neg, zero = la.inertia(_twisted_trace_form(d, coords, alpha))
        if alpha == {0: 1}:
            if zero % phi:
                raise VerificationError("trace-form nullity is not a multiple of phi(d)")
            nullity = zero // phi
        signs.append(alpha_signs)
        diffs.append([pos - neg])
    out = []
    for (x,) in la.solve_rational(signs, diffs):
        p = (r - nullity + x / 2) / 2          # x = 2 (p - q) and p + q = r - nullity
        if p.denominator != 1 or not 0 <= p <= r - nullity:
            raise VerificationError("twisted trace forms are inconsistent")
        out.append((int(p), r - nullity - int(p)))
    return out, nullity


def hermitian_signature(h: HermitianLattice) -> tuple[int, int]:
    """Signature (p, q) of the hermitian form, exactly.

    Computed at each conjugate pair of complex embeddings from rational trace
    forms twisted by real elements of known signs (for phi(d) = 2, the
    trace form itself, whose signature is twice the answer).  Raises
    DegenerateLatticeError on a degenerate form and VerificationError when
    the embeddings give different signatures.
    """
    coords, _den = _coords_array(h.d, h.gram)
    sigs, nullity = _embedding_signatures(h.d, coords)
    if nullity:
        raise DegenerateLatticeError("hermitian form is degenerate")
    if len(set(sigs)) > 1:
        raise VerificationError(f"signature differs across complex embeddings: {sigs}")
    return sigs[0]


def signatures_agree_up_to_sign(s1: tuple[int, int], s2: tuple[int, int]) -> bool:
    """Whether two signatures agree up to the overall sign of the form."""
    return s1 == s2 or s1 == (s2[1], s2[0])


def det_norms_agree_up_to_ramified(n1: Fraction, n2: Fraction, d: int) -> bool:
    """Whether two determinant norms differ by a power of the primes over d.

    Unit determinant changes leave the norm fixed; rescaling by the ramified
    prime (1 - zeta_d) multiplies it by a divisor power of d.  This is the
    sharpest norm-level equality the reduction models satisfy across k.
    """
    if n1 == 0 or n2 == 0:
        return n1 == n2
    ratio = Fraction(n1) / Fraction(n2)
    num, den = abs(ratio.numerator), ratio.denominator
    for p in la.prime_factors(d):
        while num % p == 0:
            num //= p
        while den % p == 0:
            den //= p
    return num == 1 and den == 1


# ---------------------------------------------------------------------------
# Euclidean echelon over Z[zeta_d] (norm-Euclidean conductors)

def _cyclo_divmod(a: CyclotomicElement, b: CyclotomicElement):
    """Division with remainder in Z[zeta_d], N(r) < N(b), by coordinate
    rounding of the field quotient with a small neighbor search."""
    q_field = a * b.inverse()
    base = [Fraction(c) for c in q_field.coords]
    rounded = [int(c + Fraction(1, 2)) if c >= 0 else -int(-c + Fraction(1, 2))
               for c in base]
    nb = b.norm()
    best = None
    for offsets in itertools.product((0, -1, 1), repeat=len(base)):
        q = CyclotomicElement(a.d, [r + o for r, o in zip(rounded, offsets)])
        r = a - q * b
        nr = r.norm()
        if nr < nb:
            return q, r
        if best is None or nr < best[0]:
            best = (nr, q, r)
    raise VerificationError("division with remainder failed; conductor not norm-Euclidean?")


def cyclotomic_row_echelon(d: int, rows: list[list[CyclotomicElement]]):
    """Deterministic echelon basis of the Z[zeta_d]-row span (Euclidean HNF).

    Valid for norm-Euclidean conductors (all d used here); returns the
    nonzero echelon rows.
    """
    work = [row[:] for row in rows if any(row)]
    ncols = len(rows[0]) if rows else 0
    out: list[list[CyclotomicElement]] = []
    for c in range(ncols):
        active = [r for r in work if r[c]]
        if not active:
            continue
        while True:
            active.sort(key=lambda r: r[c].norm())
            piv = active[0]
            done = True
            for r in active[1:]:
                q, rem = _cyclo_divmod(r[c], piv[c])
                if q:
                    for j in range(ncols):
                        r[j] = r[j] - q * piv[j]
                if r[c]:
                    done = False
            active = [piv] + [r for r in active[1:] if r[c]]
            if done or len(active) == 1:
                break
        out.append(active[0])
        work = [r for r in work if not r[c] or r is active[0]]
        work.remove(active[0])
        # Reduce the pivot column out of the remaining rows.
        for r in work:
            if r[c]:
                q, _ = _cyclo_divmod(r[c], active[0][c])
                for j in range(ncols):
                    r[j] = r[j] - q * active[0][j]
        work = [r for r in work if any(r)]
    return out
