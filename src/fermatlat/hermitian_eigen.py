"""Cyclotomic reductions of the primitive Fermat lattice and hermitian forms.

The reduction tensors the integer lattice with Z[zeta_d] along the last k
coordinate actions; its Z[zeta_d]-valued pairing collects the integer
pairings against the action orbit with zeta-power weights.  For k = 1 the
pairing on monomial generators is one gather from the star table
fermat_homology.star_halves (_monomial_values), and so is the literal
four-case table of the opposite-parity sign, which presents a form of the
wrong rank (consistency of both readings is reported, not assumed).

Matrices over Z[zeta_d] are integer coordinate arrays of shape
(rows, cols, phi(d)) in the power basis, or, while products are formed,
(d, rows, cols) stacks of integer coefficients of the powers of zeta.
Every product (the chi-reduction sums over the action group, hermitian
Grams a . g . conj(b)^T, restrictions to kernels) is an exact integer array
product; _zeta_sum turns a stack into coordinates.  The restriction of
scalars replaces each entry by its phi x phi multiplication matrix.

A HermitianLattice holds one read-only (r, r, phi) coordinate array and a
positive common denominator, and every consumer (the hermitian check, the
determinant norm, the signature, the eigenball tests) reads that array.
The Euclidean echelon (cyclotomic_row_echelon) and the field determinant
(_field_det) work on coordinate arrays of Python ints, dividing through the
norm: b^(-1) = b*/N(b), b* the adjugate of b's multiplication matrix applied
to e_0 (_norm_adjugate).  Powers of zeta are rows of the one table
exact_algebra.zeta_powers (_zeta_table).  CyclotomicElement objects appear
only for scalars (the imaginary unit, reduction_entry, the determinant) and
in HermitianLattice.gram, which rebuilds element rows from the array.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Optional, Sequence

import numpy as np

from . import _intlinalg as la
from .exact_algebra import (
    CyclotomicElement,
    _multiplication_matrix,
    _power_trace,
    euler_phi,
    zeta_powers,
)
from .errors import DegenerateLatticeError, ResourceBoundError, VerificationError
from .fermat_homology import PrimitiveFermatLattice, parity_sign, size_bound, star_halves

H_PLUS = "h_plus"
H_MINUS = "h_minus"


class HermitianLattice:
    """Hermitian form over Z[zeta_d] on a chosen generator basis.

    `coords` is a read-only (r, r, phi(d)) integer array: the power-basis
    coordinates of den * h, for the positive integer `den`.  `gram` is given
    either as an integer coordinate array (den = 1) or as rows of
    CyclotomicElement entries, whose least common denominator becomes `den`.
    """

    def __init__(self, d: int, gram, form_kind: str, scaling: int = 1,
                 basis_labels: Optional[list] = None, excluded: bool = False,
                 parity_consistent: bool = True):
        phi = euler_phi(d)
        den = 1
        if not isinstance(gram, np.ndarray):
            if any(len(row) != len(gram) for row in gram):
                raise ValueError("gram matrix must be square")
            rows, den = la.clear_denominators([e.coords for row in gram for e in row])
            gram = la.int_array(rows).reshape(len(gram), len(gram), phi)
        coords = la.frozen_int_array(gram)
        if coords.ndim != 3 or coords.shape[0] != coords.shape[1] or coords.shape[2] != phi:
            raise ValueError(f"need an (r, r, {phi}) coordinate array, got {coords.shape}")
        conj = la.int_matmul(coords, _zeta_table(d)[-np.arange(phi) % d])
        if not np.array_equal(conj.transpose(1, 0, 2), coords):
            raise VerificationError("gram matrix is not hermitian")
        self.d = d
        self.rank = coords.shape[0]
        self.coords = coords
        self.den = den
        self.form_kind = form_kind
        self.scaling = scaling
        self.basis_labels = basis_labels
        self.excluded = excluded
        self.parity_consistent = parity_consistent

    @property
    def gram(self) -> list[list[CyclotomicElement]]:
        """The form as new rows of CyclotomicElement entries."""
        return _to_elements(self.d, self.coords, self.den)

    def determinant(self) -> CyclotomicElement:
        return _field_det(self.d, self.coords, self.den)

    def det_norm(self) -> Fraction:
        """N(det) as the rational determinant of the restriction of scalars."""
        det = la.det_bareiss(_realify(self.d, self.coords))
        return Fraction(det, self.den ** (self.rank * euler_phi(self.d)))

    def to_json(self) -> dict:
        if self.den != 1:
            raise ValueError("the hermitian form is not integral")
        return {
            "d": self.d,
            "rank": self.rank,
            "gram": self.coords.tolist(),
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

def _to_elements(d: int, coords: np.ndarray, den: int = 1) -> list[list[CyclotomicElement]]:
    """Rows of CyclotomicElement entries of an (r, c, phi) array over den."""
    if den == 1:
        return [[CyclotomicElement(d, e) for e in row] for row in coords.tolist()]
    return [[CyclotomicElement(d, [Fraction(x, den) for x in e]) for e in row]
            for row in coords.tolist()]


@lru_cache(maxsize=None)
def _zeta_table(d: int) -> np.ndarray:
    """exact_algebra.zeta_powers(d) as a read-only (d, phi) array: row s is
    the coordinates of zeta^s."""
    table = la.int_array(zeta_powers(d))
    table.setflags(write=False)
    return table


def _zeta_sum(d: int, coeff: np.ndarray) -> np.ndarray:
    """Coordinates of sum_s coeff[s] zeta^s for a (d, r, c) stack."""
    return la.int_matmul(np.moveaxis(coeff, 0, -1), _zeta_table(d))


def _shifted_product(d: int, x: np.ndarray, y: np.ndarray, sign: int = 1) -> np.ndarray:
    """The (d, r, m) stack z[w] = sum of x[i] @ y[j] over i + sign*j = w
    (mod d), for a (d, r, n) stack x and an (e, n, m) stack y, as one exact
    product: row block w of the left factor is x[w - sign*j] for j < e."""
    shifts = (np.arange(d)[:, None] - sign * np.arange(len(y))) % d
    e, n, m = y.shape
    left = x[shifts].transpose(0, 2, 1, 3).reshape(d, x.shape[1], e * n)
    return la.int_matmul(left, y.reshape(e * n, m))


def _hermitian_product(d: int, a: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coordinates of a . g . conj(b)^T for coordinate arrays a (r, n, phi),
    g (n, m, phi) and b (c, m, phi); g may have a last axis of length 1
    (an integer matrix).  The term of a's zeta^s, g's zeta^u and b's zeta^t
    is binned under the power s + u - t mod d."""
    stack = np.zeros((d,) + a.shape[:2], dtype=a.dtype)
    stack[:a.shape[-1]] = np.moveaxis(a, -1, 0)
    ag = _shifted_product(d, stack, np.moveaxis(g, -1, 0))
    return _zeta_sum(d, _shifted_product(d, ag, np.moveaxis(b, -1, 0).transpose(0, 2, 1), -1))


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
    # mult[v, s, t] is coordinate s of value v times zeta^t: one product with
    # the windows of zeta powers t .. t + phi - 1 side by side,
    # window[i, s, t] = coordinate s of zeta^(i + t).
    powers = np.add.outer(np.arange(phi), np.arange(phi)) % d
    window = _zeta_table(d)[powers].transpose(0, 2, 1)
    mult = la.int_matmul(values, window.reshape(phi, phi * phi)).reshape(-1, phi, phi)
    r, c = index.shape
    out = np.empty((r, phi, c, phi), dtype=mult.dtype)
    for s in range(phi):
        for t in range(phi):
            out[:, s, :, t] = mult[index, s, t]
    return out.reshape(r * phi, c * phi)


def _times(d: int, coords: np.ndarray, element: Sequence[int]) -> np.ndarray:
    """Entrywise product of a coordinate array with an integral element,
    exact (int64, or Python ints past int64 range)."""
    mult = la.int_array(_multiplication_matrix(d, list(element)))
    return la.int_matmul(coords, mult.T)


@lru_cache(maxsize=None)
def _imaginary_unit(d: int) -> tuple[tuple[int, ...], int]:
    """(1 + zeta)(1 - zeta)^{-1} as (integer coordinates, denominator)."""
    zeta = CyclotomicElement.zeta(d)
    (coords,), den = la.clear_denominators([((1 + zeta) * (1 - zeta).inverse()).coords])
    return tuple(coords), den


@lru_cache(maxsize=None)
def _trace_row(d: int, shift: int = 0) -> tuple[int, ...]:
    """Tr(zeta^(i + shift)) for i < phi(d)."""
    return tuple(int(_power_trace(d, (i + shift) % d)) for i in range(euler_phi(d)))


# ---------------------------------------------------------------------------
# Monomial-generator pairings

def _monomial_values(d: int, n: int, sign: int) -> np.ndarray:
    """Coordinates of the h_sign value at every K - L = D in (Z/d)^(n+1),
    lexicographic, as a (d^(n+1), phi) array read off (A, B) = star_halves.

    With the parity-matching sign it is the reduction pairing, whose zeta^i
    coefficient is the monomial pairing at (D, -i): sign_n (A + (-1)^n B)
    at (D_1 - D_0, ..., D_n - D_0, -i - D_0).  With the other sign it is the
    literal four-case table A[D] (1 - sign zbar) + B[D] (1 - sign zeta)."""
    a, b = star_halves(d, n)
    if sign != expected_sign(n):
        t = _zeta_table(d)
        return np.outer(a, t[0] - sign * t[-1]) + np.outer(b, t[0] - sign * t[1])
    i, d0, *rest = np.indices((d,) * (n + 2))
    coeff = parity_sign(n) * (a + (-1) ** n * b)[tuple((x - d0) % d for x in (*rest, -i))]
    return _zeta_sum(d, coeff.reshape(d, -1))


def reduction_entry(d: int, n: int, K: Sequence[int], L: Sequence[int]) -> CyclotomicElement:
    """(u^K . u^L)_1 = sum_i (u^K . u_{n+1}^i u^L) zeta^i on generators
    K, L in (Z/d)^(n+1): the row of _monomial_values at K - L."""
    row = np.ravel_multi_index(tuple((k - l) % d for k, l in zip(K, L)), (d,) * (n + 1))
    return CyclotomicElement(d, _monomial_values(d, n, expected_sign(n))[row].tolist())


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

    Both pairings depend on K - L alone: the d^(n+1) values are one gather
    from the star table (_monomial_values), spread over the generator grid.
    ResourceBoundError when the restriction of scalars, of side
    d^(n+1) * phi(d), exceeds size_bound().
    """
    if d < 3 or n < 0:
        raise ValueError("need d >= 3 and n >= 0")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    side = d ** (n + 1) * euler_phi(d)
    if side > size_bound():
        raise ResourceBoundError(
            f"d^(n+1) * phi(d) = {side} exceeds the size bound {size_bound()}")
    gens = sorted(itertools.product(range(d), repeat=n + 1))
    parity = sign == expected_sign(n)
    coords = _monomial_values(d, n, sign)
    scale = 1
    if parity:
        # Every diagonal entry is the value at K - L = 0, the first value:
        # the (0, 0) entry of the values as a 1-row array.
        coords, scale = _parity_normalize(d, n, coords[None])
        coords = coords[0]
    index = _difference_index(d, gens)
    selected = _pivot_columns(d, coords, index)
    h = HermitianLattice(d, coords[index[np.ix_(selected, selected)]],
                         H_PLUS if sign > 0 else H_MINUS, scaling=scale,
                         basis_labels=[gens[i] for i in selected], parity_consistent=parity)
    if parity and h.rank != cor23_rank(d, n - 1):
        raise VerificationError(
            f"hermitian rank {h.rank} disagrees with the formula {cor23_rank(d, n - 1)}")
    return h


def _parity_normalize(d: int, n: int, coords: np.ndarray):
    """Make the raw reduction pairing hermitian with canonical positive diagonal.

    coords is the (r, c, phi) coordinate array of the pairing.  Odd ambient
    parity is skew-hermitian and is multiplied by the purely imaginary unit
    (1+zeta)(1-zeta)^{-1}; a global sign then pins the first nonzero
    diagonal entry to (1 -/+ zeta)(1 -/+ zbar) > 0.  Returns (coordinates of
    scale * normalized form, scale), where scale clears any denominators the
    normalization introduced (expected 1).
    """
    diag = next((coords[i, i] for i in range(min(coords.shape[:2])) if coords[i, i].any()),
                None)
    den = 1
    if n % 2 == 1:
        mu, den = _imaginary_unit(d)
        coords = _times(d, coords, mu)
        if diag is not None:
            diag = _times(d, diag, mu)
    if diag is not None and sum(int(x) * t for x, t in zip(diag, _trace_row(d))) < 0:
        coords = -coords
    common = gcd(den, int(np.gcd.reduce(coords, axis=None)))
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
    Q-pivot; the rational pivots are chosen mod one prime and certified
    exactly, or else found by the fraction-free elimination.
    """
    phi = coords.shape[-1]
    pivots = la.certified_pivot_columns(_realify(d, coords, index), block=phi)
    return [c // phi for c in pivots[::phi]]


# ---------------------------------------------------------------------------
# Character reduction of the primitive lattice

def chi_form_on_vectors(prim: PrimitiveFermatLattice, k: int, vectors: la.Mat) -> np.ndarray:
    """The Z[zeta_d]-valued pairing sum_{i in (Z/d)^k} (a . T^i b) zeta^{|i|}
    on the given lattice vectors, where T runs over the last k mu-actions,
    as an (r, r, phi) coordinate array.

    sum_{i in (Z/d)^k} T^i zeta^{|i|} = prod_j sum_e T_j^e zeta^e, so the
    moved vectors b T^i, binned by |i| mod d, take one product for the
    first action and one stack product for each other; the pairing with
    a . G is one more product.
    """
    d, n = prim.d, prim.n
    if not 1 <= k <= n + 1:
        raise ValueError("k out of range")
    rank = prim.lattice.rank
    vecs = la.int_array(vectors).reshape(-1, rank)
    moved = None
    for i in range(n + 2 - k, n + 2):
        t = la.int_array(prim.actions[f"u_{i}"])
        powers = [np.eye(rank, dtype=np.int64)]
        for _ in range(d - 1):
            powers.append(la.int_matmul(powers[-1], t))
        powers = np.stack(powers)
        # The first action bins b T^e under e: one product, not a stack product.
        moved = la.int_matmul(vecs, powers) if moved is None else _shifted_product(d, moved, powers)
    paired = la.int_matmul(vecs, la.int_array(prim.lattice.gram))
    return _zeta_sum(d, la.int_matmul(paired, moved.transpose(0, 2, 1)))


def chi_form_on_classes(prim: PrimitiveFermatLattice, k: int,
                        classes: Sequence[Sequence[int]]) -> np.ndarray:
    """The reduction pairing on monomial classes (exponent tuples of length
    n+2, taken modulo the diagonal), as a coordinate array."""
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
    identity = np.eye(prim.lattice.rank, dtype=np.int64)
    raw, scaling = _parity_normalize(d, n, chi_form_on_vectors(prim, k, identity))
    selected = _pivot_columns(d, raw)
    h = HermitianLattice(d, raw[np.ix_(selected, selected)],
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
    rows = np.zeros((2 * phi - 1, phi), dtype=np.int64)
    for delta in range(-phi + 1, phi):
        # Tr(alpha zeta^(delta + i)) = sum_e alpha_e Tr(zeta^(delta + e + i))
        for e, c in alpha.items():
            rows[delta + phi - 1] += c * la.int_array(_trace_row(d, delta + e))
    # One product with the rows for delta = s - t side by side: form[i, j, s, t].
    pairs = rows[np.subtract.outer(np.arange(phi), np.arange(phi)) + phi - 1]
    form = la.int_matmul(coords, pairs.transpose(2, 0, 1).reshape(phi, phi * phi))
    return form.reshape(r, r, phi, phi).transpose(0, 2, 1, 3).reshape(r * phi, r * phi)


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
    sigs, nullity = _embedding_signatures(h.d, h.coords)
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
# Euclidean echelon and field determinant over Z[zeta_d]

def _norm_adjugate(d: int, b: Sequence[int]) -> tuple[int, list[int]]:
    """(N(b), b*) for an integral element b: b* = N(b).b^(-1), the adjugate
    of b's multiplication matrix M applied to e_0 (its cofactors along row
    0), and N(b) = det M = M[0] . b*, positive in a CM field unless b = 0."""
    m = _multiplication_matrix(d, [int(c) for c in b])
    star = [(-1) ** i * la.det_bareiss([row[:i] + row[i + 1:] for row in m[1:]])
            for i in range(len(m))]
    return sum(x * y for x, y in zip(m[0], star)), star


def _euclidean_quotient(d: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """q with N(a - q.b) < N(b) in Z[zeta_d]: the coordinates of a.b*/N(b)
    rounded half away from zero, then the first neighbour in (0, -1, 1)^phi
    order whose remainder is small enough."""
    nb, star = _norm_adjugate(d, b)
    rounded = [(1 if x >= 0 else -1) * ((2 * abs(x) + nb) // (2 * nb))
               for x in map(int, _times(d, a, star))]
    for offsets in itertools.product((0, -1, 1), repeat=len(rounded)):
        q = np.array([x + o for x, o in zip(rounded, offsets)], dtype=object)
        if _norm_adjugate(d, a - _times(d, b, q))[0] < nb:
            return q
    raise VerificationError("division with remainder failed; conductor not norm-Euclidean?")


def cyclotomic_row_echelon(d: int, coords: np.ndarray) -> np.ndarray:
    """Deterministic echelon basis of the Z[zeta_d]-row span (Euclidean HNF)
    of an (rows, cols, phi) integer coordinate array, as the
    (rank, cols, phi) integer array of its nonzero echelon rows.

    Valid for norm-Euclidean conductors (all d used here).  In each column
    the rows nonzero there are stably sorted by the norm of that entry and
    reduced by the first, until one is left; it is the next echelon row.
    """
    cols, phi = np.shape(coords)[1:]
    work = [row for row in la.int_array(coords).astype(object) if row.any()]
    out = []
    for c in range(cols):
        active = [r for r in work if r[c].any()]
        if not active:
            continue
        while len(active) > 1:
            active.sort(key=lambda r: _norm_adjugate(d, r[c])[0])
            piv = active[0]
            for r in active[1:]:
                q = _euclidean_quotient(d, r[c], piv[c])
                if q.any():
                    r -= _times(d, piv, q)
            active = [piv] + [r for r in active[1:] if r[c].any()]
        out.append(active[0])
        work = [r for r in work if r is not active[0] and r.any()]
    return la.int_array(np.array(out, dtype=object).reshape(len(out), cols, phi))


def _field_det(d: int, coords: np.ndarray, den: int = 1) -> CyclotomicElement:
    """det(h) for the (r, r, phi) coordinate array of den * h: fraction-free
    (Bareiss) elimination over Z[zeta_d], each division by the previous
    pivot exact through the norm, x/b = x.b*/N(b), and det(den * h) / den^r."""
    r, phi = len(coords), np.shape(coords)[-1]
    m = la.int_array(coords).astype(object)
    sign, prev = 1, None
    for k in range(r):
        piv = next((i for i in range(k, r) if m[i, k].any()), None)
        if piv is None:
            return CyclotomicElement.zero(d)
        if piv != k:
            m[[k, piv]] = m[[piv, k]]
            sign = -sign
        for i in range(k + 1, r):
            x = _times(d, m[i, k + 1:], m[k, k]) - _times(d, m[k, k + 1:], m[i, k])
            if prev is not None:
                norm, star = prev
                x = _times(d, x, star)
                if any(v % norm for v in x.flat):
                    raise VerificationError("a fraction-free division is not exact")
                x = x // norm
            m[i, k + 1:] = x
        prev = _norm_adjugate(d, m[k, k])
    det = m[r - 1, r - 1] if r else [1] + [0] * (phi - 1)
    return CyclotomicElement(d, [Fraction(sign * int(x), den ** r) for x in det])
