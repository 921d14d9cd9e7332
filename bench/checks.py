"""Independent checks of fermatlat outputs.

Nothing here imports fermatlat: every expected value is recomputed from the
definitions (rank formulas, modular determinants, numpy eigenvalues at the
complex embeddings, exact Fraction arithmetic for GIT certificates).  The
checks take plain lists and tuples copied out of the program's results and
never write to an object the program returned.

Each check returns a list of error strings; an empty list means the output
passed.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd

import numpy as np

# 31-bit primes; the seed picks the ones a run uses for modular determinants.
CHECK_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
)

# An eigenvalue counts as nonzero only when its absolute value exceeds this
# share of the matrix's largest absolute entry (taken as at least 1).
EIGEN_MARGIN = 1e-6


# ---------------------------------------------------------------------------
# Formulas

def rank_formula(d: int, n: int) -> int:
    """Rank of the primitive middle homology of the degree-d Fermat n-fold."""
    return (d - 1) * ((d - 1) ** (n + 1) + (-1) ** n) // d


def reduction_rank(d: int, m: int) -> int:
    """Rank over Z[zeta_d] of a character reduction, with m = n - k."""
    return ((d - 1) ** (m + 2) + (-1) ** (m + 1)) // d


def prime_divisors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Exact integer matrices

def exact_matmul(a, b) -> np.ndarray:
    """Exact product of integer matrices: float64 BLAS when every partial
    sum provably stays below 2^53, Python integers otherwise."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    bound = int(np.abs(a).max()) * int(np.abs(b).max()) * a.shape[1]
    if a.dtype != object and b.dtype != object and bound < 2 ** 53:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    return a.astype(object) @ b.astype(object)


def modp_rank_det(mat, p: int) -> tuple[int, int]:
    """Rank of an integer matrix mod a prime p < 2^31, and, for a square
    matrix, its determinant mod p."""
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    rank, det = 0, 1
    for c in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(m[rank:, c])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
            det = -det
        pv = int(m[rank, c])
        det = det * pv % p
        m[rank, c:] = m[rank, c:] * pow(pv, -1, p) % p
        below = np.nonzero(m[rank + 1:, c])[0] + rank + 1
        if below.size:
            # entries < p < 2^31, so each product stays below 2^62
            m[below, c:] = (m[below, c:] - np.outer(m[below, c], m[rank, c:])) % p
        rank += 1
    if rank < rows or rows != cols:
        det = 0
    return rank, det % p


def abs_det_is(gram, target: int, primes) -> bool:
    """det = +target or det = -target modulo every check prime, one sign
    for all of them."""
    dets = [modp_rank_det(gram, p)[1] for p in primes]
    return any(all(x == (s * target) % p for x, p in zip(dets, primes)) for s in (1, -1))


def cyclic_discriminant(gram, d: int, primes) -> bool:
    """|det| = d, and the Gram has corank 1 mod every prime q | d."""
    r = len(gram)
    return abs_det_is(gram, d, primes) and all(
        r - modp_rank_det(gram, q)[0] == 1 for q in prime_divisors(d))


# ---------------------------------------------------------------------------
# Primitive lattices

def check_gram(d: int, n: int, symmetry: str, g: np.ndarray, primes) -> list[str]:
    """Rank formula, symmetry type from the parity of n, and evenness with a
    cyclic discriminant of order d (even n) or |det| = 1 (odd n)."""
    tag = f"({d},{n})"
    errs = []
    want = rank_formula(d, n)
    if g.shape[0] != want:
        errs.append(f"{tag}: rank {g.shape[0]}, formula gives {want}")
    if n % 2 == 0:
        if symmetry != "symmetric" or not (g == g.T).all():
            errs.append(f"{tag}: even n needs a symmetric Gram")
        if (np.diagonal(g) % 2).any():
            errs.append(f"{tag}: even n needs an even lattice")
        if not cyclic_discriminant(g, d, primes):
            errs.append(f"{tag}: discriminant is not cyclic of order {d}")
    else:
        if symmetry != "antisymmetric" or not (g == -g.T).all():
            errs.append(f"{tag}: odd n needs an antisymmetric Gram")
        if not abs_det_is(g, 1, primes):
            errs.append(f"{tag}: |det| is not 1")
    return errs


def check_actions(d: int, g: np.ndarray, actions: dict) -> list[str]:
    """Every action preserves the Gram and has order d (u_i) or 2 (s_i)."""
    errs = []
    ident = np.eye(g.shape[0], dtype=np.int64)
    for name, mat in actions.items():
        a = np.array(mat, dtype=np.int64)
        if not (exact_matmul(exact_matmul(a, g), a.T) == g).all():
            errs.append(f"action {name} is not an isometry")
        order = d if name.startswith("u_") else 2
        power = ident
        for _ in range(order):
            power = exact_matmul(power, a)
        if not (power == ident).all():
            errs.append(f"action {name} does not have order {order}")
    return errs


def check_primitive(d: int, n: int, symmetry: str, gram, projection, milnor_gram,
                    actions: dict, primes) -> list[str]:
    """check_gram and check_actions, and the Milnor Gram as P G_prim P^T."""
    g = np.array(gram, dtype=np.int64).reshape(len(gram), len(gram))
    errs = check_gram(d, n, symmetry, g, primes)
    errs += [f"({d},{n}): {e}" for e in check_actions(d, g, actions)]
    p_mat = np.array(projection, dtype=np.int64)
    if not (exact_matmul(exact_matmul(p_mat, g), p_mat.T) == np.array(milnor_gram)).all():
        errs.append(f"({d},{n}): Milnor Gram != P G_prim P^T")
    return errs


def check_lattice_payload(d: int, n: int, payload: dict, primes) -> list[str]:
    """`fermatlat lattice --primitive` output: the lattice and its actions
    as check_gram and check_actions see them, and the reported invariants
    against the benchmark's own."""
    lat = payload["lattice"]
    r = lat["rank"]
    g = np.array(lat["gram"], dtype=np.int64).reshape(r, r)
    errs = check_gram(d, n, lat["symmetry"], g, primes)
    errs += [f"({d},{n}): {e}" for e in check_actions(d, g, payload.get("actions", {}))]
    inv = payload["invariants"]
    target = d if n % 2 == 0 else 1
    if inv["rank"] != r or inv["symmetry"] != lat["symmetry"]:
        errs.append(f"({d},{n}): invariants disagree with the lattice")
    if inv.get("determinant") is not None and abs(inv["determinant"]) != target:
        errs.append(f"({d},{n}): reported determinant {inv['determinant']}")
    if n % 2 == 0:
        if inv.get("even") is not True:
            errs.append(f"({d},{n}): not reported even")
        if "discriminant_divisors" in inv and inv["discriminant_divisors"] != [d]:
            errs.append(f"({d},{n}): discriminant divisors {inv['discriminant_divisors']}")
        if "signature" in inv:
            pos, neg, zero = _inertia(g.astype(complex))
            if zero or inv["signature"] != [pos, neg]:
                errs.append(f"({d},{n}): signature {inv['signature']}, numpy gives {(pos, neg)}")
    if any(c["status"] != "pass" for c in payload["checks"]):
        errs.append(f"({d},{n}): a reported check did not pass")
    return errs


# ---------------------------------------------------------------------------
# Hermitian forms over Z[zeta_d]

def embeddings(d: int) -> list[int]:
    """Exponents t of the complex embeddings zeta -> exp(2 pi i t / d), one
    from each conjugate pair."""
    return [t for t in range(1, d // 2 + 1) if gcd(t, d) == 1]


def evaluate(d: int, coords_gram, t: int) -> np.ndarray:
    """The Gram matrix of power-basis coordinates at the embedding t."""
    w = cmath.exp(2j * cmath.pi * t / d)
    r = len(coords_gram)
    return np.array([[sum(float(c) * w ** j for j, c in enumerate(entry)) for entry in row]
                     for row in coords_gram], dtype=complex).reshape(r, r)


def _inertia(h: np.ndarray) -> tuple[int, int, int]:
    """(positive, negative, within-margin) eigenvalue counts of a hermitian matrix."""
    if h.size == 0:
        return 0, 0, 0
    lam = np.linalg.eigvalsh(h)
    tol = EIGEN_MARGIN * max(1.0, float(np.abs(h).max()))
    return int((lam > tol).sum()), int((lam < -tol).sum()), int((abs(lam) <= tol).sum())


def embedding_signatures(d: int, coords_gram) -> list[tuple[int, int, int]]:
    """(p, q, near-zero) at each embedding of Q(zeta_d), up to conjugation."""
    out = []
    for t in embeddings(d):
        h = evaluate(d, coords_gram, t)
        if not np.allclose(h, h.conj().T):
            out.append((-1, -1, -1))
            continue
        out.append(_inertia(h))
    return out


def check_signature(d: int, coords_gram, returned, refused: bool, expected=None) -> tuple[list[str], bool]:
    """Check a hermitian_signature result against every embedding.

    Returns (errors, failed).  A returned signature that matches every
    embedding passes; so does a refusal when the embeddings disagree.  A
    returned signature that misses one of several disagreeing embeddings is
    a failed operation (the program averages the embeddings); any other
    mismatch is an error.
    """
    sigs = embedding_signatures(d, coords_gram)
    errs = [f"d={d}: eigenvalue within margin or non-hermitian at an embedding"
            for p, q, z in sigs if z != 0]
    pairs = {(p, q) for p, q, _z in sigs}
    if expected is not None and pairs != {tuple(expected)}:
        errs.append(f"d={d}: embedding signatures {sorted(pairs)}, literature gives {expected}")
    if refused:
        if len(pairs) == 1:
            errs.append(f"d={d}: refused although every embedding gives {pairs.pop()}")
        return errs, False
    if pairs == {tuple(returned)}:
        return errs, False
    if len(pairs) > 1:
        return errs, True
    errs.append(f"d={d}: returned {tuple(returned)}, embeddings give {sorted(pairs)}")
    return errs, False


def check_det_norm(d: int, coords_gram, det_norm: Fraction) -> list[str]:
    """The norm of the determinant is the product of the determinants at all
    phi(d) embeddings."""
    prod = 1.0
    for t in range(1, d):
        if gcd(t, d) == 1:
            prod *= np.linalg.det(evaluate(d, coords_gram, t)).real
    if not np.isclose(prod, float(det_norm), rtol=1e-6, atol=1e-6):
        return [f"d={d}: det norm {det_norm}, embeddings give {prod:.6g}"]
    return []


def hyperplane_expectation(gram, mats, v) -> tuple[bool, bool, int]:
    """(meets, contained, eigenspace dimension) for the hyperplane of v and
    the common zeta_3-eigenspace of the row actions in mats, from numpy.

    The answer is the same for the conjugate eigenvalue, so no eigenvalue
    convention has to match the program's.
    """
    g = np.array(gram, dtype=float)
    w = cmath.exp(2j * cmath.pi / 3)
    stacked = np.vstack([np.array(m, dtype=float).T - w * np.eye(len(g)) for m in mats])
    _u, s, vh = np.linalg.svd(stacked)
    x = vh[np.sum(s > 1e-8):].conj()            # rows: x A = w x for every A
    ell = x @ g @ np.array(v, dtype=float)
    if np.linalg.norm(ell) < 1e-8:
        return True, True, len(x)
    _u, s, vh = np.linalg.svd(ell.reshape(1, -1))
    kernel = vh[1:].conj()                        # coefficient rows c with c . ell = 0
    basis = kernel @ x
    h = basis @ g @ basis.conj().T
    _pos, neg, _zero = _inertia((h + h.conj().T) / 2)
    return neg > 0, False, len(x)


def is_special(gram, v) -> bool:
    """v.v = 6 and every pairing of v with the lattice divisible by 3."""
    gv = exact_matmul(np.array(gram, dtype=np.int64), np.array(v, dtype=np.int64).reshape(-1, 1))
    return int(np.dot(v, gv[:, 0])) == 6 and not (gv % 3).any()


# ---------------------------------------------------------------------------
# Diagonal GIT certificates

def _affine_rank(points) -> int:
    rows = [[Fraction(a - b) for a, b in zip(p, points[0])] for p in points[1:]]
    rank = 0
    cols = len(points[0])
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _convex_ok(points, lam, bary, strict: bool) -> bool:
    if len(lam) != len(points) or sum(lam) != 1:
        return False
    if any(x < 0 or (strict and x == 0) for x in lam):
        return False
    return all(sum(l * p[i] for l, p in zip(lam, points)) == bary[i]
               for i in range(len(bary)))


def check_git_report(form: dict, results: dict) -> list[str]:
    """Re-verify both diagonal GIT certificates of `fermatlat git check`."""
    m, deg = form["m"], form["degree"]
    points = sorted(tuple(t["exponents"]) for t in form["terms"] if Fraction(t["coeff"]))
    bary = [Fraction(deg, m)] * m
    errs = []
    ss, st = results["semistable_diagonal"], results["stable_diagonal"]
    c_ss, c_st = results["semistable_certificate"], results["stable_certificate"]
    for cert in (c_ss, c_st):
        if sorted(tuple(p) for p in cert["points"]) != points:
            errs.append(f"m={m}: certificate points differ from the form's exponents")
            return errs
    points = [tuple(p) for p in c_ss["points"]]
    if ss:
        ok = _convex_ok(points, [Fraction(x) for x in c_ss["lambda"]], bary, strict=False)
    else:
        w = [Fraction(x) for x in c_ss["separating_weights"]]
        ok = sum(w) == 0 and any(w) and all(
            sum(a * b for a, b in zip(w, p)) > 0 for p in points)
    if not ok:
        errs.append(f"m={m}: semistability certificate does not verify")
    points = [tuple(p) for p in c_st["points"]]
    if st:
        ok = (_convex_ok(points, [Fraction(x) for x in c_st["lambda"]], bary, strict=True)
              and _affine_rank(points) == m - 1)
    elif "affine_rank" in c_st:
        ok = _affine_rank(points) == c_st["affine_rank"] < m - 1
    else:
        w = [Fraction(x) for x in c_st["supporting_weights"]]
        vals = [sum(a * (b - c) for a, b, c in zip(w, p, bary)) for p in points]
        ok = any(w) and all(x <= 0 for x in vals) and any(x < 0 for x in vals)
    if not ok:
        errs.append(f"m={m}: stability certificate does not verify")
    if st and not ss:
        errs.append(f"m={m}: stable but not semistable")
    return errs


def check_cone(form: dict, extended: dict) -> list[str]:
    """`git cone` adds X_{m+1}^d with coefficient 1 and pads every term."""
    m, deg = form["m"], form["degree"]
    want = {tuple(t["exponents"]) + (0,): Fraction(t["coeff"]) for t in form["terms"]}
    apex = (0,) * m + (deg,)
    want[apex] = want.get(apex, Fraction(0)) + 1
    got = {tuple(t["exponents"]): Fraction(t["coeff"]) for t in extended["terms"]}
    if extended["m"] != m + 1 or extended["degree"] != deg or got != want:
        return [f"m={m}: cone extension is not the form plus X_{m + 1}^{deg}"]
    return []
