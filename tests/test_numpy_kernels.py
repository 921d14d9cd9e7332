"""The structure-aware numpy kernels of the primitive build and its
certificate against the generic numpy calls they replaced: _kron against
np.kron, the left fold of _times_u against its pad/roll/take body, the
float rank-one test against the integer oracle on both sides of its
guard, _float_mod against np.mod, the orbit candidate K against digests
recorded with the float64 solve it replaced, the n = 0 certificate and
actions at large d, and prime_factors against trial division."""

import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermatlat import _intlinalg as la
from fermatlat import _pylinalg
from fermatlat import fermat_homology as fh
from fermatlat import lattice_core as lc
from fermatlat.errors import PrimalityRangeError
from fermatlat.lattice_core import SYMMETRIC, IntegerLattice
from test_seifert_inverse import rank_one_oracle

DATA = os.path.join(os.path.dirname(__file__), "data")


# ---------------------------------------------------------------------------
# _kron

def matrices(dtype):
    top = {np.int8: 11, np.int64: 2**31}.get(dtype, 2**80)
    return st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
        lambda shape: st.lists(st.integers(-top, top), min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1]).map(
            lambda v: np.array(v, dtype=dtype).reshape(shape)))


@pytest.mark.parametrize("dtype", [np.int8, np.int64, object], ids=str)
def test_kron_is_np_kron(dtype):
    @settings(max_examples=60, deadline=None)
    @given(matrices(dtype), matrices(dtype))
    def check(a, b):
        got, want = fh._kron(a, b), np.kron(a, b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous and np.array_equal(got, want)

    check()


@pytest.mark.parametrize("k", range(5))
def test_kron_power_is_the_np_kron_power(k):
    m = np.array([[1, -1, 0], [2, 0, 1]], dtype=np.int8)
    want = np.ones((1, 1), dtype=np.int8)
    for _ in range(k):
        want = np.kron(want, m)
    got = fh._kron_power(m, k)
    assert got.dtype == np.int8 and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# The left fold of _times_u

def padded_rolled_fold(x, axis, e, d):
    """The left fold U^e.x as it was: pad a u^(d-1) slot of minus the sum,
    roll, take the first d-1 slots (three full-size copies)."""
    padded = np.concatenate([x, -x.sum(axis=axis, keepdims=True, dtype=x.dtype)], axis=axis)
    return np.roll(padded, -e, axis=axis).take(range(d - 1), axis=axis)


@pytest.mark.parametrize("dtype", [np.int16, np.int64])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_left_fold_is_the_padded_rolled_fold(d, dtype):
    rng = np.random.default_rng(d)
    x = rng.integers(-100, 101, size=(d - 1,) * 3 + (5,)).astype(dtype)
    for axis in range(3):
        for e in range(d):
            got = fh._times_u(x, axis, e, d, left=True)
            assert got.dtype == dtype
            assert np.array_equal(got, padded_rolled_fold(x, axis, e, d)), (axis, e)


# ---------------------------------------------------------------------------
# The float rank-one test

def residue_pattern(case, p, q, size, rng):
    col, row = rng.integers(0, q, size), rng.integers(0, q, size)
    col[0], row[3] = 1, 1
    if case == "rank two":
        col2, row2 = rng.integers(0, q, size), rng.integers(0, q, size)
        col2[0], row2[:4], row2[5] = 0, 0, 1
        return (np.outer(col, row) + np.outer(col2, row2)) % q
    if case == "no unit":
        return p * rng.integers(0, q, (size, size)) % q
    res = np.outer(col, row) % q
    if case == "broken past row 128":
        res[140, 7] = (res[140, 7] + p) % q
    return res


def lifted_to(res, q, top, rng):
    """res + q.lift with every entry of size at most top, and one entry, the
    last, that is the largest such lift of its residue: max|X| > top - q."""
    x = res + q * rng.integers(-(top // q) + 1, top // q, res.shape)
    x[-1, -1] = res[-1, -1] + q * ((top - res[-1, -1]) // q)
    return x


def guard_top(q, limit):
    """The largest max|X| that _is_rank_one_with_unit takes in a float type
    whose exact range ends at limit."""
    return -(-limit // q) - q - 2


PATHS = {"float32": la._FLOAT32_EXACT_LIMIT, "float64": la._FLOAT_EXACT_LIMIT}


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("limit", list(PATHS))
@pytest.mark.parametrize("case", ["rank one", "rank two", "no unit", "broken past row 128"])
@pytest.mark.parametrize("p,q", [(2, 4), (3, 9), (5, 5), (7, 49)])
def test_float_rank_one_test_is_the_oracle_at_its_guard(p, q, case, limit, side, monkeypatch):
    rng = np.random.default_rng([p, q, len(case)])
    top = guard_top(q, PATHS[limit])
    assert (top + q + 1) * q < PATHS[limit] <= (top + q + 2) * q
    top = top if side == "below" else top + q
    x = lifted_to(residue_pattern(case, p, q, 150, rng), q, top, rng)
    assert top - q < la._abs_max(x) <= top
    assert (la._abs_max(x) > guard_top(q, PATHS[limit])) == (side == "above")
    seen = []
    divisible = la._divisible
    monkeypatch.setattr(la, "_divisible", lambda y, m: seen.append(y.dtype) or divisible(y, m))
    want = {"rank one": True, "rank two": False, "no unit": False,
            "broken past row 128": q == p}[case]
    assert rank_one_oracle(x, p, q) is want
    assert lc._is_rank_one_with_unit(x, p, q) is want
    if case != "no unit":
        expected = {("float32", "below"): [np.float32], ("float32", "above"): [np.float64],
                    ("float64", "below"): [np.float64], ("float64", "above"): []}[limit, side]
        assert sorted(set(seen), key=str) == expected


# ---------------------------------------------------------------------------
# _float_mod

@pytest.mark.parametrize("p", [2, 3, 4, 9, 49, 8388593, 8388283, 2**26 + 1])
def test_float_mod_is_np_mod_near_the_limit(p):
    # Exact for -2**53 + 2p <= x < 2**53: the edges, their multiples of p
    # and the integers next to those.
    edge = [2**53 - k for k in (1, 2, 3, p, 2 * p)] + [2**52 + 1, 2**52 - 1]
    edge += [-(2**53) + 2 * p + k for k in (0, 1, 2, p)] + [-(2**52) - 1, -(2**52) + 1]
    edge = [v + t for k in edge for v in (k, k // p * p) for t in (-1, 0, 1)]
    edge += [0, 1, -1, p, -p, p - 1, 1 - p, 2 * p, -2 * p]
    x = np.array([v for v in edge if -(2**53) + 2 * p <= v < 2**53], dtype=np.float64)
    assert len(x) > 60
    got = la._float_mod(x, p)
    assert got.dtype == np.float64 and np.array_equal(got, np.mod(x, p))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 25, 8388593, 8388283]),
       st.lists(st.integers(-(2**53) + 2 * 8388593, 2**53 - 1), min_size=1, max_size=40),
       st.lists(st.integers(-(2**53 // 2), 2**53 // 2), max_size=10))
def test_float_mod_is_np_mod(p, values, multiples):
    values = values + [k * p for k in multiples if -(2**53) + 2 * p <= k * p < 2**53]
    x = np.array(values, dtype=np.float64)
    assert np.array_equal(la._float_mod(x, p), np.mod(x, p))
    out = x.copy()
    assert la._float_mod(out, p, out=out) is out and np.array_equal(out, np.mod(x, p))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 9, 25, 4093]),
       st.lists(st.integers(-(2**24) + 2 * 4093, 2**24 - 1), min_size=1, max_size=40))
def test_float32_mod_is_np_mod(p, values):
    x = np.array(values, dtype=np.float32)
    got = la._float_mod(x, p)
    assert got.dtype == np.float32
    assert np.array_equal(got.astype(np.int64), np.mod(np.array(values, dtype=np.int64), p))


# ---------------------------------------------------------------------------
# The radical K and the n = 0 certificate

def test_orbit_candidate_is_the_recorded_one_at_every_rung():
    # Digests of K as the float64 solve S_1^(-1).S_2 gave it, one per rung
    # with n >= 1 up to Milnor rank 4096.
    with open(os.path.join(DATA, "orbit_candidate_digests.json"), encoding="utf-8") as fh_:
        recorded = json.load(fh_)
    assert len(recorded) == 99
    for key, digest in recorded.items():
        d, n = map(int, key.split(","))
        r = (d - 1) ** (n + 1) - fh.rank_formula(d, n)
        k = fh._orbit_candidate(d, n, r)
        got = hashlib.sha256(repr(k.shape).encode() + k.astype(np.int64).tobytes()).hexdigest()
        assert got == digest, key


def test_orbit_candidate_refuses_a_failed_inverse(monkeypatch):
    d, n = 3, 4
    r = (d - 1) ** (n + 1) - fh.rank_formula(d, n)
    inv = np.linalg.inv
    assert fh._orbit_candidate(d, n, r) is not None

    def singular(a):
        raise np.linalg.LinAlgError("singular")

    for bad in (singular, lambda a: np.full_like(a, np.nan), lambda a: inv(a) * 1.001,
                lambda a: inv(a) * 2.0**60):
        monkeypatch.setattr(np.linalg, "inv", bad)
        assert fh._orbit_candidate(d, n, r) is None


@pytest.mark.parametrize("d", [3, 4, 5, 8, 17, 40])
def test_axis_inverse_is_the_scaled_inverse(d):
    g = fh.build_primitive(d, 0).lattice.gram
    x = fh._seifert_inverse(d, 0, np.eye(d - 1, dtype=np.int8))
    assert np.array_equal(la.int_matmul(g, x), d * np.eye(d - 1, dtype=np.int64))


def test_n0_certificate_at_d_1025_stays_small():
    # Milnor rank 1024, inside the admitted bound: no power of U is formed.
    lattice = fh.build_primitive(1025, 0).lattice
    tracemalloc.start()
    try:
        assert lc.discriminant_is_cyclic_of_order(lattice, 1025) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


CAPPED_ACTIONS = """
import json, resource
resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20,) * 2)
from fermatlat import fermat_homology as fh
checked, check = [], fh._axis_check
fh._axis_check = lambda d: checked.append(d) or check(d)
actions = fh.build_primitive(1025, 0).actions
assert checked == [1025]
print(json.dumps([sorted(actions), actions["u_1"].shape]))
"""


def test_actions_at_d_1025_under_a_memory_cap():
    # The per-axis checks build U and U^(d-1) only, not the d powers of U
    # (8.6 GB at d = 1025): U^d = I follows from U's companion form.
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(DATA), os.pardir, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", CAPPED_ACTIONS], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [["u_0", "u_1"], [1024, 1024]]


CAPPED_CLASS_IMAGE = """
import json, resource
resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20,) * 2)
from fermatlat import fermat_homology as fh
prim = fh.build_primitive(1025, 0)
print(json.dumps([prim.class_image((0, 1)), prim.class_image((0, 1024))]))
"""


def test_class_image_at_d_1025_under_a_memory_cap():
    # Row 0 of U^e is one fold of the unit row, not a row of the d powers of U
    # (8.6 GB at d = 1025); at n = 0 the projection is the identity.
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(DATA), os.pardir, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", CAPPED_CLASS_IMAGE], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    e1, last = json.loads(run.stdout)
    assert e1 == [0, 1] + [0] * 1022 and last == [-1] * 1024


@pytest.mark.parametrize("d", range(3, 10))
def test_u_power_rows_are_the_rows_of_the_powers(d):
    # The shift rule that class_image read before: e_e for e < d-1, and all
    # -1 for u^(d-1) = -(1 + u + ... + u^(d-2)).
    powers = fh._u_powers(d)
    unit = np.eye(1, d - 1, dtype=np.int64)
    for e in range(d):
        shift = np.full(d - 1, -1) if e == d - 1 else np.eye(1, d - 1, e, dtype=np.int64)[0]
        assert np.array_equal(fh._times_u(unit, 1, e, d)[0], shift)
        assert np.array_equal(powers[e][0], shift)
    prim = fh.build_primitive(d, 1)
    for a in range(d):
        for b in range(d):
            old = np.multiply.outer(powers[a][0], powers[b][0]).ravel()
            assert prim.class_image((0, a, b)) == la.vec_mat(old.tolist(), prim.projection)


# ---------------------------------------------------------------------------
# prime_factors

def trial_division(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10**6))
@example(0)
@example(1)
@example(994009)  # 997**2
@example(994011)  # 997**2 + 2 = 3 * 331337
@example(999983)
def test_prime_factors_is_trial_division(n):
    assert _pylinalg.prime_factors(n) == trial_division(n) == _pylinalg.prime_factors(-n)


def test_prime_factors_of_a_large_prime_is_fast():
    start = time.perf_counter()
    assert _pylinalg.prime_factors(2**61 - 1) == [2**61 - 1]
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("a,b", [(2147483647, 2147483629), (2147483587, 1073741827),
                                 (1073741789, 1073741789), (2147483647, 3)])
def test_prime_factors_of_two_31_bit_primes(a, b):
    assert _pylinalg.prime_factors(a * b) == sorted({a, b})
    assert _pylinalg.prime_factors(a * a * b * 12) == sorted({2, 3, a, b})


def test_prime_factors_past_the_proven_range_raises():
    # 2**89 - 1 is prime and past the deterministic Miller-Rabin bound.
    with pytest.raises(PrimalityRangeError):
        _pylinalg.prime_factors(2**89 - 1)
    with pytest.raises(PrimalityRangeError):
        _pylinalg.prime_factors(1000003 * (2**89 - 1))
    # Composites there are split; small factors need no primality test.
    assert _pylinalg.prime_factors(3 * 2**100) == [2, 3]
    assert _pylinalg.prime_factors((2**61 - 1) * (2**31 - 1) * 1000003) == [
        1000003, 2**31 - 1, 2**61 - 1]


def test_cyclic_certificate_at_a_61_bit_prime():
    # det [[2, 1], [1, (d+1)/2]] = d, prime, so L*/L is cyclic of order d.
    d = 2**61 - 1
    lattice = IntegerLattice([[2, 1], [1, (d + 1) // 2]], SYMMETRIC)
    assert lc.discriminant_is_cyclic_of_order(lattice, d) is True
