"""Child process of the benchmark: one cold start of fermatlat per call.

    worker.py setup WORKLOAD SEED OUTDIR
        import fermatlat and generate the workload's inputs (set-up only)
    worker.py round WORKLOAD SEED OUTDIR TRACE
        one round of an in-process workload; writes OUTDIR/round.json
    worker.py cli TRACEFILE OP -- ARGS...
        `fermatlat ARGS...` with the recorder installed; writes TRACEFILE

The program is imported from the checkout's src/ and nowhere else.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# primitive_ladder: rungs with actions (Milnor rank <= 256), then rungs
# without (Milnor rank 512-1024); discriminant certificates on even-n rungs
# above rank 60.
LADDER = [(3, 7), (5, 3), (4, 4), (3, 8), (4, 5), (5, 4)]
DISC_MIN_RANK = 60

# hermitian_cyclotomic
GRAMS = [(3, 4, 1), (3, 3, -1), (4, 2, 1)]
GRID = ([(3, n, k) for n in range(1, 5) for k in range(1, n + 2)]
        + [(4, n, k) for n in range(1, 4) for k in range(1, min(n + 2, 4))]
        + [(5, 2, 1), (5, 2, 2)])
# Allcock-Carlson-Toledo / Laza signatures of the d=3, n=4 reductions.
ACT = {1: (10, 1), 2: (4, 1), 3: (1, 1)}
EIGEN_RANKS = {1: 11, 2: 5, 3: 2}
ORBIT_LIMIT = 60
HYPERPLANE_SAMPLE = 6

# cli_session: random cubic forms, one per variable count.
FORM_VARIABLES = (3, 4, 5, 6)


def import_program():
    sys.path.insert(0, SRC)
    import fermatlat
    if not os.path.abspath(fermatlat.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"fermatlat imported from {fermatlat.__file__}, not {SRC}")


def make_inputs(workload: str, seed: int, outdir: str) -> dict:
    """The workload's inputs, a function of the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "primitive_ladder":
        from checks import CHECK_PRIMES
        return {"primes": rng.sample(CHECK_PRIMES, 2)}
    if workload == "hermitian_cyclotomic":
        return {"sample": sorted(rng.sample(range(ORBIT_LIMIT), HYPERPLANE_SAMPLE))}
    if workload == "cli_session":
        forms = []
        for m in FORM_VARIABLES:
            chosen = rng.sample(list(_exponents(m, 3)), rng.randint(2, 6))
            terms = [{"exponents": list(e),
                      "coeff": str(Fraction(rng.choice([-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6]),
                                            rng.randint(1, 3)))}
                     for e in sorted(chosen)]
            form = {"m": m, "degree": 3, "terms": terms}
            path = os.path.join(outdir, f"form{m}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(form, fh, sort_keys=True)
            forms.append(path)
        from checks import CHECK_PRIMES
        return {"forms": forms, "primes": rng.sample(CHECK_PRIMES, 2)}
    raise SystemExit(f"unknown workload {workload!r}")


def _exponents(m: int, deg: int):
    if m == 1:
        yield (deg,)
        return
    for first in range(deg, -1, -1):
        for rest in _exponents(m - 1, deg - first):
            yield (first,) + rest


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# primitive_ladder

def primitive_round(inputs, rec):
    from fermatlat import build_primitive
    from fermatlat.lattice_core import discriminant_is_cyclic_of_order
    import checks

    built = []
    start = perf_counter()
    for i, (d, n) in enumerate(LADDER):
        if rec:
            rec.op = i
        prim = build_primitive(d, n)
        disc = None
        if n % 2 == 0 and prim.lattice.rank > DISC_MIN_RANK:
            disc = discriminant_is_cyclic_of_order(prim.lattice, d)
        built.append((d, n, prim, disc))
    wall = perf_counter() - start
    rss = peak_rss_mb()
    if rec:
        rec.uninstall()

    errors, attempted = [], 0
    for d, n, prim, disc in built:
        attempted += 1
        errors += checks.check_primitive(
            d, n, prim.lattice.symmetry, prim.lattice.gram, prim.projection,
            prim.milnor.gram, prim.actions, inputs["primes"])
        if (d - 1) ** (n + 1) <= 256 and not prim.actions:
            errors.append(f"({d},{n}): no actions at Milnor rank <= 256")
        if disc is not None:
            attempted += 1
            # check_primitive verified the cyclic discriminant independently.
            if disc is not True:
                errors.append(f"({d},{n}): discriminant_is_cyclic_of_order gave {disc}")
    return wall, rss, attempted, 0, errors


# ---------------------------------------------------------------------------
# hermitian_cyclotomic

def _coords(h):
    return [[tuple(e.coords) for e in row] for row in h.gram]


def hermitian_round(inputs, rec):
    from fermatlat import (build_cubic_lattices, build_primitive, chi_reduce, eigenlattice,
                           hermitian_gram, hermitian_signature, hyperplane_meets_eigenball)
    from fermatlat.cubic_period import construct_special_vector, orbit_specials
    from fermatlat.errors import FermatLatticeError
    import checks

    def signature_or_refusal(h):
        try:
            return hermitian_signature(h)
        except FermatLatticeError:
            return None

    ops = []
    op = 0
    start = perf_counter()
    for d, n, sign in GRAMS:
        if rec:
            rec.op = op
        h = hermitian_gram(d, n, sign)
        ops.append(("gram", (d, n, sign), h, signature_or_refusal(h), None))
        op += 1
    for d, n, k in GRID:
        if rec:
            rec.op = op
        h = chi_reduce(build_primitive(d, n), k)
        ops.append(("chi", (d, n, k), h, signature_or_refusal(h), h.det_norm()))
        op += 1
    for k in (1, 2, 3):
        if rec:
            rec.op = op
        h, _basis = eigenlattice(k)
        ops.append(("eigen", k, h, signature_or_refusal(h), None))
        op += 1
    if rec:
        rec.op = op
    built = build_cubic_lattices()
    orbit = orbit_specials(built, [construct_special_vector(built)], limit=ORBIT_LIMIT)
    op += 1
    meets = []
    for i in inputs["sample"]:
        for k in (1, 2, 3):
            if rec:
                rec.op = op
            meets.append((tuple(orbit[i]), k, hyperplane_meets_eigenball(orbit[i], k)))
            op += 1
    wall = perf_counter() - start
    rss = peak_rss_mb()
    if rec:
        rec.uninstall()

    errors, failed = [], 0
    for kind, key, h, sig, det_norm in ops:
        coords = _coords(h)
        expected = None
        if kind == "gram":
            d, n, _sign = key
            want = checks.reduction_rank(d, n - 1)
            if (d, n) == (3, 4):
                expected = ACT[1]
        elif kind == "chi":
            d, n, k = key
            want = checks.reduction_rank(d, n - k) if k % d else h.rank
            if k % d == 0 and not h.excluded:
                errors.append(f"chi {key}: k divisible by d but not tagged excluded")
            if (d, n) == (3, 4) and k in ACT:
                expected = ACT[k]
            errors += checks.check_det_norm(d, coords, det_norm)
        else:
            d, want, expected = 3, EIGEN_RANKS[key], ACT[key]
        if h.rank != want:
            errors.append(f"{kind} {key}: rank {h.rank}, formula gives {want}")
        errs, bad = checks.check_signature(d, coords, sig, sig is None, expected)
        errors += [f"{kind} {key}: {e}" for e in errs]
        failed += bad

    gram = built.lambda_o.gram
    if len(orbit) != ORBIT_LIMIT or len(set(map(tuple, orbit))) != ORBIT_LIMIT:
        errors.append("orbit sample has the wrong size or repeats")
    errors += [f"orbit vector {v} is not special" for v in orbit if not checks.is_special(gram, v)]
    prim = build_primitive(3, 4)
    for v, k, got in meets:
        mats = [prim.actions[f"u_{i}"] for i in range(6 - k, 6)]
        meet, contained, dim = checks.hyperplane_expectation(gram, mats, v)
        if dim != EIGEN_RANKS[k]:
            errors.append(f"V_{k} has dimension {dim}, expected {EIGEN_RANKS[k]}")
        if tuple(got) != (meet, contained):
            errors.append(f"hyperplane of {list(v)} vs V_{k}: got {got}, numpy gives "
                          f"{(meet, contained)}")
    attempted = len(ops) + 1 + len(meets)
    return wall, rss, attempted, failed, errors


ROUNDS = {"primitive_ladder": primitive_round, "hermitian_cyclotomic": hermitian_round}


# ---------------------------------------------------------------------------

def main(argv) -> int:
    sys.path.insert(0, HERE)
    mode = argv[0]
    if mode == "setup":
        workload, seed, outdir = argv[1], int(argv[2]), argv[3]
        import_program()
        make_inputs(workload, seed, outdir)
        return 0
    if mode == "round":
        workload, seed, outdir, trace = argv[1], int(argv[2]), argv[3], argv[4] == "1"
        import_program()
        inputs = make_inputs(workload, seed, outdir)
        rec = None
        if trace:
            from recorder import Recorder
            rec = Recorder()
            rec.install()
        wall, rss, attempted, failed, errors = ROUNDS[workload](inputs, rec)
        result = {"wall_s": wall, "peak_rss_mb": rss, "attempted": attempted,
                  "failed": failed, "errors": errors}
        if rec:
            result["metrics"] = rec.metrics()
            rec.dump(os.path.join(outdir, f"spans-{workload}.json"))
        with open(os.path.join(outdir, "round.json"), "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0
    if mode == "cli":
        trace_file, op, args = argv[1], int(argv[2]), argv[4:]
        start = perf_counter()
        import_program()
        import fermatlat.cli as cli
        import_s = perf_counter() - start
        from recorder import Recorder
        rec = Recorder()
        rec.install()
        rec.op = op
        idx = rec.begin("cli." + args[0])
        try:
            code = cli.main(args)
        finally:
            rec.end(idx)
            sys.stdout.flush()
            rec.counts["cli.import_s"] = import_s
            rec.dump(trace_file)
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
