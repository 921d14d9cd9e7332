"""Command-line front end: reproducible lattice builds, verification suites,
and GIT stability checks, with canonical JSON on stdout and a human summary
on stderr.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
The environment variable FERMATLAT_SIZE_BOUND overrides the global size bound
on lattice constructions.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import FermatLatticeError, ResourceBoundError

# The names of the verify suites (verify.SUITES, kept equal by a test), here
# so that parsing the command line does not import the suites.
SUITES = ("ranks", "resolution", "hermitian", "hodge", "cubic", "git")
SIGNATURE_RANK_LIMIT = 64


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceBoundError as exc:
        _err(f"resource bound: {exc}")
        return 2
    except FermatLatticeError as exc:
        _err(f"verification failure: {exc}")
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        _err(f"input error: {exc}")
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermatlat",
        description="Exact lattices, hermitian reductions, Hodge characters, "
                    "and diagonal GIT tests for Fermat hypersurfaces.")
    parser.set_defaults(func=lambda _args: _usage(parser))
    sub = parser.add_subparsers(dest="command")

    p_lat = sub.add_parser("lattice", help="build a Milnor or primitive lattice")
    p_lat.add_argument("--d", type=int, required=True, help="degree (>= 3)")
    p_lat.add_argument("--n", type=int, required=True, help="dimension (>= 0)")
    group = p_lat.add_mutually_exclusive_group()
    group.add_argument("--milnor", action="store_true", help="emit the Milnor lattice")
    group.add_argument("--primitive", action="store_true",
                       help="emit the primitive lattice (default)")
    p_lat.add_argument("--out", help="also write the lattice JSON to this file")
    p_lat.set_defaults(func=_cmd_lattice)

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_ver.add_argument("--bound", type=int, default=2,
                       help="box bound for evidence-level searches (echoed in output)")
    p_ver.add_argument("--fast", action="store_true",
                       help="trim the largest grid cases")
    p_ver.set_defaults(func=_cmd_verify)

    p_git = sub.add_parser("git", help="diagonal stability tests on a form file")
    p_git.set_defaults(func=lambda _args: _usage(p_git))
    git_sub = p_git.add_subparsers(dest="git_command")
    p_check = git_sub.add_parser("check", help="semistable/stable flags with certificates")
    p_check.add_argument("file", help="form JSON file")
    p_check.set_defaults(func=_cmd_git_check)
    p_cone = git_sub.add_parser("cone", help="extend the form by a new d-th power")
    p_cone.add_argument("file", help="form JSON file")
    p_cone.add_argument("--out", help="write the extended form JSON here")
    p_cone.set_defaults(func=_cmd_git_cone)

    return parser


def _usage(parser: argparse.ArgumentParser) -> int:
    parser.print_help(sys.stderr)
    return 2


def _cmd_lattice(args) -> int:
    from .fermat_homology import build_milnor, build_primitive, rank_formula
    from .lattice_core import (determinant_with_divisors, discriminant, is_even,
                               lattice_to_json, signature)

    if args.d < 3 or args.n < 0:
        _err("need --d >= 3 and --n >= 0")
        return 2
    kind = "milnor" if args.milnor else "primitive"
    checks = []
    if kind == "milnor":
        module = build_milnor(args.d, args.n)
        lattice = module.lattice
        invariants = {
            "rank": lattice.rank,
            "symmetry": lattice.symmetry,
        }
    else:
        prim = build_primitive(args.d, args.n)
        lattice = prim.lattice
        want = rank_formula(args.d, args.n)
        checks.append({"name": f"rank == {want}", "status":
                       "pass" if lattice.rank == want else "fail"})
        # One determinant certificate gives the determinant and the discriminant.
        known = determinant_with_divisors(lattice) if lattice.rank <= 256 else None
        invariants = {
            "rank": lattice.rank,
            "symmetry": lattice.symmetry,
            "determinant": known[0] if known else None,
        }
        if lattice.is_symmetric():
            invariants["even"] = is_even(lattice)
            if lattice.rank <= SIGNATURE_RANK_LIMIT:
                invariants["signature"] = list(signature(lattice))
            if lattice.rank <= 256 and invariants["determinant"] not in (0, None):
                invariants["discriminant_divisors"] = [
                    int(x) for x in discriminant(lattice, known).elementary_divisors]
    payload = {
        "command": "lattice",
        "parameters": {"d": args.d, "n": args.n, "kind": kind},
        "lattice": lattice_to_json(lattice),
        "invariants": invariants,
        "checks": checks,
    }
    if kind == "primitive" and lattice.rank <= 256:
        payload["actions"] = {name: mat.tolist() for name, mat in sorted(prim.actions.items())}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(lattice_to_json(lattice)))
    _emit(payload)
    failed = any(c["status"] == "fail" for c in checks)
    _err(f"{kind} lattice d={args.d} n={args.n}: rank {lattice.rank}"
         + (" [FAILED CHECKS]" if failed else ""))
    return 1 if failed else 0


def _cmd_verify(args) -> int:
    from .verify import run_suite

    started = time.perf_counter()
    report = run_suite(args.suite, bound=args.bound, fast=args.fast)
    elapsed_ms = int(1000 * (time.perf_counter() - started))
    payload = {
        "command": "verify",
        "parameters": report["parameters"] | {"suite": args.suite},
        "results": report,
        "checks": [{"name": c["name"], "status": c["status"]} for c in report["checks"]],
    }
    _emit(payload)
    counts = {}
    for c in report["checks"]:
        counts[c["status"]] = counts.get(c["status"], 0) + 1
    _err(f"suite {args.suite}: {counts} in {elapsed_ms}ms")
    return 0 if report["ok"] else 1


def _cmd_git_check(args) -> int:
    from .git_stability import (
        is_semistable_diagonal,
        is_stable_diagonal,
        verify_semistable_certificate,
        verify_stable_certificate,
    )

    form = _load_form(args.file)
    semistable, cert_ss = is_semistable_diagonal(form)
    stable, cert_st = is_stable_diagonal(form)
    checks = [
        {"name": "semistable certificate re-verifies",
         "status": "pass" if verify_semistable_certificate(form, semistable, cert_ss) else "fail"},
        {"name": "stable certificate re-verifies",
         "status": "pass" if verify_stable_certificate(form, stable, cert_st) else "fail"},
    ]
    payload = {
        "command": "git check",
        "parameters": {"file": args.file},
        "results": {
            "semistable_diagonal": semistable,
            "stable_diagonal": stable,
            "semistable_certificate": cert_ss,
            "stable_certificate": cert_st,
            "note": "flags are relative to diagonal one-parameter subgroups "
                    "in the given coordinates",
        },
        "checks": checks,
    }
    _emit(payload)
    _err(f"semistable: {semistable}, stable: {stable} (diagonal criterion)")
    return 0 if all(c["status"] == "pass" for c in checks) else 1


def _cmd_git_cone(args) -> int:
    from .git_stability import cone_extend

    form = _load_form(args.file)
    extended = cone_extend(form)
    payload = {
        "command": "git cone",
        "parameters": {"file": args.file},
        "results": {"form": extended.to_json()},
        "checks": [],
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(extended.to_json()))
    _emit(payload)
    _err(f"extended to {extended.m} variables, {len(extended.terms)} terms")
    return 0


def _load_form(path: str):
    from .git_stability import HomogeneousForm

    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return HomogeneousForm.from_json(obj)


def _emit(payload) -> None:
    sys.stdout.write(dumps_canonical(payload) + "\n")


def dumps_canonical(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace variance, no floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _err(msg: str) -> None:
    sys.stderr.write(msg + "\n")


if __name__ == "__main__":
    sys.exit(main())
