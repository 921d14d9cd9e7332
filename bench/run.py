"""fermatlat benchmark: the one command that runs a workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A run times repeated cold interpreter
starts (setup_s), then repeats whole rounds of the workload until S seconds
have passed, each round in fresh child processes started one at a time, and
checks every output with bench/checks.py.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics (the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1).  See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every child.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import worker  # noqa: E402

WORKLOADS = ("primitive_ladder", "hermitian_cyclotomic", "cli_session")
SETUP_STARTS = 9           # timed cold starts per run; setup_s is their median
DEADLINE_S = 170           # a run that is not done by then stops without a result

PER_LAYER = [
    ("intlinalg.hnf_row.self_s", "s"), ("intlinalg.hnf_row.calls", "count"),
    ("intlinalg.saturate_row_span.self_s", "s"),
    ("intlinalg.det_bareiss.self_s", "s"), ("intlinalg.det_bareiss.calls", "count"),
    ("intlinalg.solve_rational.self_s", "s"),
    ("intlinalg.modp_eliminate.self_s", "s"), ("intlinalg.modp_eliminate.calls", "count"),
    ("intlinalg.modp_solve_matrix.self_s", "s"), ("intlinalg.modp_solve_matrix.calls", "count"),
    ("intlinalg.crt_reconstruct_int_matrix.self_s", "s"),
    ("intlinalg.smith_normal_form.self_s", "s"),
    ("intlinalg.rank_exact.self_s", "s"),
    ("intlinalg.left_kernel.self_s", "s"),
    ("intlinalg.mat_mul.self_s", "s"), ("intlinalg.mat_mul.calls", "count"),
    ("intlinalg.charpoly.self_s", "s"), ("intlinalg.charpoly.calls", "count"),
    ("fermat_homology.build_milnor.self_s", "s"),
    ("fermat_homology.connecting_map.self_s", "s"),
    ("fermat_homology.build_primitive.self_s", "s"),
    ("fermat_homology.build_primitive.calls", "count"),
    ("fermat_homology.resolution_check.self_s", "s"),
    ("fermat_homology.monomial_pairing.calls", "count"),
    ("lattice_core.radical_quotient.self_s", "s"),
    ("lattice_core.discriminant_is_cyclic_of_order.self_s", "s"),
    ("lattice_core.signature.self_s", "s"),
    ("lattice_core.discriminant.self_s", "s"),
    ("lattice_core.short_vectors.self_s", "s"),
    ("lattice_core.glue_with_basis.self_s", "s"),
    ("exact_algebra.CyclotomicElement.mul.calls", "count"),
    ("exact_algebra.CyclotomicElement.inverse.calls", "count"),
    ("exact_algebra.GroupRingElement.mul.calls", "count"),
    ("hermitian_eigen.hermitian_gram.self_s", "s"),
    ("hermitian_eigen.reduction_entry.calls", "count"),
    ("hermitian_eigen.pivot_columns.self_s", "s"),
    ("hermitian_eigen.field_det.self_s", "s"),
    ("hermitian_eigen.chi_reduce.self_s", "s"),
    ("hermitian_eigen.chi_form_on_vectors.self_s", "s"),
    ("hermitian_eigen.hermitian_signature.self_s", "s"),
    ("cubic_period.build_cubic_lattices.self_s", "s"),
    ("cubic_period.bounded_box_vectors.self_s", "s"),
    ("cubic_period.bounded_box_vectors.points", "count"),
    ("cubic_period.bounded_box_vectors.hits", "count"),
    ("cubic_period.verify_remark_52.self_s", "s"),
    ("cubic_period.orbit_specials.self_s", "s"),
    ("cubic_period.nodal_complement_signature.self_s", "s"),
    ("cubic_period.eigenlattice.self_s", "s"),
    ("cubic_period.hyperplane_meets_eigenball.self_s", "s"),
    ("git_stability.is_semistable_diagonal.self_s", "s"),
    ("git_stability.is_stable_diagonal.self_s", "s"),
    ("simplex.solve_lp.self_s", "s"), ("simplex.solve_lp.calls", "count"),
    ("verify.run_suite.cubic.s", "s"), ("verify.run_suite.git.s", "s"),
    ("verify.run_suite.resolution.s", "s"), ("verify.run_suite.hodge.s", "s"),
    ("cli.import_s", "s"), ("cli.lattice.s", "s"), ("cli.verify.s", "s"), ("cli.git.s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.wall_s", "s"), ("trace.overhead_pct", "%"),
]


class Deadline(Exception):
    pass


class Children:
    """Starts one child process at a time and waits for it to end."""

    def __init__(self, logdir: str):
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.log = os.path.join(logdir, "stderr.log")
        self.current = None

    def run(self, argv, stdout_path=None) -> tuple[float, int, float]:
        """(wall seconds, exit code, peak RSS in MB) of one child."""
        with open(stdout_path or os.devnull, "wb") as out, open(self.log, "ab") as err:
            start = perf_counter()
            self.current = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            _pid, status, usage = os.wait4(self.current.pid, 0)
            wall = perf_counter() - start
            code = self.current.returncode = os.waitstatus_to_exitcode(status)
            self.current = None
        return wall, code, usage.ru_maxrss / 1024.0

    def stop(self) -> None:
        if self.current is not None and self.current.returncode is None:
            self.current.kill()
            os.waitpid(self.current.pid, 0)
            self.current.returncode = -9


def worker_argv(*args) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)]


def setup_seconds(children: Children, workload: str, seed: int, rundir: str) -> float:
    """Median of SETUP_STARTS cold starts, after one start that compiles
    bytecode and fills the file cache."""
    times = []
    for i in range(SETUP_STARTS + 1):
        wall, code, _rss = children.run(worker_argv("setup", workload, seed, rundir))
        if code != 0:
            raise RuntimeError(f"set-up start exited with {code}")
        if i:
            times.append(wall)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Rounds: each returns (wall_s, peak_rss_mb, attempted, failed, errors, metrics)

def worker_round(children, workload, seed, rundir, trace):
    path = os.path.join(rundir, "round.json")
    if os.path.exists(path):
        os.remove(path)
    _wall, code, rss = children.run(worker_argv("round", workload, seed, rundir, int(trace)))
    if code != 0:
        raise RuntimeError(f"{workload} round exited with {code}")
    with open(path, encoding="utf-8") as fh:
        r = json.load(fh)
    metrics = r.get("metrics", {})
    return r["wall_s"], r["peak_rss_mb"], r["attempted"], r["failed"], r["errors"], metrics


def cli_commands(rundir, forms):
    cmds = [
        ("lattice34", ["lattice", "--d", "3", "--n", "4", "--primitive"]),
        ("lattice53", ["lattice", "--d", "5", "--n", "3", "--primitive",
                       "--out", os.path.join(rundir, "lattice53.json")]),
        ("cubic1", ["verify", "--suite", "cubic", "--bound", "2"]),
        ("cubic2", ["verify", "--suite", "cubic", "--bound", "2"]),
        ("git_suite", ["verify", "--suite", "git"]),
        ("resolution", ["verify", "--suite", "resolution"]),
        ("hodge", ["verify", "--suite", "hodge"]),
    ]
    for i, path in enumerate(forms):
        cmds.append((f"check{i}", ["git", "check", path]))
        cmds.append((f"cone{i}", ["git", "cone", path, "--out", path + ".cone"]))
    return cmds


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


def cli_round(children, workload, seed, rundir, trace):
    inputs = worker.make_inputs(workload, seed, rundir)
    cmds = cli_commands(rundir, inputs["forms"])
    wall, peak, errors = 0.0, 0.0, []
    raw, metrics = {}, {}
    for i, (label, args) in enumerate(cmds):
        out = os.path.join(rundir, label + ".out")
        if trace:
            tfile = os.path.join(rundir, f"spans-{label}.json")
            argv = worker_argv("cli", tfile, i, "--", *args)
        else:
            argv = [sys.executable, "-m", "fermatlat.cli", *args]
        dt, code, rss = children.run(argv, out)
        wall += dt
        peak = max(peak, rss)
        if code != 0:
            errors.append(f"`fermatlat {' '.join(args)}` exited with {code}")
        with open(out, "rb") as fh:
            raw[label] = fh.read()
        if trace:
            with open(tfile, encoding="utf-8") as fh:
                _merge_trace(metrics, json.load(fh))
    if trace:
        metrics["cli.stdout_bytes"] = sum(len(b) for b in raw.values())
        metrics["cli.import_s"] = statistics.median(metrics.pop("cli.import_s"))
    if errors:
        return wall, peak, len(cmds), 0, errors, metrics

    out = {label: json.loads(b) for label, b in raw.items()}
    primes = inputs["primes"]
    errors += checks.check_lattice_payload(3, 4, out["lattice34"], primes)
    errors += checks.check_lattice_payload(5, 3, out["lattice53"], primes)
    with open(os.path.join(rundir, "lattice53.json"), encoding="utf-8") as fh:
        if json.load(fh) != out["lattice53"]["lattice"]:
            errors.append("lattice --out file differs from the printed lattice")
    lat = out["lattice34"]["lattice"]
    gram = [lat["gram"][i * lat["rank"]:(i + 1) * lat["rank"]] for i in range(lat["rank"])]
    for label in ("cubic1", "cubic2", "git_suite", "resolution", "hodge"):
        res = out[label]["results"]
        if not res["ok"] or any(c["status"] not in ("pass", "evidence") for c in res["checks"]):
            errors.append(f"suite {res['suite']} did not pass")
    for label in ("cubic1", "cubic2"):
        search = next(c["detail"] for c in out[label]["results"]["checks"]
                      if c["name"].startswith("box search"))
        if not search["hits"]:
            errors.append("cubic suite found no special vector")
        errors += [f"cubic hit {v} is not special" for v in search["hits"]
                   if not checks.is_special(gram, v)]
    # The repeated suite must print the same bytes.  A report that carries
    # wall-clock fields fails even when two readings happen to coincide.
    stripped = _strip_elapsed(out["cubic1"])
    failed = int(raw["cubic1"] != raw["cubic2"] or stripped != out["cubic1"])
    if stripped != _strip_elapsed(out["cubic2"]):
        errors.append("verify --suite cubic differs between runs beyond elapsed_ms")
    for i, path in enumerate(inputs["forms"]):
        with open(path, encoding="utf-8") as fh:
            form = json.load(fh)
        errors += checks.check_git_report(form, out[f"check{i}"]["results"])
        extended = out[f"cone{i}"]["results"]["form"]
        errors += checks.check_cone(form, extended)
        with open(path + ".cone", encoding="utf-8") as fh:
            if json.load(fh) != extended:
                errors.append("git cone --out file differs from the printed form")
    return wall, peak, len(cmds), failed, errors, metrics


def _merge_trace(metrics, trace):
    from recorder import Recorder
    rec = Recorder()
    rec.spans, rec.counts = trace["spans"], trace["counts"]
    for name, value in rec.metrics().items():
        if name == "cli.import_s":
            metrics.setdefault(name, []).append(value)
        else:
            metrics[name] = metrics.get(name, 0) + value


ROUND = {"primitive_ladder": worker_round, "hermitian_cyclotomic": worker_round,
         "cli_session": cli_round}


# ---------------------------------------------------------------------------

def measure(args, children, rundir):
    setup = setup_seconds(children, args.workload, args.seed, rundir)
    run_round = ROUND[args.workload]
    walls, traced_walls, peaks, layer = [], [], [], []
    attempted = failed = 0
    errors = []
    start = perf_counter()
    while True:
        for trace in ((False, True) if args.trace else (False,)):
            wall, peak, att, fail, errs, metrics = run_round(
                children, args.workload, args.seed, rundir, trace)
            attempted += att
            failed += fail
            errors += errs
            if trace:
                traced_walls.append(wall)
                layer.append(metrics)
            else:
                walls.append(wall)
                peaks.append(peak)
        if perf_counter() - start >= args.seconds:
            break
    if args.trace:
        untraced = statistics.median(walls)
        traced = statistics.median(traced_walls)
        values = {name: statistics.median(m.get(name, 0) for m in layer)
                  for name, _unit in PER_LAYER}
        values["trace.wall_s"] = traced
        values["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        units = dict(PER_LAYER)
    else:
        values = {"wall_s": statistics.median(walls), "setup_s": setup,
                  "peak_rss_mb": max(peaks)}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    for e in errors[:20]:
        print("check failed:", e, file=sys.stderr)
    print(f"{args.workload}: {len(walls)} untraced and {len(traced_walls)} traced rounds, "
          f"BLAS threads {THREAD_ENV['OPENBLAS_NUM_THREADS']}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "fermatlat", "__init__.py")):
        print(f"no fermatlat sources under {SRC}", file=sys.stderr)
        return 2
    rundir = os.path.join(OUT, f"{args.workload}-{args.seed}-trace{args.trace}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    children = Children(rundir)

    def on_deadline(_signum, _frame):
        raise Deadline()

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    try:
        result = measure(args, children, rundir)
    except (Deadline, RuntimeError, OSError, ValueError, KeyError) as exc:
        children.stop()
        print(f"benchmark run failed: {exc!r}; child stderr in {children.log}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
