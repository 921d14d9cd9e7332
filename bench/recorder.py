"""In-memory span and count recorder for the traced benchmark run.

`install` wraps fermatlat functions at module boundaries from outside the
package: each wrapped object is replaced in every loaded fermatlat
namespace that holds it (so names brought in with `from ... import` are
wrapped too) and, for methods, under every class attribute that aliases it.
A span records (name, start, end, parent span, operation id); a count-only
wrapper just counts calls, for functions called too often to time.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Spans: (module, attribute) -> metric prefix.  Self time and call count are
# derived from the spans.
SPANS = {
    ("fermatlat._intlinalg", "hnf_row"): "intlinalg.hnf_row",
    ("fermatlat._intlinalg", "saturate_row_span"): "intlinalg.saturate_row_span",
    ("fermatlat._intlinalg", "det_bareiss"): "intlinalg.det_bareiss",
    ("fermatlat._intlinalg", "solve_rational"): "intlinalg.solve_rational",
    ("fermatlat._intlinalg", "modp_eliminate"): "intlinalg.modp_eliminate",
    ("fermatlat._intlinalg", "modp_solve_matrix"): "intlinalg.modp_solve_matrix",
    ("fermatlat._intlinalg", "crt_reconstruct_int_matrix"): "intlinalg.crt_reconstruct_int_matrix",
    ("fermatlat._intlinalg", "smith_normal_form"): "intlinalg.smith_normal_form",
    ("fermatlat._intlinalg", "rank_exact"): "intlinalg.rank_exact",
    ("fermatlat._intlinalg", "left_kernel"): "intlinalg.left_kernel",
    ("fermatlat._intlinalg", "mat_mul"): "intlinalg.mat_mul",
    ("fermatlat._intlinalg", "charpoly"): "intlinalg.charpoly",
    ("fermatlat.fermat_homology", "build_milnor"): "fermat_homology.build_milnor",
    ("fermatlat.fermat_homology", "connecting_map"): "fermat_homology.connecting_map",
    ("fermatlat.fermat_homology", "build_primitive"): "fermat_homology.build_primitive",
    ("fermatlat.fermat_homology", "resolution_check"): "fermat_homology.resolution_check",
    ("fermatlat.lattice_core", "radical_quotient"): "lattice_core.radical_quotient",
    ("fermatlat.lattice_core", "discriminant_is_cyclic_of_order"):
        "lattice_core.discriminant_is_cyclic_of_order",
    ("fermatlat.lattice_core", "signature"): "lattice_core.signature",
    ("fermatlat.lattice_core", "discriminant"): "lattice_core.discriminant",
    ("fermatlat.lattice_core", "short_vectors"): "lattice_core.short_vectors",
    ("fermatlat.lattice_core", "glue_with_basis"): "lattice_core.glue_with_basis",
    ("fermatlat.hermitian_eigen", "hermitian_gram"): "hermitian_eigen.hermitian_gram",
    ("fermatlat.hermitian_eigen", "_pivot_columns"): "hermitian_eigen.pivot_columns",
    ("fermatlat.hermitian_eigen", "_field_det"): "hermitian_eigen.field_det",
    ("fermatlat.hermitian_eigen", "chi_reduce"): "hermitian_eigen.chi_reduce",
    ("fermatlat.hermitian_eigen", "chi_form_on_vectors"): "hermitian_eigen.chi_form_on_vectors",
    ("fermatlat.hermitian_eigen", "hermitian_signature"): "hermitian_eigen.hermitian_signature",
    ("fermatlat.cubic_period", "build_cubic_lattices"): "cubic_period.build_cubic_lattices",
    ("fermatlat.cubic_period", "bounded_box_vectors"): "cubic_period.bounded_box_vectors",
    ("fermatlat.cubic_period", "verify_remark_52"): "cubic_period.verify_remark_52",
    ("fermatlat.cubic_period", "orbit_specials"): "cubic_period.orbit_specials",
    ("fermatlat.cubic_period", "nodal_complement_signature"):
        "cubic_period.nodal_complement_signature",
    ("fermatlat.cubic_period", "eigenlattice"): "cubic_period.eigenlattice",
    ("fermatlat.cubic_period", "hyperplane_meets_eigenball"):
        "cubic_period.hyperplane_meets_eigenball",
    ("fermatlat.git_stability", "is_semistable_diagonal"): "git_stability.is_semistable_diagonal",
    ("fermatlat.git_stability", "is_stable_diagonal"): "git_stability.is_stable_diagonal",
    ("fermatlat._simplex", "solve_lp"): "simplex.solve_lp",
}

# Count-only wrappers: (module, attribute) -> counter name.
COUNTS = {
    ("fermatlat.fermat_homology", "monomial_pairing"): "fermat_homology.monomial_pairing.calls",
    ("fermatlat.hermitian_eigen", "reduction_entry"): "hermitian_eigen.reduction_entry.calls",
    ("fermatlat.exact_algebra", "CyclotomicElement.__mul__"):
        "exact_algebra.CyclotomicElement.mul.calls",
    ("fermatlat.exact_algebra", "CyclotomicElement.inverse"):
        "exact_algebra.CyclotomicElement.inverse.calls",
    ("fermatlat.exact_algebra", "GroupRingElement.__mul__"):
        "exact_algebra.GroupRingElement.mul.calls",
}


def _grid_points(args, _kwargs, _result) -> int:
    total = 1
    for dom in args[1]:
        total *= len(dom)
    return total


# Tallies add an amount computed from each call: (module, attribute) ->
# (counter name, amount function of (args, kwargs, result)).
TALLIES = {
    ("fermatlat.cubic_period", "_scan_grid"):
        ("cubic_period.bounded_box_vectors.points", _grid_points),
    ("fermatlat.cubic_period", "bounded_box_vectors"):
        ("cubic_period.bounded_box_vectors.hits", lambda a, k, r: len(r)),
}

# Spans whose name carries an argument: run_suite("cubic") is
# verify.run_suite.cubic, and its inclusive time is the metric.
NAMED_SPANS = {
    ("fermatlat.verify", "run_suite"): lambda args, kwargs: "verify.run_suite."
    + str(args[0] if args else kwargs["name"]),
}


class Recorder:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None,
                           self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def span_wrapper(self, fn, name=None, name_fn=None):
        def wrapper(*args, **kwargs):
            idx = self.begin(name if name_fn is None else name_fn(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def tally_wrapper(self, fn, name, amount):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name] += amount(args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """self_s and calls per span name, inclusive .s for named spans, and
        the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            if name.startswith("verify.run_suite.") or name.startswith("cli."):
                out[name + ".s"] += end - start
            else:
                out[name + ".self_s"] += end - start - child[i]
                out[name + ".calls"] += 1
        out.update(self.counts)
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed fermatlat function in every namespace holding it."""
        for table in (SPANS, NAMED_SPANS, COUNTS, TALLIES):
            for module, _attr in table:
                importlib.import_module(module)
        for key, prefix in SPANS.items():
            self._replace(key, lambda fn, p=prefix: self.span_wrapper(fn, name=p))
        for key, name_fn in NAMED_SPANS.items():
            self._replace(key, lambda fn, f=name_fn: self.span_wrapper(fn, name_fn=f))
        for key, name in COUNTS.items():
            self._replace(key, lambda fn, n=name: self.count_wrapper(fn, n))
        for key, (name, amount) in TALLIES.items():
            self._replace(key, lambda fn, n=name, a=amount: self.tally_wrapper(fn, n, a))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _replace(self, key, make) -> None:
        module, attr = key
        owner = sys.modules[module]
        *cls_path, name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, name)
        wrapper = make(original)
        if cls_path:
            holders = [owner]
        else:
            holders = [m for n, m in sorted(sys.modules.items())
                       if (n == "fermatlat" or n.startswith("fermatlat.")) and m is not None]
        for holder in holders:
            for slot, value in list(vars(holder).items()):
                if value is original:
                    self._patched.append((holder, slot, original))
                    setattr(holder, slot, wrapper)
