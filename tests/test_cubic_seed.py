"""build_cubic_lattices and the cubic verification suite against stored
digests.

tests/data/cubic_seed.json holds sha256 digests of the canonical JSON of
every CubicFourfoldLattice field and of the stdout of
`fermatlat verify --suite cubic --bound 2` and `--fast`, as produced by the
Fraction-based gluing and transport that the integer code replaced.  The
fields are read-only arrays and tuples now; arrays are serialised with
.tolist(), which gives the JSON of the former lists of rows.

The "eigenlattice" block holds digests of the Gram and basis coordinate
arrays of eigenlattice(k, conjugate) for k = 1, 2, 3 and both conjugates, as
produced by the element-based Euclidean echelon that the array echelon
replaced.
"""

import hashlib
import json
import os

import pytest

from fermatlat.cli import dumps_canonical, main
from fermatlat.cubic_period import build_cubic_lattices, eigenlattice
from fermatlat.lattice_core import lattice_to_json

DATA = os.path.join(os.path.dirname(__file__), "data", "cubic_seed.json")

VERIFY_ARGS = {
    "verify_cubic_bound2": ["verify", "--suite", "cubic", "--bound", "2"],
    "verify_cubic_fast": ["verify", "--suite", "cubic", "--fast"],
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cubic_field_digests() -> dict:
    built = build_cubic_lattices()
    fields = {
        "lambda_o": lattice_to_json(built.lambda_o),
        "lambda_full": lattice_to_json(built.lambda_full),
        "eta_in_lambda": list(built.eta_in_lambda),
        "lambda_o_in_lambda": built.lambda_o_in_lambda.tolist(),
        "actions_o": {k: m.tolist() for k, m in sorted(built.actions_o.items())},
        "actions_full": {k: m.tolist() for k, m in sorted(built.actions_full.items())},
        "disc_generator": [str(x) for x in built.disc_generator],
        "glue_class": list(built.glue_class),
        "reduced_basis": built.reduced_basis.tolist(),
        "reduction_transform": built.reduction_transform.tolist(),
    }
    return {k: _sha(dumps_canonical(v)) for k, v in fields.items()}


def eigenlattice_digests() -> dict:
    out = {}
    for k in (1, 2, 3):
        for conjugate in (False, True):
            h, basis = eigenlattice(k, conjugate)
            out[f"{k}_conjugate" if conjugate else f"{k}"] = {
                "gram": _sha(dumps_canonical(h.coords.tolist())),
                "basis": _sha(dumps_canonical(basis.tolist())),
            }
    return out


def verify_stdout_digest(key: str, capsys) -> str:
    capsys.readouterr()
    assert main(VERIFY_ARGS[key]) == 0
    return _sha(capsys.readouterr().out)


def _stored():
    with open(DATA) as fh:
        return json.load(fh)


def test_cubic_lattice_fields_match_stored_digests():
    assert cubic_field_digests() == _stored()["fields"]


def test_eigenlattices_match_stored_digests():
    assert eigenlattice_digests() == _stored()["eigenlattice"]


@pytest.mark.parametrize("key", sorted(VERIFY_ARGS))
def test_cubic_verify_stdout_matches_stored_digest(key, capsys):
    assert verify_stdout_digest(key, capsys) == _stored()["stdout"][key]
