"""Exact-arithmetic lattices of Fermat hypersurfaces.

Constructs the primitive middle-homology lattices of Fermat hypersurfaces
with their intersection pairings and symmetry actions, the cyclotomic
hermitian eigenlattices and Hodge-character decompositions, and diagonal
GIT-stability tests for homogeneous forms, specializing to the cubic
fourfold and its special/nodal vector arrangements.

`import fermatlat` loads no submodule: each public name is looked up in its
home module on first use (PEP 562), so a program pays only for the modules
it reaches.  The lookup is not cached in this namespace, so the package
always hands out the home module's current object.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "exact_algebra": ("CyclotomicElement", "GroupRingElement"),
    "fermat_homology": ("MilnorModule", "PrimitiveFermatLattice", "build_milnor",
                        "build_primitive", "monomial_pairing", "resolution_check"),
    "git_stability": ("HomogeneousForm", "cone_extend", "exponent_points",
                      "is_semistable_diagonal", "is_stable_diagonal"),
    "hermitian_eigen": ("HermitianLattice", "chi_reduce", "hermitian_gram",
                        "hermitian_signature"),
    "hodge_characters": ("HodgeCharacter", "enumerate_characters",
                         "fermat_class_character", "hodge_numbers", "hodge_type",
                         "rank_formula"),
    "lattice_core": ("DiscriminantData", "GlueSpec", "IntegerLattice", "discriminant",
                     "glue", "is_even", "radical_quotient", "short_vectors", "signature",
                     "smith_normal_form"),
    "cubic_period": ("CubicFourfoldLattice", "bounded_box_vectors", "build_cubic_lattices",
                     "eigenlattice", "hyperplane_meets_eigenball", "verify_remark_52"),
}

_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [name for names in _HOMES.values() for name in names]


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
