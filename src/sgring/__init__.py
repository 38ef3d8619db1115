"""Exact computations for semigroup rings.

Numerical and affine semigroups; toric ideals; Groebner, homogenized, and
local standard bases; multigraded Betti tables via squarefree divisor
complexes; Cohen-Macaulay / Gorenstein verdicts for projective closures and
tangent cones; pseudo-Frobenius data; strong-indispensability checks; and a
harness that verifies gluing / extension / join statements on instances.

Submodules load on first use (PEP 562): `import sgring` imports none of
them, and `sgring.<name>` imports the module that defines the name and
returns the object `from sgring.<module> import <name>` gives.
"""

import importlib

# public names by defining module, so that a name loads no more than it needs
_EXPORTS = {
    "errors": ("CertificationError", "Deadline", "DeadlineExceeded", "InputError",
               "SgringError"),
    "monomials": ("Binomial", "BinomialIdeal", "Order", "degrevlex", "homogenize",
                  "negdegrevlex"),
    "semigroups": ("NumericalSemigroup",),
    "affine": ("AffineSemigroup", "ExtensionSpec", "GluingSpec", "condition_A",
               "condition_B", "embed_axis", "extend", "glue", "gluing",
               "is_nice_gluing", "is_star_gluing", "join"),
    "toric": ("glued_ideal_generators", "ideal_equals", "toric_ideal"),
    "groebner": ("GroebnerBasis", "buchberger", "homogenize_ideal", "is_groebner",
                 "standard_basis_local"),
    "resolution": ("BettiTable", "ResolutionSummary", "SifrReport",
                   "betti_degrees", "is_prec_symmetric", "pf_via_betti",
                   "resolution_summary", "sifr_check", "tensor_betti"),
    "verdicts": ("Verdict", "acm_projective_closure", "closure_resolution",
                 "cm_tangent_cone", "gorenstein_numerical",
                 "gorenstein_projective_closure", "projective_closure_semigroup"),
    "theorems": ("FIXTURES", "THEOREM_IDS", "TheoremReport", "run_fixtures",
                 "verify_extension_pf", "verify_glued_basis_homogeneous",
                 "verify_glued_closure_acm", "verify_glued_closure_gorenstein",
                 "verify_glued_tangent_cone", "verify_join_sifr"),
}
_SUBMODULES = frozenset(_EXPORTS) | {"linalg"}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULES | set(_ORIGIN))


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ORIGIN:
        # not cached here, so a rebinding in the defining module shows through
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
