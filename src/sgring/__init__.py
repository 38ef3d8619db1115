"""Exact computations for semigroup rings.

Numerical and affine semigroups; toric ideals; Groebner, homogenized, and
local standard bases; multigraded Betti tables via squarefree divisor
complexes; Cohen-Macaulay / Gorenstein verdicts for projective closures and
tangent cones; pseudo-Frobenius data; strong-indispensability checks; and a
harness that verifies gluing / extension / join statements on instances.
"""

from .errors import (BoundInsufficient, CertificationError, Deadline,
                     DeadlineExceeded, InputError, SgringError)
from .monomials import Binomial, Order, degrevlex, homogenize, negdegrevlex
from .semigroups import (AffineSemigroup, ExtensionSpec, GluingSpec,
                         NumericalSemigroup, condition_A, condition_B,
                         embed_axis, extend, glue, is_nice_gluing,
                         is_star_gluing, join)
from .toric import BinomialIdeal, glued_ideal_generators, ideal_equals, toric_ideal
from .groebner import (GroebnerBasis, buchberger, homogenize_ideal, is_groebner,
                       standard_basis_local)
from .resolution import (BettiTable, ResolutionSummary, SifrReport,
                         betti_degrees, is_prec_symmetric, pf_via_betti,
                         resolution_summary, sifr_check, tensor_betti)
from .verdicts import (Verdict, acm_projective_closure, closure_resolution,
                       cm_tangent_cone, gorenstein_numerical,
                       gorenstein_projective_closure,
                       projective_closure_semigroup)
from .theorems import (FIXTURES, THEOREM_IDS, TheoremReport, gluing,
                       run_fixtures, verify_extension_pf,
                       verify_glued_basis_homogeneous, verify_glued_closure_acm,
                       verify_glued_closure_gorenstein, verify_glued_tangent_cone,
                       verify_join_sifr)

__all__ = [n for n in dir() if not n.startswith("_")]
