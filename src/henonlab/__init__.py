"""henonlab: computational toolkit for complex Henon maps.

Covers escape-rate potentials, the Boettcher coordinate near infinity,
the covering-space lift polynomial and deck-transformation algebra,
exact Z[1/d] unit arithmetic, linear symmetry detection, and sub-level
set sampling/export, with a CLI front end (`henonlab`).
"""

from .boettcher import (BoettcherValue, LiftPolynomial, PsiValue,
                        cross_check_lift, derive_lift_polynomial, phi, psi,
                        semiconjugacy_residual)
from .covering import (DeckRational, FiberAffineMap, RootOfUnity, c_alpha,
                       compute_L_prime, deck_compose, deck_eval, deck_rational,
                       fiber_compose, fiber_invert, henon_lift, push,
                       push_iterated)
from .dyadic import (RingElem, UnitDecomposition, subgroup_membership,
                     unit_decompose)
from .errors import (DomainError, HenonLabError, InconsistencyError,
                     InvalidMapError, PrecisionError, UnderdeterminedError)
from .grid import (GridResult, SliceSpec, annulus_radius, export_grid,
                   sample_slice)
from .maps import (AffineConjugation, FiltrationRadius, HenonMap, PolyMap2,
                   compose_poly_maps, estimate_filtration_radius, evaluate,
                   iterate_orbit, normalize, poly_map_of)
from .potential import (GreenValue, OrbitClassification, classify_point,
                        green_minus, green_plus)
from .symmetry import (Aut1Classification, SymmetryGroup, classify_aut1,
                       detect_linear_symmetries, green_invariance_check,
                       verify_rigidity_family)

__version__ = "0.1.0"
