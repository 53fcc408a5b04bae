"""henonlab: computational toolkit for complex Henon maps.

Covers escape-rate potentials, the Boettcher coordinate near infinity,
the covering-space lift polynomial and deck-transformation algebra,
exact Z[1/d] unit arithmetic, linear symmetry detection, and sub-level
set sampling/export, with a CLI front end (`henonlab`).  Public names
load their module on first access (PEP 562), so mpmath only when used.
"""

from importlib import import_module

_MODULE_OF = {name: module for module, names in (
    ("boettcher", "BoettcherValue LiftPolynomial PsiValue cross_check_lift derive_lift_polynomial "
                  "phi psi semiconjugacy_residual"),
    ("covering", "FiberAffineMap RootOfUnity c_alpha compute_L_prime deck_compose deck_eval "
                 "deck_rational fiber_compose fiber_invert henon_lift push push_iterated"),
    ("dyadic", "RingElem UnitDecomposition subgroup_membership unit_decompose"),
    ("errors", "DomainError HenonLabError InconsistencyError InvalidMapError PrecisionError"),
    ("grid", "GridResult SliceSpec export_grid sample_slice"),
    ("maps", "AffineConjugation FiltrationRadius HenonMap PolyMap2 compose_poly_maps "
             "estimate_filtration_radius evaluate normalize poly_map_of"),
    ("potential", "GreenValue OrbitClassification classify_point green_minus green_plus"),
    ("symmetry", "Aut1Classification SymmetryGroup classify_aut1 detect_linear_symmetries "
                 "verify_rigidity_family"),
) for name in names.split()}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value
