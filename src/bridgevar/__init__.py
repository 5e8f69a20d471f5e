"""Exact character-variety models and invariants of the double twist knots.

Everything is integer/rational arithmetic -- no floating point enters any
certified statement.  The only numerical routine (complex root finding)
is used for a modulus *check* whose tolerance is explicit.

Quick tour::

    >>> from bridgevar import d_model, genus_X, alexander
    >>> d_model(2, -2).equation
    'r*t-t-r'
    >>> genus_X(2, -2).entries[0].genus_rh
    1
    >>> str(alexander(2, -2))
    '-t^2+3*t-1'
"""

from .poly import (BiPoly, ExactError, QuadElem, UniPoly, complex_roots,
                   irreducibility_analysis, is_prime, is_separable,
                   parse_poly, poly_gcd, rational_roots, resultant,
                   squarefree_part)
from .kernels import BACKEND
from .seq import (big_f, big_g, big_h, delta, f_poly, g_poly,
                  identity_suite, phi, psi)
from .riley import (ideal_generator_check, normalize_unit, riley_poly_J,
                    riley_poly_matrix, riley_poly_pq, schubert_word,
                    trace_formula_check, trace_wk)
from .curves import (CurveModel, STATE_CURVE, STATE_EMPTY, STATE_FULL_PLANE,
                     STATE_LINE_UNION, c_model, d_model, d_split,
                     sigma_containment_check, special_points_check, x_model)
from .geometry import (DegenerateModel, component_count, genus_X, genus_Y,
                       infinity_transversality, odd_point_count,
                       odd_point_report, smoothness_certificate)
from .newton import (GAUSS_INT, INFINITY, ROOT_THREE, binom_check,
                     complexabs_check, expected_vertices, lemma_polynomial,
                     polygon, root_valuations, val_quad, val_rat)
from .knotprops import (HYPERBOLIC, NOT_A_KNOT, TORUS_NONHYPERBOLIC, TREFOIL,
                        UNKNOT, alexander, classify,
                        commensurability_certificate, fourplat_sequence,
                        is_fibered, normalize_knot, trace_field_poly,
                        trace_field_report, two_bridge_params)
from .report import Knot, build_report, render_text, to_json

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "BiPoly", "CurveModel", "DegenerateModel", "ExactError",
    "GAUSS_INT", "HYPERBOLIC", "INFINITY", "Knot", "NOT_A_KNOT", "QuadElem",
    "ROOT_THREE", "STATE_CURVE", "STATE_EMPTY", "STATE_FULL_PLANE",
    "STATE_LINE_UNION", "TORUS_NONHYPERBOLIC", "TREFOIL", "UNKNOT",
    "UniPoly", "alexander", "big_f", "big_g", "big_h", "binom_check",
    "build_report", "c_model", "classify", "commensurability_certificate",
    "complex_roots", "complexabs_check", "component_count", "d_model",
    "d_split", "delta", "expected_vertices", "f_poly", "fourplat_sequence",
    "g_poly", "genus_X", "genus_Y", "ideal_generator_check",
    "identity_suite", "infinity_transversality", "irreducibility_analysis",
    "is_fibered", "is_prime", "is_separable", "lemma_polynomial",
    "normalize_knot", "normalize_unit", "odd_point_count",
    "odd_point_report", "parse_poly", "phi", "poly_gcd", "polygon", "psi",
    "rational_roots", "render_text", "resultant", "riley_poly_J",
    "riley_poly_matrix", "riley_poly_pq", "root_valuations",
    "schubert_word", "sigma_containment_check", "smoothness_certificate",
    "special_points_check", "squarefree_part", "to_json",
    "trace_field_poly", "trace_field_report", "trace_formula_check",
    "trace_wk", "two_bridge_params", "val_quad", "val_rat", "x_model",
]
