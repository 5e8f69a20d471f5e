"""Exact character-variety models and invariants of the double twist knots.

Everything is integer/rational arithmetic -- no floating point enters any
certified statement or any check behind one.

Quick tour::

    >>> from bridgevar import Knot, d_model, alexander
    >>> d_model(2, -2).equation
    BiPoly(r*t-t-r)
    >>> Knot(2, -2).genus_X.entries[0].genus_rh
    1
    >>> str(alexander(2, -2))
    '-t^2+3*t-1'
"""

from .poly import (BiPoly, ExactError, QuadElem, UniPoly,
                   irreducibility_analysis, is_prime, is_separable,
                   parse_poly, poly_gcd, rational_roots, resultant,
                   squarefree_part)
from .kernels import BACKEND
from .seq import (big_f, big_g, big_h, delta, f_poly, g_poly,
                  identity_suite, phi, psi)
from .riley import (ideal_generator_check, normalize_unit, riley_poly_J,
                    riley_poly_matrix, riley_poly_pq, schubert_word,
                    trace_formula_check)
from .curves import CurveModel, c_model, d_model, d_split
from .geometry import (component_count, genus_X, genus_Y,
                       infinity_transversality, odd_point_report,
                       smoothness_certificate)
from .newton import (INFINITY, binom_check, complexabs_check,
                     expected_vertices, lemma_polynomial, polygon, val_quad,
                     val_rat)
from .knotprops import (HYPERBOLIC, NOT_A_KNOT, TORUS_NONHYPERBOLIC, TREFOIL,
                        UNKNOT, alexander, classify,
                        commensurability_certificate, fourplat_sequence,
                        is_fibered, normalize_knot, trace_field_poly,
                        trace_field_report, two_bridge_params)
from .report import Knot, build_report, render_text, to_json

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "BiPoly", "CurveModel", "ExactError",
    "HYPERBOLIC", "INFINITY", "Knot", "NOT_A_KNOT", "QuadElem",
    "TORUS_NONHYPERBOLIC", "TREFOIL", "UNKNOT",
    "UniPoly", "alexander", "big_f", "big_g", "big_h", "binom_check",
    "build_report", "c_model", "classify", "commensurability_certificate",
    "complexabs_check", "component_count", "d_model",
    "d_split", "delta", "expected_vertices", "f_poly", "fourplat_sequence",
    "g_poly", "genus_X", "genus_Y", "ideal_generator_check",
    "identity_suite", "infinity_transversality", "irreducibility_analysis",
    "is_fibered", "is_prime", "is_separable", "lemma_polynomial",
    "normalize_knot", "normalize_unit", "odd_point_report", "parse_poly",
    "phi", "poly_gcd", "polygon", "psi",
    "rational_roots", "render_text", "resultant", "riley_poly_J",
    "riley_poly_matrix", "riley_poly_pq", "schubert_word",
    "smoothness_certificate", "squarefree_part", "to_json",
    "trace_field_poly", "trace_field_report", "trace_formula_check",
    "two_bridge_params", "val_quad", "val_rat",
]
