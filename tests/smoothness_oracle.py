"""The exact subresultant route to the affine singular locus: the
oracle of the modular smoothness proof in `bridgevar.geometry`.

Production proves smoothness mod p only and refuses a curve it cannot
prove smooth; this route finds the singular points themselves, so the
planted-singularity tests check both against each other.
"""

from typing import NamedTuple

from bridgevar.poly import (BiPoly, ExactError, UniPoly, poly_gcd,
                            rational_roots, resultant, squarefree_part)


class LocusVerdict(NamedTuple):
    kind: str            # "Empty" or "Points"
    points: tuple        # the candidate singular points
    trace: dict


def exact_singular_locus(F, delta_filter=None):
    """The affine singular locus of F = 0 by exact subresultant PRS
    eliminants over Z, for F of positive degree in both variables with a
    separable content.

    Returns Empty when a constant gcd of eliminants (optionally sharpened
    by the (Delta_k, Delta_l) filter) proves there is none; otherwise a
    list of candidate points, exactly verified where rational and
    cross-checked through both projections otherwise.
    """
    if F.degree_inner < 1 or F.degree_outer < 1:
        raise ExactError("the exact route needs positive degree in both "
                         "variables")
    # In characteristic 0, Res_t(F, F_t) = 0 exactly when F has a repeated
    # factor of positive t-degree; repeated factors in r alone divide the
    # content, which the caller checks.
    Ft = F.deriv_outer()
    R1 = resultant(F, Ft)
    if R1.is_zero:
        raise ExactError("non-reduced input: Res_t(F, F_t) = 0")
    trace = {}
    Fr = F.deriv_inner()
    R2 = resultant(F, Fr)
    G = poly_gcd(R1, R2)
    S1 = resultant(transpose(F), transpose(Ft))
    S2 = resultant(transpose(F), transpose(Fr))
    H = poly_gcd(S1, S2)
    trace["res_degrees"] = {
        "Res_t(F,Ft)": _deg(R1), "Res_t(F,Fr)": _deg(R2),
        "Res_r(F,Ft)": _deg(S1), "Res_r(F,Fr)": _deg(S2),
    }
    if delta_filter is not None:
        dr, dt = delta_filter
        G = poly_gcd(G, dr.relabel(F.inner))
        H = poly_gcd(H, dt.relabel(F.outer))
        trace["delta_filter"] = True
    trace["gcd_r_degree"] = _deg(G)
    trace["gcd_t_degree"] = _deg(H)
    if G.degree <= 0 or H.degree <= 0:
        return LocusVerdict("Empty", (), trace)
    Gs = squarefree_part(G)
    Hs = squarefree_part(H)
    points = []
    spurious = []
    residual = Gs
    for r0, _mult in rational_roots(Gs):
        lin = UniPoly([-r0.numerator, r0.denominator], Gs.var)
        residual = residual.divexact(lin).primitive()
        fiber = poly_gcd(poly_gcd(_fiber(F, r0), _fiber(Ft, r0)),
                         _fiber(Fr, r0))
        if fiber.degree <= 0:
            spurious.append(str(r0))
            continue
        leftover = fiber
        for t0, _m in rational_roots(fiber):
            lin_t = UniPoly([-t0.numerator, t0.denominator], fiber.var)
            leftover = leftover.divexact(lin_t).primitive()
            points.append({"type": "rational", "point": (str(r0), str(t0)),
                           "verified": F.eval_point(r0, t0) == 0})
        if leftover.degree > 0:
            points.append({"type": "algebraic-fiber", "r0": str(r0),
                           "t_poly": str(leftover),
                           "count_bound": leftover.degree})
    if residual.degree > 0:
        points.append({"type": "algebraic", "r_poly": str(residual),
                       "t_poly": str(Hs),
                       "verification": "resultant-consistency",
                       "count_bound": residual.degree * Hs.degree})
    if spurious:
        trace["spurious_candidates"] = spurious
    if not points:
        return LocusVerdict("Empty", (), trace)
    return LocusVerdict("Points", tuple(points), trace)


def transpose(F):
    """F, nonzero, with the roles of its variables swapped, so that
    `resultant` eliminates its inner variable."""
    return BiPoly([UniPoly([c.coeff(i) for c in F.cs], F.outer)
                   for i in range(int(F.degree_inner) + 1)],
                  F.inner, F.outer)


def _fiber(F, r0):
    """q^a F(p/q, t) for r0 = p/q and a = deg_r F: the restriction of F
    to r = r0, with the same roots in t, as an integer polynomial."""
    p, q = r0.numerator, r0.denominator
    a = int(F.degree_inner)
    return UniPoly([sum(v * p ** i * q ** (a - i) for i, v in enumerate(c.c))
                    for c in F.cs], F.outer)


def _deg(p):
    d = p.degree
    return int(d) if d == d and d != float("-inf") else "-inf"
