"""Smoothness certificates, component counts and genus computations.

Everything here is certified exactly, by elimination or by counting:

* affine smoothness: the resultants Res_t(F, F_t) and Res_t(F, F_r)
  both lie in the elimination ideal, so a constant gcd proves the
  affine singular locus empty.  The proof is first tried modulo one
  61-bit prime (`modular_smoothness_trace`, whose trace is the
  witness); where it does not go through, the exact subresultant route
  (`exact_singular_locus`) pushes the candidates surviving the gcd
  through the Delta_k / Delta_l filter and verifies them pointwise.
* smoothness at infinity: a line of bidegree (1,0) meets a curve of
  bidegree (a,b) in exactly b points counted with multiplicity, so
  finding b distinct points proves every one of them is a transversal
  smooth crossing.  Distinct-point counts are degrees of squarefree
  parts -- no numerics.
* genus: bidegree route (a-1)(b-1) against the closed forms, and the
  X-cover via the odd-valuation point count a and g = 2g(D) - 1 + a/2.
"""

from typing import NamedTuple, Optional

from .kernels import poly_gcd_p
from .poly import (UniPoly, BiPoly, ExactError, poly_gcd, resultant,
                   resultant_mod_p, squarefree_part, is_separable,
                   rational_roots)
from .seq import f_poly, g_poly, delta, big_g
from .curves import (d_model, d_split, _swap_if_needed,
                     STATE_CURVE, STATE_EMPTY, STATE_FULL_PLANE,
                     STATE_LINE_UNION)

_R = UniPoly.gen("r")


class DegenerateModel(ExactError):
    """Raised when an operation is asked about an empty / full-plane /
    line-union model; carries the typed reason."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


def _degenerate_reason(model):
    if (model.k, model.l) in ((2, 2), (-2, -2)):
        return "line-union (trefoil)"
    if model.k * model.l == 0:
        return "%s (unknot)" % model.state
    if abs(model.k) == 1 or abs(model.l) == 1:
        return "%s (torus knot)" % model.state
    return model.state


# ---------------------------------------------------------------------------
# affine singular locus

class AffineVerdict(NamedTuple):
    kind: str            # "Empty" | "Points"
    points: tuple        # point descriptions (dicts)
    trace: dict


# The primes of the modular certificate, tried in this order.
CERTIFICATE_PRIMES = (2 ** 61 - 1, 2 ** 61 - 31, 2 ** 61 - 45)


def affine_singular_locus(F, delta_filter=None):
    """Singular locus of the affine curve F = 0.

    Returns Empty when a constant gcd of eliminants (optionally sharpened
    by the (Delta_k, Delta_l) filter) proves there is none; otherwise a
    list of candidate points, exactly verified where rational and
    cross-checked through both projections otherwise.  The proof of
    Empty is tried mod p first (`modular_smoothness_trace`); every other
    verdict, and every error, comes from `exact_singular_locus`.
    """
    if F.is_zero:
        raise ExactError("affine_singular_locus needs a nonzero polynomial")
    a, b = int(F.degree_inner or 0), int(F.degree_outer or 0)
    if a <= 0 and b <= 0:
        raise ExactError("affine_singular_locus needs a nonconstant polynomial")
    cont = F.content_inner()
    if cont.degree > 0 and not is_separable(cont):
        raise ExactError("non-reduced input: repeated factor %s" % cont)
    if a > 0 and b > 0:
        trace = modular_smoothness_trace(
            F, None if delta_filter is None else delta_filter[0])
        if trace is not None:
            return AffineVerdict("Empty", (), trace)
    return exact_singular_locus(F, delta_filter)


def modular_smoothness_trace(F, delta_r=None):
    """The witness that F = 0 has no affine singular point, from the
    resultants mod one prime of `CERTIFICATE_PRIMES`, or None when no
    listed prime gives a proof.

    F has positive degree in both variables, integer coefficients and a
    separable content.  Let G be the gcd over Q of R1 = Res_t(F, F_t),
    R2 = Res_t(F, F_r) and, when given, the filter delta_r = Delta_k(r).
    Every singular point has its r-coordinate among the roots of G, so a
    constant G proves the locus empty; that is the exact route's rule
    ``gcd_r_degree <= 0``.  Taking G primitive, G divides each of them in
    Z[r] (Gauss), so lc(G) divides lc(delta_r) and lc(R1).  Hence G mod p
    keeps the degree of G when p does not divide lc(delta_r), or when
    R1 mod p reaches the Sylvester bound on deg R1 (then lc(R1) is
    nonzero mod p).  In either case G mod p divides the gcd mod p of the
    eliminants computed, so a constant gcd mod p proves G constant.
    R2 is computed only when the gcd of the others is not constant.
    A zero R1 mod p proves nothing; the exact route rejects R1 = 0.

    The trace holds the prime, the degrees of the resultants mod p,
    the Sylvester bound on deg R1, whether delta_r was used, and the
    degree 0 of the gcd mod p.
    """
    Ft = F.deriv_outer()
    for p in CERTIFICATE_PRIMES:
        R1, bound = resultant_mod_p(F, Ft, p)
        if not R1:
            continue
        trace = {"prime": p, "degree_bound": bound,
                 "res_degrees_mod_p": {"Res_t(F,Ft)": len(R1) - 1}}
        kept = len(R1) - 1 == bound
        G = R1
        if delta_r is not None and delta_r.lead % p:
            G = poly_gcd_p(R1, list(delta_r.c), p)
            trace["delta_filter"] = True
            kept = True
        if not kept:
            continue
        if len(G) > 1:
            R2, _ = resultant_mod_p(F, F.deriv_inner(), p)
            trace["res_degrees_mod_p"]["Res_t(F,Fr)"] = (
                len(R2) - 1 if R2 else "-inf")
            G = poly_gcd_p(G, R2, p)
        if len(G) == 1:
            trace["gcd_r_degree"] = 0
            return trace
    return None


def exact_singular_locus(F, delta_filter=None):
    """`affine_singular_locus` by exact subresultant PRS eliminants over
    Z, for F already screened there; the route of every Points verdict
    and of the R1 = 0 error."""
    a, b = int(F.degree_inner or 0), int(F.degree_outer or 0)
    # In characteristic 0, Res_t(F, F_t) = 0 exactly when F has a repeated
    # factor of positive t-degree; repeated factors in r alone divide the
    # content, checked above.
    if b:
        Ft = F.deriv_outer()
        R1 = resultant(F, Ft, F.outer)
        if R1.is_zero:
            raise ExactError("non-reduced input: Res_t(F, F_t) = 0")
    trace = {}
    if b == 0 or a == 0:
        # a separable union of parallel lines is smooth
        trace["note"] = "single-variable polynomial; separable, hence smooth"
        return AffineVerdict("Empty", (), trace)
    Fr = F.deriv_inner()
    R2 = resultant(F, Fr, F.outer)
    G = poly_gcd(R1, R2)
    S1 = resultant(F, Ft, F.inner)
    S2 = resultant(F, Fr, F.inner)
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
        return AffineVerdict("Empty", (), trace)
    Gs = squarefree_part(G)
    Hs = squarefree_part(H)
    points = []
    spurious = []
    residual = Gs
    for r0, _mult in rational_roots(Gs):
        lin = UniPoly([-r0.numerator, r0.denominator], Gs.var)
        residual = residual.divexact(lin).clear_denominators().primitive()
        fiber = poly_gcd(poly_gcd(F.eval_inner(r0), Ft.eval_inner(r0)),
                         Fr.eval_inner(r0))
        if fiber.degree <= 0:
            spurious.append(str(r0))
            continue
        leftover = fiber
        for t0, _m in rational_roots(fiber):
            lin_t = UniPoly([-t0.numerator, t0.denominator], fiber.var)
            leftover = leftover.divexact(lin_t).clear_denominators().primitive()
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
        return AffineVerdict("Empty", (), trace)
    return AffineVerdict("Points", tuple(points), trace)


def _deg(p):
    d = p.degree
    return int(d) if d == d and d != float("-inf") else "-inf"


# ---------------------------------------------------------------------------
# behaviour at infinity

class InfinityVerdict(NamedTuple):
    transversal: bool
    r_line: tuple          # (distinct points found, required)
    t_line: tuple
    corner_on_curve: bool
    witnesses: tuple
    trace: dict


def infinity_transversality(model):
    """Certify that both lines at infinity meet the closure of the model
    transversally in smooth points, by exact distinct-point counting."""
    if model.kind not in ("D", "D0", "D1") or model.state not in (STATE_CURVE,):
        raise DegenerateModel(
            "infinity check needs a nondegenerate D-family model, got %s/%s"
            % (model.kind, model.state))
    F = model.equation
    a, b = int(F.degree_inner), int(F.degree_outer)
    if a < 1 or b < 1:
        raise DegenerateModel("infinity check needs positive bidegree")
    # chart u = 1/r: the line u=0; F restricted there is A(t), the r-leading
    # profile; B(t) is the next coefficient (the u-derivative at u=0).
    A = UniPoly([c.coeff(a) for c in F.cs], F.outer)
    B = UniPoly([c.coeff(a - 1) for c in F.cs], F.outer)
    # chart v = 1/t: same with the roles swapped.
    C = F.cs[b]
    D = F.cs[b - 1]
    corner = A.degree < b  # the (r,t) = (inf, inf) point lies on the curve
    witnesses = []
    r_count = squarefree_part(A).degree + (1 if corner else 0)
    t_count = squarefree_part(C).degree + (1 if corner else 0)
    if r_count != b:
        witnesses.append({"line": "r=infinity", "found": r_count, "required": b})
    if t_count != a:
        witnesses.append({"line": "t=infinity", "found": t_count, "required": a})
    sing_r = poly_gcd(poly_gcd(A, A.deriv()), B)
    if sing_r.degree > 0:
        witnesses.append({"line": "r=infinity", "singular_candidates": str(sing_r)})
    sing_t = poly_gcd(poly_gcd(C, C.deriv()), D)
    if sing_t.degree > 0:
        witnesses.append({"line": "t=infinity", "singular_candidates": str(sing_t)})
    if corner:
        du = C.coeff(a - 1)       # coefficient of r^(a-1) t^b
        dv = D.coeff(a)           # coefficient of r^a t^(b-1)
        if du == 0 and dv == 0:
            witnesses.append({"point": "corner", "singular": True})
    return InfinityVerdict(not witnesses, (r_count, b), (t_count, a),
                           corner, tuple(witnesses),
                           {"r_profile": str(A), "t_profile": str(C)})


# ---------------------------------------------------------------------------
# the combined certificate

class SmoothnessCertificate(NamedTuple):
    target: object                 # CurveModel actually certified
    affine: Optional[AffineVerdict]
    infinity: Optional[InfinityVerdict]
    refusal: Optional[str]
    d0d1: Optional[dict]           # k = l: intersection of the components
    method: dict

    @property
    def smooth(self):
        return (self.refusal is None and self.affine is not None
                and self.affine.kind == "Empty"
                and self.infinity is not None and self.infinity.transversal)


def smoothness_certificate(k, l, model=None, split=None):
    """Smoothness of D(k,l) (or of D1(l,l) when k = l), with the
    D0/D1 intersection points reported separately in the equal case.

    `model` is D(k,l) and `split` its `d_split` when k = l, if the caller
    already built them."""
    if model is None:
        model = d_model(k, l)
    if model.state != STATE_CURVE:
        return SmoothnessCertificate(model, None, None,
                                     _degenerate_reason(model), None, {})
    k2, l2 = model.k, model.l
    if k2 == l2:
        _d0, d1 = split if split is not None else d_split(l2, model)
        aff = affine_singular_locus(d1.equation)
        inf = infinity_transversality(d1)
        F = model.equation
        p1 = F.deriv_outer().eval_outer(_R)
        p2 = F.deriv_inner().eval_outer(_R)
        gd = poly_gcd(p1, p2)
        n = l2 // 2
        gn = big_g(n, "r").primitive()
        d0d1 = {
            "poly": str(gn),
            "count": int(gn.degree),
            "matches_big_g": gd == gn,
            "separable": is_separable(gn),
            "on_diagonal": F.eval_outer(_R).is_zero,
        }
        method = {"split": "D0 * D1", "d1_bidegree": list(d1.bidegree)}
        return SmoothnessCertificate(d1, aff, inf, None, d0d1, method)
    aff = affine_singular_locus(
        model.equation, delta_filter=(delta(k2), delta(l2)))
    inf = infinity_transversality(model)
    method = {"delta_filter": ["Delta_%d(r)" % k2, "Delta_%d(t)" % l2],
              "bidegree": list(model.bidegree)}
    return SmoothnessCertificate(model, aff, inf, None, None, method)


# ---------------------------------------------------------------------------
# components

class ComponentCount(NamedTuple):
    count: Optional[int]
    degenerate: Optional[str]


def component_count(k, l, certificate=None):
    """1 for hyperbolic J(k,l) with k != l, 2 for k = l (|l| > 2),
    a typed description in the degenerate cases."""
    cert = (certificate if certificate is not None
            else smoothness_certificate(k, l))
    if cert.refusal is not None:
        return ComponentCount(None, cert.refusal)
    target = cert.target      # D(k,l), or D1(l,l) when k = l
    if not cert.smooth:
        raise AssertionError(
            "component count needs the smoothness certificate; it failed "
            "for (%d, %d)" % (target.k, target.l))
    a, b = target.bidegree
    if not (a > 0 and b > 0):
        raise AssertionError("positive bidegree expected after degeneracy "
                             "screen, got (%d, %d)" % (a, b))
    return ComponentCount(2 if target.k == target.l else 1, None)


# ---------------------------------------------------------------------------
# genus of the Y-side components

class GenusYEntry(NamedTuple):
    component: str          # "whole" | "D0" | "D1"
    genus_bidegree: int
    genus_formula: int
    hyperelliptic: bool


class GenusYReport(NamedTuple):
    k: int
    l: int
    entries: tuple
    certificate: SmoothnessCertificate


def genus_Y(k, l, certificate=None):
    """Genus of the smooth model, by bidegree and by the closed form."""
    cert = certificate if certificate is not None else smoothness_certificate(k, l)
    if cert.refusal is not None:
        raise DegenerateModel("genus undefined: %s" % cert.refusal)
    if not cert.smooth:
        raise AssertionError("genus requested without a smoothness proof")
    k2, l2 = cert.target.k, cert.target.l
    if l2 % 2:
        raise ExactError("genus formula needs an even twist parameter")
    if k2 == l2:
        n = abs(l2) // 2
        d1_bi = (n - 2) ** 2
        d1_form = (abs(l2) // 2 - 2) ** 2
        a, b = cert.target.bidegree
        if (a - 1) * (b - 1) != d1_bi:
            raise AssertionError("D1 bidegree inconsistent with genus")
        entries = (
            GenusYEntry("D0", 0, 0, True),
            GenusYEntry("D1", d1_bi, d1_form, abs(l2) <= 6),
        )
    else:
        a, b = cert.target.bidegree
        g_bi = (a - 1) * (b - 1)
        g_form = (abs(k2) // 2 - 1) * (abs(l2) // 2 - 1)
        if g_bi != g_form:
            raise AssertionError(
                "genus mismatch for (%d,%d): bidegree %d vs formula %d"
                % (k2, l2, g_bi, g_form))
        entries = (GenusYEntry("whole", g_bi, g_form, a <= 2 or b <= 2),)
    return GenusYReport(k2, l2, entries, cert)


# ---------------------------------------------------------------------------
# odd-valuation points of the halving function

class OddPointReport(NamedTuple):
    k: int
    l: int
    component: str
    count: int
    count_formula: int
    affine: int
    infinity: int
    case: str
    diagonal: Optional[int]     # k = l only: points on the r = t line


def _check(cond, msg):
    if not cond:
        raise AssertionError(msg)


def odd_point_report(k, l, component="whole", model=None, certificate=None):
    """Count the points where the cover-defining function has odd
    valuation: closed form and from-scratch root counting, asserted equal.

    `model` is D(k,l) and `certificate` its smoothness certificate, if
    the caller already built them; the certificate's infinity verdict is
    reused when it was made on the same model (k != l).
    """
    k, l, _sw = _swap_if_needed(k, l)
    if l % 2:
        raise ExactError("odd point count needs an even twist parameter")
    if model is None:
        model = d_model(k, l)
    if k * l == 0 or abs(k) == 1 or (k == l and abs(k) == 2):
        raise DegenerateModel(_degenerate_reason(model))
    if component not in ("whole", "D0", "D1"):
        raise ExactError("component must be whole, D0 or D1")
    if component != "whole" and k != l:
        raise ExactError("component split requires k = l")
    n = l // 2
    m = k // 2  # floor division on purpose: k = 2m or k = 2m+1
    if (certificate is not None and certificate.infinity is not None
            and certificate.target == model):
        inf_verdict = certificate.infinity
    else:
        inf_verdict = infinity_transversality(model)
    _check(inf_verdict.transversal,
           "infinity transversality failed for (%d,%d)" % (k, l))
    inf_count = (inf_verdict.r_line[0] + inf_verdict.t_line[0]
                 - (1 if inf_verdict.corner_on_curve else 0))

    if k % 2 == 0:
        a_const = 2 if m * n > 0 else 1
        case = "a=2 (mn>0)" if a_const == 2 else "a=1 (mn<0)"
        total_formula = 2 * abs(m * n) + 2 * abs(m) + 2 * abs(n) - 2 * a_const
        T = (_R ** 2 - 4) * f_poly(m, "r") ** 2 + 2
        Fc = (BiPoly.from_inner(g_poly(m, "r"), "t") * g_poly(n + 1, "t")
              - BiPoly.from_inner(g_poly(m + 1, "r"), "t") * g_poly(n, "t"))
        P = Fc.eval_outer(T)
        if not is_separable(P):
            raise ExactError("separability failure in the even-parameter "
                             "oracle at (%d,%d)" % (k, l))
        _check(P.degree == 2 * abs(m * n) + abs(m) + 1 - a_const,
               "oracle degree off at (%d,%d)" % (k, l))
        _check(P(2) == 0, "expected the r=2 root at (%d,%d)" % (k, l))
        fiber = g_poly(n + 1, "t") - g_poly(n, "t")
        _check(is_separable(fiber) and fiber.degree == abs(n)
               and fiber(2) == 0,
               "r=2 fiber structure off at (%d,%d)" % (k, l))
        affine = (P.degree - 1) + (abs(n) - 1)
        _check(inf_verdict.corner_on_curve == (m * n > 0),
               "corner membership should match the sign of mn")
        _check(inf_count == abs(m) + abs(n) + 1 - a_const,
               "infinity count off at (%d,%d)" % (k, l))
    else:
        if n > 0:
            a_const, case = 1, "a=1 (n>0)"
        elif m < 0:
            a_const, case = 2, "a=2 (m<0, n<0)"
        else:
            a_const, case = 0, "a=0 (n<0<m)"
        total_formula = abs(2 * m + 1) * abs(n) + abs(n) + 2 * abs(m) - 2 * a_const
        T = 2 - (_R + 2) * g_poly(m + 1, "r") ** 2
        Fc = (BiPoly.from_inner(f_poly(m, "r"), "t") * g_poly(n + 1, "t")
              - BiPoly.from_inner(f_poly(m + 1, "r"), "t") * g_poly(n, "t"))
        P = Fc.eval_outer(T)
        if not is_separable(P):
            raise ExactError("separability failure in the odd-parameter "
                             "oracle at (%d,%d)" % (k, l))
        _check(P.degree == abs(2 * m + 1) * abs(n) + abs(m) - a_const,
               "oracle degree off at (%d,%d); the lemma case table may not "
               "cover this sign pattern" % (k, l))
        affine = P.degree
        _check(inf_count == abs(m) + abs(n) - a_const,
               "infinity count off at (%d,%d)" % (k, l))

    total = affine + inf_count
    _check(total == total_formula,
           "odd point routes disagree at (%d,%d): %d vs %d"
           % (k, l, total, total_formula))
    _check(total % 2 == 0, "odd point count must be even at (%d,%d)" % (k, l))

    diagonal = None
    if k == l:
        # points on r = t: the corner plus the roots of (T - r)/(r - 2)
        TmR = T - _R
        _check(TmR(2) == 0, "T - r should vanish at r = 2")
        Q = TmR.divexact(UniPoly([-2, 1], "r"))
        _check(is_separable(Q) and Q(2) != 0,
               "diagonal root structure off at (%d,%d)" % (k, l))
        diagonal = Q.degree + 1   # corner exists since mn = n^2 > 0
        _check(diagonal == 2 * abs(n), "diagonal count should be 2|n|")

    if component == "whole":
        count = total
    elif component == "D0":
        count = diagonal
    else:
        count = total - diagonal
    return OddPointReport(k, l, component, count, total_formula, affine,
                          inf_count, case, diagonal)


def odd_point_count(k, l, component="whole"):
    return odd_point_report(k, l, component).count


# ---------------------------------------------------------------------------
# genus of the X-side components

class GenusXEntry(NamedTuple):
    component: str        # "X0" | "X1"
    genus_rh: int
    genus_formula: int
    odd_points: int


class GenusXReport(NamedTuple):
    k: int
    l: int
    entries: tuple


def genus_X(k, l, genus_y=None, odd_points=None):
    """Genus of the double-cover components: Riemann-Hurwitz route
    2 g(D) - 1 + a/2 against the closed form.

    `genus_y` is the `genus_Y` report and `odd_points` the whole
    `odd_point_report` of (k,l), if the caller already built them."""
    k, l, _sw = _swap_if_needed(k, l)
    gy = genus_y if genus_y is not None else genus_Y(k, l)
    k2, l2 = gy.k, gy.l
    rep = (odd_points if odd_points is not None
           else odd_point_report(k2, l2, "whole"))
    n = l2 // 2
    m = k2 // 2
    if k2 == l2:
        # D0 is the diagonal r = t; D1 carries the other odd points
        count0 = rep.diagonal
        count1 = rep.count - rep.diagonal
        g0_rh = 2 * 0 - 1 + count0 // 2
        g1_rh = 2 * gy.entries[1].genus_bidegree - 1 + count1 // 2
        g0_form = abs(n) - 1
        g1_form = 3 * n * n - 7 * abs(n) + 5
        entries = (GenusXEntry("X0", g0_rh, g0_form, count0),
                   GenusXEntry("X1", g1_rh, g1_form, count1))
    else:
        g_rh = 2 * gy.entries[0].genus_bidegree - 1 + rep.count // 2
        a = 4 if (k2 % 2 and k2 < 0) else 1
        if k2 % 2 and k2 < 0 < l2:
            b = 2
        elif k2 % 2 and l2 < 0:
            b = 1
        elif k2 % 2 == 0 and k2 * l2 > 0:
            b = -1
        else:
            b = 0
        g_form = 3 * abs(m * n) - abs(m) - a * abs(n) + b
        entries = (GenusXEntry("X0", g_rh, g_form, rep.count),)
    for e in entries:
        if e.genus_rh != e.genus_formula:
            raise AssertionError(
                "X-genus mismatch at (%d,%d) %s: %d vs %d"
                % (k2, l2, e.component, e.genus_rh, e.genus_formula))
    return GenusXReport(k2, l2, entries)
