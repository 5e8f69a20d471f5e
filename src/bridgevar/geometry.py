"""Smoothness certificates, component counts and genus computations.

Everything here is certified exactly, by elimination or by counting:

* affine smoothness: the resultants Res_t(F, F_t) and Res_t(F, F_r)
  both lie in the elimination ideal, so a constant gcd proves the
  affine singular locus empty.  The proof runs modulo one 61-bit prime
  (`modular_smoothness_trace`, whose trace is the witness); a curve no
  listed prime proves smooth is an invariant failure, not a verdict.
* smoothness at infinity: a line of bidegree (1,0) meets a curve of
  bidegree (a,b) in exactly b points counted with multiplicity, so
  finding b distinct points proves every one of them is a transversal
  smooth crossing.  Distinct-point counts are degrees of squarefree
  parts -- no numerics.  So the candidates for a singular point on a
  line, gcd(gcd(A, A'), B) with B the next coefficient, are never
  computed here, nor is the corner (inf, inf) tested on its own: it is
  one of the points counted on both lines, and a singular corner meets
  each with multiplicity at least 2, so a count falls short.
  `test_singular_candidates_at_infinity_are_constant` in
  tests/test_geometry.py recomputes both as an oracle.
* genus: bidegree route (a-1)(b-1) against the closed forms, and the
  X-cover via the odd-valuation point count a and g = 2g(D) - 1 + a/2.

Each stage takes the artifacts it reads as arguments; `report.Knot`
builds them once per knot.  `smoothness_certificate` and
`odd_point_report` refuse any model but D(k,l) of a hyperbolic J(k,l)
through `knotprops.require_model`; the stages that take a certificate
need no check of their own.
"""

from typing import NamedTuple, Optional

from .kernels import poly_gcd_p
from .poly import (UniPoly, ExactError, poly_gcd, resultant,
                   resultant_mod_p, squarefree_part, is_separable)
from .seq import f_poly, g_poly, delta, big_g
from .knotprops import require_model

_R = UniPoly.gen("r")


# ---------------------------------------------------------------------------
# affine singular locus

# The primes of the modular certificate, tried in this order.
CERTIFICATE_PRIMES = (2 ** 61 - 1, 2 ** 61 - 31, 2 ** 61 - 45)


def affine_singular_locus(F, delta_r=None):
    """Proof that the affine curve F = 0 has no singular point.

    Returns the `modular_smoothness_trace` witness dict, sharpened by
    the filter delta_r = Delta_k(r) when given.  F must have positive
    degree in both variables and be reduced, or ExactError is raised; a
    curve that no prime of `CERTIFICATE_PRIMES` proves smooth, singular
    or not, raises AssertionError.
    """
    if not _positive_bidegree(F):
        raise ExactError("affine_singular_locus needs a polynomial of "
                         "positive degree in both variables, got %s" % F)
    cont = F.content_inner()
    if cont.degree > 0 and not is_separable(cont):
        raise ExactError("non-reduced input: repeated factor %s" % cont)
    trace = modular_smoothness_trace(F, delta_r)
    if trace is not None:
        return trace
    # In characteristic 0, Res_t(F, F_t) = 0 exactly when F has a repeated
    # factor of positive t-degree; repeated factors in r alone divide the
    # content, checked above.
    if resultant(F, F.deriv_outer()).is_zero:
        raise ExactError("non-reduced input: Res_t(F, F_t) = 0")
    raise AssertionError("no prime of CERTIFICATE_PRIMES proves %s = 0 "
                         "smooth" % F)


def _positive_bidegree(F):
    """Is the degree of F positive in both variables?  (The degrees of
    the zero polynomial are -inf.)"""
    return F.degree_inner >= 1 and F.degree_outer >= 1


def modular_smoothness_trace(F, delta_r=None):
    """The witness that F = 0 has no affine singular point, from the
    resultants mod one prime of `CERTIFICATE_PRIMES`, or None when no
    listed prime gives a proof.

    F has positive degree in both variables, integer coefficients and a
    separable content.  Let G be the gcd over Q of R1 = Res_t(F, F_t),
    R2 = Res_t(F, F_r) and, when given, the filter delta_r = Delta_k(r).
    Every singular point has its r-coordinate among the roots of G, so a
    constant G proves the locus empty.  Taking G primitive, G divides
    each of them in Z[r] (Gauss), so lc(G) divides lc(delta_r) and
    lc(R1).  Hence G mod p keeps the degree of G when p does not divide
    lc(delta_r), or when R1 mod p reaches the Sylvester bound on deg R1
    (then lc(R1) is nonzero mod p).  In either case G mod p divides the
    gcd mod p of the eliminants computed, so a constant gcd mod p proves
    G constant.
    R2 is computed only when the gcd of the others is not constant.
    A zero R1 mod p proves nothing; `affine_singular_locus` rejects
    R1 = 0.

    `resultant_mod_p` computes R1 and R2 mod p by one of its two routes:
    one integer resultant at r = 2**B, with B from Hadamard's bound
    (Kronecker substitution), below its measured gate, and evaluation
    at r = 0, 1, ..., bound with interpolation past it.  Both give the
    same coefficients, so the trace and its re-check from the JSON do
    not depend on the route.

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


# ---------------------------------------------------------------------------
# behaviour at infinity

class InfinityVerdict(NamedTuple):
    transversal: bool
    r_line: tuple          # (distinct points found, required)
    t_line: tuple
    corner_on_curve: bool
    witnesses: tuple


def infinity_transversality(model):
    """Certify that both lines at infinity meet the closure of the model
    transversally in smooth points, by exact distinct-point counting."""
    F = model.equation
    if model.kind not in ("D", "D0", "D1") or not _positive_bidegree(F):
        raise ExactError("infinity check needs a D-family model of positive "
                         "bidegree, got %s: %s" % (model.kind, F))
    a, b = int(F.degree_inner), int(F.degree_outer)
    # chart u = 1/r: the line u=0; F restricted there is A(t), the r-leading
    # profile.  chart v = 1/t: same with the roles swapped.
    A = UniPoly([c.coeff(a) for c in F.cs], F.outer)
    C = F.cs[b]
    corner = A.degree < b  # the (r,t) = (inf, inf) point lies on the curve
    witnesses = []
    r_count = squarefree_part(A).degree + (1 if corner else 0)
    t_count = squarefree_part(C).degree + (1 if corner else 0)
    if r_count != b:
        witnesses.append({"line": "r=infinity", "found": r_count, "required": b})
    if t_count != a:
        witnesses.append({"line": "t=infinity", "found": t_count, "required": a})
    return InfinityVerdict(not witnesses, (r_count, b), (t_count, a),
                           corner, tuple(witnesses))


# ---------------------------------------------------------------------------
# the combined certificate

class SmoothnessCertificate(NamedTuple):
    target: object                 # CurveModel actually certified
    affine: dict                   # the `affine_singular_locus` proof
    infinity: InfinityVerdict
    d0d1: Optional[dict]           # k = l: intersection of the components
    method: dict

    @property
    def smooth(self):
        # a certificate is made only once the affine part is proved smooth
        return self.infinity.transversal


def smoothness_certificate(model, split):
    """Smoothness of the model D(k,l) of a hyperbolic J(k,l), or of
    D1(l,l) when k = l, with the D0/D1 intersection points reported
    separately in the equal case.

    `split` is `d_split(model)` when k = l, and None otherwise."""
    require_model(model, "D", "smoothness certificate")
    k2, l2 = model.k, model.l
    if k2 == l2:
        _d0, d1 = split
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
        for fact in ("matches_big_g", "separable", "on_diagonal"):
            _check(d0d1[fact], "D0/D1 intersection of (%d,%d): %s is false"
                   % (k2, l2, fact))
        method = {"split": "D0 * D1", "d1_bidegree": list(d1.bidegree)}
        return SmoothnessCertificate(d1, aff, inf, d0d1, method)
    aff = affine_singular_locus(model.equation, delta(k2))
    inf = infinity_transversality(model)
    method = {"delta_filter": ["Delta_%d(r)" % k2],
              "bidegree": list(model.bidegree)}
    return SmoothnessCertificate(model, aff, inf, None, method)


# ---------------------------------------------------------------------------
# components

def component_count(cert):
    """From the smoothness certificate `cert` of J(k,l): 1 for k != l,
    2 for k = l."""
    target = cert.target      # D(k,l), or D1(l,l) when k = l
    if not cert.smooth:
        raise AssertionError(
            "component count needs the smoothness certificate; it failed "
            "for (%d, %d)" % (target.k, target.l))
    return 2 if target.k == target.l else 1


# ---------------------------------------------------------------------------
# genus of the Y-side components

class GenusYEntry(NamedTuple):
    component: str          # "whole" | "D0" | "D1"
    genus_bidegree: int
    genus_formula: int
    # min(bidegree) <= 2: a projection of degree <= 2 to P^1, so true for
    # every component of genus 0 or 1 as well
    hyperelliptic: bool


class GenusYReport(NamedTuple):
    k: int
    l: int
    entries: tuple


def genus_Y(cert):
    """Genus of the model `cert` proves smooth: bidegree and closed form."""
    if not cert.smooth:
        raise AssertionError("genus requested without a smoothness proof")
    k2, l2 = cert.target.k, cert.target.l
    a, b = cert.target.bidegree
    g_bi = (a - 1) * (b - 1)
    if k2 == l2:
        g_form = (abs(l2) // 2 - 2) ** 2
    else:
        g_form = (abs(k2) // 2 - 1) * (abs(l2) // 2 - 1)
    if g_bi != g_form:
        raise AssertionError(
            "genus mismatch for (%d,%d): bidegree %d vs formula %d"
            % (k2, l2, g_bi, g_form))
    # (component, bidegree, genus by bidegree, genus by formula); D0 is
    # the line r = t
    parts = ((("D0", (1, 1), 0, 0), ("D1", (a, b), g_bi, g_form))
             if k2 == l2 else (("whole", (a, b), g_bi, g_form),))
    return GenusYReport(k2, l2, tuple(
        GenusYEntry(name, g1, g2, min(bidegree) <= 2)
        for name, bidegree, g1, g2 in parts))


# ---------------------------------------------------------------------------
# odd-valuation points of the halving function

class OddPointReport(NamedTuple):
    k: int
    l: int
    count: int
    count_formula: int
    affine: int
    infinity: int
    case: str
    diagonal: Optional[int]     # k = l only: points on the r = t line


def _check(cond, msg):
    if not cond:
        raise AssertionError(msg)


def odd_point_report(model, certificate):
    """Count the points of the model D(k,l) of a hyperbolic J(k,l) where
    the cover-defining function has odd valuation: closed form and
    from-scratch root counting, asserted equal.  The root counts read the
    model's own equation at t = T(r) and, for even k, at r = 2; they do
    not depend on its sign.  The infinity verdict of `certificate`, the
    model's smoothness certificate, is reused when it was made on the
    model itself (k != l).
    """
    require_model(model, "D", "odd point count")
    k, l = model.k, model.l
    n = l // 2
    m = k // 2  # floor division on purpose: k = 2m or k = 2m+1
    if certificate.target is model:
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
        P = model.equation.eval_outer(T)
        _check(is_separable(P), "separability failure in the even-parameter "
               "oracle at (%d,%d)" % (k, l))
        _check(P.degree == 2 * abs(m * n) + abs(m) + 1 - a_const,
               "oracle degree off at (%d,%d)" % (k, l))
        _check(P(2) == 0, "expected the r=2 root at (%d,%d)" % (k, l))
        fiber = model.equation.eval_inner(2)
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
        P = model.equation.eval_outer(T)
        _check(is_separable(P), "separability failure in the odd-parameter "
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

    return OddPointReport(k, l, total, total_formula, affine, inf_count,
                          case, diagonal)


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


def genus_X(genus_y, odd_points):
    """Genus of the double-cover components: Riemann-Hurwitz route
    2 g(D) - 1 + a/2 against the closed form.

    `genus_y` is the `genus_Y` report and `odd_points` the
    `odd_point_report` of the same knot."""
    k2, l2 = genus_y.k, genus_y.l
    n = l2 // 2
    m = k2 // 2
    if k2 == l2:
        # D0 is the diagonal r = t; D1 carries the other odd points
        count0 = odd_points.diagonal
        count1 = odd_points.count - odd_points.diagonal
        g0_rh = 2 * 0 - 1 + count0 // 2
        g1_rh = 2 * genus_y.entries[1].genus_bidegree - 1 + count1 // 2
        g0_form = abs(n) - 1
        g1_form = 3 * n * n - 7 * abs(n) + 5
        entries = (GenusXEntry("X0", g0_rh, g0_form, count0),
                   GenusXEntry("X1", g1_rh, g1_form, count1))
    else:
        g_rh = (2 * genus_y.entries[0].genus_bidegree - 1
                + odd_points.count // 2)
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
        entries = (GenusXEntry("X0", g_rh, g_form, odd_points.count),)
    for e in entries:
        if e.genus_rh != e.genus_formula:
            raise AssertionError(
                "X-genus mismatch at (%d,%d) %s: %d vs %d"
                % (k2, l2, e.component, e.genus_rh, e.genus_formula))
    return GenusXReport(k2, l2, entries)
