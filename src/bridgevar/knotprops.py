"""Classical invariants of the double-twist knots: normal forms,
Alexander polynomial, fiberedness, trace-field data and the
commensurability certificate."""

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional

from .poly import (UniPoly, ExactError, factorint, irreducibility_analysis,
                   squarefree_part)
from .seq import f_poly, phi, psi
from .curves import c_model, _swap_if_needed
from .newton import INFINITY, polygon, poly_points, val_rat

UNKNOT = "Unknot"
TREFOIL = "Trefoil"
TORUS_NONHYPERBOLIC = "TorusNonHyperbolic"
HYPERBOLIC = "Hyperbolic"
NOT_A_KNOT = "NotAKnot"


def classify(k, l):
    """Coarse classification of J(k,l)."""
    if k % 2 and l % 2:
        return NOT_A_KNOT
    if k * l == 0:
        return UNKNOT
    if (k, l) in ((2, 2), (-2, -2)):
        return TREFOIL
    if abs(k) == 1 or abs(l) == 1:
        return TORUS_NONHYPERBOLIC
    return HYPERBOLIC


class KnotId(NamedTuple):
    k: int
    l: int
    normalized: bool      # l even (a knot, in the model-ready orientation)
    moves: tuple          # normalization steps applied to the input


def normalize_knot(k, l):
    """Track the (k,l) -> (l,k) symmetry used to make l even."""
    k2, l2, swapped = _swap_if_needed(k, l)
    return KnotId(k2, l2, l2 % 2 == 0, ("swap",) if swapped else ())


# ---------------------------------------------------------------------------
# two-bridge normal form

class TwoBridgeForm(NamedTuple):
    p: int
    q: int
    cont_frac: tuple

    def value(self):
        """q/p + eps, the number in (0,1] the continued fraction encodes."""
        return Fraction(self.q, self.p) + (1 if self.q < 0 else 0)


def _cont_frac(x):
    """[a_1..a_s] with x = 1/(a_1 + 1/(a_2 + ...)), x in (0,1]."""
    terms = []
    while x:
        inv = 1 / x
        a = inv.numerator // inv.denominator
        terms.append(a)
        x = inv - a
    return terms


def _cf_value(terms):
    acc = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        acc = a + 1 / acc
    return 1 / acc


def two_bridge_params(k, l):
    """The K(p,q) normal form of J(k,l): p = |1-kl|, q odd in (-p, p]
    with q/p = l/(1-kl) in Q/Z, and an odd-length positive continued
    fraction for q/p + eps."""
    if k * l == 0:
        raise ExactError("unknot has no normal form")
    if k % 2 and l % 2:
        raise ExactError("not a knot (kl odd)")
    den = 1 - k * l
    p = abs(den)
    if p == 1:
        return TwoBridgeForm(1, 1, (1,))
    c = (l if den > 0 else -l) % p
    q = c if c % 2 else c - p
    if gcd(q, p) != 1 or p % 2 == 0 or q % 2 == 0:
        raise AssertionError("two-bridge normalization broke at (%d,%d)" % (k, l))
    x = Fraction(q, p) + (1 if q < 0 else 0)
    terms = _cont_frac(x)
    if len(terms) % 2 == 0:
        if terms[-1] == 1:
            terms[-2] += 1
            terms.pop()
        else:
            terms[-1] -= 1
            terms.append(1)
    form = TwoBridgeForm(p, q, tuple(terms))
    if _cf_value(form.cont_frac) != x or len(form.cont_frac) % 2 == 0 \
            or min(form.cont_frac) < 1:
        raise AssertionError("continued fraction reconstruction failed")
    return form


_FOURPLAT_ROWS = (
    (lambda k, l: k > 2 and l > 2, lambda k, l: (1, k - 2, 1, l - 2, 1)),
    # the first row with its zero term folded away: (1, 0, 1, l-2, 1)
    # and (1, k-2, 1, 0, 1) collapse to these
    (lambda k, l: k == 2 and l > 2, lambda k, l: (2, l - 2, 1)),
    (lambda k, l: k > 2 and l == 2, lambda k, l: (1, k - 2, 2)),
    (lambda k, l: k > 1 and l < 0, lambda k, l: (1, k - 1, -l)),
    (lambda k, l: k < 0 and l > 1, lambda k, l: (-k, l - 1, 1)),
    (lambda k, l: k < -1 and l < -1, lambda k, l: (-k - 1, 1, -l - 1)),
)


def fourplat_sequence(k, l, form=None):
    """Plat description of J(k,l) from the sign-pattern table; its
    continued-fraction value is checked against the normal form `form`
    (computed when not given)."""
    for test, build in _FOURPLAT_ROWS:
        if test(k, l):
            seq = build(k, l)
            if form is None:
                form = two_bridge_params(k, l)
            if _cf_value(seq) != form.value():
                raise AssertionError(
                    "plat table value off at (%d,%d)" % (k, l))
            return seq
    raise ExactError("not covered by table")


# ---------------------------------------------------------------------------
# Alexander polynomial and fiberedness

def alexander(k, l):
    """Alexander polynomial, lowest exponent normalized to 0."""
    k, l, _sw = _swap_if_needed(k, l)
    if k % 2 and l % 2:
        raise ExactError("not a knot (kl odd)")
    if k * l == 0:
        raise ExactError("alexander needs kl != 0")
    n = l // 2
    if k % 2 == 0:
        m = k // 2
        coeffs = [n * m, 1 - 2 * n * m, n * m]
    else:
        m = (k - 1) // 2
        top = 2 * abs(n)
        end = m if l > 0 else m + 1
        coeffs = [end] + [(1 + 2 * m) * (-1) ** i for i in range(1, top)] + [end]
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    poly = UniPoly(coeffs, "t")
    if abs(poly(1)) != 1:
        raise AssertionError("Alexander polynomial must evaluate to a unit at 1")
    return poly


def is_fibered(k, l, poly=None):
    """Monic Alexander polynomial (both extreme coefficients units);
    `poly` is the Alexander polynomial, if the caller already has it."""
    if k * l == 0:
        return True
    a = poly if poly is not None else alexander(k, l)
    return abs(a.lead) == 1 and abs(a.coeff(0)) == 1


# ---------------------------------------------------------------------------
# trace field

def trace_field_poly(k, l, canonical=False, model=None):
    """The y = 2 slice whose root generates the trace field.

    For k = l with canonical=True the slice is taken on the canonical
    component r = Phi_{-k}(r) Psi_k(r) (y - r) + 2 instead, with the
    spurious factor r - 2 removed.  `model` is C(k,l), if the caller
    already built it."""
    k, l, _sw = _swap_if_needed(k, l)
    if k % 2 and l % 2:
        raise ExactError("not a knot (kl odd)")
    if k * l == 0:
        raise ExactError("trace field needs kl != 0")
    if canonical and k == l:
        poly = phi(-k, "r") * psi(k, "r") + 1
        expected = abs(l) - 1
    else:
        if model is None:
            model = c_model(k, l)
        poly = model.equation.eval_outer(2)
        expected = -(k * l) // 2 if k * l < 0 else (k * l) // 2 - 1
    if poly.degree != expected:
        raise AssertionError("trace slice degree %s at (%d,%d), expected %d"
                             % (poly.degree, k, l, expected))
    return poly


class TraceFieldReport(NamedTuple):
    k: int
    l: int
    bound: int
    poly_degree: int
    squarefree_degree: int
    analysis: object          # Irreducible | Reducible | Inconclusive
    empirical: dict


def trace_field_report(k, l, model=None):
    """Degree bound, exact slice degree, and factor-degree evidence;
    the degree-equality observation is reported, never asserted.
    `model` is C(k,l), if the caller already built it."""
    cls = classify(k, l)
    if cls != HYPERBOLIC:
        raise ExactError("trace-field report needs a hyperbolic knot, got %s"
                         % cls)
    k2, l2, _sw = _swap_if_needed(k, l)
    if k2 * l2 < 0:
        bound = -(k2 * l2) // 2
    elif k2 == l2:
        bound = abs(l2) - 1
    else:
        bound = (k2 * l2) // 2 - 1
    poly = trace_field_poly(k2, l2, canonical=True, model=model)
    sf = squarefree_part(poly)
    analysis = irreducibility_analysis(sf)
    observed = None
    if analysis.verdict == "irreducible" and sf.degree == poly.degree == bound:
        observed = True
    elif analysis.verdict == "reducible":
        observed = False
    empirical = {
        "statement": "trace field degree equals the bound",
        "equality_observed": observed,
        "note": "empirical observation only; nothing asserted",
    }
    return TraceFieldReport(k2, l2, bound, int(poly.degree), int(sf.degree),
                            analysis, empirical)


# ---------------------------------------------------------------------------
# commensurability

class CommensurabilityCertificate(NamedTuple):
    k: int
    l: int
    verdict: str              # "Fibered" | "NotCommensurable"
    witness: Optional[dict]


def commensurability_certificate(k, l, model=None, fibered=None):
    """Certificate that a nonfibered J(k,l) complement is not
    commensurable to a fibered knot complement: a nonintegral reducible
    character on the r = 2 slice of C(k,l), certified by exact
    valuations.  `model` is C(k,l) and `fibered` the value of
    `is_fibered(k, l)`, if the caller already has them."""
    cls = classify(k, l)
    if cls != HYPERBOLIC:
        raise ExactError(
            "commensurability certificate needs a hyperbolic knot, got %s"
            % cls)
    if fibered is None:
        fibered = is_fibered(k, l)
    k, l, _sw = _swap_if_needed(k, l)
    if fibered:
        return CommensurabilityCertificate(k, l, "Fibered", None)
    n = l // 2
    if model is None:
        model = c_model(k, l)
    slice_eq = model.equation.eval_inner(2)
    if k % 2 == 0:
        m = k // 2
        y0 = 2 - Fraction(1, m * n)
        prime = min(factorint(abs(m * n)))
        valuation = val_rat(y0 - 2, prime)
        if not valuation < 0:
            raise AssertionError("witness valuation should be negative")
        if not valuation == -val_rat(m * n, prime):
            raise AssertionError("valuation should be -v_p(mn)")
        if slice_eq(y0) != 0:
            raise AssertionError("witness point is not on the curve")
        witness = {"type": "reducible-point", "r": "2", "y": str(y0),
                   "prime": prime, "valuation": str(valuation)}
    else:
        m = (k - 1) // 2
        F = (m * f_poly(n + 1, "t") - k * f_poly(n, "t")
             + (m + 1) * f_poly(n - 1, "t"))
        lead, const = F.lead, F.coeff(0)
        if lead != (m if l > 0 else -(m + 1)):
            raise AssertionError("leading term off in the reducible slice")
        if abs(const) != (1 if n % 2 == 0 else abs(k)):
            raise AssertionError("constant term off in the reducible slice")
        if gcd(lead, const) != 1:
            raise AssertionError("extreme terms should be coprime")
        if abs(lead) == 1:
            raise AssertionError("nonfibered odd case must have |lead| > 1")
        # exact cross-check: the r = 2 slice of the model is F itself
        if slice_eq.relabel("t").primitive() != F.primitive():
            raise AssertionError("slice polynomial disagrees with F")
        prime = min(factorint(abs(lead)))
        vals = polygon(poly_points(F, prime)).root_valuations()
        neg = [(str(v), c) for v, c in vals if v != INFINITY and v < 0]
        if not neg:
            raise AssertionError("Newton polygon shows no nonintegral root")
        witness = {"type": "newton", "poly": str(F), "prime": prime,
                   "lead": lead, "constant": const,
                   "negative_valuations": neg}
    return CommensurabilityCertificate(k, l, "NotCommensurable", witness)
