"""Classical invariants of the double-twist knots: normal forms,
Alexander polynomial, fiberedness, trace-field data and the
commensurability certificate.  Each stage takes the artifacts it reads
as arguments; `report.Knot` composes them."""

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional

from .poly import (UniPoly, ExactError, NotSquarefree, factorint,
                   irreducibility_analysis)
from .seq import f_poly, phi, psi
from .curves import _swap_if_needed
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


def require_hyperbolic(k, l, stage):
    """Refuse J(k,l) unless it is hyperbolic: `stage`, named in the
    message, needs a hyperbolic knot."""
    cls = classify(k, l)
    if cls != HYPERBOLIC:
        raise ExactError("%s needs a hyperbolic knot, got %s" % (stage, cls))


def require_model(model, kind, stage):
    """Refuse `model` unless it is the `kind` model ("C" or "D") of a
    hyperbolic knot: `stage`, named in the message, reads it."""
    if model.kind != kind:
        raise ExactError("%s needs a %s model, got %s"
                         % (stage, kind, model.kind))
    require_hyperbolic(model.k, model.l, stage)


class KnotId(NamedTuple):
    k: int
    l: int
    moves: tuple          # normalization steps applied to the input


def normalize_knot(k, l):
    """Track the (k,l) -> (l,k) symmetry used to make l even."""
    k2, l2, swapped = _swap_if_needed(k, l)
    return KnotId(k2, l2, ("swap",) if swapped else ())


# ---------------------------------------------------------------------------
# two-bridge normal form

class TwoBridgeForm(NamedTuple):
    p: int
    q: int
    cont_frac: tuple

    def value(self):
        """q/p + eps, the number in (0,1] the continued fraction encodes."""
        return Fraction(self.q, self.p) + (1 if self.q < 0 else 0)


def _eps_value(p, q):
    """`TwoBridgeForm.value` as (num, den) in lowest terms."""
    return (q + p if q < 0 else q), p


def _cont_frac(num, den):
    """[a_1..a_s] with num/den = 1/(a_1 + 1/(a_2 + ...)) in (0,1], by
    Euclid's algorithm."""
    terms = []
    while num:
        a, rem = divmod(den, num)
        terms.append(a)
        num, den = rem, num
    return terms


def _cf_value(terms):
    """1/(a_1 + 1/(a_2 + ...)) as (num, den) from the convergents, in
    lowest terms with den > 0 when every term is positive."""
    num, den = 1, terms[-1]
    for a in reversed(terms[:-1]):
        num, den = den, a * den + num
    return num, den


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
    x = _eps_value(p, q)
    terms = _cont_frac(*x)
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


def fourplat_sequence(k, l, form):
    """Plat description of J(k,l) from the sign-pattern table; its
    continued-fraction value is checked against `form`, the normal form
    `two_bridge_params(k, l)`."""
    for test, build in _FOURPLAT_ROWS:
        if test(k, l):
            seq = build(k, l)
            if _cf_value(seq) != _eps_value(form.p, form.q):
                raise AssertionError(
                    "plat table value off at (%d,%d)" % (k, l))
            return seq
    raise ExactError("not covered by table")


# ---------------------------------------------------------------------------
# Alexander polynomial and fiberedness

def alexander(k, l):
    """Alexander polynomial, lowest exponent shifted to 0."""
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


def is_fibered(alexander_poly):
    """Fiberedness of a two-bridge knot from its Alexander polynomial:
    both extreme coefficients are units."""
    return abs(alexander_poly.lead) == abs(alexander_poly.coeff(0)) == 1


# ---------------------------------------------------------------------------
# trace field

def _degree_bound(k, l):
    """The bound on the trace-field degree of hyperbolic J(k,l), l even."""
    if k == l:
        return abs(l) - 1
    return -(k * l) // 2 if k * l < 0 else (k * l) // 2 - 1


def trace_field_poly(model):
    """The y = 2 slice of the model C(k,l) of a hyperbolic J(k,l) whose
    root generates the trace field; its degree is the bound.

    For k = l the slice is taken on the canonical component
    r = Phi_{-k}(r) Psi_k(r) (y - r) + 2 instead, with the spurious
    factor r - 2 removed."""
    require_model(model, "C", "trace-field polynomial")
    k, l = model.k, model.l
    if k == l:
        poly = phi(-k, "r") * psi(k, "r") + 1
    else:
        poly = model.equation.eval_outer(2)
    expected = _degree_bound(k, l)
    if poly.degree != expected:
        raise AssertionError("trace slice degree %s at (%d,%d), expected %d"
                             % (poly.degree, k, l, expected))
    return poly


class TraceFieldReport(NamedTuple):
    k: int
    l: int
    bound: int
    squarefree_degree: int
    analysis: object          # Irreducible | Reducible | Inconclusive
    empirical: dict


def trace_field_report(model):
    """Degree bound (the degree of the slice, which `trace_field_poly`
    asserts), squarefree degree and factor-degree evidence from the
    model C(k,l); the degree-equality observation is reported, never
    asserted.

    The prime loop of `irreducibility_analysis` proves the slice
    squarefree over Q at its first prime when that prime is good (p does
    not divide the leading coefficient and the slice is squarefree mod p,
    the lemma of `poly._squarefree_mod_p`); only when it is bad does
    `squarefree_part` run, once, and a slice that is not squarefree is
    analysed again as its squarefree part."""
    require_model(model, "C", "trace-field report")
    k2, l2 = model.k, model.l
    bound = _degree_bound(k2, l2)
    sf = trace_field_poly(model).primitive()
    try:
        analysis = irreducibility_analysis(sf)
    except NotSquarefree as e:
        sf = e.args[1]
        analysis = irreducibility_analysis(sf)
    observed = None
    if analysis.verdict == "irreducible" and sf.degree == bound:
        observed = True
    elif analysis.verdict == "reducible":
        observed = False
    empirical = {
        "statement": "trace field degree equals the bound",
        "equality_observed": observed,
        "note": "empirical observation only; nothing asserted",
    }
    return TraceFieldReport(k2, l2, bound, int(sf.degree), analysis,
                            empirical)


# ---------------------------------------------------------------------------
# commensurability

class CommensurabilityCertificate(NamedTuple):
    k: int
    l: int
    verdict: str              # "Fibered" | "NotCommensurable"
    witness: Optional[dict]


def commensurability_certificate(model, fibered):
    """Certificate that a nonfibered J(k,l) complement is not
    commensurable to a fibered knot complement: a nonintegral reducible
    character on the r = 2 slice of the model C(k,l), certified by exact
    valuations.  `fibered` is whether J(k,l) is fibered."""
    require_model(model, "C", "commensurability certificate")
    k, l = model.k, model.l
    if fibered:
        return CommensurabilityCertificate(k, l, "Fibered", None)
    n = l // 2
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
