"""Curve models.

Three affine models of the same character variety:

* C(k, l)  in (r, y): the standard model, equation
             f_n(t)*(Phi_{-k}(r) Phi_{k-1}(r)(y-r) - 1) + f_{n-1}(t) = 0
             with n = l/2 and t the trace of W_k.
* X-model  in (r, x): the double cover, y = x^2 - 2 substituted.
* D(k, l)  in (r, t): Phi_{k+1}(r) Phi_{l-1}(t) - Phi_{k-1}(r) Phi_{l+1}(t),
             identically equal to Psi_k(r) Phi_{l-1}(t) - Phi_{k-1}(r) Psi_l(t).

Degenerate shapes (empty, the full plane, finite unions of lines) are
explicit states on the model, not errors; the geometry layer refuses
them with typed verdicts.  Equations are stored primitive with the sign
chosen so the lexicographically leading monomial (r counted highest) has
a positive coefficient.
"""

from fractions import Fraction
from typing import NamedTuple, Optional

from .poly import UniPoly, BiPoly, ExactError, poly_gcd, rational_roots
from .seq import f_poly, phi, psi
from .riley import riley_poly_J, trace_wk

_R = UniPoly.gen("r")

STATE_CURVE = "curve"
STATE_EMPTY = "empty"
STATE_FULL_PLANE = "full-plane"
STATE_LINE_UNION = "line-union"


class CurveModel(NamedTuple):
    kind: str                 # C, X, D, D0, D1
    k: int
    l: int
    equation: BiPoly
    vars: tuple               # (r, y) / (r, x) / (r, t)
    bidegree: Optional[tuple]  # (deg_r, deg_t), D-kinds only
    state: str = STATE_CURVE
    swapped: bool = False
    notes: tuple = ()

    def to_dict(self):
        return {
            "kind": self.kind,
            "k": self.k,
            "l": self.l,
            "vars": list(self.vars),
            "bidegree": list(self.bidegree) if self.bidegree else None,
            "state": self.state,
            "equation": str(self.equation),
            "swapped": self.swapped,
            "notes": list(self.notes),
        }


def _normalize(eq):
    """Primitive, and sign fixed by the r-major lexicographic leader."""
    if eq.is_zero:
        return eq
    f = eq.primitive()
    best = None
    for j, c in enumerate(f.cs):
        if c.is_zero:
            continue
        i = c.degree
        if best is None or (i, j) > best[0]:
            best = ((i, j), c.lead)
    if best[1] < 0:
        f = -f
    return f


def _swap_if_needed(k, l):
    """(k, l, swapped): swap when l is odd and k is even."""
    if l % 2 and k % 2 == 0:
        return l, k, True
    return k, l, False


def c_model(k, l):
    """The standard model C(k, l) in (r, y).  l must be even, possibly
    after swapping the arguments."""
    k, l, swapped = _swap_if_needed(k, l)
    if l % 2:
        raise ExactError("C(k,l) needs an even twist parameter; "
                         "got k=%d, l=%d with both odd" % (k, l))
    n = l // 2
    raw = -riley_poly_J(k, n)
    eq = _normalize(raw)
    state = STATE_EMPTY if k * l == 0 else STATE_CURVE
    return CurveModel("C", k, l, eq, ("r", "y"), None, state, swapped)


def x_model(k, l):
    """The double cover of C(k, l) in (r, x), via y = x^2 - 2."""
    base = c_model(k, l)
    sub = BiPoly([UniPoly.const(-2, "r"), UniPoly.zero("r"),
                  UniPoly.const(1, "r")], "x", "r")
    eq = _normalize(base.equation.eval_outer(sub))
    return CurveModel("X", base.k, base.l, eq, ("r", "x"), None,
                      base.state, base.swapped)


def d_model(k, l):
    """The model D(k, l) in (r, t) with smooth projective closure."""
    k, l, swapped = _swap_if_needed(k, l)
    new = (BiPoly.from_inner(phi(k + 1, "r"), "t") * phi(l - 1, "t")
           - BiPoly.from_inner(phi(k - 1, "r"), "t") * phi(l + 1, "t"))
    alt = (BiPoly.from_inner(psi(k, "r"), "t") * phi(l - 1, "t")
           - BiPoly.from_inner(phi(k - 1, "r"), "t") * psi(l, "t"))
    if new != alt:
        raise AssertionError("the two defining forms of D(%d,%d) differ" % (k, l))
    eq = _normalize(new)
    notes = []
    if eq.is_zero:
        return CurveModel("D", k, l, eq, ("r", "t"), (0, 0),
                          STATE_FULL_PLANE, swapped)
    a = int(eq.degree_inner)
    b = int(eq.degree_outer)
    if a == 0 and b == 0:
        state = STATE_EMPTY
    elif a == 0 or b == 0:
        state = STATE_LINE_UNION
    elif k == l and k in (2, -2):
        state = STATE_LINE_UNION
    else:
        state = STATE_CURVE
    if l % 2 == 0 and state in (STATE_CURVE, STATE_LINE_UNION):
        n = l // 2
        if k in (1, -1):
            expect = (0, k * n - 1) if k * n > 0 else (0, -k * n)
        else:
            expect = (abs(k) // 2, abs(n))
        if (a, b) != expect:
            raise AssertionError(
                "D(%d,%d) bidegree (%d,%d) != expected %s" % (k, l, a, b, expect))
    elif l % 2 and state in (STATE_CURVE, STATE_LINE_UNION):
        notes.append("bidegree formula not applicable (odd twist)")
    return CurveModel("D", k, l, eq, ("r", "t"), (a, b), state, swapped,
                      tuple(notes))


def d_split(l, model=None):
    """Split D(l, l) into the diagonal D0 and the residual curve D1
    by exact division by (t - r).  `model` is D(l, l), if the caller
    already built it."""
    if l % 2 or l == 0:
        raise ExactError("d_split needs a nonzero even parameter, got %r" % (l,))
    base = model if model is not None else d_model(l, l)
    diag = BiPoly([-_R, UniPoly.const(1, "r")], "t", "r")  # t - r
    from .poly import bipoly_divexact
    try:
        quot = bipoly_divexact(base.equation, diag)
    except ExactError as exc:
        raise AssertionError(
            "D(%d,%d) is not divisible by t - r" % (l, l)) from exc
    d0 = CurveModel("D0", l, l, _normalize(diag), ("r", "t"), (1, 1),
                    STATE_CURVE)
    eq1 = _normalize(quot)
    if eq1.is_zero:
        raise AssertionError("zero quotient in d_split(%d)" % l)
    a = int(eq1.degree_inner)
    b = int(eq1.degree_outer)
    n = abs(l) // 2
    if (a, b) != (n - 1, n - 1):
        raise AssertionError(
            "D1(%d,%d) bidegree (%d,%d) != (%d,%d)" % (l, l, a, b, n - 1, n - 1))
    state = STATE_EMPTY if (a, b) == (0, 0) else STATE_CURVE
    d1 = CurveModel("D1", l, l, eq1, ("r", "t"), (a, b), state)
    return d0, d1


# ---------------------------------------------------------------------------
# the birational map sigma between the models

def sigma_push(k, l, point):
    """(r0, y0) on C(k,l)  ->  (r0, t0) with t0 = tr W_k at the point."""
    r0, y0 = Fraction(point[0]), Fraction(point[1])
    t0 = Fraction(phi(-k, "r")(r0)) * psi(k, "r")(r0) * (y0 - r0) + 2
    return (r0, t0)


def sigma_pull(k, l, point):
    """(r0, t0)  ->  (r0, y0); defined only where Phi_{-k} Psi_k != 0."""
    r0, t0 = Fraction(point[0]), Fraction(point[1])
    mk = phi(-k, "r")(r0)
    pk = psi(k, "r")(r0)
    if mk == 0 or pk == 0:
        raise ExactError(
            "indeterminate locus: Phi_{-k}(r0) Psi_k(r0) = 0 at r0 = %s" % (r0,))
    return (r0, r0 + (t0 - 2) / (Fraction(mk) * pk))


def sigma_containment_check(k, l):
    """Certify sigma(C(k,l)) lies on D(k,l) as a polynomial identity:
    the pullback D(r, tr W_k(r,y)) has pseudo-remainder 0 mod the
    C-equation (division in y over Z[r])."""
    from .poly import _prem
    cm = c_model(k, l)
    dm = d_model(cm.k, cm.l)
    if cm.state != STATE_CURVE:
        return dm.state in (STATE_EMPTY, STATE_CURVE, STATE_LINE_UNION)
    pullback = dm.equation.eval_outer(trace_wk(cm.k))
    if pullback.is_zero:
        return True
    rem = _prem(list(pullback.cs), list(cm.equation.cs))
    return not rem


# ---------------------------------------------------------------------------
# special points

class SpecialPointsReport(NamedTuple):
    k: int
    l: int
    c_point: Optional[tuple]   # (2, 2-4/(kl)) for even k, None for odd
    checks: tuple              # (name, ok) pairs
    instances: tuple           # human-readable confirmations at rational roots

    @property
    def ok(self):
        return all(ok for _name, ok in self.checks)


def _divisible_all_y_coeffs(F, d):
    """Does d (UniPoly in r) divide every outer-coefficient of F?"""
    for c in F.cs:
        _q, rem = c.divmod_q(d)
        if not rem.is_zero:
            return False
    return True


def special_points_check(k, l):
    """Exact verification of the special-point structure of C and D.

    C side: the only point of C(k,l) with Psi_k(r)=0 is (2, 2-4/(kl)),
    and only when k is even.  D side: on D(k,l), Psi_k(r0)=0 and
    Psi_l(t0)=0 imply each other.  Both are certified by polynomial
    identities (valid over any field), and demonstrated concretely at
    the rational roots.
    """
    k, l, _sw = _swap_if_needed(k, l)
    if k * l == 0:
        raise ExactError("special points need kl != 0")
    if l % 2:
        raise ExactError("special points need an even twist parameter")
    n = l // 2
    checks = []
    instances = []

    raw = -riley_poly_J(k, n)           # the C(k,l) equation, unnormalized
    psi_k = psi(k, "r")
    phi_mk = phi(-k, "r")
    phi_km1 = phi(k - 1, "r")
    y_minus_r = BiPoly([-_R, UniPoly.const(1, "r")], "y", "r")
    # C-equation mod Psi_k(r) reduces to n*Phi_{-k}Phi_{k-1}(y-r) - 1
    reduced = BiPoly.from_inner(n * phi_mk * phi_km1, "y") * y_minus_r - 1
    checks.append(("c-reduction-mod-psi",
                   _divisible_all_y_coeffs(raw - reduced, psi_k)))

    if k % 2 == 0:
        # Psi_k = (r-2) * (-Phi_{-k}): the roots split into r=2 and
        # the roots of Phi_{-k}, where the reduced equation forces -1 = 0.
        checks.append(("psi-even-factorization",
                       psi_k + (_R - 2) * phi_mk == 0))
        y0 = Fraction(2) - Fraction(4, k * l)
        c_point = (Fraction(2), y0)
        checks.append(("phi-neg-k-at-2-nonzero", phi_mk(2) == Fraction(-k, 2)))
        lin = n * phi_mk(2) * phi_km1(2)
        checks.append(("unique-solution-at-r-2",
                       lin != 0 and lin * (y0 - 2) - 1 == 0))
        checks.append(("point-on-curve", raw.eval_point(c_point[0], y0) == 0))
        instances.append("C(%d,%d) contains (2, %s)" % (k, l, y0))
    else:
        # Psi_k = Phi_{-k} identically, so every root kills the linear
        # term of the reduced equation, leaving -1: no points at all.
        c_point = None
        checks.append(("psi-odd-equals-phi-neg", psi_k == phi_mk))
        checks.append(("c-constant-mod-psi",
                       _divisible_all_y_coeffs(raw + 1, psi_k)))
        instances.append("C(%d,%d): no point with Psi_k(r)=0 (k odd)" % (k, l))

    # D side: the alternate form shows (1) => (2),(3); the unit-ideal
    # gcds give the converses.
    psi_l = psi(l, "r").relabel("t")
    new = (BiPoly.from_inner(phi(k + 1, "r"), "t") * phi(l - 1, "t")
           - BiPoly.from_inner(phi(k - 1, "r"), "t") * phi(l + 1, "t"))
    alt = (BiPoly.from_inner(psi_k, "t") * phi(l - 1, "t")
           - BiPoly.from_inner(phi_km1, "t") * psi(l, "t"))
    checks.append(("d-alternate-form", new == alt))
    checks.append(("gcd-psi-k-phi-k-minus-1",
                   poly_gcd(psi_k, phi_km1).degree == 0))
    checks.append(("gcd-psi-l-phi-l-minus-1",
                   poly_gcd(psi(l), phi(l - 1)).degree == 0))
    r_roots = [root for root, _m in rational_roots(psi_k)]
    t_roots = [root for root, _m in rational_roots(psi_l)]
    for r0 in r_roots:
        for t0 in t_roots:
            on_d = new.eval_point(r0, t0) == 0
            checks.append(("d-point-instance", on_d))
            if on_d:
                instances.append("D(%d,%d) contains (%s, %s)" % (k, l, r0, t0))
    return SpecialPointsReport(k, l, c_point, tuple(checks), tuple(instances))
