"""The birational map sigma between the curve models C and D, and the
special points of both: exact checks that no command runs, kept as the
oracle of the models in `bridgevar.curves`.

* `trace_wk` is the closed form tr W_k = Phi_{-k} Psi_k (y - r) + 2 as
  a BiPoly.  It reads `riley._trace_coeffs` through the module, so a
  defect planted there reaches this oracle too.
* `x_model` is the double cover of C(k, l) in (r, x), via y = x^2 - 2.
* `sigma_push` and `sigma_pull` map single rational points between C
  and D; `sigma_containment_check` certifies sigma(C) in D as a
  polynomial identity.
* `special_points_check` certifies where Psi_k(r) = 0 meets C and D.
* `normalize_oracle` makes an equation primitive with the sign of its
  r-major leader, as the models are stored, by a scan of every term.
"""

from fractions import Fraction
from typing import NamedTuple, Optional

from bridgevar import riley
from bridgevar.curves import CurveModel, _swap_if_needed, c_model, d_model
from bridgevar.poly import (BiPoly, ExactError, UniPoly, _prem, poly_gcd,
                            rational_roots)
from bridgevar.seq import phi, psi

_R = UniPoly.gen("r")


def normalize_oracle(eq):
    """Primitive, and the sign fixed by the r-major lexicographic leader,
    found by a scan of every nonzero inner polynomial."""
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


def trace_wk(k):
    """tr W_k as a BiPoly in (r, y): Phi_{-k}(r) Psi_k(r) (y - r) + 2."""
    coeff = UniPoly(riley._trace_coeffs(k), "r")
    y_minus_r = BiPoly([-_R, UniPoly.const(1, "r")], "y", "r")
    return BiPoly.from_inner(coeff, "y") * y_minus_r + 2


def x_model(k, l):
    """The double cover of C(k, l) in (r, x), via y = x^2 - 2."""
    base = c_model(k, l)
    sub = BiPoly([UniPoly.const(-2, "r"), UniPoly.zero("r"),
                  UniPoly.const(1, "r")], "x", "r")
    eq = normalize_oracle(base.equation.eval_outer(sub))
    return CurveModel("X", base.k, base.l, eq, ("r", "x"), None,
                      base.swapped)


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
    cm = c_model(k, l)
    dm = d_model(cm.k, cm.l)
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
    """Does d (UniPoly in r) divide every outer-coefficient of F over Q?
    It does exactly when the pseudo-remainder is 0."""
    return not any(_prem(list(c.c), list(d.c)) for c in F.cs)


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

    raw = -riley.riley_poly_J(k, n)     # the C(k,l) equation, not made primitive
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
