"""Curve models.

Two affine models of the same character variety:

* C(k, l)  in (r, y): the standard model, equation
             f_n(t)*(Phi_{-k}(r) Phi_{k-1}(r)(y-r) - 1) + f_{n-1}(t) = 0
             with n = l/2 and t the trace of W_k.
* D(k, l)  in (r, t): Phi_{k+1}(r) Phi_{l-1}(t) - Phi_{k-1}(r) Phi_{l+1}(t),
             identically equal to Psi_k(r) Phi_{l-1}(t) - Phi_{k-1}(r) Psi_l(t)
             since Psi_k = Phi_{k+1} - Phi_{k-1}.  `d_model` builds the
             first form as one outer-product difference of coefficient
             lists; `test_d_model_forms_agree` in tests/test_curves.py
             builds both forms from BiPoly products as oracles.

The map sigma: C -> D, (r, y) -> (r, tr W_k), the double cover of C in
(r, x) and the special points of both are checked in
tests/sigma_oracle.py, the oracle of these two models.

A model is built for any (k, l) it is defined at, whether or not the
curve is degenerate (empty, the full plane or a union of lines, which
happens only for knots that are not hyperbolic); `knotprops.classify`
is the one label of that, and the geometry stages refuse such knots by
it.  Equations are stored primitive with the sign chosen so the
lexicographically leading monomial (r counted highest) has a positive
coefficient.  `_equation` fixes both in one pass over the int rows a
model is built from: the rows of `riley_poly_J` for C, the outer product
for D, the exact quotient for D1.
"""

from itertools import zip_longest
from math import gcd
from typing import NamedTuple, Optional

from .kernels import trim
from .poly import UniPoly, BiPoly, ExactError, bipoly_divexact
from .seq import phi
from .riley import riley_poly_J

_R = UniPoly.gen("r")


class CurveModel(NamedTuple):
    kind: str                 # C, D, D0, D1
    k: int
    l: int
    equation: BiPoly
    vars: tuple               # (r, y) / (r, t)
    bidegree: Optional[tuple]  # (deg_r, deg_t), D-kinds only
    swapped: bool = False

    def to_dict(self):
        return {
            "kind": self.kind,
            "k": self.k,
            "l": self.l,
            "vars": list(self.vars),
            "bidegree": list(self.bidegree) if self.bidegree else None,
            "equation": str(self.equation),
            "swapped": self.swapped,
        }


def _equation(rows, outer):
    """The BiPoly sum_j rows[j](r) outer**j of the trimmed int rows
    (lowest r power first), divided by the content of all its
    coefficients and by the sign of its r-major lexicographic leader: the
    top coefficient of the longest row, the last of them if several."""
    top = max(map(len, rows), default=0)
    if not top:
        return BiPoly.zero(outer, "r")
    g = 0
    for row in rows:
        g = gcd(g, *row)
    if [row for row in rows if len(row) == top][-1][-1] < 0:
        g = -g
    if g != 1:
        rows = [[v // g for v in row] for row in rows]
    return BiPoly([UniPoly(row, "r") for row in rows], outer, "r")


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
    rows = [c.c for c in riley_poly_J(k, l // 2).cs]
    return CurveModel("C", k, l, _equation(rows, "y"), ("r", "y"), None,
                      swapped)


def d_model(k, l):
    """The model D(k, l) in (r, t) with smooth projective closure, as
    one outer-product difference: the coefficient of t^j is
    Phi_{l-1}[j] Phi_{k+1}(r) - Phi_{l+1}[j] Phi_{k-1}(r)."""
    k, l, swapped = _swap_if_needed(k, l)
    r_pairs = list(zip_longest(phi(k + 1).c, phi(k - 1).c, fillvalue=0))
    eq = _equation([trim([x * u - y * v for u, v in r_pairs])
                    for x, y in zip_longest(phi(l - 1).c, phi(l + 1).c,
                                            fillvalue=0)], "t")
    if eq.is_zero:
        return CurveModel("D", k, l, eq, ("r", "t"), (0, 0), swapped)
    a = int(eq.degree_inner)
    b = int(eq.degree_outer)
    if l % 2 == 0 and (a, b) != (0, 0):
        n = l // 2
        if k in (1, -1):
            expect = (0, k * n - 1) if k * n > 0 else (0, -k * n)
        else:
            expect = (abs(k) // 2, abs(n))
        if (a, b) != expect:
            raise AssertionError(
                "D(%d,%d) bidegree (%d,%d) != expected %s" % (k, l, a, b, expect))
    return CurveModel("D", k, l, eq, ("r", "t"), (a, b), swapped)


def d_split(model):
    """Split the model D(l, l) into the diagonal D0 and the residual
    curve D1 by exact division by (t - r)."""
    k, l = model.k, model.l
    if k != l:
        raise ExactError("D(%d,%d) splits only when k = l" % (k, l))
    if l % 2 or l == 0:
        raise ExactError("d_split needs a nonzero even parameter, got %r" % (l,))
    diag = BiPoly([-_R, UniPoly.const(1, "r")], "t", "r")  # t - r
    try:
        quot = bipoly_divexact(model.equation, diag)
    except ExactError as exc:
        raise AssertionError(
            "D(%d,%d) is not divisible by t - r" % (l, l)) from exc
    d0 = CurveModel("D0", l, l, _equation([[0, -1], [1]], "t"), ("r", "t"),
                    (1, 1))
    eq1 = _equation([c.c for c in quot.cs], "t")
    if eq1.is_zero:
        raise AssertionError("zero quotient in d_split(%d)" % l)
    a = int(eq1.degree_inner)
    b = int(eq1.degree_outer)
    n = abs(l) // 2
    if (a, b) != (n - 1, n - 1):
        raise AssertionError(
            "D1(%d,%d) bidegree (%d,%d) != (%d,%d)" % (l, l, a, b, n - 1, n - 1))
    d1 = CurveModel("D1", l, l, eq1, ("r", "t"), (a, b))
    return d0, d1
