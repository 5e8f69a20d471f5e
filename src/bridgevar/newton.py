"""Newton polygons at non-archimedean valuations.

Valuations are exact ``Fraction`` values (denominator 1 or 2 -- the two
quadratic rings used here are Q(i) with 3 inert and Q(sqrt 3) with 3
ramified), with ``INFINITY`` ordered above everything for zero
coefficients.  The polygon is the lower convex hull of the points
(i, v(a_i)); a vanishing low-order coefficient block contributes the
vertical segment from (0, infinity), i.e. roots of valuation infinity.
"""

from fractions import Fraction
from math import comb, gcd
from typing import NamedTuple

from .poly import (BiPoly, ExactError, QuadElem, UniPoly, is_prime, poly_gcd,
                   resultant)
from .seq import big_g, g_poly

INFINITY = float("inf")


def val_rat(x, p):
    """p-adic valuation of a rational; INFINITY for 0."""
    if not is_prime(p):
        raise ExactError("valuation needs a prime, got %r" % (p,))
    x = Fraction(x)
    if x == 0:
        return INFINITY
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return Fraction(v)


def val_quad(x):
    """The valuation with v(3) = 1 on Q(i) (3 inert) or Q(sqrt 3)
    (3 ramified), the ring of the `QuadElem` x: v(x) = v_3(norm(x)) / 2.
    A rational x has v(x) = v_3(x) in both rings."""
    if isinstance(x, (int, Fraction)):
        return val_rat(x, 3)
    nm = x.norm()
    if nm == 0:
        return INFINITY
    return val_rat(nm, 3) / 2


# ---------------------------------------------------------------------------
# polygons

class NewtonPolygon(NamedTuple):
    points: tuple        # the (index, valuation) input, trimmed
    vertices: tuple      # lower convex hull, (0, INFINITY) first if a_0 = 0
    slopes: tuple        # exact slopes of the finite segments

    def root_valuations(self):
        """Multiset of root valuations: (valuation, count), INFINITY for
        the roots contributed by the vertical segment."""
        out = []
        verts = list(self.vertices)
        if verts and verts[0][1] == INFINITY:
            out.append((INFINITY, verts[1][0]))
            verts = verts[1:]
        for (x1, v1), (x2, v2) in zip(verts, verts[1:]):
            out.append((Fraction(v1 - v2, x2 - x1), x2 - x1))
        out.sort(key=lambda t: (t[0] == INFINITY, t[0]))
        return tuple(out)

    def to_dict(self):
        def enc(v):
            return "inf" if v == INFINITY else str(Fraction(v))
        return {
            "points": [[i, enc(v)] for i, v in self.points],
            "vertices": [[i, enc(v)] for i, v in self.vertices],
            "slopes": [str(s) for s in self.slopes],
            "root_valuations": [[enc(v), c] for v, c in self.root_valuations()],
        }


def polygon(points):
    """Lower convex hull of (index, valuation) points."""
    pts = sorted(points)
    while pts and pts[-1][1] == INFINITY:
        pts.pop()
    if not pts:
        raise ExactError("all valuations infinite")
    finite = [(i, Fraction(v)) for i, v in pts if v != INFINITY]
    hull = []
    for x, y in finite:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep strictly increasing slopes: drop the middle point when
            # slope(1->2) >= slope(2->new)
            if (y2 - y1) * (x - x2) >= (y - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    if finite[0][0] > 0:
        hull.insert(0, (0, INFINITY))
    slopes = tuple(Fraction(b[1] - a[1], b[0] - a[0])
                   for a, b in zip(hull, hull[1:]) if a[1] != INFINITY)
    return NewtonPolygon(tuple(pts), tuple(hull), slopes)


def poly_points(f, p):
    """(index, v_p) points of an integer-coefficient polynomial."""
    return tuple((i, val_rat(f.coeff(i), p)) for i in range(int(f.degree) + 1))


# ---------------------------------------------------------------------------
# the lemma polynomials (S + alpha)^{4n} + 2n((S+alpha)^{2n+1}
#                                            - (S+alpha)^{2n-1}) - 1

class LemmaPolynomial(NamedTuple):
    kind: str            # "one" | "i" | "alpha"
    n: int
    p: object            # the prime (kind "one"), else None
    coeffs: tuple        # int or QuadElem, index 0 .. 4n
    points: tuple        # (index, valuation)


def _shifted_power_coeffs(alpha, N, one):
    """Coefficients of (S + alpha)^N, index 0..N."""
    pw = [one]
    for _ in range(N):
        pw.append(pw[-1] * alpha)
    return [comb(N, k) * pw[N - k] for k in range(N + 1)]


def lemma_polynomial(kind, n, p=None):
    if kind == "one":
        if n < 1 or p is None or not is_prime(p):
            raise ExactError("variant one needs n >= 1 and a prime p")
        alpha, one = 1, 1
        val = lambda c: val_rat(c, p)
    elif kind in ("i", "alpha"):
        if n < 1 or n % 3:
            raise ExactError("variant %s needs a positive multiple of 3" % kind)
        if p not in (None, 3):
            raise ExactError("variants i/alpha fix the prime 3")
        alpha = QuadElem(0, 1, -1) if kind == "i" else QuadElem(-2, 1, 3)
        one = QuadElem(1, 0, alpha.disc)
        val = val_quad
    else:
        raise ExactError("unknown variant %r" % (kind,))
    c4 = _shifted_power_coeffs(alpha, 4 * n, one)
    cp = _shifted_power_coeffs(alpha, 2 * n + 1, one)
    cm = _shifted_power_coeffs(alpha, 2 * n - 1, one)
    coeffs = []
    for k in range(4 * n + 1):
        c = c4[k]
        if k <= 2 * n + 1:
            c = c + 2 * n * cp[k]
        if k <= 2 * n - 1:
            c = c - 2 * n * cm[k]
        if k == 0:
            c = c - 1
        coeffs.append(c)
    points = tuple((k, val(c)) for k, c in enumerate(coeffs))
    return LemmaPolynomial(kind, n, p if kind == "one" else None,
                           tuple(coeffs), points)


def expected_vertices(kind, n, p=None):
    """The closed-form vertex lists the three valuation lemmas assert."""
    if kind == "one":
        e = int(val_rat(4 * n, p))
        if p == 2:
            verts = [(0, INFINITY), (1, Fraction(e + 1))]
            verts += [(2 ** j, Fraction(e - j)) for j in range(2, e + 1)]
        else:
            verts = [(0, INFINITY)]
            verts += [(p ** j, Fraction(e - j)) for j in range(e + 1)]
    elif kind == "i":
        e = int(val_rat(n, 3))
        verts = [(0, Fraction(e))]
        verts += [(3 ** j, Fraction(e - j)) for j in range(1, e + 1)]
    elif kind == "alpha":
        e = int(val_rat(n, 3))
        verts = [(0, Fraction(e) + Fraction(3, 2)), (1, Fraction(e))]
        verts += [(3 ** j, Fraction(e - j)) for j in range(1, e + 1)]
    else:
        raise ExactError("unknown variant %r" % (kind,))
    if verts[-1][0] != 4 * n:
        verts.append((4 * n, Fraction(0)))
    return tuple(verts)


# ---------------------------------------------------------------------------
# the binomial valuation lemma

class BinomCheck(NamedTuple):
    n: int
    p: int
    entries: tuple

    @property
    def ok(self):
        return all(e["exact_ok"] and e["strict_ok"] for e in self.entries)


def binom_check(n, p):
    """v_p(C(n, p^j)) = e - j with e = v_p(n) for 0 <= j <= e, and
    v_p(C(n, k)) > e - j for 0 < k < p^j (trivially so once j > e);
    verified exhaustively."""
    if n < 1 or not is_prime(p) or n % p:
        raise ExactError("binom check needs n >= 1 with p | n")
    e = int(val_rat(n, p))
    entries = []
    for j in range(0, e + 2):
        if p ** j > n:
            continue
        lhs = int(val_rat(comb(n, p ** j), p))
        strict = all(val_rat(comb(n, k), p) > e - j
                     for k in range(1, p ** j))
        if j <= e:
            entries.append({"j": j, "lhs": lhs, "rhs": e - j,
                            "exact_ok": lhs == e - j, "strict_ok": strict})
        else:
            entries.append({"j": j, "lhs": lhs, "rhs": None,
                            "exact_ok": True, "strict_ok": strict,
                            "note": "j > e: only the strict bound applies"})
    return BinomCheck(n, p, tuple(entries))


# ---------------------------------------------------------------------------
# the archimedean lemma: |h_{2n}| at the roots of G_n

class ComplexAbsCheck(NamedTuple):
    entries: tuple

    @property
    def ok(self):
        return all(e["ok"] for e in self.entries)


def _in_w(p):
    """p(w) as a BiPoly in w (written u) over Z[z] (written x)."""
    return BiPoly(list(p.c), "u", "x")


_Z = BiPoly.from_inner(UniPoly.gen("x"), "u")


def _roots_inside_unit_circle(c):
    """Whether every root of sum c[i] z^i (ints, c[-1] the formal
    leading coefficient) lies strictly inside the unit circle, by the
    Schur-Cohn (Jury) recursion.

    With |c_0| < |c_d|, p and (c_d p(z) - c_0 z^d p(1/z)) / z have the
    same number of roots outside the open disk: Rouche's theorem on
    |z| = 1, where |z^d p(1/z)| = |p(z)|, and a root on the circle is a
    root of both.  With |c_0| >= |c_d| the roots' product has modulus at
    least 1.  Dividing by the content keeps the coefficients small.
    """
    c = list(c)
    while len(c) > 1:
        a0, ad = c[0], c[-1]
        if abs(a0) >= abs(ad):
            return False
        c = [ad * x - a0 * y for x, y in zip(c[1:], reversed(c[:-1]))]
        g = gcd(*c)
        c = [x // g for x in c]
    return True


def complexabs_check(n_range):
    """|g_{n+1}(w)/g_n(w)| > 1 at every root w of G_n for n > 0 (< 1 for
    n < 0), decided exactly.

    Once gcd(G_n, g_n) = 1, Poisson's formula makes the ratios the roots
    of h_n(z) = Res_w(G_n(w), z g_n(w) - g_{n+1}(w)), with multiplicity,
    and deg h_n = deg G_n.  The Schur-Cohn test then asks whether the
    roots of h_n (n < 0) or of its reversal (n > 0) all lie strictly
    inside the unit circle.
    """
    entries = []
    for n in n_range:
        if n == 0:
            continue
        gn = big_g(n)
        if gn.degree <= 0:
            entries.append({"n": n, "roots": 0, "vacuous": True, "ok": True})
            continue
        ok = poly_gcd(gn, g_poly(n)).degree == 0
        if ok:
            h = resultant(_in_w(gn),
                          _Z * _in_w(g_poly(n)) - _in_w(g_poly(n + 1)))
            c = list(h.c) if n < 0 else list(reversed(h.c))
            ok = h.degree == gn.degree and _roots_inside_unit_circle(c)
        entries.append({"n": n, "roots": int(gn.degree), "vacuous": False,
                        "ok": ok})
    return ComplexAbsCheck(tuple(entries))
