"""Exact polynomial arithmetic kernel.

Everything downstream works with three representations:

* UniPoly   -- dense univariate polynomial with integer coefficients,
               little-endian storage, canonical form (no trailing
               zeros).
* BiPoly    -- polynomial in an *outer* variable whose coefficients are
               UniPoly in an *inner* variable.
* QuadElem  -- a + b*w with w^2 = -1 or w^2 = 3, exact.

(A word's 2x2 matrix over Z[L^{±1}, r] never becomes a polynomial
object: `riley` keeps it packed in ints and decodes it into int rows.)

Resultants and gcds run a subresultant polynomial remainder sequence
over the integers.  The mod-p machinery serves factor-degree patterns
and `resultant_mod_p`, a bivariate resultant reduced mod one prime by
evaluation and interpolation (no CRT).  Division is exact in Z[x] or an
error.  Fractions appear only as values: rational roots and evaluation
points, never as coefficients.
"""

from fractions import Fraction
from math import gcd as int_gcd, isqrt
from typing import NamedTuple

from .kernels import (degree_pattern_p, poly_gcd_p, poly_mul,
                      poly_resultant_p, trim)

NEG_INF = float("-inf")

VARS = ("u", "r", "t", "y", "x", "S")


class ExactError(ValueError):
    """Raised when an exactness contract is violated (non-exact division,
    bad variable mix, malformed input)."""


def _power(base, n, one):
    """base ** n for an int n >= 0 by square-and-multiply; `one` is the
    unit of base's ring."""
    if n < 0:
        raise ExactError("negative power of %s" % type(base).__name__)
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


# ---------------------------------------------------------------------------
# UniPoly

def _as_coeff(v):
    if isinstance(v, int):
        return v
    raise ExactError("coefficient must be int, got %r" % type(v))


_INT_TYPE = frozenset((int,))


class UniPoly:
    """Dense univariate polynomial; coeffs[i] multiplies var**i."""

    __slots__ = ("c", "var")

    def __init__(self, coeffs, var):
        if var not in VARS:
            raise ExactError("unknown variable %r" % (var,))
        c = list(coeffs)
        # one C-level scan; coefficients of another type (bool, or an
        # error) go through _as_coeff one by one
        if not _INT_TYPE.issuperset(map(type, c)):
            c = [_as_coeff(v) for v in c]
        n = len(c)
        while n and not c[n - 1]:
            n -= 1
        self.c = tuple(c[:n])
        self.var = var

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, var):
        return cls((), var)

    @classmethod
    def const(cls, value, var):
        return cls((value,), var)

    @classmethod
    def gen(cls, var):
        return cls((0, 1), var)

    # -- basic queries ------------------------------------------------
    @property
    def degree(self):
        return len(self.c) - 1 if self.c else NEG_INF

    @property
    def is_zero(self):
        return not self.c

    @property
    def lead(self):
        return self.c[-1] if self.c else 0

    @property
    def constant(self):
        return self.c[0] if self.c else 0

    def coeff(self, i):
        return self.c[i] if 0 <= i < len(self.c) else 0

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, int):
            other = UniPoly.const(other, self.var)
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.c and other.c and self.var != other.var:
            return False
        return self.c == other.c

    def __hash__(self):
        return hash((self.c, self.var if self.c else None))

    # -- ring structure -----------------------------------------------
    def _coerce(self, other):
        if isinstance(other, int):
            return UniPoly.const(other, self.var)
        if isinstance(other, UniPoly):
            if self.c and other.c and self.var != other.var:
                raise ExactError(
                    "variable mismatch: %s vs %s" % (self.var, other.var))
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = list(self.c), list(other.c)
        if len(a) < len(b):
            a, b = b, a
        for i, v in enumerate(b):
            a[i] += v
        return UniPoly(a, self.var)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-v for v in self.c], self.var)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return UniPoly(poly_mul(list(self.c), list(other.c)), self.var)

    __rmul__ = __mul__

    def __pow__(self, n):
        return _power(self, n, UniPoly.const(1, self.var))

    def divexact(self, other):
        """Exact division in Z[x] by an int or a UniPoly; ExactError when
        the quotient is not in Z[x]."""
        if isinstance(other, int):
            if not other:
                raise ZeroDivisionError("division by zero")
            c = self.c
            if any(v % other for v in c):
                raise ExactError("non-exact division")
            return UniPoly([v // other for v in c], self.var)
        divisor = self._coerce(other)
        if divisor is None:
            raise ExactError("cannot divide by %r" % type(other))
        return UniPoly(_divexact_lists(self.c, divisor.c), self.var)

    # -- calculus / evaluation ------------------------------------------
    def deriv(self):
        return UniPoly([i * v for i, v in enumerate(self.c)][1:], self.var)

    def __call__(self, value):
        """Horner evaluation; value may be int, Fraction, UniPoly or BiPoly
        (composition)."""
        if isinstance(value, UniPoly):
            acc = UniPoly.zero(value.var)
        elif isinstance(value, BiPoly):
            acc = BiPoly.zero(value.outer, value.inner)
        else:
            acc = 0
        for v in reversed(self.c):
            acc = acc * value + v
        return acc

    # -- normal forms ---------------------------------------------------
    def content(self):
        """gcd of the coefficients (0 for the zero polynomial)."""
        return int_gcd(*self.c)

    def primitive(self):
        """Divide out the content and force a positive leading coefficient."""
        c = self.c
        if not c:
            return self
        g = int_gcd(*c)
        if c[-1] < 0:
            g = -g
        if g == 1:
            return self
        return UniPoly([v // g for v in c], self.var)

    def relabel(self, var):
        return UniPoly(self.c, var)

    # -- text form --------------------------------------------------------
    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return "UniPoly(%s)" % format_poly(self)


# ---------------------------------------------------------------------------
# text format: integer coefficients, caret powers, explicit '*'

def format_poly(p):
    return _join_terms((v, _power_text(p.var, i))
                       for i, v in reversed(list(enumerate(p.c))))


def _format_bipoly(f):
    return _join_terms(
        (v, "*".join(filter(None, (_power_text(f.inner, i),
                                   _power_text(f.outer, j)))))
        for j in range(len(f.cs) - 1, -1, -1)
        for i, v in reversed(list(enumerate(f.cs[j].c))))


def _power_text(var, i):
    return "" if not i else var if i == 1 else "%s^%d" % (var, i)


def _join_terms(terms):
    """The text of the sum of `terms`, pairs (v, monomial) from the
    highest: v an int and monomial the text of its variable part, ""
    for the constant.  Zero terms are left out, and so is a unit
    coefficient before a monomial; an empty sum is "0"."""
    out = ""
    for v, mono in terms:
        if v:
            a = abs(v)
            body = (str(a) if not mono else mono if a == 1
                    else "%s*%s" % (a, mono))
            out += ("-" if v < 0 else "+") + body
    if not out:
        return "0"
    return out[1:] if out[0] == "+" else out


def parse_poly(text, var=None):
    """Parse the `u^2-2*u+2` text format.

    If `var` is None the variable is inferred (a constant polynomial with
    no variable letter defaults to var "x").
    """
    s = text.replace(" ", "")
    if not s:
        raise ExactError("empty polynomial text")
    import re

    token = re.compile(
        r"(?P<sign>[+-]?)"
        r"(?:(?P<coef>\d+)(?:\*(?P<var1>[A-Za-z])(?:\^(?P<exp1>\d+))?)?"
        r"|(?P<var2>[A-Za-z])(?:\^(?P<exp2>\d+))?)"
    )
    pos = 0
    terms = []
    seen_var = None
    while pos < len(s):
        m = token.match(s, pos)
        if not m or m.start() != pos:
            raise ExactError("cannot parse %r at offset %d" % (text, pos))
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("coef") is not None:
            coef = sign * int(m.group("coef"))
            v = m.group("var1")
            e = int(m.group("exp1")) if m.group("exp1") else (1 if v else 0)
        else:
            coef = sign
            v = m.group("var2")
            e = int(m.group("exp2")) if m.group("exp2") else 1
        if v is not None:
            if seen_var is None:
                seen_var = v
            elif seen_var != v:
                raise ExactError("mixed variables %r, %r" % (seen_var, v))
        terms.append((e, coef))
        pos = m.end()
    if var is None:
        var = seen_var or "x"
    elif seen_var is not None and seen_var != var:
        raise ExactError("expected variable %r, found %r" % (var, seen_var))
    deg = max(e for e, _ in terms)
    c = [0] * (deg + 1)
    for e, v in terms:
        c[e] += v
    return UniPoly(c, var)


# ---------------------------------------------------------------------------
# subresultant PRS machinery (shared by gcd, resultant, bivariate gcd)

def _coeff_one(sample):
    return UniPoly.const(1, sample.var) if isinstance(sample, UniPoly) else 1


def _coeff_divexact(a, b):
    if isinstance(a, UniPoly):
        return a.divexact(b)
    if isinstance(b, UniPoly):
        # int / UniPoly: only legal when b is constant
        if b.degree > 0:
            raise ExactError("non-exact division")
        return _coeff_divexact(a, b.constant)
    q, r = divmod(a, b)
    if r:
        raise ExactError("non-exact division")
    return q


def _divexact_lists(a, b):
    """The quotient of the coefficient lists a / b, over ints or over
    UniPoly; ExactError when it is not exact, ZeroDivisionError when b
    is empty (the zero polynomial)."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    d, lead = len(b) - 1, b[-1]
    r = list(a)
    q = [0] * max(len(r) - d, 0)
    for sh in range(len(q) - 1, -1, -1):
        c = q[sh] = _coeff_divexact(r[sh + d], lead)
        if c:
            for j, v in enumerate(b):
                r[sh + j] -= c * v
    if any(r[:d]):
        raise ExactError("non-exact division")
    return q


def _prem(A, B):
    """Pseudo-remainder: lc(B)**(degA-degB+1) * A  mod  B  (lists)."""
    dB = len(B) - 1
    lB = B[-1]
    R = list(A)
    e = len(A) - 1 - dB + 1
    while R and len(R) - 1 >= dB:
        lR = R[-1]
        sh = len(R) - 1 - dB
        R = [lB * c for c in R]
        for j in range(dB + 1):
            R[sh + j] = R[sh + j] - lR * B[j]
        trim(R)
        e -= 1
    if e > 0:
        f = lB ** e
        R = [f * c for c in R]
    return R


def _prs_tail(A, B):
    """Run the subresultant PRS of A, B (deg A >= deg B >= 1) until the
    remainder is zero or constant; return (A, B, s, h): the last two
    elements, the sign of the degree swaps and the last subresultant
    scale h, the bookkeeping both gcd and resultant need.  Degenerate
    inputs are handled by the callers."""
    one = _coeff_one(A[0])
    g = h = one
    s = 1
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if (dA & 1) and (dB & 1):
            s = -s
        R = _prem(A, B)
        A = B
        denom = g * (h ** delta)
        B = [_coeff_divexact(c, denom) for c in R]
        g = A[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = _coeff_divexact(g ** delta, h ** (delta - 1))
        if not B or len(B) - 1 == 0:
            return A, B, s, h


def _resultant_lists(A, B):
    """Resultant in the list variable of two nonzero coefficient lists."""
    one = _coeff_one(A[0] if len(A) else B[0])
    dA, dB = len(A) - 1, len(B) - 1
    if dA == 0 and dB == 0:
        return one
    if dB == 0:
        return B[0] ** dA
    if dA == 0:
        return A[0] ** dB
    s = 1
    if dA < dB:
        A, B = B, A
        if (dA & 1) and (dB & 1):
            s = -1
    A2, B2, s2, h = _prs_tail(A, B)
    s *= s2
    if not B2:
        return 0 * one
    e = len(A2) - 1  # >= 1
    res = B2[0] ** e
    if e > 1:
        res = _coeff_divexact(res, h ** (e - 1))
    return res if s == 1 else -res


def _gcd_lists(A, B):
    """Last nonzero PRS element (a gcd up to content) of two nonzero lists."""
    if len(A) - 1 < len(B) - 1:
        A, B = B, A
    if len(B) - 1 == 0:
        return [B[0]]
    A2, B2, _s, _h = _prs_tail(A, B)
    return A2 if not B2 else B2


def poly_gcd(f, g):
    """Primitive gcd over Q, positive leading coefficient; gcd(0,0)=0."""
    if f.is_zero and g.is_zero:
        return f
    if f.is_zero:
        return g.primitive()
    if g.is_zero:
        return f.primitive()
    if f.var != g.var:
        raise ExactError("variable mismatch: %s vs %s" % (f.var, g.var))
    a = list(f.primitive().c)
    b = list(g.primitive().c)
    d = _gcd_lists(a, b)
    return UniPoly(d, f.var).primitive()


_SQUAREFREE_PRIME = 65521


def _squarefree_mod_p(c, p):
    """True when the integer coefficient list c is nonzero, p does not
    divide its leading coefficient and gcd(c mod p, c' mod p) = 1: then c
    is squarefree mod p, and squarefree over Q.

    Proof of the last: if c = h**2 g with h of degree >= 1, h and g can be
    taken in Z[x] (Gauss).  p does not divide lc(c) = lc(h)**2 lc(g), so
    h mod p keeps the degree of h, and h mod p divides both c mod p and
    c' mod p = (2 h' g + h g') h mod p: their gcd is not 1.  False means
    only "not proved" over Q.
    """
    return bool(c) and c[-1] % p != 0 and len(poly_gcd_p(
        c, [i * v for i, v in enumerate(c)][1:], p)) == 1


def squarefree_part(f):
    """f / gcd(f, f') as a primitive polynomial (positive lead).  f is
    returned made primitive at once when `_squarefree_mod_p` proves it
    squarefree mod q = `_SQUAREFREE_PRIME`; only the other inputs run the
    exact gcd.  q = 65521 is the largest prime below 2**16, so that
    `poly_gcd_p` packs short slots; a proof fails only when q divides the
    leading coefficient or the discriminant, and over the 625 reports with
    |k|, |l| <= 12 none of the 1,646 proofs failed."""
    if f.is_zero:
        raise ExactError("squarefree part of zero")
    fz = f.primitive()
    if fz.degree <= 0:
        return UniPoly.const(1, f.var)
    if _squarefree_mod_p(fz.c, _SQUAREFREE_PRIME):
        return fz
    g = poly_gcd(fz, fz.deriv())
    return fz.divexact(g).primitive()


def is_separable(f):
    """f has no repeated factor: its squarefree part keeps its degree."""
    if f.is_zero:
        raise ExactError("separability of zero polynomial")
    return squarefree_part(f).degree == f.degree


# ---------------------------------------------------------------------------
# BiPoly

class BiPoly:
    """Polynomial in `outer` with UniPoly-in-`inner` coefficients."""

    __slots__ = ("cs", "outer", "inner")

    def __init__(self, coeffs, outer, inner):
        if outer not in VARS or inner not in VARS or outer == inner:
            raise ExactError("bad variable pair (%r, %r)" % (outer, inner))
        cs = []
        for v in coeffs:
            if isinstance(v, int):
                v = UniPoly.const(v, inner)
            if not isinstance(v, UniPoly):
                raise ExactError("BiPoly coefficients must be int or UniPoly, "
                                 "got %r" % type(v))
            if v.c and v.var != inner:
                raise ExactError("coefficient in %s, expected %s" % (v.var, inner))
            cs.append(v if v.var == inner else UniPoly(v.c, inner))
        n = len(cs)
        while n and cs[n - 1].is_zero:
            n -= 1
        self.cs = tuple(cs[:n])
        self.outer = outer
        self.inner = inner

    @classmethod
    def zero(cls, outer, inner):
        return cls((), outer, inner)

    @classmethod
    def const(cls, value, outer, inner):
        return cls((UniPoly.const(value, inner),), outer, inner)

    @classmethod
    def from_inner(cls, p, outer):
        """Embed a UniPoly as a degree-0-in-outer BiPoly."""
        return cls((p,), outer, p.var)

    @classmethod
    def gen_outer(cls, outer, inner):
        return cls((UniPoly.zero(inner), UniPoly.const(1, inner)), outer, inner)

    # -- queries ---------------------------------------------------------
    @property
    def is_zero(self):
        return not self.cs

    @property
    def degree_outer(self):
        return len(self.cs) - 1 if self.cs else NEG_INF

    @property
    def degree_inner(self):
        if not self.cs:
            return NEG_INF
        return max(c.degree for c in self.cs)

    def coeff(self, j):
        return self.cs[j] if 0 <= j < len(self.cs) else UniPoly.zero(self.inner)

    @property
    def lead_outer(self):
        return self.cs[-1] if self.cs else UniPoly.zero(self.inner)

    def __eq__(self, other):
        if isinstance(other, int):
            other = BiPoly.const(other, self.outer, self.inner)
        if not isinstance(other, BiPoly):
            return NotImplemented
        if self.cs and other.cs and (self.outer, self.inner) != (other.outer, other.inner):
            return False
        return self.cs == other.cs

    def __hash__(self):
        return hash((self.cs, self.outer if self.cs else None))

    def __bool__(self):
        return bool(self.cs)

    # -- arithmetic --------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, int):
            return BiPoly.const(other, self.outer, self.inner)
        if isinstance(other, UniPoly):
            if other.c and other.var == self.outer:
                return BiPoly([UniPoly.const(v, self.inner) for v in other.c],
                              self.outer, self.inner)
            return BiPoly.from_inner(other.relabel(self.inner) if other.is_zero else other,
                                     self.outer)
        if isinstance(other, BiPoly):
            if self.cs and other.cs and (self.outer, self.inner) != (other.outer, other.inner):
                raise ExactError("BiPoly variable mismatch")
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a = list(self.cs)
        b = list(other.cs)
        if len(a) < len(b):
            a, b = b, a
        out = a[:]
        for i, v in enumerate(b):
            out[i] = out[i] + v
        return BiPoly(out, self.outer, self.inner)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly([-v for v in self.cs], self.outer, self.inner)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return BiPoly.zero(self.outer, self.inner)
        za = [list(c.c) for c in self.cs]
        zb = [list(c.c) for c in other.cs]
        out = [[] for _ in range(len(za) + len(zb) - 1)]
        for i, ca in enumerate(za):
            if not ca:
                continue
            for j, cb in enumerate(zb):
                if not cb:
                    continue
                prod = poly_mul(ca, cb)
                tgt = out[i + j]
                if len(tgt) < len(prod):
                    tgt.extend([0] * (len(prod) - len(tgt)))
                for k, v in enumerate(prod):
                    tgt[k] += v
        return BiPoly([UniPoly(c, self.inner) for c in out], self.outer, self.inner)

    __rmul__ = __mul__

    def __pow__(self, n):
        return _power(self, n, BiPoly.const(1, self.outer, self.inner))

    # -- structure ---------------------------------------------------------
    def deriv_outer(self):
        return BiPoly([i * v for i, v in enumerate(self.cs)][1:], self.outer, self.inner)

    def deriv_inner(self):
        return BiPoly([c.deriv() for c in self.cs], self.outer, self.inner)

    def eval_outer(self, value):
        """Substitute for the outer variable.

        value: scalar -> UniPoly in inner; UniPoly in inner -> UniPoly;
        BiPoly -> BiPoly (composition).
        """
        if isinstance(value, BiPoly):
            acc = BiPoly.zero(value.outer, value.inner)
            for cj in reversed(self.cs):
                acc = acc * value + BiPoly.from_inner(cj, value.outer)
            return acc
        acc = UniPoly.zero(self.inner)
        for cj in reversed(self.cs):
            acc = acc * value + cj
        return acc

    def eval_inner(self, value):
        """Substitute a scalar for the inner variable -> coefficients list."""
        return UniPoly([c(value) for c in self.cs], self.outer)

    def eval_point(self, inner_val, outer_val):
        acc = 0
        for cj in reversed(self.cs):
            acc = acc * outer_val + cj(inner_val)
        return acc

    def content_inner(self):
        """gcd (UniPoly in inner) of the outer-coefficients."""
        g = UniPoly.zero(self.inner)
        for c in self.cs:
            g = poly_gcd(g, c)
        return g

    def primitive(self):
        """Remove integer content; sign so that the lexicographically top
        coefficient (outer degree, then inner degree) is positive."""
        if self.is_zero:
            return self
        g = int_gcd(*(v for c in self.cs for v in c.c))
        if self.lead_outer.lead < 0:
            g = -g
        if g == 1:
            return self
        return BiPoly([UniPoly([v // g for v in c.c], self.inner)
                       for c in self.cs], self.outer, self.inner)

    def relabel(self, outer, inner):
        return BiPoly([UniPoly(c.c, inner) for c in self.cs], outer, inner)

    def __str__(self):
        return _format_bipoly(self)

    def __repr__(self):
        return "BiPoly(%s)" % _format_bipoly(self)


def resultant(f, g):
    """Resultant of two BiPoly with respect to their outer variable.

    Returns a UniPoly in the inner variable.  The sign convention is
    fixed by Res_t(r-t, r+t) = 2r, i.e. (-1)^(deg f * deg g) times the
    textbook row order -- vanishing loci (the only thing downstream code
    uses) are unaffected.
    """
    if f.is_zero and g.is_zero:
        raise ExactError("undefined resultant (both inputs zero)")
    if f.is_zero or g.is_zero:
        return UniPoly.zero((g if f.is_zero else f).inner)
    if (f.outer, f.inner) != (g.outer, g.inner):
        raise ExactError("BiPoly variable mismatch")
    keep = f.inner
    A = [UniPoly(c.c, keep) for c in f.cs]
    B = [UniPoly(c.c, keep) for c in g.cs]
    res = _resultant_lists(B, A)  # argument order fixes the sign convention
    if isinstance(res, int):
        res = UniPoly.const(res, keep)
    return res


def _eval_p(c, x, p):
    """c(x) mod p for an int coefficient list c."""
    acc = 0
    for v in reversed(c):
        acc = (acc * x + v) % p
    return acc


def _interpolate_p(values, p):
    """The coefficient list, mod p, of the polynomial of degree below
    len(values) that takes values[x] at x = 0, 1, 2, ...: Newton divided
    differences, whose level-j denominators are all j because the points
    are consecutive, then the Newton form expanded by Horner's rule."""
    n = len(values)
    inv = [0, 1]
    for i in range(2, n):
        inv.append((p - p // i) * inv[p % i] % p)
    c = list(values)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) * inv[j] % p
    out = []
    for i in range(n - 1, -1, -1):
        # out <- out * (x - i) + c[i]
        out = [(hi - i * lo) % p
               for hi, lo in zip([0] + out, out + [0])]
        out[0] = (out[0] + c[i]) % p
    return trim(out)


def resultant_mod_p(f, g, p):
    """`resultant(f, g)` reduced mod the prime p, as a coefficient
    list in the inner variable, with the Sylvester bound on its degree:
    the pair (coefficients, bound).  f and g have int coefficients.  The
    bound is (deg_outer f + deg_outer g) * max(deg_inner f, deg_inner g),
    the size of the Sylvester matrix times the degree of its entries.

    The resultant is evaluated at inner = 0, 1, ..., bound by
    `poly_resultant_p` and interpolated.  The kernel keeps the formal
    outer degrees, so each value is the integer resultant's value mod p
    even where a leading coefficient vanishes there.
    """
    if (f.outer, f.inner) != (g.outer, g.inner):
        raise ExactError("BiPoly variable mismatch")
    if f.is_zero or g.is_zero:
        return [], 0
    fc = [list(c.c) for c in f.cs]
    gc = [list(c.c) for c in g.cs]
    bound = (len(fc) + len(gc) - 2) * max(len(c) - 1 for c in fc + gc)
    if bound >= p:
        raise ExactError("too few evaluation points mod %d" % p)
    # Res(g, f) in the Sylvester order is the sign convention of `resultant`
    values = [poly_resultant_p([_eval_p(c, x, p) for c in gc],
                               [_eval_p(c, x, p) for c in fc], p)
              for x in range(bound + 1)]
    return _interpolate_p(values, p), bound


def bipoly_divexact(f, g):
    """Exact division of BiPoly by BiPoly (error if not exact)."""
    return BiPoly(_divexact_lists(f.cs, g.cs), f.outer, f.inner)


# ---------------------------------------------------------------------------
# QuadElem: a + b*w, w^2 = disc (disc in {-1, 3})

class QuadElem:
    __slots__ = ("a", "b", "disc")

    def __init__(self, a, b, disc):
        if disc not in (-1, 3):
            raise ExactError("unsupported quadratic ring (disc %r)" % (disc,))
        self.a = a
        self.b = b
        self.disc = disc

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadElem(other, 0, self.disc)
        if isinstance(other, QuadElem):
            if other.disc != self.disc:
                raise ExactError("mixed quadratic rings")
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadElem(self.a + other.a, self.b + other.b, self.disc)

    __radd__ = __add__

    def __neg__(self):
        return QuadElem(-self.a, -self.b, self.disc)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadElem(self.a * other.a + self.disc * self.b * other.b,
                        self.a * other.b + self.b * other.a, self.disc)

    __rmul__ = __mul__

    def __pow__(self, n):
        return _power(self, n, QuadElem(1, 0, self.disc))

    def norm(self):
        return self.a * self.a - self.disc * self.b * self.b

    @property
    def is_zero(self):
        return not self.a and not self.b

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b, self.disc))

    def __repr__(self):
        return "QuadElem(%r + %r*w, w^2=%d)" % (self.a, self.b, self.disc)


# ---------------------------------------------------------------------------
# primes and integer factorization (utility for root candidates / sampling)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, valid far beyond any size used here."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:                     # no prime factor <= 37 left
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n):
    n += 1
    if n <= 2:
        return 2
    if n % 2 == 0:
        n += 1
    while not is_prime(n):
        n += 2
    return n


def _pollard_rho(n):
    if n % 2 == 0:
        return 2
    x = 2
    for c in range(1, 50):
        x, y, d = 2, 2, 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = int_gcd(abs(x - y), n)
        if d != n:
            return d
    raise ExactError("factorization failed for %d" % n)


def factorint(n):
    """Prime factorization {p: e} of |n|, n != 0."""
    n = abs(n)
    if n == 0:
        raise ExactError("factorint(0)")
    out = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        # trial division for small, rho for the rest
        found = None
        lim = min(isqrt(m), 10000)
        f = 17
        while f <= lim:
            if m % f == 0:
                found = f
                break
            f += 2
        if found is None:
            found = _pollard_rho(m)
        stack.append(found)
        stack.append(m // found)
    return out


def _divisors(n):
    fac = factorint(n)
    divs = [1]
    for p, e in fac.items():
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return sorted(divs)


# ---------------------------------------------------------------------------
# rational roots

def _vanishes_at(c, p, q):
    """Whether the polynomial with coefficients c (lowest first) vanishes
    at p/q, q > 0: sum_i c_i p^i q^(n - i) = 0 for n = len(c) - 1, the
    value times q^n, by homogeneous Horner's rule on ints."""
    acc, qi = 0, 1
    for v in reversed(c):
        acc = acc * p + v * qi
        qi *= q
    return acc == 0


def rational_roots(f):
    """All rational roots with multiplicity, as a sorted list of
    (Fraction root, multiplicity)."""
    if f.is_zero:
        raise ExactError("rational roots of the zero polynomial")
    g = f.primitive()
    roots = []
    # root 0
    v = 0
    while v < len(g.c) and not g.c[v]:
        v += 1
    if v:
        roots.append((Fraction(0), v))
        g = UniPoly(g.c[v:], g.var)
    if g.degree <= 0:
        return roots
    a0 = abs(g.constant)
    an = abs(g.lead)
    cands = set()
    for p in _divisors(a0):
        for q in _divisors(an):
            if int_gcd(p, q) == 1:
                cands.add(Fraction(p, q))
                cands.add(Fraction(-p, q))
    for cand in sorted(cands):
        p, q = cand.numerator, cand.denominator
        if not _vanishes_at(g.c, p, q):
            continue
        mult = 0
        h = g
        lin = UniPoly([-p, q], g.var)
        while h.degree >= 1 and _vanishes_at(h.c, p, q):
            h = h.divexact(lin)
            mult += 1
        roots.append((cand, mult))
        g = h
        if g.degree <= 0:
            break
    return sorted(roots)


# ---------------------------------------------------------------------------
# mod-p degree patterns

BAD_PRIME = "bad prime"


def modp_degree_pattern(f, p):
    """Sorted degrees of the irreducible factors of f mod p, or BAD_PRIME.

    A prime is bad when it divides the leading coefficient or when f mod p
    is not squarefree, the test of `_squarefree_mod_p`.  The degrees of a
    good prime come from the distinct-degree factorization of
    `degree_pattern_p`.

    Degree patterns at several primes also prove irreducibility over Q
    (Musser, J. ACM 25 (1978)): the degrees of a factor over Q add up, at
    every good prime, to a sum of a subset of that prime's pattern, so an
    empty intersection of those proper subset sums leaves no room for a
    factor.  `irreducibility_analysis` applies that rule.
    """
    if not is_prime(p):
        raise ExactError("%r is not prime" % (p,))
    if not _squarefree_mod_p(f.c, p):
        return BAD_PRIME
    if f.degree < 1:
        return []
    return degree_pattern_p(f.c, p)


# ---------------------------------------------------------------------------
# three-valued irreducibility

# The three verdicts list their fields in the order the report prints them.

class Irreducible(NamedTuple):
    """f is irreducible over Q.  The witness is the sampled good primes
    and their degree `patterns`, whose proper subset sums have no common
    element (a single prime keeping f irreducible has the pattern [n]);
    degree 1 needs no prime."""
    degree: int
    sampled_primes: tuple
    patterns: tuple

    verdict = "irreducible"


class Reducible(NamedTuple):
    """f has the rational `root`, so it splits into factors of
    `factor_degrees` (1, n - 1) over Q."""
    factor_degrees: tuple
    root: Fraction

    verdict = "reducible"


class Inconclusive(NamedTuple):
    """Neither verdict: `degree_sums` are the factor degrees the sampled
    good primes leave possible."""
    degree_sums: frozenset
    sampled_primes: tuple

    verdict = "inconclusive"


def _iroot4(n):
    """Integer floor of |n|**(1/4)."""
    return isqrt(isqrt(abs(n)))


def _proper_degree_sums(pattern, n):
    """The degrees 0 < s < n that a factor over Q of a degree-n polynomial
    could have, given its degree pattern mod a good prime: the sums of
    subsets of the pattern."""
    sums = {0}
    for d in pattern:
        sums |= {s + d for s in sums}
    return sums - {0, n}


def irreducibility_analysis(f, prime_budget=6):
    """Three-valued irreducibility over Q for a squarefree f.

    Irreducible via Musser's degree sets: once the proper factor-degree
    sums achievable at the sampled good primes have an empty intersection,
    no factor over Q fits them all (a full-degree pattern empties it at
    once).  Reducible only via an exact rational root.  Otherwise
    Inconclusive carrying that intersection (every proper degree when no
    good prime was found).
    """
    if f.degree < 1:
        raise ExactError("irreducibility of a constant")
    fz = f.primitive()
    n = fz.degree
    if n == 1:
        return Irreducible(1, (), ())
    rr = rational_roots(fz)
    if rr:
        return Reducible((1, n - 1), rr[0][0])
    start = max(50, _iroot4(fz.lead * fz.constant))
    p = start
    good = []
    patterns = []
    achievable = set(range(1, n))
    attempts = 0
    while len(good) < prime_budget and attempts < 40 * prime_budget:
        p = next_prime(p)
        attempts += 1
        pat = modp_degree_pattern(fz, p)
        if pat == BAD_PRIME:
            continue
        good.append(p)
        patterns.append(pat)
        achievable &= _proper_degree_sums(pat, n)
        if not achievable:
            return Irreducible(n, tuple(good), tuple(patterns))
    return Inconclusive(frozenset(achievable), tuple(good))
