"""Exact polynomial arithmetic kernel.

Everything downstream works with three representations:

* UniPoly   -- dense univariate polynomial, exact integer (or Fraction)
               coefficients, little-endian storage, canonical form
               (no trailing zeros).
* BiPoly    -- polynomial in an *outer* variable whose coefficients are
               UniPoly in an *inner* variable.
* QuadElem  -- a + b*w with w^2 = -1 or w^2 = 3, exact.

(A word's 2x2 matrix over Z[L^{±1}, r] never becomes a polynomial
object: `riley` keeps it packed in ints and decodes it into int rows.)

Resultants and gcds run a subresultant polynomial remainder sequence
over the integers.  The mod-p machinery serves factor-degree patterns
and `resultant_mod_p`, a bivariate resultant reduced mod one prime by
evaluation and interpolation (no CRT).  Division is always exact or an
error -- no floats anywhere except `complex_roots`.
"""

from fractions import Fraction
from itertools import islice
from math import gcd as int_gcd, isqrt

from .kernels import (frobenius_apply_p, frobenius_rows_p, poly_gcd_p,
                      poly_mul, poly_mul_p, poly_mulmod_p, poly_powmod_p,
                      poly_resultant_p, ring_p, ring_pack, ring_unpack, trim)

NEG_INF = float("-inf")

VARS = ("u", "r", "t", "y", "x", "S")


class ExactError(ValueError):
    """Raised when an exactness contract is violated (non-exact division,
    bad variable mix, malformed input)."""


# ---------------------------------------------------------------------------
# UniPoly

def _as_coeff(v):
    if isinstance(v, (int, Fraction)):
        return v
    raise ExactError("coefficient must be int or Fraction, got %r" % type(v))


class UniPoly:
    """Dense univariate polynomial; coeffs[i] multiplies var**i."""

    __slots__ = ("c", "var")

    def __init__(self, coeffs, var):
        if var not in VARS:
            raise ExactError("unknown variable %r" % (var,))
        c = [_as_coeff(v) for v in coeffs]
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
        if isinstance(other, (int, Fraction)):
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
        if isinstance(other, (int, Fraction)):
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
        if n < 0:
            raise ExactError("negative power of a polynomial")
        result = UniPoly.const(1, self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def divexact(self, other):
        """Exact division; error if the remainder is nonzero."""
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            if isinstance(other, int):
                out = []
                for v in self.c:
                    if not isinstance(v, int):
                        break
                    q, r = divmod(v, other)
                    if r:
                        break
                    out.append(q)
                else:
                    return UniPoly(out, self.var)
            out = []
            for v in self.c:
                q = Fraction(v, other) if isinstance(v, int) and isinstance(other, int) else v / Fraction(other)
                out.append(q)
            return UniPoly(_maybe_ints(out), self.var)
        q, r = self.divmod_q(other)
        if not r.is_zero:
            raise ExactError("non-exact polynomial division")
        return q

    def divmod_q(self, other):
        """Quotient/remainder over the rationals."""
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        r = [Fraction(v) for v in self.c]
        d = other.degree
        lead = Fraction(other.lead)
        q = [Fraction(0)] * max(len(self.c) - d, 0)
        while len(trim(r)) - 1 >= d and r:
            sh = len(r) - 1 - d
            f = r[-1] / lead
            q[sh] = f
            for j in range(d + 1):
                r[sh + j] -= f * other.c[j]
        return (UniPoly(_maybe_ints(q), self.var),
                UniPoly(_maybe_ints(r), self.var))

    # -- calculus / evaluation ------------------------------------------
    def deriv(self):
        return UniPoly([i * v for i, v in enumerate(self.c)][1:], self.var)

    def __call__(self, value):
        """Horner evaluation; value may be int, Fraction, complex, UniPoly
        or BiPoly (composition)."""
        if isinstance(value, UniPoly):
            acc = UniPoly.zero(value.var)
            for v in reversed(self.c):
                acc = acc * value + v
            return acc
        if isinstance(value, BiPoly):
            acc = BiPoly.zero(value.outer, value.inner)
            for v in reversed(self.c):
                acc = acc * value + v
            return acc
        acc = 0
        for v in reversed(self.c):
            acc = acc * value + v
        return acc

    # -- normal forms ---------------------------------------------------
    def content(self):
        """gcd of integer coefficients (Fraction content if any Fraction)."""
        if not self.c:
            return 0
        if all(isinstance(v, int) for v in self.c):
            g = 0
            for v in self.c:
                g = int_gcd(g, abs(v))
            return g
        num = 0
        den = 1
        for v in self.c:
            f = Fraction(v)
            num = int_gcd(num, abs(f.numerator))
            den = den * f.denominator // int_gcd(den, f.denominator)
        return Fraction(num, den)

    def primitive(self):
        """Divide out the content and force a positive leading coefficient."""
        if self.is_zero:
            return self
        p = self.divexact(self.content())
        if p.lead < 0:
            p = -p
        return p

    def clear_denominators(self):
        """Smallest positive integer multiple with integer coefficients."""
        den = 1
        for v in self.c:
            if isinstance(v, Fraction):
                den = den * v.denominator // int_gcd(den, v.denominator)
        if den == 1:
            return UniPoly([int(v) if isinstance(v, Fraction) else v for v in self.c], self.var)
        return UniPoly([int(v * den) for v in (Fraction(x) for x in self.c)], self.var)

    def relabel(self, var):
        return UniPoly(self.c, var)

    # -- text form --------------------------------------------------------
    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return "UniPoly(%s)" % format_poly(self)


def _maybe_ints(coeffs):
    out = []
    all_int = True
    for v in coeffs:
        if isinstance(v, Fraction):
            if v.denominator == 1:
                v = int(v)
            else:
                all_int = False
        out.append(v)
    return out if all_int else [Fraction(v) for v in out]


# ---------------------------------------------------------------------------
# text format: integer coefficients, caret powers, explicit '*'

def format_poly(p):
    if isinstance(p, BiPoly):
        return _format_bipoly(p)
    if p.is_zero:
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        v = p.coeff(i)
        if not v:
            continue
        sign = "-" if v < 0 else "+"
        a = abs(v)
        if i == 0:
            body = str(a)
        else:
            xpow = p.var if i == 1 else "%s^%d" % (p.var, i)
            body = xpow if a == 1 else "%s*%s" % (a, xpow)
        parts.append((sign, body))
    sign0, body0 = parts[0]
    out = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        out += sign + body
    return out


def _format_bipoly(f):
    if f.is_zero:
        return "0"
    parts = []
    for j in range(f.degree_outer, -1, -1):
        cj = f.coeff(j)
        for i in range(int(cj.degree) if cj else -1, -1, -1):
            v = cj.coeff(i)
            if not v:
                continue
            sign = "-" if v < 0 else "+"
            a = abs(v)
            factors = []
            if a != 1 or (i == 0 and j == 0):
                factors.append(str(a))
            if i:
                factors.append(f.inner if i == 1 else "%s^%d" % (f.inner, i))
            if j:
                factors.append(f.outer if j == 1 else "%s^%d" % (f.outer, j))
            parts.append((sign, "*".join(factors)))
    sign0, body0 = parts[0]
    out = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        out += sign + body
    return out


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

def _ring_one(sample):
    return UniPoly.const(1, sample.var) if isinstance(sample, UniPoly) else 1


def _ring_divexact(a, b):
    if isinstance(a, UniPoly):
        return a.divexact(b)
    if isinstance(b, UniPoly):
        # int / UniPoly: only legal when b is constant
        if b.degree > 0:
            raise ExactError("non-exact division")
        return _ring_divexact(a, b.constant)
    q, r = divmod(a, b)
    if r:
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
    """Run the subresultant PRS; yield (A, B, delta, sign_flip) states and
    return the full sequence bookkeeping needed by both gcd and resultant."""
    # not a generator: returns (last_nonzero, second_last, s, h) per the
    # classical algorithm.  Degenerate inputs are handled by the callers.
    one = _ring_one(A[0])
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
        B = [_ring_divexact(c, denom) for c in R]
        g = A[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = _ring_divexact(g ** delta, h ** (delta - 1))
        if not B or len(B) - 1 == 0:
            return A, B, s, h


def _resultant_lists(A, B):
    """Resultant in the list variable of two nonzero coefficient lists."""
    one = _ring_one(A[0] if len(A) else B[0])
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
        res = _ring_divexact(res, h ** (e - 1))
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
        return g.clear_denominators().primitive()
    if g.is_zero:
        return f.clear_denominators().primitive()
    if f.var != g.var:
        raise ExactError("variable mismatch: %s vs %s" % (f.var, g.var))
    a = list(f.clear_denominators().primitive().c)
    b = list(g.clear_denominators().primitive().c)
    d = _gcd_lists(a, b)
    return UniPoly(d, f.var).primitive()


_SQUAREFREE_PRIME = 2 ** 61 - 1


def _squarefree_mod_q(fz):
    """True when the integer polynomial fz of degree >= 1 is proved
    squarefree over Q by its reduction mod the prime q = 2**61 - 1:
    q does not divide lc(fz) and gcd(fz mod q, fz' mod q) = 1.

    Proof: if fz = h**2 g with h of degree >= 1, h and g can be taken in
    Z[x] (Gauss).  q does not divide lc(fz) = lc(h)**2 lc(g), so h mod q
    keeps the degree of h, and h mod q divides both fz mod q and
    fz' mod q = (2 h' g + h g') h mod q: their gcd is not 1.  False means
    only "not proved"; the exact PRS then decides.
    """
    q = _SQUAREFREE_PRIME
    c = list(fz.c)
    return c[-1] % q != 0 and len(poly_gcd_p(
        c, [i * v for i, v in enumerate(c)][1:], q)) == 1


def squarefree_part(f):
    """f / gcd(f, f') as a primitive polynomial (positive lead).  f is
    returned made primitive at once when `_squarefree_mod_q` proves it
    squarefree; only the other inputs run the exact gcd."""
    if f.is_zero:
        raise ExactError("squarefree part of zero")
    fz = f.clear_denominators().primitive()
    if fz.degree <= 0:
        return UniPoly.const(1, f.var)
    if _squarefree_mod_q(fz):
        return fz
    g = poly_gcd(fz, fz.deriv())
    return fz.divexact(g).clear_denominators().primitive()


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
            if isinstance(v, (int, Fraction)):
                v = UniPoly.const(v, inner)
            if not isinstance(v, UniPoly):
                raise ExactError("BiPoly coefficients must be UniPoly")
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
        if isinstance(other, (int, Fraction)):
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
        if isinstance(other, (int, Fraction)):
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
        if n < 0:
            raise ExactError("negative power")
        result = BiPoly.const(1, self.outer, self.inner)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- structure ---------------------------------------------------------
    def transpose(self):
        """Swap the roles of the variables."""
        d = int(self.degree_inner) if self.cs else -1
        rows = []
        for i in range(d + 1):
            rows.append(UniPoly([c.coeff(i) for c in self.cs], self.outer))
        return BiPoly(rows, self.inner, self.outer)

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
        if isinstance(value, UniPoly):
            acc = UniPoly.zero(self.inner)
            for cj in reversed(self.cs):
                acc = acc * value + cj
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

    def clear_denominators(self):
        den = 1
        for c in self.cs:
            for v in c.c:
                if isinstance(v, Fraction):
                    den = den * v.denominator // int_gcd(den, v.denominator)
        if den == 1:
            return BiPoly([c.clear_denominators() if any(isinstance(v, Fraction) for v in c.c) else c
                           for c in self.cs], self.outer, self.inner)
        return BiPoly([UniPoly([int(Fraction(v) * den) for v in c.c], self.inner)
                       for c in self.cs], self.outer, self.inner)

    def primitive(self):
        """Remove integer content; sign so that the lexicographically top
        coefficient (outer degree, then inner degree) is positive."""
        if self.is_zero:
            return self
        f = self
        if not all(isinstance(v, int) for c in self.cs for v in c.c):
            f = self.clear_denominators()
        g = int_gcd(*(v for c in f.cs for v in c.c))
        if f.lead_outer.lead < 0:
            g = -g
        if g == 1:
            return f
        return BiPoly([UniPoly([v // g for v in c.c], self.inner)
                       for c in f.cs], self.outer, self.inner)

    def relabel(self, outer, inner):
        return BiPoly([UniPoly(c.c, inner) for c in self.cs], outer, inner)

    def __str__(self):
        return _format_bipoly(self)

    def __repr__(self):
        return "BiPoly(%s)" % _format_bipoly(self)


def resultant(f, g, eliminate):
    """Resultant of two BiPoly with respect to the variable `eliminate`.

    Returns a UniPoly in the surviving variable.  The sign convention is
    fixed by Res_t(r-t, r+t) = 2r, i.e. (-1)^(deg f * deg g) times the
    textbook row order -- vanishing loci (the only thing downstream code
    uses) are unaffected.
    """
    if f.is_zero and g.is_zero:
        raise ExactError("undefined resultant (both inputs zero)")
    keep = None
    fs, gs = f, g
    if not f.is_zero and not g.is_zero:
        if (f.outer, f.inner) != (g.outer, g.inner):
            raise ExactError("BiPoly variable mismatch")
    sample = f if not f.is_zero else g
    if eliminate == sample.outer:
        keep = sample.inner
    elif eliminate == sample.inner:
        keep = sample.outer
        fs = f.transpose() if not f.is_zero else f
        gs = g.transpose() if not g.is_zero else g
    else:
        raise ExactError("eliminate must be one of the two variables")
    if f.is_zero or g.is_zero:
        return UniPoly.zero(keep)
    A = [UniPoly(c.c, keep) for c in fs.cs]
    B = [UniPoly(c.c, keep) for c in gs.cs]
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
    """`resultant(f, g, f.outer)` reduced mod the prime p, as a coefficient
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
    if g.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero:
        return f
    rem = list(f.cs)
    dg = len(g.cs) - 1
    q = [UniPoly.zero(f.inner)] * (len(rem) - dg)
    glead = g.cs[-1]
    while rem:
        n = len(rem)
        while n and rem[n - 1].is_zero:
            n -= 1
        del rem[n:]
        if not rem:
            break
        if len(rem) - 1 < dg:
            raise ExactError("non-exact bivariate division")
        c = rem[-1].divexact(glead)
        sh = len(rem) - 1 - dg
        q[sh] = c
        for j in range(dg + 1):
            rem[sh + j] = rem[sh + j] - c * g.cs[j]
    return BiPoly(q, f.outer, f.inner)


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
        if n < 0:
            raise ExactError("negative power of QuadElem")
        result = QuadElem(1, 0, self.disc)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

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
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
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

def rational_roots(f):
    """All rational roots with multiplicity, as a sorted list of
    (Fraction root, multiplicity)."""
    if f.is_zero:
        raise ExactError("rational roots of the zero polynomial")
    g = f.clear_denominators().primitive()
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
        if g(cand) != 0:
            continue
        mult = 0
        h = g
        while h.degree >= 1 and h(cand) == 0:
            h = _deflate(h, cand)
            mult += 1
        roots.append((cand, mult))
        g = h
        if g.degree <= 0:
            break
    return sorted(roots)


def _deflate(f, root):
    """Divide f by (x - root), root an exact root."""
    out = [Fraction(0)] * f.degree
    acc = Fraction(0)
    for i in range(f.degree, 0, -1):
        acc = acc * root + f.coeff(i)
        out[i - 1] = acc
    return UniPoly(_maybe_ints(out), f.var)


# ---------------------------------------------------------------------------
# mod-p degree patterns

BAD_PRIME = "bad prime"


def modp_degree_pattern(f, p):
    """Sorted degrees of the irreducible factors of f mod p, or BAD_PRIME.

    A prime is bad when it divides the leading coefficient or when f mod p
    is not squarefree.  Distinct-degree factorization: the product of the
    irreducible factors of degree d is gcd(x**(p**d) - x, v), where v is
    what is left of f after the factors of lower degree are divided out.
    Since only degree *patterns* are needed, no equal-degree splitting is
    performed.

    The gcds are batched over blocks of degrees [d0, d1] with
    d1 = min(2*d0 - 1, deg v // 2) (von zur Gathen & Shoup, Comput.
    Complexity 2 (1992); Kaltofen & Shoup, Math. Comp. 67 (1998)): one
    gcd(P, v) with P the product of x**(p**d) - x over the block.  v has
    no factor of degree below d0, and a factor of degree e >= d0 divides
    x**(p**d) - x iff e divides d, which for d < 2e means e = d; so the
    gcd is the product of the factors of v with degrees in [d0, d1].  Its
    degree often splits into parts from [d0, d1] in one way only, which
    then is the pattern of that block; otherwise one gcd per degree
    splits it.  When 2*d0 exceeds deg v, v is irreducible.

    The iterates x**(p**d) and P are kept modulo f itself, which leaves
    those gcds unchanged because v divides f.  That makes the Frobenius
    map a -> a**p of GF(p)[x]/(f) one fixed linear map: x**p is computed
    once by `poly_powmod_p`, the rows x**(i*p) mod f are built from it
    once, and each further degree step applies them.  The factors
    x**(p**d) - x of P are packed into the ring `ring_p(f, p)` and
    multiplied there without unpacking (packed Barrett products); P is
    unpacked only for its gcd with v, and a factor only when the block
    is split.

    Degree patterns at several primes also prove irreducibility over Q
    (Musser, J. ACM 25 (1978)): the degrees of a factor over Q add up, at
    every good prime, to a sum of a subset of that prime's pattern, so an
    empty intersection of those proper subset sums leaves no room for a
    factor.  `irreducibility_analysis` applies that rule.
    """
    if not is_prime(p):
        raise ExactError("%r is not prime" % (p,))
    fz = f.clear_denominators()
    if fz.lead % p == 0:
        return BAD_PRIME
    a = trim([v % p for v in fz.c])
    da = len(a) - 1
    if da < 1:
        return []
    dA = [(i * v) % p for i, v in enumerate(a)][1:]
    if len(poly_gcd_p(a, dA, p)) - 1 != 0:
        return BAD_PRIME
    # monicize
    inv = pow(a[-1], -1, p)
    v = m = [(x * inv) % p for x in a]
    ring = ring_p(m, p)
    pattern = []
    xp = poly_powmod_p([0, 1], p, m, p)  # running x**(p**d) mod m
    d0 = 1
    while 2 * d0 <= len(v) - 1:
        d1 = min(2 * d0 - 1, (len(v) - 1) // 2)
        diffs = []  # x**(p**d) - x for d in [d0, d1], packed in the ring
        for d in range(d0, d1 + 1):
            if d == 2:
                frob = frobenius_rows_p(xp, m, p)  # xp is x**p here
            if d > 1:
                xp = frobenius_apply_p(frob, xp, p)
            diff = xp + [0] * (2 - len(xp))
            diff[1] = (diff[1] - 1) % p
            diffs.append(ring_pack(diff, ring))
        prod = diffs[0]
        for diff in diffs[1:]:
            prod = poly_mulmod_p(prod, diff, ring)
        g = poly_gcd_p(ring_unpack(prod, ring), v, p)
        if len(g) > 1:
            splits = list(islice(_part_lists(len(g) - 1, d0, d1), 2))
            if len(splits) == 1:
                pattern += splits[0]
            else:
                for d, diff in zip(range(d0, d1 + 1), diffs):
                    diff = ring_unpack(diff, ring)
                    pattern += [d] * ((len(poly_gcd_p(diff, g, p)) - 1) // d)
            v = _divexact_p(v, g, p)
        d0 = d1 + 1
    if len(v) > 1:
        pattern.append(len(v) - 1)
    return sorted(pattern)


def _part_lists(s, lo, hi):
    """The nondecreasing lists of parts from [lo, hi] that sum to s."""
    if not s:
        yield []
    for d in range(lo, min(hi, s) + 1):
        for rest in _part_lists(s - d, d, hi):
            yield [d] + rest


def _divexact_p(a, b, p):
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * (len(a) - db)
    while len(r) - 1 >= db and r:
        c = (r[-1] * inv) % p
        sh = len(r) - 1 - db
        q[sh] = c
        for j in range(db + 1):
            r[sh + j] = (r[sh + j] - c * b[j]) % p
        trim(r)
    if r:
        raise ExactError("non-exact division mod p")
    return trim(q)


# ---------------------------------------------------------------------------
# three-valued irreducibility

class Irreducible:
    """f is irreducible over Q.  The witness is the sampled good primes
    and their degree `patterns`, whose proper subset sums have no common
    element (a single prime keeping f irreducible has the pattern [n]);
    degree 1 needs no prime."""

    def __init__(self, degree, sampled_primes, patterns):
        self.degree = degree
        self.sampled_primes = sampled_primes
        self.patterns = patterns

    verdict = "irreducible"

    def __repr__(self):
        return "Irreducible(primes=%s)" % (list(self.sampled_primes),)


class Reducible:
    def __init__(self, root, factor_degrees):
        self.root = root
        self.factor_degrees = factor_degrees

    verdict = "reducible"

    def __repr__(self):
        return "Reducible(root=%s, degrees=%s)" % (self.root, self.factor_degrees)


class Inconclusive:
    def __init__(self, degree_sums, sampled_primes):
        self.degree_sums = degree_sums
        self.sampled_primes = sampled_primes

    verdict = "inconclusive"

    def __repr__(self):
        return "Inconclusive(sums=%s)" % (sorted(self.degree_sums),)


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
    fz = f.clear_denominators().primitive()
    n = fz.degree
    rr = rational_roots(fz)
    if rr:
        root = rr[0][0]
        if n == 1:
            return Irreducible(1, (), ())
        return Reducible(root, (1, n - 1))
    if n == 1:
        return Irreducible(1, (), ())
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


# ---------------------------------------------------------------------------
# simultaneous complex root finding (Aberth-Ehrlich)

class RootFindingError(RuntimeError):
    def __init__(self, msg, best):
        super().__init__(msg)
        self.best = best


_ABERTH_CAP = 200


def complex_roots(f, tol=1e-12):
    """All complex roots of a separable f, Aberth-Ehrlich iteration.

    Deterministic: seeds on a perturbed circle of radius
    1 + max|a_i/a_n|, fixed angular offsets, output sorted by rounded
    (real, imag).  Residual target: |f(z)| / ||f||_1 < tol.
    """
    import cmath

    if f.degree < 1:
        raise ExactError("complex roots of a constant")
    cs = [complex(v) for v in f.c]
    n = len(cs) - 1
    lead = cs[-1]
    mon = [v / lead for v in cs]
    norm = sum(abs(v) for v in cs)

    def val(z):
        acc = 0j
        for v in reversed(cs):
            acc = acc * z + v
        return acc

    def valmon_and_deriv(z):
        acc = 0j
        dacc = 0j
        for v in reversed(mon):
            dacc = dacc * z + acc
            acc = acc * z + v
        return acc, dacc

    radius = 1 + max(abs(v) for v in mon[:-1]) if n >= 1 else 1.0
    z = [radius * cmath.exp(2j * cmath.pi * (k + 0.25) / n + 0.13j)
         for k in range(n)]
    if n == 1:
        root = complex(-mon[0])
        if abs(val(root)) / norm >= tol:
            raise RootFindingError("linear root did not meet tolerance", [root])
        return [root]
    for _ in range(_ABERTH_CAP):
        done = True
        for k in range(n):
            fk, dfk = valmon_and_deriv(z[k])
            if fk == 0:
                continue
            if dfk == 0:
                z[k] *= 1.0 + 1e-6
                done = False
                continue
            newton = fk / dfk
            s = 0j
            for i in range(n):
                if i != k:
                    s += 1.0 / (z[k] - z[i])
            denom = 1.0 - newton * s
            step = newton / denom if denom != 0 else newton
            z[k] = z[k] - step
            if abs(step) > tol * max(1.0, abs(z[k])):
                done = False
        if done and max(abs(val(w)) for w in z) / norm < tol:
            break
    else:
        if max(abs(val(w)) for w in z) / norm >= tol:
            raise RootFindingError("Aberth iteration did not converge", z)
    z.sort(key=lambda w: (round(w.real, 9), round(w.imag, 9)))
    return z
