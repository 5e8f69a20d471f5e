"""Exact polynomial layer against independent oracles.

Oracles (defined before any test that uses them):
  * sylvester_resultant -- Fraction determinant of the Sylvester matrix,
  * euclid_gcd -- monic remainder sequence over Q, made primitive,
  * brute_modp_roots -- trial evaluation over GF(p),
  * powmod_ddf_pattern -- distinct-degree factorization with one powmod
    x**(p**d) per degree and one gcd per degree, re-reduced modulo what is
    left of f; its powmod (square_multiply_powmod_p) reduces by schoolbook
    division, not by the packed Barrett products of the production powmod,
  * text_oracle -- the polynomial text built term by term from generators,
    one string concatenation per term.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bridgevar import kernels, poly
from bridgevar.cli import main
from bridgevar.kernels import (poly_gcd_p, poly_mul, poly_mul_p, poly_rem_p,
                               poly_resultant_p, trim)
from bridgevar.curves import c_model
from bridgevar.knotprops import HYPERBOLIC, classify, trace_field_poly
from bridgevar.poly import (BAD_PRIME, BiPoly, ExactError, QuadElem, UniPoly,
                            irreducibility_analysis, factorint, is_prime,
                            is_separable, modp_degree_pattern, next_prime,
                            parse_poly, poly_gcd, rational_roots, resultant,
                            resultant_mod_p, squarefree_part)
from bridgevar.report import Knot
from modulus_oracle import complex_roots


# --- oracles -----------------------------------------------------------

def sylvester_resultant(a, b):
    """Res(a, b) for coefficient lists (little-endian) over Q."""
    m, n = len(a) - 1, len(b) - 1
    assert m >= 0 and a[m] and n >= 0 and b[n]
    if m == 0:
        return Fraction(a[0]) ** n
    if n == 0:
        return Fraction(b[0]) ** m
    size = m + n
    rows = []
    for i in range(n):
        row = [Fraction(0)] * size
        for j, cf in enumerate(reversed(a)):
            row[i + j] = Fraction(cf)
        rows.append(row)
    for i in range(m):
        row = [Fraction(0)] * size
        for j, cf in enumerate(reversed(b)):
            row[i + j] = Fraction(cf)
        rows.append(row)
    # fraction-free-ish Gaussian elimination is overkill: Fractions are exact
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            f = rows[r][col] * inv
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


def euclid_gcd(a, b):
    """Primitive gcd via the plain monic Euclidean algorithm over Q."""
    fa = [Fraction(x) for x in a]
    fb = [Fraction(x) for x in b]

    def trim(c):
        while c and not c[-1]:
            c.pop()
        return c

    def rem(x, y):
        x = x[:]
        while len(x) >= len(y) and x:
            c = x[-1] / y[-1]
            off = len(x) - len(y)
            for i in range(len(y)):
                x[off + i] -= c * y[i]
            x.pop()
            trim(x)
        return x

    trim(fa), trim(fb)
    while fb:
        fa, fb = fb, rem(fa, fb)
    if not fa:
        return []
    from math import gcd, lcm
    den = lcm(*[f.denominator for f in fa]) if fa else 1
    ints = [int(f * den) for f in fa]
    cont = 0
    for v in ints:
        cont = gcd(cont, v)
    ints = [v // cont for v in ints]
    if ints[-1] < 0:
        ints = [-v for v in ints]
    return ints


def text_oracle(f):
    """The text of a UniPoly or BiPoly: the terms from the highest power
    down (outer first), each monomial's powers built per term."""
    if isinstance(f, UniPoly):
        return _join_terms((v, _power_text(f.var, i))
                           for i, v in reversed(list(enumerate(f.c))))
    return _join_terms(
        (v, "*".join(filter(None, (_power_text(f.inner, i),
                                   _power_text(f.outer, j)))))
        for j in range(len(f.cs) - 1, -1, -1)
        for i, v in reversed(list(enumerate(f.cs[j].c))))


def _power_text(var, i):
    return "" if not i else var if i == 1 else "%s^%d" % (var, i)


def _join_terms(terms):
    """The text of the sum of `terms`, pairs (v, monomial) from the
    highest: zero terms and a unit coefficient before a monomial are left
    out; an empty sum is "0"."""
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


def brute_modp_roots(f, p):
    return sorted(x for x in range(p)
                  if sum(c * pow(x, i, p) for i, c in enumerate(f.c)) % p == 0)


def exact_quotient_p(a, b, p):
    """a / b over GF(p) by long division; the remainder must be zero."""
    r = [x % p for x in a]
    inv = pow(b[-1], -1, p)
    q = [0] * (len(r) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + len(b) - 1] * inv % p
        for j, bj in enumerate(b):
            r[i + j] = (r[i + j] - c * bj) % p
    assert not any(r)
    return q


def square_multiply_powmod_p(base, e, m, p):
    """base**e mod (m, p) by right-to-left square and multiply, each
    product reduced by schoolbook division."""
    result, acc = [1], poly_rem_p(base, m, p)
    while e:
        if e & 1:
            result = poly_rem_p(poly_mul_p(result, acc, p), m, p)
        e >>= 1
        acc = poly_rem_p(poly_mul_p(acc, acc, p), m, p)
    return result


def powmod_ddf_pattern(f, p):
    """Degree pattern of f mod p, or BAD_PRIME: x**(p**d) by one powmod
    per degree d, modulo the part v of f still left, and gcd with v."""
    c = [x % p for x in f.c]
    if not c[-1]:
        return BAD_PRIME
    if len(c) < 2:
        return []
    dc = [(i * x) % p for i, x in enumerate(c)][1:]
    if len(poly_gcd_p(c, dc, p)) > 1:
        return BAD_PRIME
    v = poly_gcd_p(c, c, p)  # c made monic
    pattern, xp, d = [], [0, 1], 0
    while len(v) > 1:
        d += 1
        if 2 * d > len(v) - 1:
            pattern.append(len(v) - 1)
            break
        xp = square_multiply_powmod_p(xp, p, v, p)
        diff = xp + [0] * (2 - len(xp))
        diff[1] -= 1
        g = poly_gcd_p(diff, v, p)
        if len(g) > 1:
            pattern += [d] * ((len(g) - 1) // d)
            v = exact_quotient_p(v, g, p)
            xp = poly_rem_p(xp, v, p)
    return sorted(pattern)


U = UniPoly.gen("u")
X = UniPoly.gen("x")

small_polys = st.lists(st.integers(min_value=-30, max_value=30),
                       min_size=1, max_size=7).filter(lambda c: any(c))


def mk(c, var="u"):
    return UniPoly(c, var)


# --- UniPoly arithmetic ------------------------------------------------

def test_unipoly_basics():
    f = 2 * U ** 3 - U + 5
    assert f.c == (5, -1, 0, 2)
    assert f.degree == 3
    assert f(2) == 19
    assert str(f) == "2*u^3-u+5"
    assert UniPoly.zero("u").degree == float("-inf")
    with pytest.raises(ExactError):
        UniPoly([1], "q")


def test_unipoly_eval_composes():
    f = U ** 2 + 1
    g = U - 3
    assert f(g) == U ** 2 - 6 * U + 10


def test_divexact_and_failure():
    f = (U - 2) * (3 * U + 1)
    assert f.divexact(U - 2) == 3 * U + 1
    with pytest.raises(ExactError):
        (U + 1).divexact(U - 1)


def test_divexact_by_int_keeps_the_coefficient_type():
    exact = mk([6, -4, 2]).divexact(-2)
    assert exact == mk([-3, 2, -1])
    assert all(type(v) is int for v in exact.c)
    with pytest.raises(ExactError):
        mk([6, -3, 2]).divexact(2)
    with pytest.raises(ExactError):
        mk([Fraction(3, 2), 3])
    with pytest.raises(ExactError):
        mk([4, 4]).divexact(Fraction(2, 3))
    with pytest.raises(ZeroDivisionError):
        mk([1, 2]).divexact(0)


def test_coefficients_must_be_ints():
    for bad in (Fraction(1, 2), Fraction(2), 0.5, 1.0):
        with pytest.raises(ExactError, match="must be int"):
            UniPoly([1, bad], "u")
        with pytest.raises(ExactError, match="must be int"):
            BiPoly([mk([1], "r"), bad], "y", "r")
        with pytest.raises(ExactError, match="must be int"):
            BiPoly([mk([1, bad], "r")], "y", "r")


def long_division_primitive(f):
    """The primitive part by the long-division route: divide by the
    content as a constant polynomial, then fix the sign."""
    if f.is_zero:
        return f
    q = f.divexact(UniPoly.const(f.content(), f.var))
    return -q if q.lead < 0 else q


@settings(max_examples=200, deadline=None)
@given(c=st.lists(st.integers(min_value=-2 ** 70, max_value=2 ** 70),
                  max_size=8),
       m=st.integers(min_value=-12, max_value=12))
def test_primitive_matches_long_division(c, m):
    f = mk([m * v for v in c])
    p = f.primitive()
    assert p == long_division_primitive(f)
    assert all(type(v) is int for v in p.c)
    if f.is_zero:
        assert p.is_zero
    else:
        assert p.content() == 1 and p.lead > 0
        assert p * (f.lead // p.lead) == f


@settings(max_examples=200, deadline=None)
@given(c=st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                  max_size=8),
       d=st.integers(min_value=-40, max_value=40).filter(bool))
def test_divexact_by_int_matches_long_division(c, d):
    f = mk(c)
    if all(v % d == 0 for v in c):
        q = f.divexact(d)
        assert q == f.divexact(UniPoly.const(d, "u")) and q * d == f
        assert (f * d).divexact(d) == f
    else:
        with pytest.raises(ExactError, match="non-exact"):
            f.divexact(d)
        with pytest.raises(ExactError, match="non-exact"):
            f.divexact(UniPoly.const(d, "u"))
    with pytest.raises(ZeroDivisionError):
        f.divexact(0)


@settings(max_examples=100, deadline=None)
@given(c=st.lists(st.integers(), max_size=6),
       bad=st.sampled_from([Fraction(1, 2), Fraction(4), 0.5, 2.0]),
       at=st.integers(min_value=0, max_value=6))
def test_constructor_checks_every_coefficient(c, bad, at):
    c.insert(min(at, len(c)), bad)
    with pytest.raises(ExactError, match="must be int"):
        mk(c)


def test_bool_coefficients_are_kept():
    f = mk([1, True, 0, False])
    assert f.c == (1, True) and type(f.c[1]) is bool
    assert mk([False, True]).c == (False, True)
    assert mk([True, 3]).primitive() == mk([1, 3])


def test_divexact_refuses_quotients_outside_z():
    with pytest.raises(ExactError):
        (2 * X + 2).divexact(4)
    with pytest.raises(ExactError):
        (X ** 2 - 1).divexact(2 * X - 2)
    assert (X ** 2 - 1).divexact(X - 1) == X + 1
    with pytest.raises(ZeroDivisionError):
        X.divexact(UniPoly.zero("x"))


@settings(max_examples=60, deadline=None)
@given(a=st.lists(st.integers(min_value=-30, max_value=30), max_size=7),
       b=small_polys)
def test_divexact_inverts_multiplication(a, b):
    f, g = mk(a), mk(b)
    assert (f * g).divexact(g) == f


bi_polys = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), max_size=3),
    max_size=4).map(lambda cs: BiPoly([mk(c, "r") for c in cs], "t", "r"))


@settings(max_examples=60, deadline=None)
@given(f=bi_polys, g=bi_polys.filter(bool))
def test_bipoly_divexact_inverts_multiplication(f, g):
    assert poly.bipoly_divexact(f * g, g) == f


def test_bipoly_divexact_failures():
    T = BiPoly.gen_outer("t", "r")
    R = BiPoly.from_inner(mk([0, 1], "r"), "t")
    for f, g in ((T + 1, T - 1), (T * T + R, T), (R, 2 * R), (T, R),
                 (R, T), (T + 3, T * T)):
        with pytest.raises(ExactError, match="non-exact"):
            poly.bipoly_divexact(f, g)
    for f in (T, BiPoly.zero("t", "r")):
        with pytest.raises(ZeroDivisionError):
            poly.bipoly_divexact(f, BiPoly.zero("t", "r"))
    assert poly.bipoly_divexact(BiPoly.zero("t", "r"), T).is_zero
    assert poly.bipoly_divexact(T * T - R * R, T + R) == T - R


def test_negative_powers_are_refused():
    for x in (U, BiPoly.gen_outer("t", "r"), QuadElem(1, 1, -1)):
        assert x ** 0 == x - x + 1
        with pytest.raises(ExactError, match="negative power"):
            x ** -1


@settings(max_examples=60, deadline=None)
@given(c=st.lists(st.integers(min_value=-9, max_value=9), max_size=5),
       num=st.integers(min_value=-9, max_value=9),
       den=st.integers(min_value=1, max_value=9),
       a=small_polys, b=bi_polys)
def test_call_is_the_termwise_sum(c, num, den, a, b):
    # f(value) by Horner's rule, also for f = 0 and the polynomial values
    f = mk(c, "x")
    for value in (num, Fraction(num, den), mk(a), b):
        want = sum((v * value ** i for i, v in enumerate(c)), 0 * value)
        got = f(value)
        assert got == want
        if isinstance(value, (UniPoly, BiPoly)):
            assert type(got) is type(value)


def test_primitive_sign_convention():
    assert mk([2, -4]).primitive() == mk([-1, 2])
    assert mk([-2, 4]).primitive() == mk([-1, 2])
    assert mk([0]).primitive().is_zero


def bipoly_primitive_oracle(F):
    """Divide by the integer content, fix the sign."""
    if F.is_zero:
        return F
    g = 0
    for c in F.cs:
        g = math.gcd(g, c.content())
    f = BiPoly([c.divexact(g) for c in F.cs], F.outer, F.inner)
    return -f if f.lead_outer.lead < 0 else f


def test_bipoly_primitive_matches_oracle():
    def bi(*rows):
        return BiPoly([mk(c, "r") for c in rows], "y", "r")

    already = bi([1, -2], [], [3, 0, 5])
    cases = [
        bi([6, -4], [], [2, 8]),              # content 2
        bi([6, -4], [0, 3], [-9, 0, -12]),    # content 3, negative lead
        bi([1, 2], [-1]),                     # primitive, negative lead
        already,
        bi([7]), bi([-7]), bi([]), BiPoly.zero("y", "r"),
    ]
    rng = random.Random("primitive")
    for _ in range(50):
        g = rng.choice([1, 2, 6, -1, -15])
        cases.append(bi(*[[g * rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
                          for _ in range(rng.randint(1, 4))]))
    for F in cases:
        got = F.primitive()
        assert got == bipoly_primitive_oracle(F), F
        assert all(isinstance(v, int) for c in got.cs for v in c.c), F
    assert already.primitive() is already


def test_parse_poly_round_trip():
    f = -3 * U ** 4 + U ** 2 - 7
    assert parse_poly(str(f), "u") == f
    assert parse_poly("u^2 - 2*u + 1") == (U - 1) ** 2
    with pytest.raises(ExactError):
        parse_poly("u + z")


# coefficients of every size the text has a case for: 0, the units that
# print no coefficient before a monomial, small ones and 300+ bit ones
text_coeffs = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-99, 99),
                        st.integers(2 ** 300, 2 ** 340),
                        st.integers(-2 ** 340, -2 ** 300))
text_rows = st.lists(text_coeffs, max_size=7)


@settings(max_examples=200, deadline=None)
@given(c=text_rows, var=st.sampled_from(poly.VARS))
@example(c=[], var="u")                       # the zero polynomial
@example(c=[0, -1, 0, 1], var="x")            # units before monomials
@example(c=[-7], var="r")                     # a constant term alone
@example(c=[0, 2 ** 310 + 1], var="t")        # a 311-bit coefficient
def test_unipoly_text_matches_oracle_and_parses_back(c, var):
    f = UniPoly(c, var)
    text = str(f)
    assert text == text_oracle(f)
    assert repr(f) == "UniPoly(%s)" % text
    assert parse_poly(text, var) == f


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(text_rows, max_size=5),
       pair=st.sampled_from([("t", "r"), ("y", "r"), ("r", "t")]))
@example(rows=[], pair=("t", "r"))                       # zero
@example(rows=[[0], [], [1]], pair=("t", "r"))           # t^2 alone
@example(rows=[[0, 1]], pair=("y", "r"))                 # r alone
@example(rows=[[-1], [0, -1]], pair=("t", "r"))          # -r*t-1
@example(rows=[[5], [0, 0, 2 ** 305]], pair=("y", "r"))  # big, constant
def test_bipoly_text_matches_oracle(rows, pair):
    outer, inner = pair
    f = BiPoly([UniPoly(r, inner) for r in rows], outer, inner)
    text = str(f)
    assert text == text_oracle(f)
    assert repr(f) == "BiPoly(%s)" % text
    # a BiPoly of one variable prints as that variable's UniPoly
    if f.degree_outer == 0:
        assert parse_poly(text, inner) == f.cs[0]


@settings(max_examples=50, deadline=None)
@given(a=small_polys, b=small_polys)
def test_mul_degree_additive(a, b):
    f, g = mk(a), mk(b)
    assert (f * g).degree == f.degree + g.degree


# --- gcd against the Euclid oracle ------------------------------------

@settings(max_examples=60, deadline=None)
@given(a=small_polys, b=small_polys)
def test_gcd_matches_euclid_oracle(a, b):
    got = poly_gcd(mk(a), mk(b))
    assert list(got.c) == euclid_gcd(a, b)


@settings(max_examples=40, deadline=None)
@given(a=small_polys, b=small_polys, c=small_polys)
def test_gcd_planted_common_factor(a, b, c):
    f, g, h = mk(a), mk(b), mk(c)
    d = poly_gcd(f * h, g * h)
    # h divides the gcd; the quotient must be exact
    assert d.divexact(h.primitive()) is not None


def test_gcd_of_derivative_detects_square():
    f = (U - 1) ** 2 * (U + 3)
    assert poly_gcd(f, f.deriv()) == U - 1
    assert squarefree_part(f) == (U - 1) * (U + 3)
    assert not is_separable(f)
    assert is_separable((U - 1) * (U + 3))


def test_squarefree_mod_q_and_its_fallbacks(monkeypatch):
    # Squarefree mod q = poly._SQUAREFREE_PRIME (65521) proves squarefree
    # over Q without the exact gcd; a repeated factor, q | disc and q | lc
    # run the exact gcd.
    q = poly._SQUAREFREE_PRIME
    calls = []
    real = poly.poly_gcd

    def counted(f, g):
        calls.append(f)
        return real(f, g)

    monkeypatch.setattr(poly, "poly_gcd", counted)
    f = (X - 1) * (X + 3) * (X ** 2 + 5)
    assert squarefree_part(f) == f and is_separable(f) and not calls
    assert squarefree_part(f * -6) == f and not calls
    cases = [((X - 1) ** 2 * (X + 3), (X - 1) * (X + 3), False),
             ((X - 1) * (X - 1 - q), (X - 1) * (X - 1 - q), True),
             (q * X ** 2 + X + 1, q * X ** 2 + X + 1, True)]
    for g, part, separable in cases:
        del calls[:]
        assert squarefree_part(g) == part and len(calls) == 1
        assert is_separable(g) == separable and len(calls) == 2


# --- resultants against the Sylvester oracle ---------------------------

def test_resultant_sign_pinned():
    # Res_t(r - t, r + t) = 2r with rows ordered (first poly on top)
    r_minus_t = BiPoly.gen_outer("t", "r") * (-1) + BiPoly.from_inner(
        UniPoly.gen("r"), "t")
    r_plus_t = BiPoly.gen_outer("t", "r") + BiPoly.from_inner(
        UniPoly.gen("r"), "t")
    assert resultant(r_minus_t, r_plus_t) == 2 * UniPoly.gen("r")


bi_coeffs = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), max_size=3),
    min_size=1, max_size=4).filter(lambda cs: any(cs[-1]))


@settings(max_examples=50, deadline=None)
@given(a=bi_coeffs, b=bi_coeffs)
def test_resultant_matches_sylvester(a, b):
    f = BiPoly([mk(c, "r") for c in a], "t", "r")
    g = BiPoly([mk(c, "r") for c in b], "t", "r")
    got = resultant(f, g)
    for r0 in (0, 1, -2, 5):
        av = [mk(c, "r")(r0) for c in a]
        bv = [mk(c, "r")(r0) for c in b]
        if not av[-1] or not bv[-1]:
            continue  # lead collapsed: specialization != resultant here
        # row order pinned by Res_t(r-t, r+t) = +2r: second poly on top
        assert got(r0) == sylvester_resultant(bv, av)


RESULTANT_PRIMES = [2, 3, 101, 2 ** 31 - 1, 2 ** 61 - 1]


@pytest.mark.parametrize("p", RESULTANT_PRIMES)
def test_resultant_p_matches_sylvester(p):
    rng = random.Random(p)

    def draw(n, keep_lead=True):
        """n + 1 coefficients; the last is a nonzero multiple of p unless
        keep_lead, so that the degree drops mod p."""
        c = [rng.randrange(-3 * p, 3 * p) for _ in range(n + 1)]
        c[-1] = (rng.choice([1, -1]) * rng.randrange(1, p) + 3 * p
                 if keep_lead else rng.randrange(1, 5) * p)
        return c

    cases = [([5], [7]), ([5], [1, 2, 3]), ([1, 2, 3], [p]), ([p], [1, 2]),
             ([p, 2 * p], [1, 1]), ([1, p], [3, p])]
    for _ in range(60):
        m, n = rng.randrange(0, 8), rng.randrange(0, 8)
        a, b = draw(m, rng.random() < 0.7), draw(n, rng.random() < 0.7)
        cases.append((a, b))
        common = draw(rng.randrange(1, 3))
        cases.append((poly_mul(a, common), poly_mul(b, common)))
    drops = zeros = 0
    for a, b in cases:
        want = int(sylvester_resultant(a, b)) % p
        assert poly_resultant_p(a, b, p) == want, (a, b)
        drops += bool(a[-1] % p == 0 or b[-1] % p == 0)
        zeros += want == 0
    assert drops > 10 and zeros > 10
    assert poly_resultant_p([], [1, 2], p) == 0


def resultant_operands(p):
    """(p, a, b) with entries, leading ones too, that are often nonzero
    multiples of p."""
    entry = st.one_of(st.integers(-3, 3).map(lambda j: j * p),
                      st.integers(-3 * p, 3 * p))
    lead = st.one_of(st.integers(1, 3).map(lambda j: j * p),
                     st.integers(1, 3 * p)).flatmap(
                         lambda v: st.sampled_from([v, -v]))
    poly = st.tuples(st.lists(entry, max_size=7), lead).map(
        lambda t: t[0] + [t[1]])
    return st.tuples(st.just(p), poly, poly)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 101, 65521, 2 ** 61 - 1]).flatmap(
    resultant_operands))
# the column expansion, by lc(b)**(m - deg a) with its sign and by
# lc(a)**(n - deg b)
@example((101, [3, 7, 202], [5, 2, 9, 4]))
@example((101, [3, 7, 2, 5], [5, 4, 303]))
def test_resultant_p_matches_sylvester_on_vanishing_slots(case):
    # Formal degrees above the degree mod p (the column expansion when one
    # leading coefficient vanishes, 0 when both do) and chains of top
    # slots that vanish inside the remainder sequence.
    p, a, b = case
    assert poly_resultant_p(a, b, p) == int(sylvester_resultant(a, b)) % p


def smoothness_resultant_pairs(n):
    """(F, F_t) and (F, F_r) for the model that the smoothness certificate
    of J(k, l) proves smooth, D(k, l) or D1(l, l), for every hyperbolic
    (k, l) with |k|, |l| <= n."""
    for k in range(-n, n + 1):
        for l in range(-n, n + 1):
            if classify(k, l) == HYPERBOLIC:
                knot = Knot(k, l)
                F = (knot.D_split[1] if k == l else knot.D).equation
                yield F, F.deriv_outer()
                yield F, F.deriv_inner()


@pytest.mark.parametrize("p", [101, 2 ** 61 - 1])
def test_resultant_mod_p_matches_exact_resultant(p, monkeypatch):
    rng = random.Random(p)
    r = BiPoly.from_inner(UniPoly.gen("r"), "t")
    t = BiPoly.gen_outer("t", "r")
    # leading t-coefficients that vanish at evaluation points
    pairs = [(r * (r - 1) * t ** 2 + t - 3, (r - 2) * t + r ** 2),
             (t ** 3 - r, t ** 3 + r),
             # the bound is 2 * 50 = p - 1 when p = 101
             (t + r ** 50, t - r ** 50),
             # Hadamard's bound alone gives B = 5 here (h**2 = 3**4), where
             # the leading t-coefficient r - 32 vanishes at r = 2**B
             ((r - 32) * t ** 2 + 1, BiPoly.const(3, "t", "r"))]
    f = pairs[-1][0]
    B = poly._kronecker_bits([list(c.c) for c in f.cs], [[3]])
    assert B > 6 and f.eval_inner(1 << B).degree == 2
    for _ in range(20):
        f, g = (BiPoly([UniPoly([rng.randint(-9, 9) for _ in range(3)], "r")
                        for _ in range(rng.randint(1, 4))], "t", "r")
                for _ in range(2))
        if not f.is_zero and not g.is_zero:
            pairs.append((f, g))
    # past the gate: outer degree 20 with bound 80, and R1 of D(16, -18)
    past = [tuple(BiPoly([UniPoly([rng.randint(-9, 9), 0, 1], "r")
                          for _ in range(21)], "t", "r") for _ in range(2))]
    if p > 2 ** 32:
        F = Knot(16, -18).D.equation
        past.append((F, F.deriv_outer()))
        models = list(smoothness_resultant_pairs(10))
        assert len(models) == 2 * 258
        pairs += models
    interpolated = []
    interpolate = poly._interpolate_p
    monkeypatch.setattr(poly, "_interpolate_p", lambda values, q: (
        interpolated.append(q) or interpolate(values, q)))
    gate = poly.KRONECKER_GATE
    for f, g in pairs + past:
        exact = resultant(f, g)
        want = trim([c % p for c in exact.c])
        B = poly._kronecker_bits([list(c.c) for c in f.cs],
                                 [list(c.c) for c in g.cs])
        # the balanced base-2**B digits of exact(2**B) are its coefficients
        assert all(2 * abs(c) < 1 << B for c in exact.c), (f, g)
        # the gate's route, then the evaluation and the Kronecker route
        for route in (gate, 0, math.inf):
            monkeypatch.setattr(poly, "KRONECKER_GATE", route)
            del interpolated[:]
            got, bound = resultant_mod_p(f, g, p)
            assert exact.degree <= bound
            assert got == want, (f, g, route)
            if route == gate:
                assert bool(interpolated) == ((f, g) in past), (f, g)
    # the bound must stay below p before a route is chosen: 1 * 101
    # reaches 101
    for route in (0, math.inf):
        monkeypatch.setattr(poly, "KRONECKER_GATE", route)
        with pytest.raises(ExactError, match="too few"):
            resultant_mod_p((t - r) ** 40, t + r ** 3, 101)
        with pytest.raises(ExactError, match="too few"):
            resultant_mod_p(t + r ** 101, BiPoly.const(3, "t", "r"), 101)


def test_resultant_vanishes_iff_common_factor():
    f = (U - 3) * (U + 1)
    g = (U - 3) * (U ** 2 + 7)
    fb = BiPoly([mk([c], "r") for c in f.c], "t", "r")
    # build g with t as the variable too
    gb = BiPoly([mk([c], "r") for c in g.c], "t", "r")
    assert resultant(fb, gb).is_zero
    h = (U + 4) * (U ** 2 + 7)
    hb = BiPoly([mk([c], "r") for c in h.c], "t", "r")
    assert not resultant(fb, hb).is_zero


def test_resultant_multiplicative_in_first_slot():
    R = UniPoly.gen("r")
    t = BiPoly.gen_outer("t", "r")
    rb = BiPoly.from_inner(R, "t")
    f1 = t - rb
    f2 = t ** 2 + rb
    g = t ** 2 - rb * t + 2
    lhs = resultant(f1 * f2, g)
    rhs = resultant(f1, g) * resultant(f2, g)
    assert lhs == rhs


# --- roots and factorization helpers ------------------------------------

def test_rational_roots_with_multiplicity():
    f = (2 * U - 1) ** 2 * (U + 3) * (U ** 2 + 1)
    assert rational_roots(f) == [(Fraction(-3), 1), (Fraction(1, 2), 2)]
    assert rational_roots(U ** 3) == [(Fraction(0), 3)]
    assert rational_roots(U ** 2 + 1) == []


@settings(max_examples=30, deadline=None)
@given(roots=st.lists(st.integers(min_value=-8, max_value=8),
                      min_size=1, max_size=4))
def test_rational_roots_recovers_planted_integers(roots):
    f = UniPoly.const(1, "u")
    for r0 in roots:
        f = f * (U - r0)
    got = rational_roots(f)
    assert sorted(sum([[r] * m for r, m in got], [])) == sorted(
        Fraction(r) for r in roots)


def test_modp_pattern_vs_brute_roots():
    f = U ** 4 - U - 1
    for p in (5, 7, 11, 13, 17):
        pat = modp_degree_pattern(f, p)
        if pat == BAD_PRIME:
            continue
        assert pat.count(1) == len(brute_modp_roots(f, p))
        assert sum(pat) == 4


def test_modp_pattern_bad_prime():
    f = 5 * U ** 2 + U + 1
    assert modp_degree_pattern(f, 5) == BAD_PRIME   # kills the lead
    g = (U - 1) ** 2
    assert modp_degree_pattern(g, 7) == BAD_PRIME   # not squarefree


def test_modp_pattern_refuses_a_non_exact_quotient(monkeypatch, capsys):
    # the factors found divide what is left of f exactly; a remainder
    # would be a broken kernel: an invariant failure, not a refused input
    f = (U - 1) * (U - 2) * (U ** 2 + 1)
    assert modp_degree_pattern(f, 7) == [1, 1, 2]
    # the trace field of J(2, 4) splits at its first good prime
    analysis = Knot(2, 4).trace_field.analysis
    assert analysis.sampled_primes[0] == 53
    assert analysis.patterns[0] == [1, 2]
    monkeypatch.setattr(kernels, "euclid_divmod_p",
                        lambda a, b, sl: ((0, -1), (1, 0)))
    with pytest.raises(AssertionError, match="non-exact division mod 7"):
        modp_degree_pattern(f, 7)
    # so `analyze` exits 1 instead of printing the trace field unavailable
    assert main(["analyze", "-k", "2", "-l", "4"]) == 1
    assert "non-exact division mod 53" in capsys.readouterr().err


DDF_PRIMES = [2, 3, 5, 53, 101, 2 ** 31 - 1, 2 ** 61 - 1]


def random_squarefree_mod_p(rng, n, p):
    """Coefficients of a random degree-n polynomial, squarefree mod p."""
    while True:
        c = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
        dc = [(i * x) % p for i, x in enumerate(c)][1:]
        if len(poly_gcd_p(c, dc, p)) == 1:
            return c


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from(DDF_PRIMES), n=st.integers(1, 70),
       seed=st.integers(0, 2 ** 32))
def test_modp_pattern_matches_powmod_ddf(p, n, seed):
    f = mk(random_squarefree_mod_p(random.Random(seed), n, p), "x")
    pat = modp_degree_pattern(f, p)
    assert pat == powmod_ddf_pattern(f, p)
    assert sum(pat) == n


def planted_product(p, planted):
    """A product over GF(p) of distinct random monic irreducible factors
    of the planted degrees."""
    rng = random.Random(p)
    factors = []
    for d in planted:
        while True:
            g = [rng.randrange(p) for _ in range(d)] + [1]
            if g not in factors and \
                    powmod_ddf_pattern(mk(g, "x"), p) == [d]:
                factors.append(g)
                break
    prod = [1]
    for g in factors:
        prod = poly_mul_p(prod, g, p)
    return prod


@pytest.mark.parametrize("p,planted", [
    (2, [1, 1, 2, 3, 3, 4, 4, 5]),
    (3, [1, 2, 2, 3, 6, 7]),
    (53, [1, 1, 1, 4, 4, 9, 12]),
    (101, [2, 3, 5, 8, 13]),
    (2 ** 31 - 1, [1, 2, 2, 6, 11])])
def test_modp_pattern_of_planted_irreducible_factors(p, planted):
    prod = planted_product(p, planted)
    assert modp_degree_pattern(mk(prod, "x"), p) == sorted(planted)


# Degree blocks [d0, d1], d1 = min(2*d0 - 1, deg v // 2), are [1, 1],
# [2, 3], [4, 7], ... while v is large enough.
@pytest.mark.parametrize("planted", [
    [2, 2, 2, 3, 3],  # P = 0 mod f, and 12 = 2*6 = 3*4 too: split
    [2, 3],           # block [2, 2], cut short by deg v // 2
    [2, 3, 7],        # block [2, 3] takes degree 5 = 2 + 3 only
    [4, 7, 8],        # d0, 2*d0 - 1 and 2*d0 of block [4, 7]: 11 = 5 + 6
    [2, 2, 3],        # P = 0 mod f, and 7 = 2 + 2 + 3 only
    [2, 3, 3],        # P = 0 mod f, and 8 = 2 + 2 + 2 + 2 too: split
], ids=["ambiguous", "short-block", "unique", "block-edges", "zero-unique",
        "zero-split"])
@pytest.mark.parametrize("p", [3, 53, 2 ** 61 - 1])
def test_modp_pattern_at_block_edges(p, planted):
    prod = planted_product(p, planted)
    if max(planted) <= 3 and len(prod) - 1 >= 6:
        # block [2, 3] holds every factor, so its P is zero mod f
        P = [1]
        for d in (2, 3):
            diff = square_multiply_powmod_p([0, 1], p ** d, prod, p)
            diff += [0] * (2 - len(diff))
            diff[1] -= 1
            P = poly_rem_p(poly_mul_p(P, diff, p), prod, p)
        assert P == []
    assert modp_degree_pattern(mk(prod, "x"), p) == sorted(planted)


# p - 1 at the top of a slot read unit of 1, 2, 4 and 8 bytes, and just
# past it
@pytest.mark.parametrize("planted", [
    [1, 2, 2, 6, 11],  # planted factors in several blocks
    [4, 7, 8],         # d0, 2*d0 - 1 and 2*d0 of block [4, 7]
    [2, 2, 2, 3, 3],   # P = 0 mod f, and 12 = 2*6 = 3*4 too: split
], ids=["planted", "block-edges", "ambiguous"])
@pytest.mark.parametrize("p", [251, 257, 65521, 65537, 2 ** 32 + 15,
                               2 ** 61 - 1])
def test_modp_pattern_at_read_unit_edges(p, planted):
    f = mk(planted_product(p, planted), "x")
    assert modp_degree_pattern(f, p) == powmod_ddf_pattern(f, p) == \
        sorted(planted)


@pytest.mark.parametrize("p", DDF_PRIMES)
def test_modp_pattern_bad_primes_match_powmod_ddf(p):
    for f in (p * X ** 5 + X + 1,                        # kills the lead
              (X - 1) ** 2 * (X ** 3 + 2) + p * X,       # square mod p only
              (X ** 2 + X + 1) ** 2 * (X - 2)):          # square over Q
        assert modp_degree_pattern(f, p) == BAD_PRIME
        assert powmod_ddf_pattern(f, p) == BAD_PRIME


@pytest.mark.parametrize("k,l", [(2, -2), (4, -6), (-8, -6), (5, 8),
                                 (13, -10), (-14, -9)])
def test_modp_pattern_of_trace_field_polys(k, l):
    f = squarefree_part(trace_field_poly(c_model(k, l)))
    p = 53
    for _ in range(4):
        assert modp_degree_pattern(f, p) == powmod_ddf_pattern(f, p)
        p = next_prime(p)


def test_irreducibility_three_verdicts():
    a = irreducibility_analysis(U ** 2 + 1)
    assert a.verdict == "irreducible"
    # -1 is a square mod 53 but not mod 59, where one prime is a witness
    assert a.sampled_primes == (53, 59)
    assert a.patterns == ([1, 1], [2])
    lin = irreducibility_analysis(2 * U + 3)
    assert lin.verdict == "irreducible"
    assert lin.sampled_primes == () and lin.patterns == ()
    b = irreducibility_analysis(4 * U ** 2 - 1)
    assert b.verdict == "reducible"
    assert b.root == Fraction(-1, 2) and b.factor_degrees == (1, 1)
    # x^4+1 is irreducible over Q but reducible mod every prime
    c = irreducibility_analysis(X ** 4 + 1)
    assert c.verdict == "inconclusive"
    assert 2 in c.degree_sums


def test_loop_proof_needs_no_rational_root_search(monkeypatch):
    # the root search runs only after the prime loop ends without a proof
    def refuse(f):
        raise AssertionError("rational_roots called on %s" % f)

    monkeypatch.setattr(poly, "rational_roots", refuse)
    for f in (U ** 2 + 1, U ** 4 + 8 * U + 12):
        assert irreducibility_analysis(f).verdict == "irreducible"
    with pytest.raises(AssertionError, match="rational_roots"):
        irreducibility_analysis(X ** 4 + 1)


def test_first_bad_prime_runs_squarefree_part_once(monkeypatch):
    # 53, the first prime the loop tries, divides the leading coefficient;
    # squarefree_part then proves f squarefree and the loop goes on
    calls = []
    real = poly.squarefree_part

    def counted(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(poly, "squarefree_part", counted)
    f = 53 * X ** 2 + X + 1
    assert not poly._squarefree_mod_p(f.c, 53)
    a = irreducibility_analysis(f)
    assert calls == [f]
    assert a.verdict == "irreducible" and 53 not in a.sampled_primes
    # a first prime that is good proves f squarefree by itself
    del calls[:]
    assert irreducibility_analysis(U ** 2 + 1).verdict == "irreducible"
    assert calls == []


def test_not_squarefree_raises_with_its_part():
    with pytest.raises(poly.NotSquarefree) as info:
        irreducibility_analysis((X - 1) ** 2 * (X ** 2 + 5))
    assert info.value.args[1] == (X - 1) * (X ** 2 + 5)
    assert isinstance(info.value, ExactError)


def test_irreducible_by_degree_sets():
    # Galois group A4: no prime keeps it irreducible, but a factor would
    # need degree 2 mod 53 and degree 1 or 3 mod 59.
    f = U ** 4 + 8 * U + 12
    a = irreducibility_analysis(f)
    assert a.verdict == "irreducible"
    assert a.sampled_primes == (53, 59)
    assert a.patterns == ([2, 2], [1, 3])
    assert [modp_degree_pattern(f, p) for p in a.sampled_primes] == \
        list(a.patterns)


def test_prime_search_stays_below_the_widest_slot_unit():
    # |lc c0| >= 2**256 would start the search at 2**64 or past it, where
    # the kernels refuse p (no unit of at most 8 bytes holds p - 1); it
    # starts at 2**63 instead
    f = 2 ** 131 * X ** 2 + 3 ** 83
    with pytest.raises(ValueError):
        modp_degree_pattern(f, next_prime(2 ** 64))
    a = irreducibility_analysis(f)
    assert a.verdict == "irreducible"
    assert all(2 ** 63 < p < 2 ** 64 for p in a.sampled_primes)
    assert [modp_degree_pattern(f, p) for p in a.sampled_primes] == \
        list(a.patterns)


def test_no_good_prime_leaves_every_degree_open():
    # Every one of the 40 primes after 50 divides D, and f = (x - 1)**2 *
    # (x + 2) mod each of them, so no good prime is found.
    D, p = 1, 50
    for _ in range(40):
        p = next_prime(p)
        D *= p
    f = X ** 3 + (D - 3) * X + 2
    a = irreducibility_analysis(f, prime_budget=1)
    assert a.verdict == "inconclusive"
    assert a.sampled_primes == ()
    assert a.degree_sums == {1, 2}


def test_is_prime_matches_a_sieve():
    n = 20000
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n, i)))
    assert [m for m in range(n) if is_prime(m)] == \
        [m for m in range(n) if sieve[m]]
    assert not is_prime(-7) and not is_prime(41 * 41) and is_prime(1693)


def test_primes_and_factorint():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert next_prime(90) == 97
    n = 2 ** 4 * 3 * 10007
    assert factorint(n) == {2: 4, 3: 1, 10007: 1}
    assert factorint(1) == {}


# --- quadratic integers -------------------------------------------------

def test_quadelem_gauss_arithmetic():
    i = QuadElem(0, 1, -1)
    assert i * i == QuadElem(-1, 0, -1)
    z = (2 + 3 * i) * (2 - 3 * i)
    assert z == QuadElem(13, 0, -1)
    assert (1 + i) ** 4 == QuadElem(-4, 0, -1)


def test_quadelem_root_three_arithmetic():
    b = QuadElem(0, 1, 3)
    assert b * b == QuadElem(3, 0, 3)
    assert (b - 2) * (b + 2) == QuadElem(-1, 0, 3)


def test_quadelem_rejects_mixed_rings():
    i = QuadElem(0, 1, -1)
    b = QuadElem(0, 1, 3)
    with pytest.raises(ExactError):
        i + b
    with pytest.raises(ExactError):
        QuadElem(1, 1, 5)


# --- the float root finder of the modulus-lemma oracle -----------------

def test_complex_roots_known_values():
    roots = complex_roots(U ** 2 + 1)
    assert sorted(round(z.imag, 9) for z in roots) == [-1.0, 1.0]
    assert all(abs(z.real) < 1e-9 for z in roots)
    roots = complex_roots((U - 2) * (U + 5) * (U - 7))
    assert sorted(round(z.real, 6) for z in roots) == [-5.0, 2.0, 7.0]


def test_complex_roots_residual_bound():
    f = U ** 6 - 3 * U + 1
    norm = sum(abs(c) for c in f.c)
    for z in complex_roots(f, tol=1e-12):
        val = sum(c * z ** i for i, c in enumerate(f.c))
        assert abs(val) / norm < 1e-12
