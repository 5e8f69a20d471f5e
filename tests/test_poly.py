"""Exact polynomial layer against independent oracles.

Oracles (defined before any test that uses them):
  * sylvester_resultant -- Fraction determinant of the Sylvester matrix,
  * euclid_gcd -- monic remainder sequence over Q, made primitive,
  * brute_modp_roots -- trial evaluation over GF(p),
  * powmod_ddf_pattern -- distinct-degree factorization with one powmod
    x**(p**d) per degree and one gcd per degree, re-reduced modulo what is
    left of f; its powmod (square_multiply_powmod_p) reduces by schoolbook
    division, not by the packed Barrett products of the production powmod.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bridgevar import poly
from bridgevar.kernels import (poly_gcd_p, poly_mul, poly_mul_p, poly_rem_p,
                               poly_resultant_p, trim)
from bridgevar.knotprops import trace_field_poly
from bridgevar.poly import (BAD_PRIME, BiPoly, ExactError, QuadElem, UniPoly,
                            complex_roots, irreducibility_analysis, factorint,
                            is_prime, is_separable, modp_degree_pattern,
                            next_prime, parse_poly, poly_gcd, rational_roots,
                            resultant, resultant_mod_p, squarefree_part)


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


def brute_modp_roots(f, p):
    fz = f.clear_denominators()
    return sorted(x for x in range(p)
                  if sum(c * pow(x, i, p) for i, c in enumerate(fz.c)) % p == 0)


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
    c = [x % p for x in f.clear_denominators().c]
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
    half = mk([6, -3, 2]).divexact(2)
    assert half.c == (3, Fraction(-3, 2), 1)
    assert all(type(v) is Fraction for v in half.c)
    mixed = mk([Fraction(3, 2), 3]).divexact(3)
    assert mixed.c == (Fraction(1, 2), 1)
    assert all(type(v) is Fraction for v in mixed.c)
    assert mk([Fraction(4, 3), 4]).divexact(Fraction(2, 3)).c == (2, 6)
    with pytest.raises(ZeroDivisionError):
        mk([1, 2]).divexact(0)


def test_primitive_sign_convention():
    assert mk([2, -4]).primitive() == mk([-1, 2])
    assert mk([-2, 4]).primitive() == mk([-1, 2])
    assert mk([0]).primitive().is_zero


def bipoly_primitive_oracle(F):
    """Clear denominators, divide by the integer content, fix the sign."""
    if F.is_zero:
        return F
    f = F.clear_denominators()
    g = 0
    for c in f.cs:
        g = math.gcd(g, c.content())
    f = BiPoly([c.divexact(g) for c in f.cs], F.outer, F.inner)
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
        bi([Fraction(1, 2), 3], [Fraction(-5, 6)]),
        bi([Fraction(4, 3), Fraction(-2, 3)], [Fraction(-8, 3)]),
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
    # Squarefree mod q = 2**61 - 1 proves squarefree over Q without the
    # exact gcd; a repeated factor, q | disc and q | lc run the exact gcd.
    q = 2 ** 61 - 1
    calls = []
    real = poly.poly_gcd

    def counted(f, g):
        calls.append(f)
        return real(f, g)

    monkeypatch.setattr(poly, "poly_gcd", counted)
    f = (X - 1) * (X + 3) * (X ** 2 + 5)
    assert squarefree_part(f) == f and is_separable(f) and not calls
    assert squarefree_part(f * Fraction(-2, 3)) == f and not calls
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
    assert resultant(r_minus_t, r_plus_t, "t") == 2 * UniPoly.gen("r")


bi_coeffs = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), max_size=3),
    min_size=1, max_size=4).filter(lambda cs: any(cs[-1]))


@settings(max_examples=50, deadline=None)
@given(a=bi_coeffs, b=bi_coeffs)
def test_resultant_matches_sylvester(a, b):
    f = BiPoly([mk(c, "r") for c in a], "t", "r")
    g = BiPoly([mk(c, "r") for c in b], "t", "r")
    got = resultant(f, g, "t")
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


@pytest.mark.parametrize("p", [101, 2 ** 61 - 1])
def test_resultant_mod_p_matches_exact_resultant(p):
    rng = random.Random(p)
    r = BiPoly.from_inner(UniPoly.gen("r"), "t")
    t = BiPoly.gen_outer("t", "r")
    # leading t-coefficients that vanish at evaluation points
    pairs = [(r * (r - 1) * t ** 2 + t - 3, (r - 2) * t + r ** 2),
             (t ** 3 - r, t ** 3 + r)]
    for _ in range(20):
        f, g = (BiPoly([UniPoly([rng.randint(-9, 9) for _ in range(3)], "r")
                        for _ in range(rng.randint(1, 4))], "t", "r")
                for _ in range(2))
        if not f.is_zero and not g.is_zero:
            pairs.append((f, g))
    for f, g in pairs:
        got, bound = resultant_mod_p(f, g, p)
        exact = resultant(f, g, "t")
        assert exact.degree <= bound
        assert got == trim([c % p for c in exact.c]), (f, g)
    with pytest.raises(ExactError, match="too few"):
        resultant_mod_p((t - r) ** 40, t + r ** 3, 101)


def test_resultant_vanishes_iff_common_factor():
    f = (U - 3) * (U + 1)
    g = (U - 3) * (U ** 2 + 7)
    fb = BiPoly([mk([c], "r") for c in f.c], "t", "r")
    # build g with t as the variable too
    gb = BiPoly([mk([c], "r") for c in g.c], "t", "r")
    assert resultant(fb, gb, "t").is_zero
    h = (U + 4) * (U ** 2 + 7)
    hb = BiPoly([mk([c], "r") for c in h.c], "t", "r")
    assert not resultant(fb, hb, "t").is_zero


def test_resultant_multiplicative_in_first_slot():
    R = UniPoly.gen("r")
    t = BiPoly.gen_outer("t", "r")
    rb = BiPoly.from_inner(R, "t")
    f1 = t - rb
    f2 = t ** 2 + rb
    g = t ** 2 - rb * t + 2
    lhs = resultant(f1 * f2, g, "t")
    rhs = resultant(f1, g, "t") * resultant(f2, g, "t")
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
    f = squarefree_part(trace_field_poly(k, l, canonical=True))
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
    b = irreducibility_analysis(U ** 2 - Fraction(1, 4))
    assert b.verdict == "reducible"
    # x^4+1 is irreducible over Q but reducible mod every prime
    c = irreducibility_analysis(X ** 4 + 1)
    assert c.verdict == "inconclusive"
    assert 2 in c.degree_sums


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


# --- numerical root finder (the one non-exact routine) ------------------

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
