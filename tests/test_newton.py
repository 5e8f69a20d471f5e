"""Newton polygons, valuations, and the valuation-lemma polynomials.

Oracle: `is_lower_hull` re-verifies a claimed polygon from the
definition alone -- every vertex is an input point, every input point
lies on or above every hull edge, and the slopes strictly increase.
Root-valuation readings are checked against planted factorizations.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from bridgevar import newton
from bridgevar.newton import (INFINITY, _roots_inside_unit_circle,
                              binom_check, complexabs_check,
                              expected_vertices, lemma_polynomial,
                              poly_points, polygon, val_quad, val_rat)
from bridgevar.poly import ExactError, QuadElem, UniPoly
from modulus_oracle import float_moduli

X = UniPoly.gen("x")


# --- oracle --------------------------------------------------------------

def is_lower_hull(points, vertices):
    finite = [(x, y) for x, y in points if y != INFINITY]
    vert = [(x, y) for x, y in vertices if y != INFINITY]
    if not finite:
        return not vert
    # every vertex is one of the points
    if any(v not in finite for v in vert):
        return False
    # edges have strictly increasing slope and support all points
    for (x1, y1), (x2, y2) in zip(vert, vert[1:]):
        if x2 <= x1:
            return False
        for (x, y) in finite:
            # y >= line through the edge at x, cross-multiplied
            if (y - y1) * (x2 - x1) < (y2 - y1) * (x - x1):
                return False
    slopes = [Fraction(y2 - y1, x2 - x1)
              for (x1, y1), (x2, y2) in zip(vert, vert[1:])]
    return all(a < b for a, b in zip(slopes, slopes[1:]))


# --- valuations -----------------------------------------------------------

def test_val_rat_basics():
    assert val_rat(12, 2) == 2
    assert val_rat(Fraction(1, 8), 2) == -3
    assert val_rat(0, 5) == INFINITY
    assert val_rat(Fraction(9, 5), 3) == 2
    with pytest.raises(ExactError):
        val_rat(6, 4)


def test_val_quad_pinned():
    i = QuadElem(0, 1, -1)
    assert val_quad(1 + i) == 0                 # norm 2, prime to 3
    assert val_quad(3) == 1                     # 3 inert: v(3) = 1
    assert val_quad(QuadElem(0, 3, -1)) == 1
    b = QuadElem(0, 1, 3)
    assert val_quad(b) == Fraction(1, 2)        # ramified
    assert val_quad(b ** 2) == 1
    assert val_quad(0) == INFINITY
    # a rational has the same valuation in both rings
    assert val_quad(Fraction(9, 2)) == 2
    assert val_quad(QuadElem(Fraction(9, 2), 0, 3)) == 2


# --- polygon construction ---------------------------------------------------

def test_polygon_known_example():
    f = (X - 2) * (X - 4) * (2 * X - 1)
    pg = polygon(poly_points(f, 2))
    assert pg.vertices == ((0, Fraction(3)), (1, Fraction(1)),
                           (2, Fraction(0)), (3, Fraction(1)))
    assert pg.slopes == (Fraction(-2), Fraction(-1), Fraction(1))


def test_polygon_matches_hull_oracle_on_planted_roots():
    f = (X - 2) * (X - 4) * (2 * X - 1)
    pg = polygon(poly_points(f, 2))
    assert is_lower_hull(pg.points, pg.vertices)
    # valuations of the actual roots 2, 4, 1/2
    assert pg.root_valuations() == ((Fraction(-1), 1), (Fraction(1), 1),
                                    (Fraction(2), 1))


def test_polygon_zero_roots_read_as_infinite_valuation():
    g = X ** 3 - 3 * X ** 2
    assert polygon(poly_points(g, 3)).root_valuations() == ((Fraction(1), 1),
                                                  (INFINITY, 2))


def test_polygon_all_infinite_rejected():
    with pytest.raises(ExactError):
        polygon([(0, INFINITY), (1, INFINITY)])


@settings(max_examples=60, deadline=None)
@given(vals=st.lists(
    st.one_of(st.integers(min_value=-6, max_value=6),
              st.just(None)),          # None = infinite (zero coefficient)
    min_size=2, max_size=10))
def test_polygon_is_lower_hull_property(vals):
    if all(v is None for v in vals) or vals[-1] is None:
        return
    pts = [(i, INFINITY if v is None else Fraction(v))
           for i, v in enumerate(vals)]
    pg = polygon(pts)
    assert is_lower_hull(pts, pg.vertices)
    # total horizontal length of segments = degree of first finite point
    first = next(i for i, v in enumerate(vals) if v is not None)
    counts = sum(c for _v, c in pg.root_valuations())
    assert counts == len(vals) - 1


@settings(max_examples=30, deadline=None)
@given(roots=st.lists(st.sampled_from([2, 4, 8, 1, 3, 5,
                                       Fraction(1, 2), Fraction(3, 4)]),
                      min_size=1, max_size=5))
def test_polygon_recovers_planted_valuations(roots):
    f = UniPoly.const(1, "x")
    for r0 in map(Fraction, roots):
        f = f * (r0.denominator * X - r0.numerator)
    got = {}
    for v, c in polygon(poly_points(f, 2)).root_valuations():
        got[v] = got.get(v, 0) + c
    want = {}
    for r0 in roots:
        v = val_rat(Fraction(r0), 2)
        want[v] = want.get(v, 0) + 1
    assert got == want


# --- lemma polynomials -------------------------------------------------------

def test_lemma_polynomial_coefficients_by_binomial_theorem():
    n, p = 3, 2
    lp = lemma_polynomial("one", n, p)
    # (S+1)^{4n} + 2n (S+1)^{2n+1} - 2n (S+1)^{2n-1} - 1
    for k in (0, 1, 2, 5, 12):
        want = (comb(4 * n, k) + 2 * n * comb(2 * n + 1, k)
                - 2 * n * comb(2 * n - 1, k) - (1 if k == 0 else 0))
        assert lp.coeffs[k] == want, k
    assert len(lp.coeffs) == 4 * n + 1


def test_lemma_polynomial_gauss_constant_term():
    # alpha = i: constant term (i)^{4n} + 2n(i^{2n+1} - i^{2n-1}) - 1
    n = 3
    lp = lemma_polynomial("i", n)
    i = QuadElem(0, 1, -1)
    want = i ** (4 * n) + 2 * n * (i ** (2 * n + 1) - i ** (2 * n - 1)) - 1
    assert lp.coeffs[0] == want


def test_lemma_polynomial_constraints():
    with pytest.raises(ExactError):
        lemma_polynomial("one", 3)             # needs a prime
    with pytest.raises(ExactError):
        lemma_polynomial("i", 4)               # needs 3 | n
    with pytest.raises(ExactError):
        lemma_polynomial("alpha", 5)
    with pytest.raises(ExactError):
        lemma_polynomial("beta", 3, 2)


def test_polygon_matches_expected_vertices_small():
    for p in (2, 3, 5):
        for n in range(1, 7):
            lp = lemma_polynomial("one", n, p)
            assert polygon(lp.points).vertices == \
                expected_vertices("one", n, p), (p, n)
    for kind in ("i", "alpha"):
        for n in (3, 6):
            lp = lemma_polynomial(kind, n)
            assert polygon(lp.points).vertices == \
                expected_vertices(kind, n), (kind, n)


def test_lemma_alpha_has_half_integer_heights():
    lp = lemma_polynomial("alpha", 3)
    verts = polygon(lp.points).vertices
    assert verts[0][1] == Fraction(val_quad(lp.coeffs[0]))
    assert any(y.denominator == 2 for _x, y in verts if y != INFINITY)


# --- binomial valuations -----------------------------------------------------

def test_binom_check_small_and_strict():
    chk = binom_check(12, 2)
    assert chk.ok
    es = {e["j"]: e for e in chk.entries}
    assert es[2]["lhs"] == es[2]["rhs"]          # equality for j <= e
    top = max(es)
    assert es[top]["rhs"] is None                # beyond e: only strict bound
    assert binom_check(81, 3).ok
    assert binom_check(54, 3).ok
    with pytest.raises(ExactError):
        binom_check(80, 3)                       # hypothesis needs p | n


def test_binom_equality_fails_beyond_e_sometimes():
    # v_2(C(10, 4)) = 1 != 0 = e - j, which is why rhs is None for j > e
    chk = binom_check(10, 2)
    assert chk.ok
    e2 = [x for x in chk.entries if x["j"] == 2][0]
    assert e2["rhs"] is None and e2["exact_ok"]


# --- halving-function modulus -------------------------------------------------

def test_complexabs_check_margins():
    chk = complexabs_check(range(-6, 7))
    assert chk.ok
    vac = {e["n"] for e in chk.entries if e.get("vacuous")}
    assert vac >= {-1, 1}                        # constant G_n: nothing to do
    real = [e for e in chk.entries if not e.get("vacuous")]
    assert real
    for e in real:                   # the float oracle, on the same side of 1
        mods = float_moduli(e["n"])
        assert len(mods) == e["roots"]
        assert mods[0] > 1 + 1e-9 if e["n"] > 0 else mods[-1] < 1 - 1e-9


def test_complexabs_check_fails_with_the_ratio_inverted(monkeypatch):
    # g_n / g_{n+1} has the reciprocal moduli, so every non-vacuous n fails
    real_g = newton.g_poly
    for n in (-5, -2, 2, 5):
        monkeypatch.setattr(newton, "g_poly",
                            lambda j, n=n: real_g(2 * n + 1 - j))
        assert not complexabs_check([n]).ok


def test_schur_cohn_rejects_roots_on_the_circle():
    assert not _roots_inside_unit_circle([-1, 0, 1])       # z^2 - 1
    assert not _roots_inside_unit_circle([1, 0, 1])        # z^2 + 1
    assert _roots_inside_unit_circle([-1, 2])              # 2z - 1
    assert not _roots_inside_unit_circle([1, 2, 0])        # formal degree 2
    inside = (2 * X - 1) * (3 * X + 1) * (4 * X ** 2 + 1)
    assert _roots_inside_unit_circle(inside.c)
    assert not _roots_inside_unit_circle((inside * (X + 1)).c)
    assert not _roots_inside_unit_circle((inside * (X ** 2 + 1)).c)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(1, 5)),
                min_size=1, max_size=6))
def test_schur_cohn_matches_planted_rational_roots(roots):
    f = UniPoly.const(1, "x")
    for a, b in roots:
        f = f * (b * X - a)                      # root a/b
    assert (_roots_inside_unit_circle(f.c)
            == all(abs(a) < b for a, b in roots))
