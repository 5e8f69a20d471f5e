"""Singular-locus certification and the two genus computations.

Oracle: hand-planted plane curves with known singularities (a node and
a cusp at chosen rational points) must be found exactly by the exact
subresultant route of `smoothness_oracle`, and refused by the modular
certificate; known-smooth ones must certify Empty.  Genus values are
pinned from the bidegree formula computed by hand.
"""

import pytest

from bridgevar.curves import CurveModel, c_model, d_model, d_split
from bridgevar.geometry import (CERTIFICATE_PRIMES, affine_singular_locus,
                                infinity_transversality,
                                modular_smoothness_trace, odd_point_report,
                                smoothness_certificate)
from bridgevar.knotprops import (HYPERBOLIC, NOT_A_KNOT, TORUS_NONHYPERBOLIC,
                                 TREFOIL, UNKNOT, classify)
from bridgevar.poly import BiPoly, ExactError, UniPoly, poly_gcd, resultant
from bridgevar.report import Knot
from smoothness_oracle import exact_singular_locus
from test_report_cli import GRID_KNOTS, LARGE_KNOTS

R = UniPoly.gen("r")
T = BiPoly.gen_outer("t", "r")
RB = BiPoly.from_inner(R, "t")


# --- affine singular locus on planted curves ----------------------------

NODE = T ** 2 - RB ** 2 * (RB + 1)
CUSP = (T - 1) ** 2 - (RB - 2) ** 3


def test_planted_node_is_found():
    v = exact_singular_locus(NODE)
    assert v.kind == "Points"
    assert [p["point"] for p in v.points] == [("0", "0")]
    assert all(p["verified"] for p in v.points)
    with pytest.raises(AssertionError, match="no prime"):
        affine_singular_locus(NODE)


def test_planted_cusp_is_found():
    v = exact_singular_locus(CUSP)
    assert v.kind == "Points"
    assert [p["point"] for p in v.points] == [("2", "1")]
    with pytest.raises(AssertionError, match="no prime"):
        affine_singular_locus(CUSP)


def test_two_planted_singularities():
    G = NODE.eval_outer(T + 3)       # move the node to (0, -3)
    v = exact_singular_locus(G)
    assert [p["point"] for p in v.points] == [("0", "-3")]
    with pytest.raises(AssertionError, match="no prime"):
        affine_singular_locus(G)


def test_smooth_parabola_certifies_empty():
    F = T - RB ** 2
    v = exact_singular_locus(F)
    assert v.kind == "Empty"
    assert v.points == ()


def test_non_reduced_input_rejected():
    for F in ((T - RB) ** 2,
              (T * RB + RB + 1) ** 2 * (T - RB ** 2),  # square in r and t
              (RB - 1) ** 2 * (T - RB ** 2)):          # squared content
        with pytest.raises(ExactError, match="non-reduced"):
            affine_singular_locus(F)


def test_affine_locus_refuses_a_polynomial_without_positive_bidegree():
    # unions of parallel lines, reduced or not, a constant and zero: the
    # certificate, and its oracle, take curves of positive degree in both
    # variables only
    for F in ((T - 1) * (T + 2), RB ** 2 - 3, (T - 1) ** 2 * (T + 2),
              T ** 0, T - T):
        with pytest.raises(ExactError, match="positive degree in both"):
            affine_singular_locus(F)
        with pytest.raises(ExactError, match="positive degree in both"):
            exact_singular_locus(F)


def test_resultant_trace_recorded():
    v = exact_singular_locus(T - RB ** 2)
    assert "res_degrees" in v.trace
    assert v.trace["gcd_r_degree"] == 0
    # the production witness of the figure-eight model r t - t - r
    v = affine_singular_locus(T * RB - T - RB)
    assert v["res_degrees_mod_p"] == {"Res_t(F,Ft)": 1, "Res_t(F,Fr)": 0}
    assert v["gcd_r_degree"] == 0


def test_singular_and_unproved_inputs_reach_the_exact_route():
    # Only the exact route (the oracle) handles these.  deg_r Res_t(F, F_t)
    # is 0 here, below the Sylvester bound 2, and no filter bounds the
    # gcd: no proof mod p, so the certificate refuses even the smooth
    # parabola, as an invariant failure.
    parabola = T - RB ** 2
    for F in (NODE, CUSP, NODE.eval_outer(T + 3), parabola):
        assert modular_smoothness_trace(F) is None
        assert "res_degrees" in exact_singular_locus(F).trace
        with pytest.raises(AssertionError, match="no prime"):
            affine_singular_locus(F)
    # a filter that keeps the node's r = 0 does not hide it
    u = UniPoly.gen("u")
    assert modular_smoothness_trace(NODE, u) is None
    v = exact_singular_locus(NODE, delta_filter=(u, u))
    assert v.kind == "Points" and v.points[0]["point"] == ("0", "0")
    with pytest.raises(AssertionError, match="no prime"):
        affine_singular_locus(NODE, u)


def test_modular_trace_without_a_filter():
    # D1(6, 6): k = l has no Delta filter, so the proof needs deg R1 mod p
    # at the Sylvester bound a(2b - 1) = 6, and R2 = Res_t(F, F_r)
    F = Knot(6, 6).certificate.target.equation
    assert resultant(F, F.deriv_outer()).degree == 6
    assert resultant(F, F.deriv_inner()).degree == 4
    assert modular_smoothness_trace(F) == {
        "prime": CERTIFICATE_PRIMES[0], "degree_bound": 6,
        "res_degrees_mod_p": {"Res_t(F,Ft)": 6, "Res_t(F,Fr)": 4},
        "gcd_r_degree": 0}


# --- transversality at infinity ------------------------------------------

def test_infinity_transversal_on_small_models():
    for k, l in ((2, -2), (4, 6), (3, 4), (5, -4)):
        iv = infinity_transversality(d_model(k, l))
        assert iv.transversal, (k, l)
        found, required = iv.r_line
        assert found == required
        found, required = iv.t_line
        assert found == required


def singular_candidates_at_infinity(F):
    """gcd(gcd(A, A'), B) on the line r = infinity and the same on
    t = infinity: A is the leading coefficient of F in the other variable
    and B the next one, so the gcd holds every point of the line where
    the curve is singular (and some where it is tangent)."""
    a, b = F.degree_inner, F.degree_outer
    A = UniPoly([c.coeff(a) for c in F.cs], F.outer)
    B = UniPoly([c.coeff(a - 1) for c in F.cs], F.outer)
    C, D = F.cs[b], F.cs[b - 1]
    return (poly_gcd(poly_gcd(A, A.deriv()), B),
            poly_gcd(poly_gcd(C, C.deriv()), D))


def corner_gradient(F):
    """The linear terms (du, dv) of F at the corner (r, t) = (inf, inf) in
    the chart u = 1/r, v = 1/t: the coefficients of r^(a-1) t^b and
    r^a t^(b-1).  When the corner lies on the curve it is singular
    exactly when both are 0."""
    a, b = F.degree_inner, F.degree_outer
    return F.cs[b].coeff(a - 1), F.cs[b - 1].coeff(a)


def test_singular_candidates_at_infinity_are_constant():
    # Oracle for `infinity_transversality`, which only counts points:
    # the candidate gcds are constant, and the corner, when on the curve,
    # is smooth, on the certified model (D, or D1 when k = l) of every
    # hyperbolic grid knot and of the large knots.
    assert len(GRID_KNOTS) == 158
    for k, l in GRID_KNOTS + LARGE_KNOTS:
        model = d_model(k, l)
        if k == l:
            model = d_split(model)[1]
        for cand in singular_candidates_at_infinity(model.equation):
            assert cand.degree == 0, (k, l, cand)
        iv = infinity_transversality(model)
        assert iv.transversal, (k, l)
        if iv.corner_on_curve:
            assert corner_gradient(model.equation) != (0, 0), (k, l)


def test_singular_point_at_infinity_fails_the_count():
    # r (t - 1)**2 + (t - 1) is singular at (r, t) = (infinity, 1): the
    # candidate there is t - 1, and the line r = infinity shows one
    # distinct point of the two it must meet, which fails the verdict.
    F = RB * (T - 1) ** 2 + (T - 1)
    assert [str(c) for c in singular_candidates_at_infinity(F)] == \
        ["t-1", "1"]
    iv = infinity_transversality(CurveModel("D", 0, 0, F, ("r", "t"), (1, 2)))
    assert not iv.transversal
    assert iv.r_line == (1, 2) and iv.t_line == (1, 1)
    assert iv.witnesses == ({"line": "r=infinity", "found": 1,
                             "required": 2},)
    # t**2 + r t + r**2 + 1 has a singular corner (inf, inf): it meets
    # each line there with multiplicity 2, so both counts fall short.
    F = T ** 2 + RB * T + RB ** 2 + 1
    iv = infinity_transversality(CurveModel("D", 0, 0, F, ("r", "t"), (2, 2)))
    assert iv.corner_on_curve and corner_gradient(F) == (0, 0)
    assert not iv.transversal
    assert iv.r_line == (1, 2) and iv.t_line == (1, 2)
    assert iv.witnesses == (
        {"line": "r=infinity", "found": 1, "required": 2},
        {"line": "t=infinity", "found": 1, "required": 2})


def test_infinity_rejects_degenerate_models():
    # lines t = 0, 2; lines r = 0, 2; the full plane; a C model
    for model in (d_model(0, 4), d_model(4, 0), d_model(0, 0),
                  c_model(4, 6)):
        with pytest.raises(ExactError, match="needs a D-family model of "
                                             "positive bidegree"):
            infinity_transversality(model)


# --- the smoothness certificate -------------------------------------------

def test_certificate_smooth_for_hyperbolic_samples():
    for k, l in ((2, -2), (4, 6), (-3, 4), (5, -6), (-6, 8)):
        cert = Knot(k, l).certificate
        assert cert.smooth, (k, l)
        assert cert.affine["gcd_r_degree"] == 0
        assert cert.infinity.transversal


def test_modular_proof_covers_equal_parameters_to_24():
    # the only smoothness route: a knot it cannot prove is an invariant
    # failure, so pin the range it is known to cover
    for l in [s * m for m in range(4, 25, 2) for s in (1, -1)]:
        cert = Knot(l, l).certificate
        assert cert.smooth and "prime" in cert.affine, l


def test_modular_proof_covers_hyperbolic_knots_to_12():
    knots = [(k, l) for k in range(-12, 13) for l in range(-12, 13, 2)
             if classify(k, l) == HYPERBOLIC]
    assert len(knots) == 262
    for k, l in knots:
        cert = Knot(k, l).certificate
        assert cert.smooth and "prime" in cert.affine, (k, l)


NOT_HYPERBOLIC = "smoothness certificate needs a hyperbolic knot, got %s"


def test_certificate_refuses_degenerate():
    # the trefoil's D is a union of lines, the unknot's the full plane
    # and the torus knot's a union of lines: each is refused by its class
    for (k, l), cls in (((2, 2), TREFOIL), ((0, 0), UNKNOT),
                        ((1, 4), TORUS_NONHYPERBOLIC)):
        with pytest.raises(ExactError, match=NOT_HYPERBOLIC % cls):
            Knot(k, l).certificate
        # a direct call is refused by the same gate
        with pytest.raises(ExactError, match=NOT_HYPERBOLIC % cls):
            smoothness_certificate(d_model(k, l), None)


def test_d_model_is_a_curve_exactly_for_hyperbolic_knots():
    # the gate in front of the geometry stages asks `classify`: pin that a
    # hyperbolic knot's D has bidegree (|k| // 2, |l| / 2) after the swap,
    # both at least 1, and that of any other knot is zero, lines in one
    # variable, or the trefoil's line t = r
    for k in range(-12, 13):
        for l in range(-12, 13):
            if k * l % 2:
                continue
            dm = d_model(k, l)
            a, b = dm.bidegree
            if classify(k, l) == HYPERBOLIC:
                assert (a, b) == (abs(dm.k) // 2, abs(dm.l) // 2), (k, l)
                assert a >= 1 and b >= 1, (k, l)
            elif classify(k, l) == TREFOIL:
                assert str(dm.equation) == "-t+r", (k, l)
            else:
                assert a == 0 or b == 0, (k, l)


def test_geometry_stages_refuse_a_model_of_the_wrong_kind():
    cert = Knot(4, 6).certificate
    with pytest.raises(ExactError, match="smoothness certificate needs a D "
                                         "model, got C"):
        smoothness_certificate(c_model(4, 6), None)
    with pytest.raises(ExactError, match="odd point count needs a D model, "
                                         "got C"):
        odd_point_report(c_model(4, 6), cert)
    with pytest.raises(ExactError, match="odd point count needs a "
                                         "hyperbolic knot, got Trefoil"):
        odd_point_report(d_model(2, 2), cert)


def test_certificate_equal_parameters_splits():
    cert = Knot(4, 4).certificate
    assert cert.smooth
    d = cert.d0d1
    assert d["matches_big_g"] and d["separable"] and d["on_diagonal"]
    assert d["count"] == 2 * 2 - 2                 # 2|n| - 2 for n = 2
    cert6 = Knot(6, 6).certificate
    assert cert6.smooth and cert6.d0d1["count"] == 4


# --- component count ------------------------------------------------------

def test_component_counts():
    assert Knot(4, 6).component_count == 1
    assert Knot(2, -2).component_count == 1
    assert Knot(4, 4).component_count == 2
    assert Knot(-6, -6).component_count == 2


def test_component_count_degenerate_typed():
    for (k, l), cls in (((2, 2), TREFOIL), ((0, 4), UNKNOT),
                        ((1, 4), TORUS_NONHYPERBOLIC)):
        with pytest.raises(ExactError, match=NOT_HYPERBOLIC % cls):
            Knot(k, l).component_count


# --- genus on Y -----------------------------------------------------------

def test_genus_y_pinned_values():
    rep = Knot(4, 6).genus_Y
    (e,) = rep.entries
    assert e.genus_bidegree == e.genus_formula == (2 - 1) * (3 - 1)
    assert e.hyperelliptic                     # a = 2
    rep = Knot(6, 8).genus_Y
    (e,) = rep.entries
    assert e.genus_bidegree == (3 - 1) * (4 - 1)
    assert not e.hyperelliptic
    rep = Knot(2, -2).genus_Y
    assert rep.entries[0].genus_bidegree == 0


def test_genus_y_split_components():
    rep = Knot(6, 6).genus_Y
    by = {e.component: e for e in rep.entries}
    assert by["D0"].genus_bidegree == 0
    assert by["D1"].genus_bidegree == (6 // 2 - 2) ** 2 == 1
    assert by["D1"].hyperelliptic              # |l| <= 6
    rep8 = Knot(8, 8).genus_Y
    by8 = {e.component: e for e in rep8.entries}
    assert by8["D1"].genus_bidegree == (8 // 2 - 2) ** 2 == 4
    assert not by8["D1"].hyperelliptic


def test_genus_y_guards():
    with pytest.raises(ExactError, match=NOT_HYPERBOLIC % TREFOIL):
        Knot(2, 2).genus_Y
    with pytest.raises(ExactError, match=NOT_HYPERBOLIC % NOT_A_KNOT):
        Knot(3, 5).genus_Y


# --- odd points -----------------------------------------------------------

def test_odd_point_counts_hand_checked():
    # even k = 2m: 2|mn| + 2|m| + 2|n| - 2a, a = 2 iff mn > 0
    assert Knot(4, 6).odd_points.count == 12 + 4 + 6 - 4
    assert Knot(4, -6).odd_points.count == 12 + 4 + 6 - 2
    # odd k: |2m+1||n| + |n| + 2|m| - 2a
    assert Knot(3, 4).odd_points.count == 6 + 2 + 2 - 2
    assert Knot(-3, -4).odd_points.count == 6 + 2 + 4 - 4
    assert Knot(3, -4).odd_points.count == 6 + 2 + 2 - 0


def test_odd_point_counts_always_even():
    for k in range(-7, 8):
        for l in range(-8, 9, 2):
            if k == 0 or l == 0 or abs(k) == 1 or (k, l) in ((2, 2), (-2, -2)):
                continue
            rep = Knot(k, l).odd_points
            total = rep.count
            assert total % 2 == 0, (k, l)
            if k == l:
                # D0 carries the diagonal points, D1 the others
                assert rep.diagonal % 2 == 0, (k, l)


def test_odd_point_report_structure():
    rep = Knot(4, 6).odd_points
    assert rep.count == rep.affine + rep.infinity
    assert rep.case == "a=2 (mn>0)"
    rep = Knot(3, -4).odd_points
    assert rep.case == "a=0 (n<0<m)"
    rep = Knot(4, 4).odd_points
    assert rep.diagonal == 4                   # 2|n| points on the diagonal
    with pytest.raises(ExactError):
        Knot(3, 5).odd_points


@pytest.mark.parametrize("k,l", [(4, 6), (3, -4), (4, 4), (-6, 8), (5, 6)])
def test_odd_point_report_reads_the_model_equation(monkeypatch, k, l):
    # the count evaluates the equation of the D model it is given, whose
    # sign does not matter; no BiPoly product rebuilds it from the
    # sequences
    knot = Knot(k, l)
    model, cert = knot.D, knot.certificate
    want = odd_point_report(model, cert)
    flipped = model._replace(equation=-model.equation)
    real = BiPoly.__mul__
    calls = []

    def counted(self, other):
        calls.append((self, other))
        return real(self, other)

    monkeypatch.setattr(BiPoly, "__mul__", counted)
    monkeypatch.setattr(BiPoly, "__rmul__", counted)
    assert odd_point_report(model, cert) == want
    assert calls == []
    assert odd_point_report(flipped, cert) == want


# --- genus on X -----------------------------------------------------------

def test_genus_x_pinned_values():
    assert Knot(2, -2).genus_X.entries[0].genus_rh == 1
    assert Knot(3, 4).genus_X.entries[0].genus_rh == 3
    assert Knot(4, 6).genus_X.entries[0].genus_rh == 12
    by = {e.component: e.genus_rh for e in Knot(4, 4).genus_X.entries}
    assert by == {"X0": 1, "X1": 3}
    by = {e.component: e.genus_rh for e in Knot(6, 6).genus_X.entries}
    assert by == {"X0": 2, "X1": 11}


def test_genus_x_double_entry_agrees():
    for k, l in ((2, 4), (-4, 6), (5, -6), (7, 2), (-5, -8)):
        for e in Knot(k, l).genus_X.entries:
            assert e.genus_rh == e.genus_formula, (k, l, e)


def test_genus_x_degenerate():
    with pytest.raises(ExactError, match=NOT_HYPERBOLIC % TREFOIL):
        Knot(2, 2).genus_X
