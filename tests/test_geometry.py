"""Singular-locus certification and the two genus computations.

Oracle: hand-planted plane curves with known singularities (a node and
a cusp at chosen rational points) must be found exactly; known-smooth
ones must certify Empty.  Genus values are pinned from the bidegree
formula computed by hand.
"""

import pytest

from bridgevar.curves import d_model
from bridgevar.geometry import (CERTIFICATE_PRIMES, DegenerateModel,
                                affine_singular_locus, component_count,
                                genus_X, genus_Y, infinity_transversality,
                                modular_smoothness_trace, odd_point_count,
                                odd_point_report, smoothness_certificate)
from bridgevar.poly import BiPoly, ExactError, UniPoly, resultant

R = UniPoly.gen("r")
T = BiPoly.gen_outer("t", "r")
RB = BiPoly.from_inner(R, "t")


# --- affine singular locus on planted curves ----------------------------

def test_planted_node_is_found():
    F = T ** 2 - RB ** 2 * (RB + 1)
    v = affine_singular_locus(F)
    assert v.kind == "Points"
    assert [p["point"] for p in v.points] == [("0", "0")]
    assert all(p["verified"] for p in v.points)


def test_planted_cusp_is_found():
    F = (T - 1) ** 2 - (RB - 2) ** 3
    v = affine_singular_locus(F)
    assert v.kind == "Points"
    assert [p["point"] for p in v.points] == [("2", "1")]


def test_two_planted_singularities():
    F = (T ** 2 - RB ** 2 * (RB + 1)) * 1
    G = F.eval_outer(T + 3)          # move the node to (0, -3)
    v = affine_singular_locus(G)
    assert [p["point"] for p in v.points] == [("0", "-3")]


def test_smooth_parabola_certifies_empty():
    F = T - RB ** 2
    v = affine_singular_locus(F)
    assert v.kind == "Empty"
    assert v.points == ()


def test_non_reduced_input_rejected():
    for F in ((T - RB) ** 2,
              (T * RB + RB + 1) ** 2 * (T - RB ** 2),  # square in r and t
              (RB - 1) ** 2 * (T - RB ** 2),           # squared content
              (T - 1) ** 2 * (T + 2)):                 # square in t alone
        with pytest.raises(ExactError, match="non-reduced"):
            affine_singular_locus(F)


def test_resultant_trace_recorded():
    v = affine_singular_locus(T - RB ** 2)
    assert "res_degrees" in v.trace
    assert v.trace["gcd_r_degree"] == 0


def test_singular_and_unproved_inputs_reach_the_exact_route():
    node = T ** 2 - RB ** 2 * (RB + 1)
    cusp = (T - 1) ** 2 - (RB - 2) ** 3
    # deg_r Res_t(F, F_t) is 0 here, below the Sylvester bound 2, and no
    # filter bounds the gcd: no proof mod p, Empty from the exact route
    parabola = T - RB ** 2
    for F in (node, cusp, node.eval_outer(T + 3), parabola):
        assert modular_smoothness_trace(F) is None
        assert "res_degrees" in affine_singular_locus(F).trace
    # a filter that keeps the node's r = 0 does not hide it
    u = UniPoly.gen("u")
    assert modular_smoothness_trace(node, u) is None
    v = affine_singular_locus(node, delta_filter=(u, u))
    assert v.kind == "Points" and v.points[0]["point"] == ("0", "0")


def test_modular_trace_without_a_filter():
    # D1(6, 6): k = l has no Delta filter, so the proof needs deg R1 mod p
    # at the Sylvester bound a(2b - 1) = 6, and R2 = Res_t(F, F_r)
    F = smoothness_certificate(6, 6).target.equation
    assert resultant(F, F.deriv_outer(), "t").degree == 6
    assert resultant(F, F.deriv_inner(), "t").degree == 4
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


def test_infinity_rejects_degenerate_models():
    with pytest.raises(DegenerateModel):
        infinity_transversality(d_model(2, 2))
    with pytest.raises(DegenerateModel):
        infinity_transversality(d_model(0, 4))


# --- the smoothness certificate -------------------------------------------

def test_certificate_smooth_for_hyperbolic_samples():
    for k, l in ((2, -2), (4, 6), (-3, 4), (5, -6), (-6, 8)):
        cert = smoothness_certificate(k, l)
        assert cert.smooth, (k, l)
        assert cert.refusal is None
        assert cert.affine.kind == "Empty"
        assert cert.infinity.transversal


def test_certificate_refuses_degenerate():
    cert = smoothness_certificate(2, 2)
    assert not cert.smooth
    assert cert.refusal == "line-union (trefoil)"
    assert smoothness_certificate(0, 0).refusal == "full-plane (unknot)"
    assert smoothness_certificate(1, 4).refusal == "line-union (torus knot)"


def test_certificate_equal_parameters_splits():
    cert = smoothness_certificate(4, 4)
    assert cert.smooth
    d = cert.d0d1
    assert d["matches_big_g"] and d["separable"] and d["on_diagonal"]
    assert d["count"] == 2 * 2 - 2                 # 2|n| - 2 for n = 2
    cert6 = smoothness_certificate(6, 6)
    assert cert6.smooth and cert6.d0d1["count"] == 4


# --- component count ------------------------------------------------------

def test_component_counts():
    assert component_count(4, 6).count == 1
    assert component_count(2, -2).count == 1
    assert component_count(4, 4).count == 2
    assert component_count(-6, -6).count == 2


def test_component_count_degenerate_typed():
    assert component_count(2, 2).degenerate == "line-union (trefoil)"
    assert component_count(0, 4).degenerate == "line-union (unknot)"
    assert component_count(1, 4).degenerate == "line-union (torus knot)"
    assert component_count(2, 2).count is None


# --- genus on Y -----------------------------------------------------------

def test_genus_y_pinned_values():
    rep = genus_Y(4, 6)
    (e,) = rep.entries
    assert e.genus_bidegree == e.genus_formula == (2 - 1) * (3 - 1)
    assert e.hyperelliptic                     # a = 2
    rep = genus_Y(6, 8)
    (e,) = rep.entries
    assert e.genus_bidegree == (3 - 1) * (4 - 1)
    assert not e.hyperelliptic
    rep = genus_Y(2, -2)
    assert rep.entries[0].genus_bidegree == 0


def test_genus_y_split_components():
    rep = genus_Y(6, 6)
    by = {e.component: e for e in rep.entries}
    assert by["D0"].genus_bidegree == 0
    assert by["D1"].genus_bidegree == (6 // 2 - 2) ** 2 == 1
    assert by["D1"].hyperelliptic              # |l| <= 6
    rep8 = genus_Y(8, 8)
    by8 = {e.component: e for e in rep8.entries}
    assert by8["D1"].genus_bidegree == (8 // 2 - 2) ** 2 == 4
    assert not by8["D1"].hyperelliptic


def test_genus_y_guards():
    with pytest.raises(DegenerateModel):
        genus_Y(2, 2)
    with pytest.raises(ExactError):
        genus_Y(3, 5)


# --- odd points -----------------------------------------------------------

def test_odd_point_counts_hand_checked():
    # even k = 2m: 2|mn| + 2|m| + 2|n| - 2a, a = 2 iff mn > 0
    assert odd_point_count(4, 6) == 12 + 4 + 6 - 4
    assert odd_point_count(4, -6) == 12 + 4 + 6 - 2
    # odd k: |2m+1||n| + |n| + 2|m| - 2a
    assert odd_point_count(3, 4) == 6 + 2 + 2 - 2
    assert odd_point_count(-3, -4) == 6 + 2 + 4 - 4
    assert odd_point_count(3, -4) == 6 + 2 + 2 - 0


def test_odd_point_counts_always_even():
    for k in range(-7, 8):
        for l in range(-8, 9, 2):
            if k == 0 or l == 0 or abs(k) == 1 or (k, l) in ((2, 2), (-2, -2)):
                continue
            if k == l:
                total = (odd_point_report(k, l, component="D0").count +
                         odd_point_report(k, l, component="D1").count)
            else:
                total = odd_point_count(k, l)
            assert total % 2 == 0, (k, l)


def test_odd_point_report_structure():
    rep = odd_point_report(4, 6)
    assert rep.count == rep.affine + rep.infinity
    assert rep.case == "a=2 (mn>0)"
    rep = odd_point_report(3, -4)
    assert rep.case == "a=0 (n<0<m)"
    rep = odd_point_report(4, 4, component="D1")
    assert rep.diagonal == 4                   # 2|n| points on the diagonal
    with pytest.raises(ExactError):
        odd_point_report(3, 5)


# --- genus on X -----------------------------------------------------------

def test_genus_x_pinned_values():
    assert genus_X(2, -2).entries[0].genus_rh == 1
    assert genus_X(3, 4).entries[0].genus_rh == 3
    assert genus_X(4, 6).entries[0].genus_rh == 12
    by = {e.component: e.genus_rh for e in genus_X(4, 4).entries}
    assert by == {"X0": 1, "X1": 3}
    by = {e.component: e.genus_rh for e in genus_X(6, 6).entries}
    assert by == {"X0": 2, "X1": 11}


def test_genus_x_double_entry_agrees():
    for k, l in ((2, 4), (-4, 6), (5, -6), (7, 2), (-5, -8)):
        for e in genus_X(k, l).entries:
            assert e.genus_rh == e.genus_formula, (k, l, e)


def test_genus_x_degenerate():
    with pytest.raises(DegenerateModel):
        genus_X(2, 2)
