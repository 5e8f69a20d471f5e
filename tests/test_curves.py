"""Curve models: frozen equations, bidegrees, and the map sigma of
tests/sigma_oracle.py.

Oracle for the split: multiply the factors back and compare with the
unsplit model.  Oracle for sigma: map exact rational points of C and
plug them into D.  Oracles for D: both defining forms built from BiPoly
products, the second from Psi_k and Psi_l, and made primitive with the
leader's sign by `normalize_oracle`; for C, the negated Riley polynomial
made so.
"""

from fractions import Fraction

import pytest

from bridgevar.curves import c_model, d_model, d_split
from bridgevar.knotprops import HYPERBOLIC, classify
from bridgevar.poly import BiPoly, ExactError
from bridgevar.riley import riley_poly_J
from bridgevar.seq import phi, psi
from sigma_oracle import (normalize_oracle, sigma_containment_check,
                          sigma_pull, sigma_push, special_points_check,
                          x_model)

# every hyperbolic J(k, l) with |k|, |l| <= 10
HYPERBOLIC_10 = [(k, l) for k in range(-10, 11) for l in range(-10, 11)
                 if classify(k, l) == HYPERBOLIC]


def test_figure_eight_equations_frozen():
    cm = c_model(2, -2)
    assert str(cm.equation) == "-r*y+y+r^2-r+1"
    assert cm.vars == ("r", "y")
    dm = d_model(2, -2)
    assert str(dm.equation) == "r*t-t-r"
    assert dm.bidegree == (1, 1)


def test_odd_parameter_swaps_into_place():
    cm = c_model(2, 3)          # k even, l odd: model built for (3, 2)
    assert (cm.k, cm.l) == (3, 2) and cm.swapped
    dm = d_model(2, 3)
    assert (dm.k, dm.l) == (3, 2) and dm.swapped
    assert d_model(3, 2).equation == dm.equation
    assert not d_model(3, 2).swapped


def test_c_model_rejects_two_odd_parameters():
    with pytest.raises(ExactError):
        c_model(3, 5)
    # but D exists there
    assert d_model(3, 5).bidegree == (1, 2)


def test_d_model_forms_agree():
    # d_model builds the rows of Phi_{k+1}(r) Phi_{l-1}(t) - Phi_{k-1}(r)
    # Phi_{l+1}(t) as one outer product; the same form from BiPoly
    # products, and the second form Psi_k(r) Phi_{l-1}(t) - Phi_{k-1}(r)
    # Psi_l(t), give the same equation, after the same swap of the
    # parameters.
    for k0 in range(-10, 11):
        for l0 in range(-10, 11):
            dm = d_model(k0, l0)
            k, l = dm.k, dm.l
            prod = (BiPoly.from_inner(phi(k + 1, "r"), "t") * phi(l - 1, "t")
                    - BiPoly.from_inner(phi(k - 1, "r"), "t")
                    * phi(l + 1, "t"))
            alt = (BiPoly.from_inner(psi(k, "r"), "t") * phi(l - 1, "t")
                   - BiPoly.from_inner(phi(k - 1, "r"), "t") * psi(l, "t"))
            assert normalize_oracle(prod) == dm.equation, (k0, l0)
            assert normalize_oracle(alt) == dm.equation, (k0, l0)


def test_c_model_is_the_normalized_riley_polynomial():
    # c_model fixes the sign and content on the Riley rows in one pass
    for k0 in range(-10, 11):
        for l0 in range(-10, 11):
            if k0 % 2 and l0 % 2:
                continue
            cm = c_model(k0, l0)
            raw = -riley_poly_J(cm.k, cm.l // 2)
            assert normalize_oracle(raw) == cm.equation, (k0, l0)


def test_degenerate_models_are_built():
    # the models of knots that are not hyperbolic exist; what they are is
    # read from the equation, and `classify` labels the knot
    assert d_model(0, 0).equation.is_zero                 # the full plane
    assert d_model(0, 4).bidegree == (0, 2)               # lines t = 0, 2
    assert str(d_model(0, 4).equation) == "t^2-2*t"
    assert d_model(1, 6).bidegree == (0, 2)               # lines in t
    for k in (2, -2):                                     # trefoil
        assert str(d_model(k, k).equation) == "-t+r"      # the line t = r
    assert str(c_model(0, 4).equation) == "1"             # 1 = 0: empty
    assert d_model(4, 6).bidegree == (2, 3)


def test_bidegree_is_floor_halves():
    for k, l in ((4, 6), (5, 4), (-6, 8), (7, -2), (2, -2)):
        dm = d_model(k, l)
        assert dm.bidegree == (abs(dm.k) // 2, abs(dm.l) // 2)


def test_x_model_is_double_cover():
    xm = x_model(2, -2)
    cm = c_model(2, -2)
    # substituting y = x^2 - 2 doubles the y-degree
    assert xm.equation.degree_outer == 2 * cm.equation.degree_outer
    assert xm.vars == ("r", "x")


def test_d_split_reconstructs_product():
    for l in (4, 6, -4, 8):
        base = d_model(l, l)
        d0, d1 = d_split(base)
        prod = (d0.equation * d1.equation).primitive()
        assert prod in (base.equation.primitive(), -base.equation.primitive())
        assert str(d0.equation) in ("t-r", "-t+r")
        assert d1.bidegree == (abs(l) // 2 - 1, abs(l) // 2 - 1)
    with pytest.raises(ExactError):
        d_split(d_model(5, 5))
    with pytest.raises(ExactError):
        d_split(d_model(0, 0))


def test_sigma_maps_c_points_onto_d():
    # exact rational points of C(2,-2): solve the degree-1 y equation
    cm = c_model(2, -2)
    dm = d_model(2, -2)
    for r0 in (Fraction(3), Fraction(5, 2), Fraction(-1), Fraction(7, 3)):
        fib = [c(r0) for c in cm.equation.cs]  # linear in y
        assert len(fib) == 2 and fib[1] != 0
        y0 = -fib[0] / fib[1]
        assert cm.equation.eval_point(r0, y0) == 0
        r1, t1 = sigma_push(2, -2, (r0, y0))
        assert r1 == r0
        assert dm.equation.eval_point(r1, t1) == 0
        # pull back where defined
        back = sigma_pull(2, -2, (r1, t1))
        assert back == (r0, y0)


def test_sigma_pull_indeterminate_locus():
    # Psi_2(r) = r - 2 vanishes at r = 2
    with pytest.raises(ExactError):
        sigma_pull(2, -2, (2, 5))


def test_sigma_containment_certificates():
    # C(0, 0) is empty and D(0, 0) the whole plane: the containment holds
    for k, l in ((2, -2), (2, 4), (3, 4), (-3, 6), (4, 4), (5, -4), (0, 0)):
        assert sigma_containment_check(k, l), (k, l)
    assert len(HYPERBOLIC_10) == 258
    for k, l in HYPERBOLIC_10:
        assert sigma_containment_check(k, l), (k, l)


def test_special_points_reports():
    rep = special_points_check(2, -2)
    assert rep.ok
    assert rep.c_point == (2, Fraction(2) - Fraction(4, 2 * -2))
    rep = special_points_check(3, 4)        # odd k: no special C point
    assert rep.ok and rep.c_point is None
    with pytest.raises(ExactError):
        special_points_check(0, 4)
    with pytest.raises(ExactError):
        special_points_check(3, 5)
    for k, l in HYPERBOLIC_10:
        rep = special_points_check(k, l)
        assert rep.ok, (k, l, rep.checks)
        # the C point exists exactly when the swapped-into-place k is even
        assert (rep.c_point is None) == (rep.k % 2 == 1), (k, l)


def test_to_dict_round_trip_fields():
    d = d_model(4, 6).to_dict()
    assert d["kind"] == "D" and d["bidegree"] == [2, 3]
    assert d["swapped"] is False and isinstance(d["equation"], str)
    assert set(d) == {"kind", "k", "l", "vars", "bidegree", "equation",
                      "swapped"}
