"""Acceptance gate.

Ten go/no-go criteria, one test each, run at full stated scale with
their runtime budgets enforced.  Each test prints exactly one
``[criterion NN] <label>: pass|FAIL`` line (visible with ``pytest -v -rA``
or on failure), and the pytest PASSED/FAILED status mirrors it.
"""

import time
from fractions import Fraction

from bridgevar.curves import c_model
from bridgevar.knotprops import (HYPERBOLIC, classify, trace_field_poly,
                                 two_bridge_params)
from bridgevar.newton import (binom_check, complexabs_check,
                              expected_vertices, lemma_polynomial, polygon,
                              poly_points)
from bridgevar.poly import parse_poly
from bridgevar.report import Knot
from bridgevar.riley import (normalize_unit, riley_poly_J, riley_poly_matrix,
                             riley_poly_pq, trace_formula_check)
from bridgevar.seq import identity_suite
from modulus_oracle import float_moduli

INF = float("inf")


def verdict(num, label, ok, elapsed=None, budget=None):
    note = "" if budget is None else " (%.1fs, budget %ds)" % (elapsed, budget)
    print("[criterion %02d] %s: %s%s" % (num, label, "pass" if ok else "FAIL",
                                         note))
    assert ok, "criterion %d failed" % num
    if budget is not None:
        assert elapsed < budget, "criterion %d over budget%s" % (num, note)


def grid_offdiag():
    """l even, 2 <= |k|,|l| <= 10, k != l (no trefoil appears here)."""
    for k in range(-10, 11):
        if abs(k) < 2:
            continue
        for l in range(-10, 11):
            if l % 2 or abs(l) < 2 or k == l:
                continue
            yield k, l


DIAG = (-10, -8, -6, -4, 4, 6, 8, 10)


def test_criterion_01_polynomial_identities():
    t0 = time.perf_counter()
    rep = identity_suite(20)
    verdict(1, "polynomial identity suite |index| <= 20, exact", rep.ok,
            time.perf_counter() - t0, 5)


def test_criterion_02_trace_formula_oracle():
    t0 = time.perf_counter()
    ok = all(trace_formula_check(k) for k in range(-9, 10))
    verdict(2, "trace closed form == matrix traces, |k| <= 9, exact",
            ok, time.perf_counter() - t0, 10)


def test_criterion_03_riley_cross_checks():
    t0 = time.perf_counter()
    ok = True
    for k in range(-7, 8):
        if abs(k) < 2:
            continue
        for n in range(-4, 5):
            if n == 0:
                continue
            a = normalize_unit(riley_poly_J(k, n))
            ok = ok and a == normalize_unit(riley_poly_matrix(k, n))
            tb = two_bridge_params(k, 2 * n)
            if tb.p > 1:
                ok = ok and a == normalize_unit(riley_poly_pq(tb.p, tb.q))
    verdict(3, "word/matrix/normal-form Riley polynomials agree up to unit",
            ok, time.perf_counter() - t0, 120)


def test_criterion_04_smoothness_certificates():
    t0 = time.perf_counter()
    ok = True
    for k, l in grid_offdiag():
        cert = Knot(k, l).certificate
        ok = ok and cert.smooth
    for l in DIAG:
        cert = Knot(l, l).certificate
        ok = ok and cert.smooth and "split" in cert.method
    verdict(4, "smoothness certificates on the desk-scale grid", ok,
            time.perf_counter() - t0, 300)


def test_criterion_05_genus_double_entry():
    t0 = time.perf_counter()
    ok = True
    for pair in list(grid_offdiag()) + [(l, l) for l in DIAG]:
        knot = Knot(*pair)
        gy = knot.genus_Y
        gx = knot.genus_X
        ok = ok and all(e.genus_bidegree == e.genus_formula
                        for e in gy.entries)
        ok = ok and all(e.genus_rh == e.genus_formula for e in gx.entries)
    pins = Knot(4, 4).genus_X
    ok = ok and {e.component: e.genus_rh
                 for e in pins.entries} == {"X0": 1, "X1": 3}
    ok = ok and Knot(2, -2).genus_X.entries[0].genus_rh == 1
    verdict(5, "genus via bidegree/Riemann-Hurwitz equals closed forms", ok,
            time.perf_counter() - t0, 300)


def test_criterion_06_odd_point_counts():
    ok = True
    for pair in list(grid_offdiag()) + [(l, l) for l in DIAG]:
        rep = Knot(*pair).odd_points
        a = int(rep.case.split("a=")[1].split(" ")[0])
        k, l = pair if pair[1] % 2 == 0 else (pair[1], pair[0])
        n = l // 2
        if k % 2 == 0:
            m = k // 2
            formula = 2 * abs(m * n) + 2 * abs(m) + 2 * abs(n) - 2 * a
        else:
            m = (k - 1) // 2
            formula = abs(2 * m + 1) * abs(n) + abs(n) + 2 * abs(m) - 2 * a
        ok = ok and rep.count == rep.count_formula == formula
        ok = ok and rep.count % 2 == 0
    verdict(6, "odd-point counts equal the case formulas and are even", ok)


def test_criterion_07_newton_polygons():
    t0 = time.perf_counter()
    ok = all(polygon(lemma_polynomial("one", n, p).points).vertices
             == expected_vertices("one", n, p)
             for p in (2, 3, 5) for n in range(1, 13))
    ok = ok and all(polygon(lemma_polynomial(kind, n).points).vertices
                    == expected_vertices(kind, n)
                    for kind in ("i", "alpha") for n in (3, 6, 9, 12))
    ok = ok and all(binom_check(n, p).ok
                    for p in (2, 3) for n in range(p, 82, p))
    verdict(7, "Newton polygon vertices and binomial valuations", ok,
            time.perf_counter() - t0, 30)


def test_criterion_08_complex_modulus_margins():
    t0 = time.perf_counter()
    rep = complexabs_check(range(-10, 11))
    ok = rep.ok
    for e in rep.entries:
        if e["vacuous"]:
            continue
        # the float oracle agrees, with its moduli 1e-9 clear of 1
        mods = float_moduli(e["n"])
        side = mods[0] > 1 + 1e-9 if e["n"] > 0 else mods[-1] < 1 - 1e-9
        ok = ok and side and len(mods) == e["roots"]
    verdict(8, "halving-function moduli clear 1 by 1e-9 for |n| <= 10", ok,
            time.perf_counter() - t0, 5)


def fibered_oracle(k, l):
    """The enumerated fibered list: unknot, torus J(+-1, 2n), trefoil,
    figure-eight, and J(3, 2n) = J(-3, -2n) for n > 0."""
    if k % 2 == 0 and l % 2 == 1:
        k, l = l, k
    if k * l == 0 or abs(k) == 1:
        return True
    if (k, l) in ((2, 2), (-2, -2), (2, -2), (-2, 2)):
        return True
    return (k == 3 and l > 0) or (k == -3 and l < 0)


def p_adic_valuation(x, p):
    num, den, e = abs(x.numerator), x.denominator, 0
    while den % p == 0:
        den //= p
        e -= 1
    while num and num % p == 0:
        num //= p
        e += 1
    return e


def reverify_witness(k, l, w):
    if w["type"] == "reducible-point":
        r0, y0 = Fraction(w["r"]), Fraction(w["y"])
        on_curve = c_model(k, l).equation.eval_point(r0, y0) == 0
        v = p_adic_valuation(y0 - 2, w["prime"])
        return on_curve and v < 0 and Fraction(w["valuation"]) == v
    if w["type"] == "newton":
        F = parse_poly(w["poly"], "t")
        slice_eq = c_model(k, l).equation.eval_inner(2).relabel("t")
        same = slice_eq.primitive() in (F.primitive(), -F.primitive())
        vals = polygon(poly_points(F, w["prime"])).root_valuations()
        neg = [(str(v), c) for v, c in vals if v != INF and v < 0]
        return same and neg and neg == [tuple(x) for x in
                                        w["negative_valuations"]]
    return False


def test_criterion_09_fibered_and_commensurability():
    ok = True
    for k in range(-12, 13):
        for l in range(-12, 13):
            if k % 2 and l % 2:
                continue
            knot = Knot(k, l)
            ok = ok and knot.fibered == fibered_oracle(k, l)
            if classify(k, l) != HYPERBOLIC or knot.fibered:
                continue
            cert = knot.commensurability
            ok = ok and cert.verdict == "NotCommensurable"
            ok = ok and reverify_witness(k, l, cert.witness)
    verdict(9, "fibered list and re-verified noncommensurability witnesses",
            ok)


def test_criterion_10_trace_field_degrees():
    ok = True
    for k, l in grid_offdiag():
        expected = -(k * l) // 2 if k * l < 0 else (k * l) // 2 - 1
        ok = ok and trace_field_poly(c_model(k, l)).degree == expected
    for l in DIAG:
        ok = ok and trace_field_poly(c_model(l, l)).degree == abs(l) - 1
    fig8 = Knot(2, -2).trace_field
    ok = ok and fig8.analysis.verdict == "irreducible" \
        and fig8.squarefree_degree == 2
    # open questions stay empirical: reported, bounded by p < 100, no claim
    for k, l in grid_offdiag():
        if abs(1 - k * l) >= 100:
            continue
        emp = Knot(k, l).trace_field.empirical
        ok = ok and emp["equality_observed"] in (True, False, None)
        ok = ok and "nothing asserted" in emp["note"]
    verdict(10, "trace-field degrees match the three-case formula", ok)
