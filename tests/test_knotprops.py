"""Knot invariants against classical two-bridge oracles.

Oracles, written before the tests that use them:
  * minkus_alexander -- the Alexander polynomial of b(p, q) as the
    signed sum over the Schubert exponent partial sums, a formula with
    no code in common with the twist-family closed forms here;
  * the determinant law |Delta(-1)| = p;
  * exact re-verification of commensurability witnesses from their
    serialized form alone.
"""

from fractions import Fraction

import pytest

from bridgevar import knotprops, poly
from bridgevar.curves import c_model, d_model
from bridgevar.knotprops import (HYPERBOLIC, NOT_A_KNOT, TORUS_NONHYPERBOLIC,
                                 TREFOIL, UNKNOT, alexander, classify,
                                 commensurability_certificate,
                                 fourplat_sequence, normalize_knot,
                                 trace_field_poly, trace_field_report,
                                 two_bridge_params)
from bridgevar.newton import poly_points, polygon
from bridgevar.poly import (ExactError, UniPoly, irreducibility_analysis,
                            parse_poly, squarefree_part)
from bridgevar.report import Knot


# --- oracle: Minkus sum for the Alexander polynomial ---------------------

def minkus_alexander(p, q):
    """Coefficient list (little-endian, shifted to constant != 0) of
    sum_{i=0}^{p-1} (-1)^i t^{h_i},  h_i = sum_{j<=i} (-1)^{floor(jq/p)}."""
    assert p % 2 == 1 and q % 2 == 1 and 0 < q < p
    h = 0
    terms = {0: 1}
    for i in range(1, p):
        h += 1 if (i * q // p) % 2 == 0 else -1
        terms[h] = terms.get(h, 0) + (1 if i % 2 == 0 else -1)
    lo, hi = min(terms), max(terms)
    return [terms.get(e, 0) for e in range(lo, hi + 1)]


def unit_normalize(coeffs):
    """Strip zero ends, force positive leading coefficient."""
    c = list(coeffs)
    while c and c[0] == 0:
        c.pop(0)
    while c and c[-1] == 0:
        c.pop()
    if c and c[-1] < 0:
        c = [-x for x in c]
    return c


def grid():
    for k in range(-6, 7):
        for l in range(-6, 7):
            if k * l == 0 or (k % 2 and l % 2):
                continue
            yield k, l


# --- classification -------------------------------------------------------

def test_classification_table():
    assert classify(0, 4) == classify(0, 0) == UNKNOT
    assert classify(2, 2) == classify(-2, -2) == TREFOIL
    assert classify(1, 6) == classify(-4, 1) == TORUS_NONHYPERBOLIC
    assert classify(3, 3) == classify(5, -7) == NOT_A_KNOT
    assert classify(2, -2) == classify(4, 6) == HYPERBOLIC
    assert classify(2, 3) == HYPERBOLIC


def test_normalize_knot_swap():
    nk = normalize_knot(2, 3)
    assert (nk.k, nk.l) == (3, 2) and nk.moves == ("swap",)
    assert normalize_knot(3, 2).moves == ()


# --- two-bridge normal form -------------------------------------------------

def test_two_bridge_laws_on_grid():
    for k, l in grid():
        tb = two_bridge_params(k, l)
        assert tb.p == abs(1 - k * l)
        if tb.p == 1:
            continue
        assert tb.q % 2 == 1 and -tb.p < tb.q <= tb.p
        assert tb.value() == Fraction(tb.q % tb.p, tb.p)
        # continued fraction has odd length and odd final entry shape
        assert len(tb.cont_frac) % 2 == 1


def test_two_bridge_inverse_law_under_swap():
    tb, tbs = two_bridge_params(4, 6), two_bridge_params(6, 4)
    assert tb.p == tbs.p == 23
    assert (tb.q * tbs.q - 1) % tb.p == 0


def test_two_bridge_errors():
    with pytest.raises(ExactError):
        two_bridge_params(0, 4)
    with pytest.raises(ExactError):
        two_bridge_params(3, 5)


def test_fourplat_matches_continued_fraction_value():
    seq = fourplat_sequence(4, 6, two_bridge_params(4, 6))
    assert seq == (1, 2, 1, 4, 1)
    # same rational as the normal form
    def cf_value(terms):
        v = Fraction(terms[-1])
        for a in reversed(terms[:-1]):
            v = a + 1 / v
        return 1 / v
    tb = two_bridge_params(4, 6)
    assert cf_value(seq) == Fraction(tb.q % tb.p, tb.p)
    with pytest.raises(ExactError):
        fourplat_sequence(1, 6, two_bridge_params(1, 6))


# --- oracle: the two-bridge normal form in Fractions ---------------------

def fraction_cont_frac(x):
    """[a_1..a_s] with x = 1/(a_1 + 1/(a_2 + ...)), x in (0,1]."""
    terms = []
    while x:
        inv = 1 / x
        a = inv.numerator // inv.denominator
        terms.append(a)
        x = inv - a
    return terms


def fraction_cf_value(terms):
    acc = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        acc = a + 1 / acc
    return 1 / acc


def fraction_two_bridge_params(k, l):
    """`two_bridge_params` with q/p + eps, its continued fraction and the
    reconstruction check in Fractions."""
    if k * l == 0:
        raise ExactError("unknot has no normal form")
    if k % 2 and l % 2:
        raise ExactError("not a knot (kl odd)")
    den = 1 - k * l
    p = abs(den)
    if p == 1:
        return knotprops.TwoBridgeForm(1, 1, (1,))
    c = (l if den > 0 else -l) % p
    q = c if c % 2 else c - p
    x = Fraction(q, p) + (1 if q < 0 else 0)
    terms = fraction_cont_frac(x)
    if len(terms) % 2 == 0:
        if terms[-1] == 1:
            terms[-2] += 1
            terms.pop()
        else:
            terms[-1] -= 1
            terms.append(1)
    assert fraction_cf_value(terms) == x and min(terms) >= 1
    return knotprops.TwoBridgeForm(p, q, tuple(terms))


def fraction_fourplat_sequence(k, l, form):
    for test, build in knotprops._FOURPLAT_ROWS:
        if test(k, l):
            seq = build(k, l)
            if fraction_cf_value(seq) != form.value():
                raise AssertionError("plat table value off")
            return seq
    raise ExactError("not covered by table")


def outcome(f, *args):
    try:
        return f(*args)
    except (ExactError, AssertionError) as e:
        return type(e)


def test_two_bridge_forms_in_integers_match_the_fraction_oracle():
    # every |k|, |l| <= 40 with kl even, the unknots and the trefoils
    # among them; the plat table also against a form whose q is off by 2,
    # which both routes must refuse where the table has a row
    refused = 0
    for k in range(-40, 41):
        for l in range(-40, 41):
            if k * l % 2:
                continue
            tb = outcome(two_bridge_params, k, l)
            assert tb == outcome(fraction_two_bridge_params, k, l), (k, l)
            if tb is ExactError:
                continue
            assert tb.value() == fraction_cf_value(tb.cont_frac), (k, l)
            wrong = tb._replace(q=tb.q + 2)
            for form in (tb, wrong):
                got = outcome(fourplat_sequence, k, l, form)
                assert got == outcome(fraction_fourplat_sequence, k, l,
                                      form), (k, l, form)
                refused += form is wrong and got is AssertionError
    assert refused > 4000, refused


def test_cf_value_is_in_lowest_terms():
    for terms in ((1,), (3,), (1, 2, 1, 4, 1), (2, 3, 1), (7, 1, 1, 5, 9)):
        num, den = knotprops._cf_value(terms)
        v = fraction_cf_value(terms)
        assert (num, den) == (v.numerator, v.denominator), terms
        assert knotprops._cf_value(knotprops._cont_frac(num, den)) \
            == (num, den)


def test_fourplat_covers_every_hyperbolic_knot():
    # each sequence is checked against two_bridge_params inside the call
    for k in range(-16, 17):
        for l in range(-16, 17):
            if classify(k, l) == HYPERBOLIC:
                tb = two_bridge_params(k, l)
                assert fourplat_sequence(k, l, tb), (k, l)
    assert fourplat_sequence(2, 5, two_bridge_params(2, 5)) == (2, 3, 1)
    assert fourplat_sequence(7, 2, two_bridge_params(7, 2)) == (1, 5, 2)


# --- Alexander polynomial ----------------------------------------------------

def test_alexander_matches_minkus_oracle_on_grid():
    for k, l in grid():
        tb = two_bridge_params(k, l)
        if tb.p == 1:
            continue
        q = tb.q if tb.q > 0 else -tb.q      # mirror: same Alexander
        want = unit_normalize(minkus_alexander(tb.p, q))
        got = unit_normalize(alexander(k, l).c)
        assert got in (want, want[::-1]), (k, l, got, want)


def test_alexander_determinant_law():
    for k, l in grid():
        tb = two_bridge_params(k, l)
        if tb.p == 1:
            continue
        assert abs(alexander(k, l)(-1)) == tb.p, (k, l)


def test_alexander_at_one_is_unit():
    for k, l in ((2, 4), (3, -4), (-5, 6), (2, -2)):
        assert abs(alexander(k, l)(1)) == 1


def test_alexander_frozen_values():
    assert str(alexander(2, -2)) == "-t^2+3*t-1"
    assert str(alexander(2, 4)) == "2*t^2-3*t+2"
    assert str(alexander(3, -4)) == "2*t^4-3*t^3+3*t^2-3*t+2"
    with pytest.raises(ExactError):
        alexander(0, 4)


# --- fiberedness ---------------------------------------------------------------

def test_fibered_iff_monic_extremes():
    for k, l in grid():
        f = alexander(k, l) if k * l else None
        want = (abs(f.c[0]) == abs(f.c[-1]) == 1) if f is not None else True
        assert Knot(k, l).fibered == want, (k, l)


def test_fibered_membership_examples():
    assert Knot(0, 6).fibered                         # unknot
    assert Knot(2, 2).fibered and Knot(-2, -2).fibered
    assert Knot(2, -2).fibered and Knot(-2, 2).fibered
    assert Knot(3, 4).fibered and Knot(3, 6).fibered  # J(3, 2n), n > 0
    assert Knot(-3, -6).fibered                       # mirror family
    assert not Knot(3, -4).fibered
    assert not Knot(2, 4).fibered
    assert not Knot(5, 4).fibered


# --- trace field -----------------------------------------------------------------

def test_trace_field_degrees():
    # mixed signs: -kl/2; same sign: kl/2 - 1
    assert trace_field_poly(c_model(2, -2)).degree == 2
    assert trace_field_poly(c_model(-2, 4)).degree == 4
    assert trace_field_poly(c_model(2, 4)).degree == 3
    assert trace_field_poly(c_model(4, 6)).degree == 11


def test_trace_field_report_figure_eight():
    tf = Knot(2, -2).trace_field
    assert tf.bound == 2 and tf.squarefree_degree == 2
    assert tf.analysis.verdict == "irreducible"
    assert tf.empirical["equality_observed"] is True
    assert "nothing asserted" in tf.empirical["note"]


def test_trace_field_report_never_asserts_equality():
    for k, l in ((2, 4), (-2, 4), (4, 4), (3, 4)):
        tf = Knot(k, l).trace_field
        assert tf.squarefree_degree <= tf.bound
        assert isinstance(tf.empirical["equality_observed"], bool)
        assert "empirical" in tf.empirical["note"]


def count_squarefree_parts(monkeypatch):
    calls = []
    real = poly.squarefree_part

    def counted(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(poly, "squarefree_part", counted)
    return calls


def test_trace_field_report_of_a_planted_square(monkeypatch):
    # a slice h**2 g gets the squarefree degree and the analysis that
    # squarefree_part followed by irreducibility_analysis give
    r = UniPoly.gen("r")
    planted = (r ** 2 + 3) ** 2 * (r ** 3 - r + 5)
    part = squarefree_part(planted)
    want = irreducibility_analysis(part)
    calls = count_squarefree_parts(monkeypatch)
    monkeypatch.setattr(knotprops, "trace_field_poly", lambda model: planted)
    tf = trace_field_report(c_model(4, -6))
    assert tf.squarefree_degree == part.degree == 5
    assert tf.analysis == want
    assert calls == [planted.primitive()]


def test_trace_field_squarefree_proof(monkeypatch):
    # a good first prime (53 for the figure-eight slice r^2 - 3r + 3) is
    # the squarefree proof; when it is bad, squarefree_part runs once
    calls = count_squarefree_parts(monkeypatch)
    tf = trace_field_report(c_model(2, -2))
    assert tf.squarefree_degree == 2 and calls == []
    r = UniPoly.gen("r")
    slice_53 = 53 * r ** 2 + r + 1     # 53, the first prime, divides lc
    monkeypatch.setattr(knotprops, "trace_field_poly", lambda model: slice_53)
    tf = trace_field_report(c_model(2, -2))
    assert tf.squarefree_degree == 2 and calls == [slice_53]
    assert 53 not in tf.analysis.sampled_primes


# --- commensurability witnesses, re-verified from serialized form ----------------

def test_fibered_knots_get_fibered_verdict():
    assert Knot(3, 4).commensurability.verdict == "Fibered"
    assert Knot(-3, -4).commensurability.verdict == "Fibered"
    assert Knot(2, -2).commensurability.verdict == "Fibered"


def test_certificate_names_the_normalized_knot():
    # (4, 3) is fibered and (4, 5) is not; both certificates name the
    # (odd, even) orientation that normalize_knot gives.
    for k, l in ((4, 3), (4, 5), (3, 4), (-4, 3)):
        cert = Knot(k, l).commensurability
        norm = normalize_knot(k, l)
        assert (cert.k, cert.l) == (norm.k, norm.l), (k, l)


def test_reducible_point_witness_reverified():
    cert = Knot(2, 4).commensurability
    assert cert.verdict == "NotCommensurable"
    w = cert.witness
    assert w["type"] == "reducible-point"
    r0, y0 = Fraction(w["r"]), Fraction(w["y"])
    # the witness point really lies on C(k, l)
    assert c_model(2, 4).equation.eval_point(r0, y0) == 0
    # and its y-coordinate really has negative p-valuation
    p = w["prime"]
    v = Fraction(w["valuation"])
    assert v < 0
    x = y0 - 2
    num, den = abs(x.numerator), x.denominator
    e = 0
    while den % p == 0:
        den //= p
        e -= 1
    while num and num % p == 0:
        num //= p
        e += 1
    assert e == v


def test_newton_witness_reverified():
    cert = Knot(3, -4).commensurability
    assert cert.verdict == "NotCommensurable"
    w = cert.witness
    assert w["type"] == "newton"
    F = parse_poly(w["poly"], "t")
    # the serialized slice polynomial is the r = 2 slice of C(k, l)
    slice_eq = c_model(3, -4).equation.eval_inner(2).relabel("t")
    assert slice_eq.primitive() in (F.primitive(), -F.primitive())
    assert F.c[-1] == w["lead"] and abs(F.c[0]) == abs(w["constant"])
    # its Newton polygon at the witness prime has a negative-valuation root
    vals = polygon(poly_points(F, w["prime"])).root_valuations()
    neg = [(str(v), c) for v, c in vals if v != float("inf") and v < 0]
    assert neg == [tuple(x) for x in w["negative_valuations"]]


def test_commensurability_refuses_nonhyperbolic():
    for k, l in ((2, 2), (0, 4), (1, 6), (3, 3)):
        with pytest.raises(ExactError):
            Knot(k, l).commensurability


def test_direct_stage_calls_refuse_nonhyperbolic_models():
    # The C model exists for these knots, so only the stages' own check
    # stands between them and a meaningless report.
    for k, l in ((1, 4), (2, 2)):
        with pytest.raises(ExactError, match="trace-field report needs a "
                                             "hyperbolic knot"):
            trace_field_report(c_model(k, l))
    for k, l in ((2, 2), (0, 4)):
        with pytest.raises(ExactError, match="commensurability certificate "
                                             "needs a hyperbolic knot"):
            commensurability_certificate(c_model(k, l), False)


def test_direct_stage_calls_refuse_a_model_of_the_wrong_kind():
    # a D model of a hyperbolic knot is bad input to the C-model stages,
    # refused before any work, not an invariant failure
    with pytest.raises(ExactError, match="trace-field report needs a C "
                                         "model, got D"):
        trace_field_report(d_model(4, 6))
    with pytest.raises(ExactError, match="trace-field polynomial needs a C "
                                         "model, got D"):
        trace_field_poly(d_model(4, 6))
    with pytest.raises(ExactError, match="commensurability certificate "
                                         "needs a C model, got D"):
        commensurability_certificate(d_model(2, 4), False)


def test_commensurability_grid_verdicts():
    for k, l in grid():
        if classify(k, l) != HYPERBOLIC:
            continue
        knot = Knot(k, l)
        cert = knot.commensurability
        if knot.fibered:
            assert cert.verdict == "Fibered" and cert.witness is None
        else:
            assert cert.verdict == "NotCommensurable"
            assert cert.witness["type"] in ("reducible-point", "newton")
