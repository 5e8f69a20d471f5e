"""Chebyshev-like sequences: recurrences, special values, identities.

Oracle: evaluate the defining recurrence numerically (exact ints) at
sample points and compare with the polynomial evaluations, including the
negative-index extension.
"""

import pytest
from hypothesis import given, settings, strategies as st

from bridgevar.poly import ExactError, UniPoly
from bridgevar.seq import (big_f, big_g, big_h, d_poly, delta, f_poly,
                           g_poly, identity_suite, phi, psi)


def f_at(j, u0):
    """f_j(u0) straight from f_0=0, f_1=1, f_{j+1} = u f_j - f_{j-1}."""
    if j < 0:
        return -f_at(-j, u0)
    a, b = 0, 1
    for _ in range(j):
        a, b = b, u0 * b - a
    return a


def g_at(j, u0):
    return f_at(j, u0) - f_at(j - 1, u0)


idx = st.integers(min_value=-25, max_value=25)
pts = st.integers(min_value=-9, max_value=9)


@settings(max_examples=80, deadline=None)
@given(j=idx, u0=pts)
def test_f_matches_recurrence_oracle(j, u0):
    assert f_poly(j)(u0) == f_at(j, u0)


@settings(max_examples=80, deadline=None)
@given(j=idx, u0=pts)
def test_g_matches_recurrence_oracle(j, u0):
    assert g_poly(j)(u0) == g_at(j, u0)


@settings(max_examples=60, deadline=None)
@given(k=idx, u0=pts)
def test_phi_interleaves_f_and_g(k, u0):
    want = f_at(k // 2, u0) if k % 2 == 0 else g_at((k + 1) // 2, u0)
    assert phi(k)(u0) == want


@settings(max_examples=60, deadline=None)
@given(k=idx, u0=pts)
def test_psi_is_phi_gap(k, u0):
    assert psi(k)(u0) == phi(k + 1)(u0) - phi(k - 1)(u0)


def test_degrees_and_leads():
    assert f_poly(6).degree == 5 and f_poly(6).lead == 1
    assert g_poly(6).degree == 5
    assert f_poly(0).is_zero
    assert f_poly(-4) == -f_poly(4)


def test_values_at_two_are_linear():
    # f_j(2) = j and g_j(2) = 1 for every j
    for j in range(-12, 13):
        assert f_poly(j)(2) == j
        assert g_poly(j)(2) == 1
    for k in range(-12, 13):
        m, rem = divmod(k, 2)
        assert phi(k)(2) == (m if rem == 0 else 1)
        assert psi(k)(2) == (0 if k % 2 == 0 else 1)


def test_delta_is_wronskian_of_phi_pair():
    for k in (-5, -2, 1, 3, 6):
        a, b = phi(k + 1), phi(k - 1)
        assert delta(k) == a.deriv() * b - a * b.deriv()


def test_big_g_is_wronskian_of_g_pair():
    for n in (-4, -1, 2, 5):
        gn, gn1 = g_poly(n), g_poly(n + 1)
        assert big_g(n) == gn1.deriv() * gn - gn1 * gn.deriv()
    # the |n| = 1 cases are the constant ones
    assert big_g(1).degree == 0
    assert big_g(-1).degree == 0
    assert big_g(2).degree > 0


def test_big_f_and_big_h_are_wronskians():
    for n in (-3, 2, 4):
        fn, fn1 = f_poly(n), f_poly(n + 1)
        assert big_f(n) == fn1.deriv() * fn - fn1 * fn.deriv()
        gn, gn1 = g_poly(n), g_poly(n + 1)
        d2 = lambda h: h.deriv().deriv()
        assert big_h(n) == d2(gn1) * gn - gn1 * d2(gn)


def test_variable_relabeling():
    assert f_poly(5, "r").var == "r"
    assert f_poly(5, "r")(7) == f_poly(5)(7)
    with pytest.raises(ExactError):
        f_poly(5, "w")


def test_sequences_are_memoized_in_u():
    # a second call in u returns the memoized object itself, and another
    # variable gets a relabeled copy of it
    for seq, j in ((f_poly, 5), (g_poly, 5), (g_poly, -3), (phi, 7),
                   (phi, -6), (psi, 5), (psi, -4), (delta, 3), (big_f, 3),
                   (big_g, -2), (big_h, 3), (d_poly, 6)):
        p = seq(j)
        assert seq(j, "u") is p, (seq.__name__, j)
        q = seq(j, "r")
        assert q.var == "r" and q.c == p.c, (seq.__name__, j)


def test_d_poly_is_the_trace_recurrence():
    # D_0 = 2, D_1 = u and D_{j+1} = u D_j - D_{j-1}, the recurrence of
    # L^j + L^-j in u = L + L^-1, run on coefficient lists
    want = [[2], [0, 1]]
    while len(want) < 200:
        c = [0] + want[-1]
        for i, v in enumerate(want[-2]):
            c[i] -= v
        want.append(c)
    for j, c in enumerate(want):
        assert list(d_poly(j).c) == c, j
        assert d_poly(-j) == d_poly(j), j
    # at L = 3: u = 10/3, so 3^j D_j(10/3) = 9^j + 1
    for j in range(12):
        assert sum(v * 10 ** i * 3 ** (j - i)
                   for i, v in enumerate(d_poly(j).c)) == 9 ** j + 1, j


def test_identity_suite_green_and_named():
    rep = identity_suite(15)
    assert rep.ok
    names = [c.name for c in rep.checks]
    assert len(names) == len(set(names)) >= 10
    for c in rep.checks:
        assert c.ok and c.counterexample is None
