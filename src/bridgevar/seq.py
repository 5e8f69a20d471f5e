"""The polynomial sequences behind everything else.

f_j is the Chebyshev-like sequence with f_0 = 0, f_1 = 1 and
f_{j+1} = u*f_j - f_{j-1} (run in both directions), g_j = f_j - f_{j-1},
and the interleavings

    Phi_{2j} = f_j,   Phi_{2j-1} = g_j,   Psi_k = Phi_{k+1} - Phi_{k-1}.

The derivative combinations F_n, G_n, H_n and Delta_k control the
singular loci of the curve models, so they live here too.

All sequences are memoized per process in the variable `u`; callers get
relabeled copies.  Returned polynomials are immutable.
"""

import functools
from typing import NamedTuple

from .poly import UniPoly, ExactError

_U = UniPoly.gen("u")
_f_memo = {0: UniPoly.zero("u"), 1: UniPoly.const(1, "u")}
_f_hi = 1
_f_lo = 0


def f_poly(j, var="u"):
    """f_j in the requested variable."""
    global _f_hi, _f_lo
    while _f_hi < j:
        _f_memo[_f_hi + 1] = _U * _f_memo[_f_hi] - _f_memo[_f_hi - 1]
        _f_hi += 1
    while _f_lo > j:
        _f_memo[_f_lo - 1] = _U * _f_memo[_f_lo] - _f_memo[_f_lo + 1]
        _f_lo -= 1
    p = _f_memo[j]
    return p if var == "u" else p.relabel(var)


_memo = {}  # (builder, index) -> term in u


def _memoized(term_u):
    """The sequence whose term j `term_u(j)` builds in u, memoized per
    process in u and relabeled to the requested variable on return."""
    @functools.wraps(term_u)
    def term(j, var="u"):
        p = _memo.get((term_u, j))
        if p is None:
            p = _memo[term_u, j] = term_u(j)
        return p if var == "u" else p.relabel(var)
    return term


@_memoized
def g_poly(j):
    """g_j = f_j - f_{j-1}."""
    return f_poly(j) - f_poly(j - 1)


@_memoized
def d_poly(j):
    """D_j = f_{j+1} - f_{j-1}, so that D_j(L + L^-1) = L^j + L^-j."""
    return f_poly(j + 1) - f_poly(j - 1)


def phi(k, var="u"):
    """Phi_k: f_{k/2} for even k, g_{(k+1)/2} for odd k."""
    if k % 2 == 0:
        return f_poly(k // 2, var)
    return g_poly((k + 1) // 2, var)


@_memoized
def psi(k):
    """Psi_k = Phi_{k+1} - Phi_{k-1}."""
    return phi(k + 1) - phi(k - 1)


@_memoized
def delta(k):
    """Delta_k = Phi_{k+1}' Phi_{k-1} - Phi_{k+1} Phi_{k-1}'."""
    a, b = phi(k + 1), phi(k - 1)
    return a.deriv() * b - a * b.deriv()


@_memoized
def big_f(n):
    """F_n = f_{n+1}' f_n - f_{n+1} f_n'."""
    a, b = f_poly(n + 1), f_poly(n)
    return a.deriv() * b - a * b.deriv()


@_memoized
def big_g(n):
    """G_n = g_{n+1}' g_n - g_{n+1} g_n'."""
    a, b = g_poly(n + 1), g_poly(n)
    return a.deriv() * b - a * b.deriv()


@_memoized
def big_h(n):
    """H_n = g_{n+1}'' g_n - g_{n+1} g_n''."""
    a, b = g_poly(n + 1), g_poly(n)
    return a.deriv().deriv() * b - a * b.deriv().deriv()


# ---------------------------------------------------------------------------
# identity suite

class IdentityCheck(NamedTuple):
    name: str
    ok: bool
    counterexample: object  # first failing index, or None


class IdentityReport(NamedTuple):
    bound: int
    checks: tuple

    @property
    def ok(self):
        return all(c.ok for c in self.checks)


def _scan(name, bound, predicate):
    for idx in range(-bound, bound + 1):
        if not predicate(idx):
            return IdentityCheck(name, False, idx)
    return IdentityCheck(name, True, None)


def identity_suite(bound):
    """Exact verification of the stock identities for all |index| <= bound."""
    if bound < 1:
        raise ExactError("identity_suite needs bound >= 1")
    u = _U
    checks = [
        _scan("f-product", bound,
              lambda j: f_poly(j - 1) * f_poly(j + 1) == f_poly(j) ** 2 - 1),
        _scan("g-product", bound,
              lambda j: g_poly(j) * g_poly(j + 1) == (u - 2) * f_poly(j) ** 2 + 1),
        _scan("phi-recurrence", bound,
              lambda k: phi(k + 2) == u * phi(k) - phi(k - 2)),
        _scan("psi-recurrence", bound,
              lambda k: psi(k + 2) == u * psi(k) - psi(k - 2)),
        _scan("fg-unit-combination", bound,
              lambda j: f_poly(j - 1) * g_poly(j - 1) - f_poly(j - 2) * g_poly(j) == 1),
        _scan("g-square-combination", bound,
              lambda n: g_poly(n + 1) ** 2 + g_poly(n) ** 2
              - u * g_poly(n) * g_poly(n + 1) == 2 - u),
        _scan("bigg-from-g-squares", bound,
              lambda n: (4 - u ** 2) * big_g(n)
              == (2 * n + 1) * g_poly(n) ** 2 + (2 * n - 1) * g_poly(n + 1) ** 2
              - 2 * n * u * g_poly(n) * g_poly(n + 1)),
        _scan("bigg-from-g-difference", bound,
              lambda n: (4 - u ** 2) * big_g(n)
              == g_poly(n) ** 2 - g_poly(n + 1) ** 2 - 2 * n * (u - 2)),
        _scan("bigf-from-f-squares", bound,
              lambda n: (u ** 2 - 4) * big_f(n)
              == f_poly(n + 1) ** 2 - f_poly(n) ** 2 - (2 * n + 1)),
        _scan("bigg-times-u-plus-2", bound,
              lambda n: (u + 2) * big_g(n) == f_poly(2 * n) + 2 * n),
        _scan("bigh-combination", bound,
              lambda n: (u - 2) * (u + 2) ** 2 * big_h(n)
              == 2 * ((n - 1) * f_poly(2 * n + 1) + f_poly(2 * n)
                      - (n + 1) * f_poly(2 * n - 1) - n * u + 2 * n)),
    ]
    return IdentityReport(bound, tuple(checks))
