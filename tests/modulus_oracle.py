"""Floating-point oracle of the halving-function modulus lemma.

`complex_roots` finds every root of a separable integer polynomial by
Aberth-Ehrlich iteration, and `float_moduli` evaluates
|g_{n+1}(w)/g_n(w)| at the roots w of G_n with it: an independent route
that the exact verdicts of `bridgevar.newton.complexabs_check` must
agree with.
"""

import cmath

from bridgevar.poly import ExactError
from bridgevar.seq import big_g, g_poly


class RootFindingError(RuntimeError):
    def __init__(self, msg, best):
        super().__init__(msg)
        self.best = best


_ABERTH_CAP = 200


def complex_roots(f, tol=1e-12):
    """All complex roots of a separable f, Aberth-Ehrlich iteration.

    Deterministic: seeds on a perturbed circle of radius
    1 + max|a_i/a_n|, fixed angular offsets, output sorted by rounded
    (real, imag).  Residual target: |f(z)| / ||f||_1 < tol.
    """
    if f.degree < 1:
        raise ExactError("complex roots of a constant")
    cs = [complex(v) for v in f.c]
    n = len(cs) - 1
    lead = cs[-1]
    mon = [v / lead for v in cs]
    norm = sum(abs(v) for v in cs)

    def val(z):
        acc = 0j
        for v in reversed(cs):
            acc = acc * z + v
        return acc

    def valmon_and_deriv(z):
        acc = 0j
        dacc = 0j
        for v in reversed(mon):
            dacc = dacc * z + acc
            acc = acc * z + v
        return acc, dacc

    radius = 1 + max(abs(v) for v in mon[:-1]) if n >= 1 else 1.0
    z = [radius * cmath.exp(2j * cmath.pi * (k + 0.25) / n + 0.13j)
         for k in range(n)]
    if n == 1:
        root = complex(-mon[0])
        if abs(val(root)) / norm >= tol:
            raise RootFindingError("linear root did not meet tolerance", [root])
        return [root]
    for _ in range(_ABERTH_CAP):
        done = True
        for k in range(n):
            fk, dfk = valmon_and_deriv(z[k])
            if fk == 0:
                continue
            if dfk == 0:
                z[k] *= 1.0 + 1e-6
                done = False
                continue
            newton = fk / dfk
            s = 0j
            for i in range(n):
                if i != k:
                    s += 1.0 / (z[k] - z[i])
            denom = 1.0 - newton * s
            step = newton / denom if denom != 0 else newton
            z[k] = z[k] - step
            if abs(step) > tol * max(1.0, abs(z[k])):
                done = False
        if done and max(abs(val(w)) for w in z) / norm < tol:
            break
    else:
        if max(abs(val(w)) for w in z) / norm >= tol:
            raise RootFindingError("Aberth iteration did not converge", z)
    z.sort(key=lambda w: (round(w.real, 9), round(w.imag, 9)))
    return z


def float_moduli(n):
    """The moduli |g_{n+1}(w)/g_n(w)| at the roots w of G_n, sorted."""
    num, den = g_poly(n + 1), g_poly(n)
    return sorted(abs(complex(num(w)) / complex(den(w)))
                  for w in complex_roots(big_g(n)))
