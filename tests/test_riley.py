"""Riley polynomials: word calculus, matrix path, closed form.

Oracles: plain 2x2 matrices with Fraction entries, the general product
of 2x2 matrices over Z[L^{±1}, r] (entries are dicts {power of L:
UniPoly in r}), and the closed form and the trace rewrite in BiPoly
arithmetic (Horner's rule and sums).  Words are evaluated at exact
random (lambda, r) samples completely independently of the packed
machinery, and every symbolic claim is compared against those numbers;
the packed word evaluation, decoded through `_digits`, is also compared
entry by entry with the general product, and the packed closed form and
int-row rewrite with their BiPoly versions.
"""

from fractions import Fraction
from random import Random

import pytest

from bridgevar import riley
from bridgevar.poly import BiPoly, ExactError, UniPoly
from bridgevar.riley import (TraceSubringError, _PackedWord, _digits,
                             _slot_bytes, _to_ry, eval_word,
                             ideal_generator_check,
                             normalize_unit, riley_poly_J,
                             riley_poly_matrix, riley_poly_pq, schubert_word,
                             trace_formula_check, trace_wk, w_k_word,
                             word_concat, word_inverse, word_normalize,
                             word_power)
from bridgevar.seq import f_poly, phi

# --- oracle: numeric 2x2 matrices ---------------------------------------

I2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def mmul(X, Y):
    return tuple(tuple(sum(X[i][k] * Y[k][j] for k in range(2))
                       for j in range(2)) for i in range(2))


def minv(X):
    det = X[0][0] * X[1][1] - X[0][1] * X[1][0]
    return ((X[1][1] / det, -X[0][1] / det),
            (-X[1][0] / det, X[0][0] / det))


def num_word(word, lam, r):
    A = ((lam, Fraction(1)), (Fraction(0), 1 / lam))
    B = ((lam, Fraction(0)), (2 - r, 1 / lam))
    out = I2
    for gen, exp in word:
        M = A if gen == "a" else B
        if exp < 0:
            M, exp = minv(M), -exp
        for _ in range(exp):
            out = mmul(out, M)
    return out


# --- oracle: the general product of 2x2 matrices over Z[L^{±1}, r] --------
# An entry is a dict {power of L: nonzero UniPoly in r}, a matrix the
# tuple (a11, a12, a21, a22) of its entries.

R = UniPoly.gen("r")
R1 = UniPoly.const(1, "r")


def lp_add(*fs):
    out = {}
    for f in fs:
        for e, c in f.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if not c.is_zero}


def lp_neg(f):
    return {e: -c for e, c in f.items()}


def lp_mul(f, g):
    return lp_add(*({e1 + e2: c1 * c2} for e1, c1 in f.items()
                    for e2, c2 in g.items()))


def lp_eval(f, lam, r):
    return sum(c(r) * lam ** e for e, c in f.items())


ONE = {0: R1}
ZERO = {}
IDENTITY = (ONE, ZERO, ZERO, ONE)
GENERATORS = {
    "a": ({1: R1}, ONE, ZERO, {-1: R1}),
    "b": ({1: R1}, ZERO, {0: 2 - R}, {-1: R1}),
}


def mat_mul(X, Y):
    return (lp_add(lp_mul(X[0], Y[0]), lp_mul(X[1], Y[2])),
            lp_add(lp_mul(X[0], Y[1]), lp_mul(X[1], Y[3])),
            lp_add(lp_mul(X[2], Y[0]), lp_mul(X[3], Y[2])),
            lp_add(lp_mul(X[2], Y[1]), lp_mul(X[3], Y[3])))


def mat_power(M, n):
    if n < 0:
        assert lp_add(lp_mul(M[0], M[3]), lp_neg(lp_mul(M[1], M[2]))) == ONE
        M, n = (M[3], lp_neg(M[1]), lp_neg(M[2]), M[0]), -n
    out = IDENTITY
    for _ in range(n):
        out = mat_mul(out, M)
    return out


def product_word(word):
    out = IDENTITY
    for gen, exp in word:
        out = mat_mul(out, mat_power(GENERATORS[gen], exp))
    return out


def decode(z, pw, odd=0):
    """The entry L^-N z as a dict, where z packs a polynomial in L of
    degree at most 2N and parity odd in the slots of pw."""
    rows = _digits(z >> pw.shift * odd, pw.w, pw.R, pw.letters + 1)
    return {2 * e + odd - pw.letters: UniPoly(row, "r")
            for e, row in enumerate(rows) if row}


def decoded_word(word):
    """eval_word(word), decoded entry by entry into the oracle's type."""
    pw = eval_word(word)
    return tuple(decode(m, pw, odd) for m, odd in zip(pw[:4], (0, 1, 1, 0)))


def pack(f, N, w=2, per_block=3):
    """The dict f, all of whose powers of L lie in [-N, N] and have the
    parity of N, packed as L^N f in w-byte slots, per_block of them to a
    power of L^2, as eval_word packs an entry."""
    z = sum(v << 8 * w * ((e + N) // 2 * per_block + j)
            for e, c in f.items() for j, v in enumerate(c.c))
    return z, _PackedWord(0, 0, 0, 0, N, w, per_block)


# --- oracle: the closed form and the trace rewrite on BiPoly --------------

Y_MINUS_R = BiPoly([-R, R1], "y", "r")


def closed_form_bipoly(k, n):
    """f_n(t) F_{k,1} - f_{n-1}(t) by Horner's rule on BiPoly, with
    t = tr W_k and F_{k,1} = 1 - Phi_{-k} Phi_{k-1} (y - r)."""
    f_k1 = 1 - BiPoly.from_inner(phi(-k, "r") * phi(k - 1, "r"), "y") * Y_MINUS_R
    t = trace_wk(k)
    return f_poly(n, "t")(t) * f_k1 - f_poly(n - 1, "t")(t)


def laurent_to_ry_bipoly(F):
    """sum_e c_e L^e as a BiPoly: c_0 + sum_{e > 0} c_e D_{e/2}(y), with
    D_0 = 2, D_1 = y, D_{j+1} = y D_j - D_{j-1}, for an even palindromic
    dict F."""
    y = UniPoly.gen("y")
    D = [UniPoly.const(2, "y"), y]
    out = BiPoly.zero("y", "r")
    for e, c in sorted(F.items()):
        if e == 0:
            out = out + BiPoly.from_inner(c, "y")
        elif e > 0:
            while len(D) <= e // 2:
                D.append(y * D[-1] - D[-2])
            out = out + BiPoly.from_inner(c, "y") * D[e // 2]
    return out


def sample_points(n, tag):
    rng = Random(tag)
    pts = []
    while len(pts) < n:
        lam = Fraction(rng.randint(-60, 60), rng.randint(1, 40))
        if lam in (0, 1, -1):
            continue
        r = Fraction(rng.randint(-60, 60), rng.randint(1, 40))
        pts.append((lam, r))
    return pts


# --- word calculus -------------------------------------------------------

def test_word_normalize_merges_and_drops():
    w = word_normalize([("a", 1), ("a", 2), ("b", 0), ("b", -1), ("b", 1)])
    assert w == (("a", 3),)
    with pytest.raises(ExactError):
        word_normalize([("c", 1)])


def test_word_inverse_and_power_laws():
    w = (("a", 2), ("b", -1), ("a", 1))
    assert word_concat(w, word_inverse(w)) == ()
    assert word_power(w, 0) == ()
    for lam, r in sample_points(3, "words"):
        lhs = num_word(word_power(w, 3), lam, r)
        rhs = I2
        for _ in range(3):
            rhs = mmul(rhs, num_word(w, lam, r))
        assert lhs == rhs
        assert num_word(word_inverse(w), lam, r) == minv(num_word(w, lam, r))


def test_w_k_word_shape():
    assert w_k_word(2) == (("a", 1), ("b", -1), ("a", -1), ("b", 1))
    assert w_k_word(1) == (("a", 1), ("b", 1))
    w3 = w_k_word(3)
    assert w3 == (("a", 1), ("b", -1), ("a", 1), ("b", 1), ("a", -1), ("b", 1))
    assert w_k_word(0) == ()


def test_schubert_word_pattern():
    w = schubert_word(5, 3)
    assert sum(abs(e) for _, e in w) == 4        # p - 1 letters
    assert all(e in (-1, 1) for _, e in w)
    assert [g for g, _ in w] == ["a", "b", "a", "b"]
    with pytest.raises(ExactError):
        schubert_word(4, 1)
    with pytest.raises(ExactError):
        schubert_word(9, 3)
    with pytest.raises(ExactError):
        schubert_word(5, 7)


def test_eval_word_matches_numeric_oracle():
    for k in (1, 2, 3, -2, 5):
        word = w_k_word(k)
        W = decoded_word(word)
        for lam, r in sample_points(4, "eval-%d" % k):
            num = num_word(word, lam, r)
            for sym, want in zip(W, (num[0][0], num[0][1],
                                     num[1][0], num[1][1])):
                assert lp_eval(sym, lam, r) == want


def test_mat_power_matches_numeric_oracle():
    W = decoded_word(w_k_word(2))
    for n in (-3, -1, 0, 2, 4):
        P = mat_power(W, n)
        for lam, r in sample_points(3, "pow-%d" % n):
            num = num_word(word_power(w_k_word(2), n), lam, r)
            assert lp_eval(P[0], lam, r) == num[0][0]
            assert lp_eval(P[3], lam, r) == num[1][1]


def random_word(rng, length):
    return tuple((rng.choice("ab"), rng.randint(-3, 3)) for _ in range(length))


def test_packed_eval_word_matches_general_product():
    rng = Random("packed-words")
    words = [()] + [random_word(rng, rng.randint(0, 40)) for _ in range(30)]
    # Words whose largest entry coefficient fills all but five bits of
    # its two-byte slot.
    words += [(("a", 3), ("b", 3), ("a", 2), ("b", -3), ("a", -2), ("b", 2)),
              (("b", -3), ("a", -3), ("b", -3), ("a", -3), ("b", -3),
               ("a", -1))]
    for word in words:
        assert decoded_word(word) == product_word(word), word


def test_slot_bytes_keep_a_sign_bit_and_digits_round_trip():
    for bits in range(1, 70):
        for bound in (2 ** bits - 1, 2 ** bits):
            w = _slot_bytes(bound)
            assert bound < 2 ** (8 * w - 1), bound
            assert w == 1 or bound >= 2 ** (8 * w - 9), bound  # the fewest
            digits = [bound, -bound, 0, -bound, bound]
            z = sum(d << 8 * w * i for i, d in enumerate(digits))
            assert _digits(z, w, 2, 3) == [[bound, -bound], [0, -bound],
                                           [bound]], bound


def test_eval_word_wide_coefficients_match_numeric_oracle():
    # The entries' coefficients reach 130 bits: no 64-bit slot holds them.
    word = schubert_word(151, 55)
    W = decoded_word(word)
    top = max(abs(c) for entry in W for u in entry.values() for c in u.c)
    assert top.bit_length() > 64
    for lam, r in sample_points(2, "wide"):
        num = num_word(word, lam, r)
        for sym, want in zip(W, (num[0][0], num[0][1],
                                 num[1][0], num[1][1])):
            assert lp_eval(sym, lam, r) == want


# --- trace rewrite -------------------------------------------------------

def test_trace_wk_matches_numeric_trace():
    for k in (-4, -1, 1, 2, 3, 6):
        closed = trace_wk(k)
        word = w_k_word(k)
        for lam, r in sample_points(5, "trace-%d" % k):
            num = num_word(word, lam, r)
            tr = num[0][0] + num[1][1]
            y0 = lam ** 2 + lam ** -2
            assert closed.eval_point(r, y0) == tr


def test_trace_wk_at_word_identity():
    assert trace_wk(0).eval_point(0, 0) == 2
    assert trace_wk(0).degree_outer == 0 and trace_wk(0).degree_inner == 0


def test_laurent_to_ry_rejects_odd_powers():
    for f, N in (({1: R1}, 1), ({-1: R1, 1: R1}, 1), ({-3: R}, 3)):
        with pytest.raises(TraceSubringError):
            _to_ry(*pack(f, N))


def test_laurent_to_ry_rejects_even_but_not_palindromic():
    with pytest.raises(TraceSubringError):
        _to_ry(*pack({2: R1}, 2))
    with pytest.raises(TraceSubringError):
        _to_ry(*pack({-2: R1, 2: 2 * R1}, 2))


def test_laurent_to_ry_matches_bipoly_sum():
    # Hand-packed digit rows, then the combination riley_poly_matrix
    # takes of the packed words, against the oracle's product.
    cases = [({}, 0), ({}, 2), ({0: 3 - R}, 0), ({0: 3 - R}, 4),
             ({-4: R, -2: 1 - 5 * R ** 2, 0: 7 * R1,
               2: 1 - 5 * R ** 2, 4: R}, 4),
             ({-6: R1, -4: R, 4: R, 6: R1}, 8)]
    for f, N in cases:
        assert _to_ry(*pack(f, N)) == laurent_to_ry_bipoly(f), f
    L_minus_inv = {1: R1, -1: -R1}
    for k, n in ((2, 1), (-3, 2), (5, -3), (8, 4)):
        word = word_power(w_k_word(k), n)
        pw = eval_word(word)
        z = (pw.m12 << pw.shift) - (pw.m12 >> pw.shift) + pw.m22
        W = product_word(word)
        F = lp_add(lp_mul(L_minus_inv, W[1]), W[3])
        assert _to_ry(z, pw) == laurent_to_ry_bipoly(F), (k, n)


def test_trace_formula_check_runs_and_seeds_differ():
    assert trace_formula_check(5, 10)
    assert trace_formula_check(5, 10, seed="other")
    with pytest.raises(ExactError):
        trace_formula_check(5, 0)


def test_trace_formula_check_fails_on_a_wrong_closed_form(monkeypatch):
    real = riley.trace_wk
    monkeypatch.setattr(riley, "trace_wk", lambda k: real(k) + 1)
    assert not trace_formula_check(5, 3)
    assert not trace_formula_check(-2, 3)


# --- Riley polynomial, three ways ----------------------------------------

def test_riley_word_entry_combination_numeric():
    for k, n in ((2, 1), (2, -1), (3, 2), (-4, 1), (5, -2)):
        F = riley_poly_matrix(k, n)
        word = word_power(w_k_word(k), n)
        for lam, r in sample_points(4, "riley-%d-%d" % (k, n)):
            num = num_word(word, lam, r)
            want = (lam - 1 / lam) * num[0][1] + num[1][1]
            y0 = lam ** 2 + lam ** -2
            assert F.eval_point(r, y0) == want


def test_packed_closed_form_matches_bipoly_horner():
    for k in range(-12, 13):
        for n in range(-8, 9):
            assert riley_poly_J(k, n) == closed_form_bipoly(k, n), (k, n)
    assert riley_poly_J(3, 0) == 1 and riley_poly_J(0, 4) == 1


def test_riley_closed_form_equals_matrix_form():
    for k in range(-10, 11):
        for n in range(-6, 7):
            if n == 0:
                continue
            a = normalize_unit(riley_poly_J(k, n))
            b = normalize_unit(riley_poly_matrix(k, n))
            assert a == b, (k, n)


def test_riley_pq_matches_J_form():
    # J(k, 2n) <-> two-bridge (p, q); compare through the normal form
    from bridgevar.knotprops import two_bridge_params
    cells = [(k, n) for k in range(-10, 11) if abs(k) >= 2
             for n in range(-6, 7) if n]
    for k, n in cells:
        tb = two_bridge_params(k, 2 * n)
        if tb.p == 1:
            continue
        a = normalize_unit(riley_poly_pq(tb.p, tb.q))
        b = normalize_unit(riley_poly_J(k, n))
        assert a == b, (k, n, tb)


def test_riley_pq_figure_eight_frozen():
    F = riley_poly_pq(5, 3)
    # classical Riley polynomial of 4_1 up to normalization: degree 1 in y
    assert F.degree_outer == 1
    assert F.degree_inner == 2


def test_ideal_generator_check_spot():
    assert ideal_generator_check(2, 1, 4)
    assert ideal_generator_check(3, -2, 4)
    assert ideal_generator_check(-4, 2, 3, seed="x")


def test_ideal_generator_check_fails_on_a_wrong_generator(monkeypatch):
    real = riley.riley_poly_J
    r_minus_5 = BiPoly.from_inner(R - 5, "y")
    monkeypatch.setattr(riley, "riley_poly_J",
                        lambda k, n: real(k, n) * r_minus_5)
    assert not ideal_generator_check(2, 1, 4)
    assert not ideal_generator_check(3, -2, 4)
