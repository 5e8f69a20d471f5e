"""Second routes of two Riley computations, kept as oracles of the ones in
`bridgevar.riley`: no command runs them.

* `to_ry_loop` rewrites a packed even Laurent polynomial in (r, y) from
  all its decoded rows: it checks palindromy row by row and adds
  c_e D_{e - N/2}(y) for each upper row into int rows, one digit at a
  time.  `riley._to_ry` does the same by Clenshaw's recurrence on the
  packed upper half.
* `ideal_check_four_passes` tests Riley's vanishing ideal on the words
  a W and W b, each evaluated by its own two row passes, where
  `riley.ideal_generator_check` reads both from the two passes of W.
"""

from bridgevar.poly import BiPoly, UniPoly
from bridgevar.riley import (TraceSubringError, _digits, _pack, _slot_bytes,
                             _slots, eval_word, w_k_word, word_power)
from bridgevar.seq import d_poly


def slot_rows(z, slots, drop):
    """The int rows in r of L^(2 drop) z, where z packs a polynomial in L
    in `slots`, even and such that L^(2 drop) z has degree at most 2N:
    row e is its coefficient of L^(2e), and rows below drop are empty."""
    return _digits(z, slots.w, slots.R, slots.letters + 1, drop)


def to_ry_loop(z, slots, drop=0):
    """Z = L^(2 drop - N) z in (r, y), y = L^2 + L^-2, from the decoded
    rows of L^(2 drop) z: the first row e, from the bottom, that is
    nonzero for odd N or differs from row N - e raises TraceSubringError
    at the lower exponent, or at the other one when row e is empty; each
    pair c_e (L^(2e-N) + L^(N-2e)), 2e > N, adds c_e D_{e-N/2}(y), and
    the middle row adds itself."""
    N = slots.letters
    rows = slot_rows(z, slots, drop)
    for e, c in enumerate(rows):
        if c and N % 2 or c != rows[N - e]:
            if not c:
                e, c = N - e, rows[N - e]
            raise TraceSubringError(2 * e - N, UniPoly(c, "r"))
    out = [[] for _ in range(N // 2 + 1)]
    for e in range(N // 2, N + 1):
        c = rows[e]
        if not c:
            continue
        for i, d in enumerate(d_poly(e - N // 2).c if 2 * e > N else (1,)):
            if d:
                acc = out[i]
                acc.extend([0] * (len(c) - len(acc)))
                for m, v in enumerate(c):
                    acc[m] += d * v
    return BiPoly([UniPoly(row, "r") for row in out], "y", "r")


def ideal_check_four_passes(k, n, F):
    """A W - W B = [[0, F], [(r - 2) F, 0]] for W = W_k^n at
    y = L^2 + L^-2, with the words a W and W b of N + 1 letters each
    evaluated by `eval_word` in one slot layout, wide enough for the
    entries of both words and for 3 sum_j ||F_j||_1 2^j, and L^(N+1) F
    packed by Horner's rule in y; all sides over the lowest of the three
    powers of L they come over."""
    word = word_power(w_k_word(k), n)
    aw, wb = (("a", 1),) + word, word + (("b", 1),)
    rows = [f.c for f in F.cs]
    d = len(rows) - 1
    s1, s2 = _slots(aw), _slots(wb)
    bound = 3 * sum(sum(map(abs, row)) << j for j, row in enumerate(rows))
    slots = s2._replace(w=max(s1.w, s2.w, _slot_bytes(bound)))
    top, w = slots.letters, slots.w
    if 2 * d > top or max(map(len, rows), default=0) >= slots.R:
        return False
    L1 = slots.shift
    B = 2 * L1  # L^2
    z = 0
    for j in range(d, -1, -1):
        z = (z << 2 * B) + z + (_pack(rows[j], w) << (d - j) * B)
    p, q = eval_word(aw, slots), eval_word(wb, slots)
    e = min(2 * p.drop, 2 * q.drop, top - 2 * d)
    P = [m << (2 * p.drop - e) * L1 for m in p[:4]]
    Q = [m << (2 * q.drop - e) * L1 for m in q[:4]]
    G = z << (top - 2 * d - e) * L1
    return (P[0] == Q[0] and P[3] == Q[3] and P[1] - Q[1] == G
            and P[2] - Q[2] == (G << 8 * w) - 2 * G)
