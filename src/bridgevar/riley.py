"""Words in the bridge generators, their 2x2 matrices over Z[L^{±1}, r]
(packed into ints), and Riley polynomials.

The parabolic representation sends the bridge generators to
A = [[L, 1], [0, L^-1]] and B = [[L, 0], [2-r, L^-1]] (so that
tr(A B^-1) = r).  The Riley polynomial of a two-bridge word is the
entry combination W11 + (L^-1 - L) W12, rewritten in the subring
generated by r and y = L^2 + L^-2.  For the J(k, l) family there is also
the closed form built from the Phi/Psi sequences; each oracles the other.

A word of N letters is evaluated as L^N W, whose entries are
polynomials in L of degree at most 2N, each packed into one int by
Kronecker substitution (Harvey, J. Symbolic Comput. 44 (2009)):
r = 2^(8w) and L = 2^(4wR).  Every generator, times L, has even
diagonal and odd off-diagonal entries in L, and so has L^N W; within
one entry, L^2 steps over a whole block of R signed w-byte slots, one
slot per power of r.  A row pass (`_row_pass`) reads the letters left
to right and right-multiplies a row (m1, m2) by L A^{±1} or L B^{±1},
shifts and adds only, with c = 2 - r and c X = 2X - (X << 8w):

    a:      m1 <- L^2 m1,             m2 <- L m1 + m2
    a^-1:                             m2 <- L^2 m2 - L m1
    b:      m1 <- L^2 m1 + L c m2
    b^-1:   m1 <- m1 - L c m2,        m2 <- L^2 m2

The pass keeps its row in the live L-window.  It carries lower bounds
l1, l2 on the L-exponents of m1, m2 (0 for an entry 1 and 1 for an
entry 0 at the start; 0 has every bound) through the min-plus image of
each update, since c has L-exponent 0:

    a:      l1 <- l1 + 2,             l2 <- min(l1 + 1, l2)
    a^-1:                             l2 <- min(l2 + 2, l1 + 1)
    b:      l1 <- min(l1 + 2, l2 + 1)
    b^-1:   l1 <- min(l1, l2 + 1),    l2 <- l2 + 2

Whenever both bounds reach 2, m1 and m2 are L^2 times polynomials in L
and r, and shifting each right by one block is the exact division by
L^2; the pass counts these drops d, and the row at the end is L^(2d)
times the packed one.  The Riley combination of W_k^-n has L-exponents
in [-2|n|, 2|n|], and its prefixes stay about as narrow, so its packed
row stays below L^(4|n| + 4), where L^N W spans L^(4|k||n|).

Both word routes take W11 + (L^-1 - L) W12 from one row pass from
(1, 0) (`_riley_word`): `riley_poly_pq` on the Schubert word,
`riley_poly_matrix` on W_k^-n, whose first row, times L^N, is
(M22, -M12) for the entries Mij of L^N W_k^n (every letter, times L,
has determinant L^2).  `eval_word` runs two row passes for all four
entries.  No route uses another's result or Cayley-Hamilton.

The slots are sized from the word before any arithmetic (`_slots`).
Only b letters raise the degree in r, so R = (number of b letters) + 1.
The l1 norms of the two columns are at most b1, b2, which start at 1 and
follow the word: a^{±1} sets b2 <- b1 + b2 and b^{±1} sets
b1 <- b1 + 3 b2.  The entry combination the Riley routes take has l1
norm at most 3 max(b1, b2), the slots' bound, and w holds it and a
sign bit.  Packing is a ring homomorphism, and so is dividing by L^2, so
only the final coefficients have to fit in their slots, and one decoder
(`_digits`) reads them back as balanced base-2^(8w) digits.

The Riley routes rewrite their combination in (r, y) (`_to_ry`) before
any decoding.  With 2^(8w - 1) added to every slot, its bytes are
palindromic by blocks exactly when it lies in the subring, and the
blocks c_0, ..., c_M of its upper half (c_j at L^(2j)) give
F = c_0 + sum_j c_j D_j(y), where D_0 = 2, D_1 = y and
D_{j+1} = y D_j - D_{j-1} (`seq.d_poly`), by Clenshaw's recurrence
(Math. Tables Aids Comput. 9 (1955) 118-120):

    b_j = c_j + y b_{j+1} - b_{j+2}   for j = M .. 1, b_{M+1} = b_{M+2} = 0,
    F = c_0 + y b_1 - 2 b_2,

with y a shift by one block: M shifts and adds.  By the ring
homomorphism only F has to fit: its coefficients are at most the bound
times S_M = max_i (sum_{j >= 1} |[y^i] D_j| + [i = 0]), and its slots
are wider than w only when that product needs more bytes.

The closed form F_{k,n} = f_n(t) F_{k,1} - f_{n-1}(t), with
t = A s + 2, s = y - r and F_{k,1} = 1 - B s for A = Phi_{-k} Psi_k and
B = Phi_{-k} Phi_{k-1}, is expanded at t = 2: with g_j and h_j the
Taylor coefficients of f_n(2 + u) and f_{n-1}(2 + u),
F_{k,n} = sum_j P_j s^j, P_j = (g_j - h_j) A^j - g_{j-1} A^(j-1) B, int
products of A and B packed at r = 2^(8w), summed by Horner's rule in s,
z <- (z << 8wR) - (z << 8w) + P_j.  Only F_{k,n} has to fit: its
r-degree is below R = max(d_n len A + len B, d_{n-1} len A) + 1, with
d_j = deg f_j, and with T = 2 ||A||_1 + 2 >= ||t||_1 its l1 norm is at
most sum |f_{n,i}| T^i (2 ||B||_1 + 1) + sum |f_{n-1,i}| T^i.

Two identity checks compare the packed ints of the two row passes of a
word with a packed closed form, never decoding: `trace_formula_check`
(tr W_k = Phi_{-k} Psi_k (y - r) + 2) and `ideal_generator_check`
(Riley's vanishing ideal, R. Riley, Quart. J. Math. Oxford (2) 35
(1984) 191-208).  Each first bounds what it compares inside the balanced
slot range, with r-degree below R, so that the ints are equal exactly
when the polynomials are.
"""

import functools
from math import comb, gcd as int_gcd
from typing import NamedTuple

from .kernels import read_slots, trim
from .poly import UniPoly, BiPoly, ExactError
from .seq import d_poly, f_poly, phi, psi


class TraceSubringError(ExactError):
    """A Laurent term is not expressible in r and y = L^2 + L^-2."""

    def __init__(self, exponent, coefficient):
        super().__init__(
            "not in trace subring: term L^%d with coefficient %s"
            % (exponent, coefficient))
        self.exponent = exponent
        self.coefficient = coefficient


# ---------------------------------------------------------------------------
# words

def word_normalize(pairs):
    """Merge adjacent same-generator letters, drop zero exponents."""
    out = []
    for gen, exp in pairs:
        if gen not in ("a", "b"):
            raise ExactError("unknown generator %r" % (gen,))
        if not exp:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return tuple(out)


def word_inverse(word):
    return word_normalize((g, -e) for g, e in reversed(word))


def word_concat(*words):
    out = []
    for w in words:
        out.extend(w)
    return word_normalize(out)


def _join(*words):
    """The product of normalized words: their concatenation when no seam
    joins two letters of one generator, else `word_concat`."""
    words = [w for w in words if w]
    for u, v in zip(words, words[1:]):
        if u[-1][0] == v[0][0]:
            return word_concat(*words)
    return sum(words, ())


def word_power(word, n):
    """word^n: its normalized form repeated, re-normalized only when its
    first and last generators are the same (`_join`)."""
    if n < 0:
        return word_power(word_inverse(word), -n)
    return _join(*[word_normalize(word)] * n)


def w_k_word(k):
    """w_k: (a b^-1)^m (a^-1 b)^m for k = 2m, with an `ab` core for odd k."""
    m, rem = divmod(k, 2)
    return _join(word_power((("a", 1), ("b", -1)), m),
                 (("a", 1), ("b", 1)) if rem else (),
                 word_power((("a", -1), ("b", 1)), m))


def schubert_word(p, q):
    """The standard two-bridge word a^{e_1} b^{e_2} ... of length p-1,
    with e_i = (-1)^{floor(i*q/p)}."""
    if p < 1:
        raise ExactError("schubert word needs p >= 1, got p=%d" % p)
    if p % 2 == 0 or q % 2 == 0:
        raise ExactError("schubert word needs p and q odd, got (%d, %d)" % (p, q))
    if not (-p < q <= p):
        raise ExactError("schubert word needs -p < q <= p, got (%d, %d)" % (p, q))
    if int_gcd(p, q) != 1:
        raise ExactError("schubert word needs gcd(p, q) = 1, got (%d, %d)" % (p, q))
    letters = []
    for i in range(1, p):
        e = 1 if (i * q // p) % 2 == 0 else -1
        letters.append(("a" if i % 2 else "b", e))
    return word_normalize(letters)


# ---------------------------------------------------------------------------
# packed word evaluation

class _Slots(NamedTuple):
    """The slot layout of a word of N letters: its entries, times L^N,
    are evaluated at r = 2**(8w) and L = 2**shift with shift = 4wR.
    bound is the l1 bound 3 max(b1, b2) on the entry combination of the
    Riley routes, which `_to_ry` sizes its result from."""
    letters: int
    w: int
    R: int
    bound: int

    @property
    def shift(self):
        return 4 * self.w * self.R


class _PackedWord(NamedTuple):
    """The entries of L^N W for a word W of N letters, each divided by
    L^(2 drop), in `slots`: the coefficient of L^(2(i + drop) + p) r^j of
    an entry m of parity p in L is the w-byte slot i*R + j of
    m >> (p*shift)."""
    m11: int
    m12: int
    m21: int
    m22: int
    slots: _Slots
    drop: int


def _slot_bytes(bound):
    """The fewest bytes w of a signed slot that holds every integer of
    absolute value at most bound: bound < 2**(8w - 1), a sign bit spare."""
    return (bound.bit_length() + 8) // 8


def _pack(c, w):
    """The int list c, lowest first, packed at r = 2**(8w)."""
    rs = 8 * w
    return sum(v << rs * i for i, v in enumerate(c))


def _slots(word):
    """The slots of the word, sized before any arithmetic."""
    letters = b_letters = 0
    b1 = b2 = 1  # l1-norm bounds of the columns of L^t W
    for gen, exp in word:
        n = abs(exp)
        letters += n
        if gen == "a":
            b2 += n * b1
        else:
            b_letters += n
            b1 += 3 * n * b2
    bound = 3 * max(b1, b2)  # the Riley routes' entry combination
    return _Slots(letters, _slot_bytes(bound), b_letters + 1, bound)


def _row_pass(word, slots, x, y):
    """The row vector (x, y), which is (1, 0) or (0, 1), times L^N W, as
    (x', y', d) with that row equal to L^(2d) (x', y'): the letters left
    to right, each a right multiplication by L A^{±1} or L B^{±1}.

    lx and ly are the L-exponent bounds of the module docstring.  When
    both reach 2 after a letter, its update is taken divided by L^2 and
    d counts the drop.  After a and b^-1 one bound is at least 2, and
    after a^-1 ly is once lx is, so only b tests both bounds."""
    rs, L1 = 8 * slots.w, slots.shift
    L2 = 2 * L1
    lx, ly = (0, 1) if x else (1, 0)
    d = 0
    for gen, exp in word:
        for _ in range(abs(exp)):
            if gen == "a":
                if exp > 0:
                    lx, ly = lx + 2, lx + 1 if lx < ly else ly
                    if ly < 2:
                        x, y = x << L2, (x << L1) + y
                        continue
                    y = (x >> L1) + (y >> L2)
                else:
                    ly = ly + 2 if ly < lx else lx + 1
                    if lx < 2:
                        y = (y << L2) - (x << L1)
                        continue
                    x, y = x >> L2, y - (x >> L1)
            else:
                cy = (y << 1) - (y << rs)  # (2 - r) y
                if exp > 0:
                    lx = lx + 2 if lx < ly else ly + 1
                    if lx < 2 or ly < 2:
                        x = (x << L2) + (cy << L1)
                        continue
                    x, y = x + (cy >> L1), y >> L2
                else:
                    lx, ly = lx if lx <= ly else ly + 1, ly + 2
                    if lx < 2:
                        x, y = x - (cy << L1), y << L2
                        continue
                    x = (x >> L2) - (cy >> L1)
            lx, ly, d = lx - 2, ly - 2, d + 1
    return x, y, d


def eval_word(word, slots=None):
    """The word W as the packed entries of L^N W divided by L^(2 drop):
    its two rows, each by a row pass, shifts and adds only, the row with
    the larger drop taken back up to the other's.  The slots default to
    the word's own."""
    if slots is None:
        slots = _slots(word)
    m11, m12, d1 = _row_pass(word, slots, 1, 0)
    m21, m22, d2 = _row_pass(word, slots, 0, 1)
    d = min(d1, d2)
    s1, s2 = 2 * slots.shift * (d1 - d), 2 * slots.shift * (d2 - d)
    return _PackedWord(m11 << s1, m12 << s1, m21 << s2, m22 << s2, slots, d)


_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _spread(data, w, wide):
    """The w-byte slots of data, each in the low bytes of a wide-byte
    slot: w / g strided copies, g the largest of 1, 2, 4, 8 dividing both."""
    g = min((w | wide) & -(w | wide), 8)
    out = bytearray(len(data) // w * wide)
    src, dst = (memoryview(v).cast(_FORMATS[g]) for v in (data, out))
    for t in range(w // g):
        dst[t::wide // g] = src[t::w // g]
    return out


def _half(w, count, width=None):
    """2**(8w - 1) in each of count slots of width bytes (default w)."""
    slot = bytes(w - 1) + b"\x80"
    return int.from_bytes(slot.ljust(width or w, b"\0") * count, "little")


def _digits(z, w, R, blocks, drop=0):
    """The balanced base-2**(8w) digits of z, as one int list per block
    of R digits, each without its zero top digits, placed from block drop
    on: blocks lists in all, those below drop empty.  Every digit of z
    must lie in (-2**(8w - 1), 2**(8w - 1)), and z must have at most
    (blocks - drop) R of them.

    Only blocks lo to t = z.bit_length() // b are converted, b = 8wR bits
    to a block, lo that of the lowest set bit of z: no higher block is
    nonzero, as the digits below a nonzero top block t' make up less than
    2**(b t' - 1) and it at least 2**(b t').  Adding 2**(8w - 1) to every
    slot makes each one nonnegative, with no carry, so one
    `kernels.read_slots` call reads them, in units of the next 1, 2, 4 or
    8 bytes, or of 8 bytes joined by shifts for wider slots, spread to
    a multiple of 8 bytes first (`_spread`)."""
    rows = [[] for _ in range(blocks)]
    if not z:
        return rows
    b = 8 * w * R
    lo = ((z & -z).bit_length() - 1) // b
    hi = min(z.bit_length() // b, blocks - 1 - drop)
    count = (hi - lo + 1) * R
    half = 1 << 8 * w - 1     # added to every slot, then taken off
    y = (z >> lo * b) + _half(w, count)
    if w <= 8:
        digits = [v - half for v in
                  read_slots(y, count, w, 1 << (w - 1).bit_length())]
    else:
        m = -(-w // 8)
        if w % 8:
            y = int.from_bytes(_spread(y.to_bytes(count * w, "little"), w,
                                       8 * m), "little")
        units = read_slots(y, count * m, 8, 8)
        top = half >> 64 * (m - 1)   # half lies in the top unit
        digits = [(h - top) << 64 | v
                  for h, v in zip(units[m - 1::m], units[m - 2::m])]
        for i in range(m - 3, -1, -1):
            digits = [h << 64 | v for h, v in zip(digits, units[i::m])]
    for e, i in enumerate(range(0, count, R), lo + drop):
        rows[e] = trim(digits[i:i + R])
    return rows


# ---------------------------------------------------------------------------
# the trace-parameter rewrite: L^{2j} + L^{-2j} = D_j(y), `seq.d_poly`


@functools.lru_cache(maxsize=None)
def _dickson_l1(M):
    """S_M = max_i (sum_{1 <= j <= M} |[y^i] D_j| + [i = 0]): the largest
    coefficient of c_0 + sum_j c_j D_j(y) is at most S_M max |c_j|."""
    sums = [1] + [0] * M  # deg D_j = j
    for j in range(1, M + 1):
        for i, v in enumerate(d_poly(j).c):
            sums[i] += abs(v)
    return max(sums)


def _subring_error(z, slots, drop):
    """The TraceSubringError of the lowest row e of L^(2 drop) z that is
    nonzero for odd N or not row N - e (or of row N - e if e is empty)."""
    N = slots.letters
    rows = _digits(z, slots.w, slots.R, N + 1, drop)
    for e, c in enumerate(rows):
        if c and N % 2 or c != rows[N - e]:
            if not c:
                e, c = N - e, rows[N - e]
            return TraceSubringError(2 * e - N, UniPoly(c, "r"))
    raise AssertionError("no term outside the trace subring")


def _to_ry(z, slots, drop=0):
    """Rewrite Z = L^(2 drop - N) z, where z packs an even polynomial in
    L in `slots` and L^(2 drop) z has degree at most 2N, as a BiPoly in
    (r, y) by Clenshaw's recurrence (module docstring).  Z must have even,
    palindromic exponents: its K + 1 live rows, K = N - 2 drop, are the
    blocks of z, and, with 2**(8w - 1) added to every slot, block i must
    equal block K - i and no digit may lie above block K."""
    if not z:
        return BiPoly.zero("y", "r")
    N, w, R = slots.letters, slots.w, slots.R
    K = N - 2 * drop
    M = K // 2
    bw = w * R           # bytes to a block
    biased = z + _half(w, (K + 1) * R) if K >= 0 else -1
    if N % 2 or biased < 0 or biased.bit_length() > 8 * bw * (K + 1):
        raise _subring_error(z, slots, drop)
    raw = biased.to_bytes(bw * (K + 1), "little")
    blocks = [raw[i:i + bw] for i in range(0, len(raw), bw)]
    if blocks[:M] != blocks[:M:-1]:
        raise _subring_error(z, slots, drop)
    up = raw[M * bw:]
    wide = max(w, _slot_bytes(slots.bound * _dickson_l1(M)))
    if wide > w:
        up, bw = _spread(up, w, wide), wide * R
    half = _half(w, R, wide)
    c = [int.from_bytes(up[i:i + bw], "little") - half
         for i in range(0, len(up), bw)]
    s = 8 * bw
    b1 = b2 = 0  # b_{j+1}, b_{j+2}
    for cj in reversed(c[1:]):
        b1, b2 = cj + (b1 << s) - b2, b1
    F = c[0] + (b1 << s) - 2 * b2
    return BiPoly([UniPoly(row, "r") for row in _digits(F, wide, R, M + 1)],
                  "y", "r")


# ---------------------------------------------------------------------------
# Riley polynomials: closed form and matrix extraction

def _trace_coeffs(k):
    """The coefficients of Phi_{-k} Psi_k in r, lowest first, for the
    closed form tr W_k = Phi_{-k} Psi_k (y - r) + 2: the trace check
    and, as A, `riley_poly_J` read them."""
    return (phi(-k) * psi(k)).c


def _l1_at(c, T):
    """sum |c_i| T^i: a bound on the l1 norm of c(t) when ||t||_1 <= T."""
    return sum(abs(v) * T ** i for i, v in enumerate(c))


def _taylor_at_2(n, j):
    """The coefficient of u^j in f_n(2 + u): C(n + j, 2j + 1) for n >= 0,
    and f_{-n} = -f_n."""
    return comb(n + j, 2 * j + 1) if n >= 0 else -comb(j - n, 2 * j + 1)


def riley_poly_J(k, n):
    """Closed-form F_{k,n} in Z[r, y] (outer y, inner r):
    f_n(t) * F_{k,1} - f_{n-1}(t) with t = tr W_k, expanded in s = y - r
    and evaluated on packed ints (see the module docstring)."""
    a = _trace_coeffs(k)
    b = (phi(-k) * phi(k - 1)).c
    fn, fm = f_poly(n), f_poly(n - 1)
    dn, dm = max(fn.degree, 0), max(fm.degree, 0)
    R = max(dn * len(a) + len(b), dm * len(a)) + 1
    T = 2 * sum(map(abs, a)) + 2
    bound = (_l1_at(fn.c, T) * (2 * sum(map(abs, b)) + 1)
             + _l1_at(fm.c, T))
    w = _slot_bytes(bound)
    rs, ys = 8 * w, 8 * w * R
    A, B = _pack(a, w), _pack(b, w)
    top = max(dn + 1, dm)
    P = []  # P_j of the module docstring
    Aj, prev = 1, 0  # A^j and g_{j-1} A^(j-1) B
    for j in range(top + 1):
        g = _taylor_at_2(n, j)
        P.append((g - _taylor_at_2(n - 1, j)) * Aj - prev)
        prev = g * Aj * B
        Aj *= A
    z = 0
    for Pj in reversed(P):  # Horner's rule in s: s z = (z << ys) - (z << rs)
        z = (z << ys) - (z << rs) + Pj
    return BiPoly([UniPoly(row, "r") for row in _digits(z, w, R, top + 1)],
                  "y", "r")


def _riley_word(word):
    """W11 + (L^-1 - L) W12 of the word W, from the first row of L^N W by
    one row pass, divided by the L^(2 drop) of that pass."""
    slots = _slots(word)
    m11, m12, drop = _row_pass(word, slots, 1, 0)
    # L^N (W11 + (L^-1 - L) W12) = M11 + (L^-1 - L) M12, with M12 odd
    return _to_ry(m11 + (m12 >> slots.shift) - (m12 << slots.shift), slots,
                  drop)


def riley_poly_matrix(k, n):
    """F_{k,n} extracted from W = W_k^n as (L - L^-1) W12 + W22: the Riley
    formula of W^-1, whose first row is (W22, -W12)."""
    return _riley_word(word_power(w_k_word(k), -n))


def riley_poly_pq(p, q):
    """Riley polynomial of the (p, q) two-bridge word: W11 + (L^-1 - L) W12."""
    return _riley_word(schubert_word(p, q))


def normalize_unit(F):
    """Primitive copy with the sign fixed, for up-to-unit comparisons
    (positive coefficient at the top (y, r)-lexicographic monomial)."""
    return F.primitive()


# ---------------------------------------------------------------------------
# exact identity checks

def trace_formula_check(k, samples=None, seed=""):
    """Exact check of tr W_k = Phi_{-k} Psi_k (y - r) + 2, as one
    comparison of ints.  `samples` and `seed` are ignored; they go when
    the benchmark's call `trace_formula_check(k, 1, seed=label)` does.

    With C = Phi_{-k} Psi_k and N the (even) letter count of w_k, L^N
    times the right side is C L^(N+2) + (2 - r C) L^N + C L^(N-2), packed
    in the slots of `eval_word(w_k)`; the left side is M11 + M22 of that
    evaluation.  Both are taken over L^(2e), e the lower of drop and
    N/2 - 1 (e = -1 for k = 0, where both are taken times L^2)."""
    pw = eval_word(w_k_word(k))
    w, R, N = pw.slots.w, pw.slots.R, pw.slots.letters
    c = _trace_coeffs(k)
    h = 1 << 8 * w - 1
    if len(c) >= R or not all(-h < v < h for v in c):  # r C must fit too
        return False
    B = 2 * pw.slots.shift  # L^2
    C = _pack(c, w)
    e = min(pw.drop, N // 2 - 1)
    want = (((C << 2 * B) + ((2 - (C << 8 * w)) << B) + C)
            << (N // 2 - 1 - e) * B)
    return (pw.m11 + pw.m22) << (pw.drop - e) * B == want


def ideal_generator_check(k, n, F):
    """Exact check of Riley's vanishing ideal, A W - W B =
    [[0, F], [(r - 2) F, 0]], for W = W_k^n and the given F, a BiPoly in
    (y, r) such as the caller's riley_poly_J(k, n), at y = L^2 + L^-2.

    With Mij the entries of L^N W from its two row passes (N is even) and
    c = 2 - r, L^(N+1) (A W - W B) is [[L (M21 - c M12),
    (L^2 - 1) M12 + L M22], [(1 - L^2) M21 - L c M22, 0]], by
    L A = [[L^2, L], [0, 1]] and L B = [[L^2, 0], [L c, 1]].  Horner's rule
    in y, z <- z (L^4 + 1) + F_j L^(2(d-j)) for j from d = deg_y F down,
    packs L^(2d) F = L^(2d-N-1) L^(N+1) F.  A third of the bound of a W,
    or of W b (`_slots`), bounds its entries' coefficients, and
    3 sum_j ||F_j||_1 2^j those of F and (r - 2) F; the slots hold the
    sum, so each entry less its side is zero exactly when its int is,
    given 2d <= N + 1 and the r-degree of (r - 2) F below R.  W comes
    over L^(2 drop); all sides are taken over the lower of the two."""
    word = word_power(w_k_word(k), n)
    rows = [f.c for f in F.cs]
    d = len(rows) - 1
    s1, s2 = _slots((("a", 1),) + word), _slots(word + (("b", 1),))
    bound = 3 * sum(sum(map(abs, row)) << j for j, row in enumerate(rows))
    slots = s2._replace(w=_slot_bytes((s1.bound + s2.bound) // 3 + bound))
    top, w = slots.letters, slots.w
    if 2 * d > top or max(map(len, rows), default=0) >= slots.R:
        return False
    L1 = slots.shift
    B = 2 * L1  # L^2
    z = 0
    for j in range(d, -1, -1):
        z = (z << 2 * B) + z + (_pack(rows[j], w) << (d - j) * B)
    pw = eval_word(word, slots)
    e = min(2 * pw.drop, top - 2 * d)
    m12, m21, m22 = (m << (2 * pw.drop - e) * L1 for m in pw[1:4])
    G = z << (top - 2 * d - e) * L1
    rs = 8 * w
    c12, c22 = (m12 << 1) - (m12 << rs), (m22 << 1) - (m22 << rs)
    return (m21 == c12 and (m12 << B) - m12 + (m22 << L1) == G
            and m21 - (m21 << B) - (c22 << L1) == (G << rs) - 2 * G)
