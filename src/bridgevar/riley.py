"""Words in the bridge generators, their 2x2 matrices over Z[L^{±1}, r]
(packed into ints), and Riley polynomials.

The parabolic representation sends the two bridge generators to

    A = [[L, 1], [0, L^-1]]        B = [[L, 0], [2-r, L^-1]]

(so that tr(A B^-1) = r).  The Riley polynomial of a two-bridge word is
the matrix-entry combination W11 + (L^-1 - L) W12, rewritten in the
subring generated by r and y = L^2 + L^-2.  For the J(k, l) family there
is also the closed form built from the Phi/Psi sequences; both paths
live here so each can oracle the other.

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

Both word routes read the first row of a word, by one row pass from
(1, 0), and take W11 + (L^-1 - L) W12 (`_riley_word`):
`riley_poly_pq` on the Schubert word, `riley_poly_matrix` on W_k^-n.
Every letter, times L, has determinant L^2, so adj(L^N W) = L^N W^-1,
and the first row of L^N W^-1 is (M22, -M12) for the entries Mij of
L^N W: the formula on W^-1 is W22 + (L - L^-1) W12, the entry
combination of W = W_k^n the matrix route takes.  `eval_word`, which
both spot checks use, runs two row passes for all four entries.  No
route uses another's result or Cayley-Hamilton.

The slots are sized from the word before any arithmetic (`_slots`).
Only b letters raise the degree in r, so R = (number of b letters) + 1.
The l1 norms of the two columns are at most b1, b2, which start at 1 and
follow the word: a^{±1} sets b2 <- b1 + b2 and b^{±1} sets
b1 <- b1 + 3 b2.  The entry combination the Riley routes take has l1
norm at most 3 max(b1, b2), and w leaves room for that plus a sign bit.
This bounds the final matrix whatever the order of evaluation, and the
intermediate ints need no bound: they are values of polynomials at an
integer point, a ring homomorphism, so only the final coefficients have
to fit in their slots.  A packed result, made even in L by dividing an
odd one by L (an exact right shift), is read back as balanced
base-2^(8w) digits, with one `to_bytes` per entry or combination
(`_digits`): one int row in r per even power of L.  The decoder
converts only the window of blocks from the one holding the lowest set
bit of the int to the block of its bit length; the blocks outside it are
zero.  This one decoder gives the only unpacked form of a word's matrix:
the Riley routes rewrite its rows in (r, y) (`_to_ry`), and both spot
checks evaluate them at exact points.

The closed form F_{k,n} = f_n(t) F_{k,1} - f_{n-1}(t), with
t = A s + 2, s = y - r and F_{k,1} = 1 - B s for A = Phi_{-k} Psi_k and
B = Phi_{-k} Phi_{k-1}, is expanded at t = 2.  With g_j and h_j the
Taylor coefficients of f_n(2 + u) and f_{n-1}(2 + u), where
f_n(2 + u) = sum_j C(n + j, 2j + 1) u^j for n >= 0 and f_{-n} = -f_n,

    F_{k,n} = sum_j P_j s^j,   P_j = (g_j - h_j) A^j - g_{j-1} A^(j-1) B.

A and B are packed at r = 2^(8w) and the P_j are int products; with
y = 2^(8wR), Horner's rule in s is z <- (z << 8wR) - (z << 8w) + P_j,
shifts and a subtraction.  By the ring homomorphism Z[y, r] -> Z the
final int is F_{k,n}(2^(8wR), 2^(8w)) whatever the intermediate ints
look like: only the coefficients of F_{k,n} need to fit in a slot.  Its
r-degree is below R = max(d_n len A + len B, d_{n-1} len A) + 1 and
its y-degree at most max(d_n + 1, d_{n-1}), with d_j = deg f_j.  With
T = 2 ||A||_1 + 2 >= ||t||_1, its l1 norm is at most
sum |f_{n,i}| T^i (2 ||B||_1 + 1) + sum |f_{n-1,i}| T^i, and w holds
that bound and a sign bit, so the balanced digits of the result are the
coefficients of F_{k,n}.

The trace spot check (`trace_formula_check`) compares tr W_k with its
closed form at random rational points on ints: both sides are scaled by
powers of the denominators into integers, and the two ints are equal
exactly when the two rational values are.
"""

from fractions import Fraction
from math import comb, gcd as int_gcd
from random import Random
from typing import NamedTuple

from .poly import UniPoly, BiPoly, ExactError, poly_gcd
from .seq import f_poly, phi, psi


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


def word_power(word, n):
    if n < 0:
        return word_power(word_inverse(word), -n)
    return word_concat(*([word] * n))


def w_k_word(k):
    """w_k: (a b^-1)^m (a^-1 b)^m for k = 2m, with an `ab` core for odd k."""
    ab_inv = (("a", 1), ("b", -1))
    ainv_b = (("a", -1), ("b", 1))
    m, rem = divmod(k, 2)
    if rem == 0:
        return word_concat(word_power(ab_inv, m), word_power(ainv_b, m))
    return word_concat(word_power(ab_inv, m), (("a", 1), ("b", 1)),
                       word_power(ainv_b, m))


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

_R = UniPoly.gen("r")


class _Slots(NamedTuple):
    """The slot layout of a word of N letters: its entries, times L^N,
    are evaluated at r = 2**(8w) and L = 2**shift with shift = 4wR."""
    letters: int
    w: int
    R: int

    @property
    def shift(self):
        return 4 * self.w * self.R

    def rows(self, z):
        """The int rows in r of z, which packs a polynomial in L, even and
        of degree at most 2N, in these slots: row e is its coefficient of
        L^(2e)."""
        return _digits(z, self.w, self.R, self.letters + 1)


class _PackedWord(NamedTuple):
    """The entries of L^N W for a word W of N letters, in `slots`.  The
    diagonal entries are even in L and the others odd, so within one
    entry the coefficient of L^(2i+p) r^j is the signed w-byte slot
    i*R + j of m >> (p*shift)."""
    m11: int
    m12: int
    m21: int
    m22: int
    slots: _Slots


def _slot_bytes(bound):
    """The fewest bytes w of a signed slot that holds every integer of
    absolute value at most bound: bound < 2**(8w - 1), a sign bit spare."""
    return (bound.bit_length() + 8) // 8


def _slots(word):
    """The slots of the word, sized before any arithmetic."""
    letters = b_letters = 0
    b1 = b2 = 1  # l1-norm bounds of the columns of L^t W
    for gen, exp in word:
        n = abs(exp)
        letters += n
        if gen == "a":
            for _ in range(n):
                b2 += b1
        else:
            b_letters += n
            for _ in range(n):
                b1 += 3 * b2
    # Room for the entry combination of the Riley routes (l1 norm at
    # most 3 max(b1, b2)) and a sign bit; only b letters raise the
    # degree in r.
    return _Slots(letters, _slot_bytes(3 * max(b1, b2)), b_letters + 1)


def _row_pass(word, slots, x, y):
    """The row vector (x, y) times L^N W: the letters left to right, each
    a right multiplication by L A^{±1} or L B^{±1}."""
    rs, L1 = 8 * slots.w, slots.shift
    L2 = 2 * L1
    for gen, exp in word:
        for _ in range(abs(exp)):
            if gen == "a":
                if exp > 0:
                    x, y = x << L2, (x << L1) + y
                else:
                    y = (y << L2) - (x << L1)
            else:
                cy = ((y << 1) - (y << rs)) << L1  # L (2 - r) y
                if exp > 0:
                    x = (x << L2) + cy
                else:
                    x, y = x - cy, y << L2
    return x, y


def eval_word(word):
    """The word W as the packed entries of L^N W: its two rows, each by a
    row pass, shifts and adds only."""
    slots = _slots(word)
    return _PackedWord(*_row_pass(word, slots, 1, 0),
                       *_row_pass(word, slots, 0, 1), slots)


def _digits(z, w, R, blocks):
    """The balanced base-2**(8w) digits of z, blocks * R of them, as one
    int list per block of R digits, each without its zero top digits.
    Every digit of z must lie in (-2**(8w - 1), 2**(8w - 1)).

    Only the window of blocks that can be nonzero is converted, and every
    block outside it is [].  With b = 8wR bits to a block, let lo be the
    block holding the lowest set bit of z: z is divisible by 2**(b lo),
    so every block below lo is zero.  The top nonzero block t is at most
    z.bit_length() // b, also in the edge case of a top block of -1 over
    positive lower blocks, where the highest set bit of |z| lies in block
    t - 1.  Every digit is at most h = 2**(8w - 1) - 1 in absolute value,
    so the t R digits below block t make up at most
    h (2**(b t) - 1) / (2**(8w) - 1) < 2**(b t - 1) in absolute value,
    while block t, being nonzero, makes up at least 2**(b t).  So
    |z| > 2**(b t - 1), and the bit length of z is at least b t."""
    rows = [[] for _ in range(blocks)]
    if not z:
        return rows
    b = 8 * w * R
    lo = ((z & -z).bit_length() - 1) // b
    hi = min(z.bit_length() // b, blocks - 1)
    count = (hi - lo + 1) * R
    # Balanced digits: adding 0x80.. to every slot makes each one
    # nonnegative, and xor-ing it back leaves each slot in two's complement.
    bias = int.from_bytes((bytes(w - 1) + b"\x80") * count, "little")
    raw = (((z >> lo * b) + bias) ^ bias).to_bytes(count * w, "little")
    for e, i in enumerate(range(0, len(raw), R * w), lo):
        top = i + len(raw[i:i + R * w].rstrip(b"\0"))  # past the last nonzero
        rows[e] = [int.from_bytes(raw[j:j + w], "little", signed=True)
                   for j in range(i, top, w)]
    return rows


# ---------------------------------------------------------------------------
# the trace-parameter rewrite: L^{2j} + L^{-2j} = D_j(y)

_D_memo = [(2,), (0, 1)]


def _dcoeffs(j):
    """The coefficients of D_j(y): D_0 = 2, D_1 = y and
    D_{j+1} = y D_j - D_{j-1}."""
    while len(_D_memo) <= j:
        c = [0] + list(_D_memo[-1])
        for i, v in enumerate(_D_memo[-2]):
            c[i] -= v
        _D_memo.append(tuple(c))
    return _D_memo[j]


def _add_multiple(acc, s, row):
    """acc += s * row on int rows; acc grows as needed."""
    acc.extend([0] * (len(row) - len(acc)))
    for m, v in enumerate(row):
        acc[m] += s * v


def _to_ry(z, slots):
    """Rewrite Z = L^-N z, where z packs an even polynomial in L of degree
    at most 2N in `slots`, as a BiPoly in (r, y), y = L^2 + L^-2.
    Z must have even, palindromic exponents.

    Row e of z is the coefficient c_e of L^(2e - N) in Z.  Each pair
    c_e (L^(2e-N) + L^(N-2e)), 2e > N, adds c_e D_{e-N/2}(y), and the
    middle row adds itself, into int rows indexed by the power of y; the
    BiPoly is built once."""
    N = slots.letters
    rows = slots.rows(z)
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
        for i, d in enumerate(_dcoeffs(e - N // 2) if 2 * e > N else (1,)):
            if d:
                _add_multiple(out[i], d, c)
    return BiPoly([UniPoly(row, "r") for row in out], "y", "r")


# ---------------------------------------------------------------------------
# Riley polynomials: closed form and matrix extraction

def trace_wk(k):
    """tr W_k as a BiPoly in (r, y): Phi_{-k}(r) Psi_k(r) (y - r) + 2."""
    coeff = phi(-k, "r") * psi(k, "r")
    y_minus_r = BiPoly([-_R, UniPoly.const(1, "r")], "y", "r")
    return BiPoly.from_inner(coeff, "y") * y_minus_r + 2


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
    a = (phi(-k) * psi(k)).c
    b = (phi(-k) * phi(k - 1)).c
    fn, fm = f_poly(n), f_poly(n - 1)
    dn, dm = max(fn.degree, 0), max(fm.degree, 0)
    R = max(dn * len(a) + len(b), dm * len(a)) + 1
    T = 2 * sum(map(abs, a)) + 2
    bound = (_l1_at(fn.c, T) * (2 * sum(map(abs, b)) + 1)
             + _l1_at(fm.c, T))
    w = _slot_bytes(bound)
    rs, ys = 8 * w, 8 * w * R
    A = sum(v << rs * i for i, v in enumerate(a))
    B = sum(v << rs * i for i, v in enumerate(b))
    top = max(dn + 1, dm)
    # P_j = (g_j - h_j) A^j - g_{j-1} A^(j-1) B, with g_j and h_j the
    # Taylor coefficients of f_n and f_{n-1} at 2
    P = []
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
    one row pass."""
    slots = _slots(word)
    m11, m12 = _row_pass(word, slots, 1, 0)
    # L^N (W11 + (L^-1 - L) W12) = M11 + (L^-1 - L) M12, with M12 odd
    return _to_ry(m11 + (m12 >> slots.shift) - (m12 << slots.shift), slots)


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
# randomized oracles

def _rand_fraction(rng, nonzero=False, exclude=()):
    while True:
        num = rng.randint(-100, 100)
        den = rng.randint(1, 100)
        q = Fraction(num, den)
        if nonzero and q == 0:
            continue
        if q in exclude:
            continue
        return q


def _dot(row, powers):
    """sum_i row_i powers_i: with powers_i = a^i b^(D - i), b^D times the
    int row in r, a polynomial of degree at most D, at r = a/b."""
    return sum(v * x for v, x in zip(row, powers))


def trace_formula_check(k, samples, seed=""):
    """Exact spot check of tr W_k = Phi_{-k} Psi_k (y - r) + 2 at random
    rational points r0 = a/b, lam = c/d and y0 = lam^2 + lam^-2, on ints.

    Both sides are taken times b^D (cd)^M, where D bounds their degrees
    in r, N is the letter count of w_k and M = max(N, 2 deg_y).  Row e
    of L^N tr W_k is its coefficient of lam^(2e - N), and
    c^(2e) d^(2N - 2e) = (cd)^N lam^(2e - N), so the left side is
    sum_e b^D row_e(r0) c^(2e) d^(2N - 2e) (cd)^(M - N).  With
    y0 = (c^4 + d^4) / (cd)^2 the right side is
    sum_i b^D C_i(r0) (c^4 + d^4)^i (cd)^(M - 2i) over the y-coefficients
    C_i of `trace_wk(k)`.  The factor is not zero, so the two ints are
    equal exactly when the two sides are."""
    if samples < 1:
        raise ExactError("samples must be >= 1")
    pw = eval_word(w_k_word(k))
    N = pw.slots.letters
    left = [(e, row) for e, row in enumerate(pw.slots.rows(pw.m11 + pw.m22))
            if row]
    right = [u.c for u in trace_wk(k).cs]
    D = max(map(len, [row for _, row in left] + right), default=1) - 1
    M = max(N, 2 * (len(right) - 1))
    rng = Random("%strace-formula-%d" % (seed, k))
    for _ in range(samples):
        lam = _rand_fraction(rng, nonzero=True, exclude=(1, -1))
        r0 = _rand_fraction(rng)
        a, b = r0.numerator, r0.denominator
        c, d = lam.numerator, lam.denominator
        powers = [a ** i * b ** (D - i) for i in range(D + 1)]
        c2, d2, cd = c * c, d * d, c * d
        got = sum(_dot(row, powers) * c2 ** e * d2 ** (N - e)
                  for e, row in left) * cd ** (M - N)
        y_num = c2 * c2 + d2 * d2
        want = sum(_dot(ci, powers) * y_num ** i * cd ** (M - 2 * i)
                   for i, ci in enumerate(right))
        if got != want:
            return False
    return True


def ideal_generator_check(k, n, samples, seed=""):
    """Randomized check that the four entries of A W^n - W^n B cut out the
    same locus as F_{k,n}: at random L = lam0 the gcd of the specialized
    entries equals the specialized F_{k,n} up to a nonzero rational.

    Both words have N + 1 letters, so the entries are L^-(N+1) times the
    differences of the packed ones.  At lam0 = a/b each entry is taken
    times the unit (ab)^(N+1), which makes it an int row in r:
    sum_i c_i a^i b^(2N+2-i) over the coefficients c_i of L^i.  F_{k,n}
    is taken at y0 = (a^4 + b^4)/(ab)^2 times (ab)^(2d), d = deg_y F:
    sum_j F_j(r) (a^4 + b^4)^j (ab)^(2(d-j))."""
    if samples < 1:
        raise ExactError("samples must be >= 1")
    word = word_power(w_k_word(k), n)
    pws = (eval_word(word_concat((("a", 1),), word)),
           eval_word(word_concat(word, (("b", 1),))))
    top = 2 * pws[0].slots.letters
    # per word, per entry: (parity in L, rows); the off-diagonal entries
    # are odd in L
    entries = [[(p, pw.slots.rows(m >> p * pw.slots.shift))
                for m, p in zip(pw[:4], (0, 1, 1, 0))]
               for pw in pws]
    F = riley_poly_J(k, n)
    d = F.degree_outer
    rng = Random("%sideal-%d-%d" % (seed, k, n))
    for _ in range(samples):
        lam = _rand_fraction(rng, nonzero=True, exclude=(1, -1))
        a, b = lam.numerator, lam.denominator
        g = UniPoly.zero("r")
        for x, y in zip(*entries):
            g = poly_gcd(g, _scaled_at(x, top, a, b)
                         - _scaled_at(y, top, a, b))
        num, den = a ** 4 + b ** 4, (a * b) ** 2
        spec = []
        for j, fj in enumerate(F.cs):
            _add_multiple(spec, num ** j * den ** (d - j), fj.c)
        f_spec = UniPoly(spec, "r")
        if g.degree <= 0 and f_spec.degree <= 0:
            if f_spec.is_zero:
                return False
            continue  # both cut out the empty set: vacuous pass
        if g.degree != f_spec.degree:
            return False
        if g.primitive() != f_spec.primitive():
            return False
    return True


def _scaled_at(entry, top, a, b):
    """sum_i c_i a^i b^(top - i) over the coefficients c_i of L^i of a
    packed entry (parity, rows): b^top times the entry at L = a/b."""
    p, rows = entry
    out = []
    for e, row in enumerate(rows):
        if row:
            i = 2 * e + p
            _add_multiple(out, a ** i * b ** (top - i), row)
    return UniPoly(out, "r")
