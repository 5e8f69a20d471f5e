"""Polynomial kernels.

Dense little-endian coefficient lists.  These are the hot inner loops of
the whole package (bigint convolution; arithmetic mod p for degree
patterns).  Products mod p use Kronecker substitution: the coefficients
are packed into one Python int of w-byte slots, so that CPython's bigint
multiply does the convolution (Harvey, J. Symbolic Comput. 44 (2009)).

`_red` reduces every slot of a packed int mod p at once, in five bigint
operations: a division by the invariant integer p (Granlund &
Montgomery, PLDI 1994) whose quotients land in disjoint bit fields.
Its docstring proves the quotients exact and gives the slot width they
need.

`ring_p(m, p)` is GF(p)[x]/(m) on packed ints: an element of degree
below n = deg m is one int of n slots, each below p.  A product
(`poly_mulmod_p`) is one Kronecker product and a Barrett division by m
made monic, with the quotient M = x**(2n - 2) // m precomputed per ring
(von zur Gathen & Gerhard, *Modern Computer Algebra*, 9.1): two products
by packed constants and three calls of `_red`, with no unpacking.
`poly_powmod_p` squares and multiplies in the ring.

`frobenius_rows_p` and `frobenius_apply_p` apply the Frobenius map
a -> a**p of GF(p)[x]/(m) as a GF(p)-linear map (von zur Gathen & Shoup,
Comput. Complexity 2 (1992)): the rows x**(i*p) mod m are built once as
ring elements, and every later p-th power is one sum of small-int
multiples of those ints.

`poly_divmod_p` is the one schoolbook division over GF(p); `poly_rem_p`
is its remainder.  `poly_gcd_p` runs Euclid's algorithm on packed
operands whose slots are wide enough for the coefficients to grow
unreduced for many steps.

`poly_resultant_p` is the resultant over GF(p) by a Euclidean remainder
sequence; `poly.resultant_mod_p` interpolates bivariate resultants from it.

All list functions return *trimmed* lists (no trailing zeros); the
zero polynomial is the empty list.
"""

from functools import lru_cache
from operator import mul


def trim(c):
    """Drop trailing zeros in place and return the list."""
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    del c[n:]
    return c


def poly_mul(a, b):
    """Convolution product of int-coefficient lists (every caller passes
    ints since `UniPoly` and `BiPoly` hold int coefficients only)."""
    na, nb = len(a), len(b)
    if na == 0 or nb == 0:
        return []
    out = [0] * (na + nb - 1)
    for i in range(na):
        ai = a[i]
        if not ai:
            continue
        for j in range(nb):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return trim(out)


def _slot_width(count, p):
    """Bytes per slot that hold a sum of count products of two residues
    mod p, that is count * (p - 1)**2, so that slots never carry."""
    return ((count * (p - 1) ** 2).bit_length() + 7) // 8


def _pack(a, p, w):
    """The coefficients of a, reduced mod p, as one int of w-byte slots."""
    return int.from_bytes(b"".join([(c % p).to_bytes(w, "little") for c in a]),
                          "little")


def _unpack(z, count, w, p):
    """The first count w-byte slots of the int z, reduced mod p, as a
    trimmed coefficient list."""
    z = z.to_bytes(count * w, "little")
    return trim([int.from_bytes(z[i:i + w], "little") % p
                 for i in range(0, count * w, w)])


def _repeat(v, w, count):
    """count w-byte slots that each hold v."""
    return int.from_bytes(v.to_bytes(w, "little") * count, "little")


def poly_mul_p(a, b, p):
    """Product of int-coefficient lists, reduced mod p.

    The package never calls it: products mod p run in `ring_p`.  It stays
    only because BENCHMARK.json declares per-layer metrics of
    `kernels.poly_mul_p`, and the traced benchmark refuses to run when a
    declared function is gone; it goes with the benchmark change of
    ROADMAP item 1."""
    na, nb = len(a), len(b)
    if na == 0 or nb == 0:
        return []
    # A product coefficient is a sum of at most min(na, nb) products.
    w = _slot_width(min(na, nb), p)
    x = _pack(a, p, w)
    return _unpack(x * x if a is b else x * _pack(b, p, w), na + nb - 1, w, p)


def poly_divmod_p(a, b, p):
    """(q, r) with a = q b + r over GF(p) and deg r < deg b, by schoolbook
    long division of int-coefficient lists.  The leading coefficient of b
    must be nonzero mod p; if it is not, ValueError is raised."""
    r = trim([x % p for x in a])
    db = len(b) - 1
    inv = pow(b[db], -1, p)
    q = [0] * max(len(r) - db, 0)
    while len(r) > db:
        c = r[-1] * inv % p
        shift = len(r) - 1 - db
        q[shift] = c
        for j in range(db):
            r[shift + j] = (r[shift + j] - c * b[j]) % p
        del r[-1]
        trim(r)
    return q, r


def poly_rem_p(a, m, p):
    """Remainder of a modulo m over GF(p), by `poly_divmod_p`.  The leading
    coefficient of m must be nonzero mod p; if it is not, ValueError is
    raised."""
    return poly_divmod_p(a, m, p)[1]


def poly_monic_p(a, p):
    """The nonzero list a divided by its leading coefficient over GF(p),
    which must be nonzero mod p (else ValueError)."""
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


class _Slots:
    """Packed ints of up to count slots of w bytes, each slot below 2**k,
    and the constants that `_red` reduces them with mod p."""

    def __init__(self, p, k, count):
        self.p = p
        self.k = k
        self.w = w = (2 * k + 8) // 8          # 8w >= 2k + 1
        self.s = s = k + p.bit_length()
        self.mu = -(-(1 << s) // p)
        self.qmask = _repeat((1 << (8 * w - s)) - 1, w, count)


def _red(x, sl):
    """x with every slot reduced mod p, for x packed in the slots of sl,
    a `_Slots`.

    Let l be the bit length of p, s = k + l and mu = ceil(2**s / p) =
    (2**s + e) / p with 0 <= e < p.  For 0 <= v < 2**k,
    v * mu / 2**s = v / p + v * e / (p * 2**s), and the last term is below
    2**(k - s) = 2**-l < 1/p, so it cannot reach the next integer above
    v / p: q = (v * mu) >> s is exactly v // p.  As p >= 2**(l - 1),
    mu <= 2**(k + 1) and v * mu < 2**(2k + 1) <= 2**(8w): the slots of
    x * mu hold the products v * mu without overlap.  Shifted right by s,
    each slot has its q in its low 8w - s bits and the low bits of the next
    slot above them, which `qmask` clears.  x - q * p then holds
    v - (v // p) * p in every slot, with no borrow.
    """
    return x - ((x * sl.mu >> sl.s) & sl.qmask) * sl.p


class _Ring(_Slots):
    """GF(p)[x]/(m) on packed ints; see `ring_p` and `poly_mulmod_p`."""

    def __init__(self, m, p):
        self.n = n = len(m) - 1
        f = poly_monic_p(m, p)
        # off is the least multiple of p at or above (n - 1) (p - 1)**2;
        # the largest slot `_red` sees is n (p - 1)**2 + off.
        off = -(-(n - 1) * (p - 1) ** 2 // p) * p
        super().__init__(p, (n * (p - 1) ** 2 + off).bit_length(), n)
        w = self.w
        # M = x**(2n - 2) // f: its reversal is 1 / rev(f) mod t**(n - 1).
        rf = f[::-1]
        g = [1][:n - 1]
        for j in range(1, n - 1):
            g.append(-sum(map(mul, rf[1:j + 1], reversed(g))) % p)
        self.quo = _pack(g[::-1], p, w)
        self.low = _pack(f[:n], p, w)
        self.off = _repeat(off, w, n)
        self.hi = 8 * w * n
        self.mid = 8 * w * max(n - 2, 0)
        self.lomask = (1 << self.hi) - 1


def ring_p(m, p):
    """The ring GF(p)[x]/(m), for a list m of degree n >= 1 whose leading
    coefficient is nonzero mod p.  Its elements are ints of n slots of
    `ring.w` bytes, each slot below p (`ring_pack`).  The last ring built
    is kept, because a degree pattern asks for the ring of one modulus
    three times in a row."""
    return _ring(tuple(m), p)


@lru_cache(maxsize=1)
def _ring(m, p):
    return _Ring(m, p)


def ring_pack(a, ring):
    """The ring element of a list a of degree below n."""
    return _pack(a, ring.p, ring.w)


def ring_unpack(x, ring):
    """The coefficient list of the ring element x."""
    return _unpack(x, ring.n, ring.w, ring.p)


def poly_mulmod_p(a, b, ring):
    """a * b for ring elements a and b of ring = `ring_p(m, p)`.

    Barrett division by f = m / lc(m), monic of degree n: with
    z = a * b = z1 * x**n + z0, deg z0 < n, deg z1 <= n - 2, and
    x**(2n - 2) = M f + r_M, the quotient q = z // f = (z1 M) // x**(n - 2),
    since (z1 M - q x**(n - 2)) f = (r - z0) x**(n - 2) - z1 r_M has degree
    at most 2n - 3 (r = z mod f).  Then z mod f = z0 - (q (f - x**n) mod x**n).

    Slot bounds: z has at most n (p - 1)**2 in a slot, z1 M at most
    (n - 1) (p - 1)**2 and so does q (f - x**n), whose low slots are
    subtracted from z0 plus `off`, a multiple of p in each slot at least
    that large, so that no slot borrows.  The last `_red` sees at most
    n (p - 1)**2 + off, the bound the ring's slots are sized for.
    """
    z = a * b
    q = _red(_red(z >> ring.hi, ring) * ring.quo >> ring.mid, ring)
    return _red((z & ring.lomask) + ring.off - (q * ring.low & ring.lomask),
                ring)


def poly_gcd_p(a, b, p):
    """Monic gcd over GF(p) of two int-coefficient lists.

    Euclid's algorithm on a and b packed into slots of `_gcd_bits(p)`
    bits, whose coefficients grow unreduced.  Each step reads the exact
    top slot t of the dividend, removes it, and adds (p - c) times the
    rest of the divisor, c = t / lc(divisor) mod p, shifted under it; then
    it drops every further top slot that is 0 mod p, so that each top slot
    read is nonzero mod p.  The largest slot value of each operand is
    tracked, and an operand is reduced by `_red` only when the next step
    could pass 2**k.  A step that leaves anything at or above the top slot
    it cleared raises ArithmeticError, so that a wrong slot bound cannot
    keep the degree from falling and the loop always ends.
    """
    a = trim([x % p for x in a])
    b = trim([x % p for x in b])
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return [1]
    if not b:
        return poly_monic_p(a, p) if a else []
    sl = _Slots(p, _gcd_bits(p), len(a))
    w8 = 8 * sl.w
    cap = 1 << sl.k
    x, y = _pack(a, p, sl.w), _pack(b, p, sl.w)
    dx, dy = len(a) - 1, len(b) - 1
    t = a[-1]           # the top slot of x
    bx = by = p - 1     # the largest slot value of x and of y
    while dy:
        ytop = y >> dy * w8
        inv = pow(ytop, -1, p)
        ylow = y ^ (ytop << dy * w8)
        while dx >= dy:
            if bx + (p - 1) * by >= cap:
                if by >= p:
                    y = _red(y, sl)
                    by = p - 1
                    ytop = y >> dy * w8
                    ylow = y ^ (ytop << dy * w8)
                if bx + (p - 1) * by >= cap:
                    x = _red(x, sl)
                    bx = p - 1
                    t = x >> dx * w8
            x ^= t << dx * w8
            x += (p - t * inv % p) * ylow << (dx - dy) * w8
            bx += (p - 1) * by
            if x.bit_length() > dx * w8:
                # a slot carried: only a wrong slot bound can do this
                raise ArithmeticError("poly_gcd_p: slot %d not cleared mod %d"
                                      % (dx, p))
            while x:
                dx = (x.bit_length() - 1) // w8
                t = x >> dx * w8
                if t % p:
                    break
                x ^= t << dx * w8
            else:
                return poly_monic_p(_unpack(y, dy + 1, sl.w, p), p)
        x, y, dx, dy, bx, by = y, x, dy, dx, by, bx
        t = ytop
    return [1]


def _gcd_bits(p):
    """k of the slots of `poly_gcd_p` mod p.  With a reduced divisor a
    step adds less than p**2 to a slot, so about 2**16 steps fit between
    two reductions; an unreduced divisor is reduced when it would not."""
    return 2 * p.bit_length() + 16


def poly_resultant_p(a, b, p):
    """Res(a, b) mod p: the Sylvester determinant, rows of a first, of a
    and b with their formal degrees len(a) - 1 and len(b) - 1, so that it
    equals the integer resultant reduced mod p even where a leading
    coefficient vanishes mod p.  0 if a or b is empty.

    A Euclidean remainder sequence: Res(a, b) = (-1)**(m*n) *
    lc(b)**(m - deg r) * Res(b, r) for r = a mod b, m = deg a, n = deg b.
    """
    m, n = len(a) - 1, len(b) - 1
    if m < 0 or n < 0:
        return 0
    if n == 0:
        return pow(b[0], m, p)
    if m == 0:
        return pow(a[0], n, p)
    a = trim([x % p for x in a])
    b = trim([x % p for x in b])
    da, db = len(a) - 1, len(b) - 1
    if da < 0 or db < 0 or (da < m and db < n):
        return 0      # a zero block of rows, or a zero first column
    # a formal degree above the true one mod p: expand along the columns
    # that the missing leading coefficients leave with one entry
    res = 1
    if da < m:
        res = pow(b[db], m - da, p) * (-1 if (m - da) * n & 1 else 1)
    elif db < n:
        res = pow(a[da], n - db, p)
    while db:
        r = poly_rem_p(a, b, p)
        if not r:
            return 0
        if da & db & 1:
            res = -res
        res = res * pow(b[db], da - len(r) + 1, p) % p
        a, b = b, r
        da, db = db, len(r) - 1
    return res * pow(b[0], da, p) % p


def poly_powmod_p(base, e, m, p):
    """base**e modulo (m, p) by left-to-right square and multiply in
    `ring_p(m, p)`.  The leading coefficient of m must be nonzero mod p
    (else ValueError)."""
    if not e:
        return [1]
    ring = ring_p(m, p)
    y = x = ring_pack(poly_rem_p(base, m, p), ring)
    for bit in bin(e)[3:]:
        x = poly_mulmod_p(x, x, ring)
        if bit == "1":
            x = poly_mulmod_p(x, y, ring)
    return ring_unpack(x, ring)


def frobenius_rows_p(h, m, p):
    """The Frobenius map of GF(p)[x]/(m), for h = x**p reduced modulo
    (m, p), as the argument of `frobenius_apply_p`: (w, rows).

    Row i is x**(i*p) = h**i mod (m, p) for i < n = deg m, the ring
    element of `ring_p(m, p)` (slots of w bytes, each below p); row
    i + 1 is the ring product of row i and h.  A sum of the rows times
    coefficients below p holds at most n (p - 1)**2 in a slot, which
    the ring's slots hold without carry.
    """
    ring = ring_p(m, p)
    y = ring_pack(h, ring)
    rows = [1, y][:ring.n]
    while len(rows) < ring.n:
        rows.append(poly_mulmod_p(rows[-1], y, ring))
    return ring.w, rows


def frobenius_apply_p(frob, a, p):
    """a**p = a(x**p) modulo (m, p) for a reduced modulo m, where frob is
    `frobenius_rows_p(h, m, p)`: the sum of a[i] times row i."""
    w, rows = frob
    return _unpack(sum([(c % p) * row for c, row in zip(a, rows) if c]),
                   len(rows), w, p)
