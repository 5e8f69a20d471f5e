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

`_euclid` is the one GF(p) remainder loop (von zur Gathen & Gerhard,
ch. 6).  Its operands are packed with the leading coefficient in the
lowest slot, so that a step is one multiply-add by the divisor and one
shift, and their slots grow unreduced for many steps.  The gcd
(`poly_gcd_p`), the division (`poly_divmod_p`, whose remainder is
`poly_rem_p`, and the ring's quotient M) and the resultant
(`poly_resultant_p`, which `poly.resultant_mod_p` interpolates) are thin
callers of it: the division collects its quotient from the steps, the
resultant tracks degrees and leading coefficients.  `euclid_gcd_p` and
`euclid_divmod_p` take packed operands, so that a degree pattern keeps
its operands packed in the slots of its ring (`ring_euclid`).

`degree_pattern_p`, the distinct-degree loop behind
`poly.modp_degree_pattern`, runs in one ring with the Frobenius map and
packed remainder-loop operands; no other module reads a ring or a packed
operand.

All list functions return *trimmed* lists (no trailing zeros); the
zero polynomial is the empty list.  `BACKEND` names the kernel
implementation, which is always this pure Python one.
"""

from functools import lru_cache
from itertools import islice

BACKEND = "pure"


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


def _pack(a, p, w, order):
    """The coefficients of a, reduced mod p, as one int of w-byte slots:
    a[0] in the lowest slot for order "little", in the highest for "big"."""
    return int.from_bytes(b"".join([(c % p).to_bytes(w, order) for c in a]),
                          order)


def _unpack(z, count, w, p, order):
    """The trimmed coefficient list, reduced mod p, of the int z of count
    w-byte slots, read in the order that `_pack` wrote it."""
    z = z.to_bytes(count * w, order)
    return trim([int.from_bytes(z[i:i + w], order) % p
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
    x = _pack(a, p, w, "little")
    return _unpack(x * x if a is b else x * _pack(b, p, w, "little"),
                   na + nb - 1, w, p, "little")


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
        self.m = f = poly_monic_p(m, p)
        # off is the least multiple of p at or above (n - 1) (p - 1)**2;
        # the largest slot `_red` sees is n (p - 1)**2 + off.
        off = -(-(n - 1) * (p - 1) ** 2 // p) * p
        super().__init__(p, (n * (p - 1) ** 2 + off).bit_length(), n)
        w = self.w
        # M = x**(2n - 2) // f by the remainder loop, where x**(2n - 2) is
        # the operand (1, 2n - 2) and the quotient comes highest first
        quo = []
        sl = _euclid_slots(p, 2 * n - 1)
        _euclid(1, 2 * n - 2, *euclid_pack(f, sl), sl, quo=quo)
        self.quo = _pack(quo, p, w, "big")
        self.low = _pack(f[:n], p, w, "little")
        self.off = _repeat(off, w, n)
        self.hi = 8 * w * n
        self.mid = 8 * w * max(n - 2, 0)
        self.lomask = (1 << self.hi) - 1
        self.euclid = _euclid_slots(p, n + 1)


def ring_p(m, p):
    """A new ring GF(p)[x]/(m) with `ring.m` = m made monic, for a list m
    of degree n >= 1 whose leading coefficient is nonzero mod p (else
    ValueError).  Its elements are ints of n slots of `ring.w` bytes, each
    below p (`ring_pack`); `ring.euclid` are the slots of `_euclid`
    operands of degree up to n (`ring_euclid`).  Build it once and pass
    it to the kernels that work in it, such as `poly_powmod_p`."""
    return _Ring(m, p)


def ring_pack(a, ring):
    """The ring element of a list a of degree below n."""
    return _pack(a, ring.p, ring.w, "little")


def ring_unpack(x, ring):
    """The coefficient list of the ring element x."""
    return _unpack(x, ring.n, ring.w, ring.p, "little")


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


# --- the remainder loop ------------------------------------------------
#
# Its operands are pairs (x, d): a polynomial of degree d packed top
# first, the coefficient of x**(d - i) in slot i, so that the leading
# coefficient is always slot 0; d is -1 for the zero polynomial (x = 0).

def euclid_pack(a, sl):
    """The list a, reduced mod p, as an operand (x, d) in the slots of sl,
    a `_Slots` (`_euclid_slots`, or `ring.euclid` of a ring)."""
    w8 = 8 * sl.w
    x = _pack(a, sl.p, sl.w, "big")
    d = len(a) - 1 if x else -1
    while d > 0 and not x & ((1 << w8) - 1):
        x >>= w8
        d -= 1
    return x, d


def ring_euclid(x, ring):
    """The element x of ring = `ring_p(m, p)` as an operand in the slots
    `ring.euclid`, with no unpacking: its slots in the opposite order, each
    widened by leading zero bytes (the Euclid slots are the wider ones
    for n < 2**15)."""
    if not x:
        return 0, -1
    w = ring.w
    d = (x.bit_length() - 1) // (8 * w)
    z = x.to_bytes((d + 1) * w, "big")
    pad = bytes(ring.euclid.w - w)
    return int.from_bytes(pad.join([z[i - w:i]
                                    for i in range(len(z), 0, -w)]), "big"), d


@lru_cache(maxsize=256)
def _euclid_slots(p, count):
    """The `_Slots` of `_gcd_bits(p)` bits for `_euclid` operands of up
    to count coefficients, rounded up to a power of two so that few slot
    sets are built."""
    return _Slots(p, _gcd_bits(p), 1 << max(count - 1, 1).bit_length())


def _gcd_bits(p):
    """k of the slots of `_euclid` mod p.  With a reduced divisor a
    step adds less than p**2 to a slot, so about 2**16 steps fit between
    two reductions; an unreduced divisor is reduced when it would not."""
    return 2 * p.bit_length() + 16


def _euclid(x, dx, y, dy, sl, quo=None, res=None):
    """Euclid's remainder sequence over GF(p) from the operands (x, dx) and
    (y, dy) of the slots of sl: the one GF(p) division loop of the package.
    Both have degree >= 0 (dx >= 0 unless quo is given), slots below p and
    a leading coefficient nonzero mod p; sl holds max(dx, dy) + 1 slots
    and 2**sl.k > p (p - 1).

    A step reads the leading slot t of the dividend, adds p - c times the
    divisor, c = t / lc(divisor) mod p, which makes that slot 0 mod p, and
    shifts it out; then it shifts out every further leading slot that is 0
    mod p.  The slots grow unreduced: the largest slot value of each
    operand is tracked, and an operand is reduced by `_red` only when the
    next step could reach 2**k.  A step that leaves its leading slot
    nonzero mod p raises ArithmeticError: only a slot that carried, past a
    wrong slot bound, can do that.

    - With quo a list, x is divided by y once: the quotient's coefficients
      are appended to quo, highest first, and the remainder (r, dr) is
      returned, its slots not reduced.
    - With res an int, the result is res * Res(x, y) mod p, by
      Res(x, y) = (-1)**(dx*dy) lc(y)**(dx - dr) Res(y, r) for the
      remainder r of degree dr, and Res(x, c) = c**dx for a constant c.
    - Otherwise the result is the last nonzero remainder (g, dg), a gcd of
      x and y, its slots reduced, not made monic.
    """
    p = sl.p
    w8 = 8 * sl.w
    mask = (1 << w8) - 1
    cap = 1 << sl.k
    bx = by = p - 1     # the largest slot value of x and of y
    while True:
        yl = y & mask
        if not dy and quo is None:
            return (1, 0) if res is None else res * pow(yl, dx, p) % p
        inv = pow(yl, -1, p)
        m = dx
        grow = (p - 1) * by     # the most a step adds to a slot of x
        while dx >= dy:
            if bx + grow >= cap:
                if by >= p:
                    y = _red(y, sl)
                    by = p - 1
                    grow = (p - 1) ** 2
                if bx + grow >= cap:
                    x = _red(x, sl)
                    bx = p - 1
            c = (x & mask) * inv % p
            if quo is not None:
                quo.append(c)
            x += (p - c) * y
            bx += grow
            if (x & mask) % p:
                # a slot carried: only a wrong slot bound can do this
                raise ArithmeticError("_euclid: slot of degree %d not "
                                      "cleared mod %d" % (dx, p))
            x >>= w8
            dx -= 1
            while dx >= 0 and not (x & mask) % p:
                x >>= w8
                dx -= 1
                if quo is not None and dx >= dy - 1:
                    quo.append(0)
        if quo is not None:
            return x, dx
        if res is not None:
            if dx < 0:
                return 0
            if m & dy & 1:
                res = -res
            res = res * pow(yl, m - dx, p) % p
        elif dx < 0:
            return (_red(y, sl) if by >= p else y), dy
        x, y, dx, dy, bx, by = y, x, dy, dx, by, bx


def euclid_gcd_p(a, b, sl):
    """A gcd over GF(p), not made monic, of the operands a and b of the
    slots of sl (`euclid_pack`, `ring_euclid`), as an operand."""
    if b[1] < 0:
        return a
    if a[1] < 0:
        return b
    return _euclid(*a, *b, sl)


def euclid_divmod_p(a, b, sl):
    """(q, r) with a = q b + r over GF(p) and deg r < deg b, for operands a
    and b (b nonzero) of the slots of sl, as operands."""
    quo = []
    r, dr = _euclid(*a, *b, sl, quo=quo)
    return ((_pack(quo, sl.p, sl.w, "little"), len(quo) - 1),
            (_red(r, sl) if dr >= 0 else 0, dr))


def poly_gcd_p(a, b, p):
    """Monic gcd over GF(p) of two int-coefficient lists, by `_euclid`."""
    sl = _euclid_slots(p, max(len(a), len(b)))
    g, d = euclid_gcd_p(euclid_pack(a, sl), euclid_pack(b, sl), sl)
    if d < 0:
        return []
    return poly_monic_p(_unpack(g, d + 1, sl.w, p, "big"), p) if d else [1]


def poly_divmod_p(a, b, p):
    """(q, r) with a = q b + r over GF(p) and deg r < deg b, for
    int-coefficient lists, by `_euclid`.  ZeroDivisionError if b is empty;
    ValueError if its leading coefficient is 0 mod p."""
    if not b:
        raise ZeroDivisionError("poly_divmod_p: division by the zero "
                                "polynomial")
    if not b[-1] % p:
        raise ValueError("poly_divmod_p: leading coefficient of the "
                         "divisor is 0 mod %d" % p)
    sl = _euclid_slots(p, max(len(a), len(b)))
    quo = []
    r, dr = _euclid(*euclid_pack(a, sl), *euclid_pack(b, sl), sl, quo=quo)
    return quo[::-1], _unpack(r, dr + 1, sl.w, p, "big")


def poly_rem_p(a, m, p):
    """Remainder of a modulo m over GF(p), by `poly_divmod_p`, which
    raises ZeroDivisionError if m is empty and ValueError if its leading
    coefficient is 0 mod p."""
    return poly_divmod_p(a, m, p)[1]


def poly_resultant_p(a, b, p):
    """Res(a, b) mod p: the Sylvester determinant, rows of a first, of a
    and b with their formal degrees len(a) - 1 and len(b) - 1, so that it
    equals the integer resultant reduced mod p even where a leading
    coefficient vanishes mod p.  0 if a or b is empty.  The remainder
    sequence runs in `_euclid`."""
    m, n = len(a) - 1, len(b) - 1
    if m < 0 or n < 0:
        return 0
    if n == 0:
        return pow(b[0], m, p)
    if m == 0:
        return pow(a[0], n, p)
    sl = _euclid_slots(p, max(m, n) + 1)
    x, da = euclid_pack(a, sl)
    y, db = euclid_pack(b, sl)
    if da < 0 or db < 0 or (da < m and db < n):
        return 0      # a zero block of rows, or a zero first column
    # a formal degree above the true one mod p: expand along the columns
    # that the missing leading coefficients leave with one entry
    mask = (1 << 8 * sl.w) - 1
    res = 1
    if da < m:
        res = pow(y & mask, m - da, p) * (-1 if (m - da) * n & 1 else 1)
    elif db < n:
        res = pow(x & mask, n - db, p)
    return _euclid(x, da, y, db, sl, res=res)


def poly_powmod_p(base, e, ring):
    """base**e in ring = `ring_p(m, p)`, that is modulo (m, p), by
    left-to-right square and multiply, as a trimmed list."""
    if not e:
        return [1]
    y = x = ring_pack(poly_rem_p(base, ring.m, ring.p), ring)
    for bit in bin(e)[3:]:
        x = poly_mulmod_p(x, x, ring)
        if bit == "1":
            x = poly_mulmod_p(x, y, ring)
    return ring_unpack(x, ring)


def frobenius_rows_p(h, ring):
    """The Frobenius map of ring = `ring_p(m, p)`, for h = x**p reduced
    modulo (m, p), as the argument of `frobenius_apply_p`: (w, rows).

    Row i is x**(i*p) = h**i mod (m, p) for i < n = deg m, an element of
    the ring (slots of w bytes, each below p); row i + 1 is the ring
    product of row i and h.  A sum of the rows times coefficients below
    p holds at most n (p - 1)**2 in a slot, which the ring's slots hold
    without carry.
    """
    y = ring_pack(h, ring)
    rows = [1, y][:ring.n]
    while len(rows) < ring.n:
        rows.append(poly_mulmod_p(rows[-1], y, ring))
    return ring.w, rows


def frobenius_apply_p(frob, a, p):
    """a**p = a(x**p) modulo (m, p) for a reduced modulo m, where frob is
    `frobenius_rows_p(h, ring)`: the sum of a[i] times row i."""
    w, rows = frob
    return _unpack(sum([(c % p) * row for c, row in zip(a, rows) if c]),
                   len(rows), w, p, "little")


def degree_pattern_p(f, p):
    """Sorted degrees of the irreducible factors of f over GF(p), for a
    list f of degree >= 1 that is squarefree mod p and whose leading
    coefficient is nonzero mod p.

    Distinct-degree factorization: the product of the irreducible factors
    of degree d is gcd(x**(p**d) - x, v), where v is what is left of f
    after the factors of lower degree are divided out.  Since only degree
    *patterns* are needed, no equal-degree splitting is performed.

    The gcds are batched over blocks of degrees [d0, d1] with
    d1 = min(2*d0 - 1, deg v // 2) (von zur Gathen & Shoup, Comput.
    Complexity 2 (1992); Kaltofen & Shoup, Math. Comp. 67 (1998)): one
    gcd(P, v) with P the product of x**(p**d) - x over the block.  v has
    no factor of degree below d0, and a factor of degree e >= d0 divides
    x**(p**d) - x iff e divides d, which for d < 2e means e = d; so the
    gcd is the product of the factors of v with degrees in [d0, d1].  Its
    degree often splits into parts from [d0, d1] in one way only, which
    then is the pattern of that block; otherwise one gcd per degree
    splits it.  When 2*d0 exceeds deg v, v is irreducible.

    The iterates x**(p**d) and P are kept modulo f itself, which leaves
    those gcds unchanged because v divides f, in the one ring
    `ring_p(f, p)` built per call.  That makes the Frobenius map a -> a**p
    one fixed linear map: x**p is computed once by `poly_powmod_p`, the
    rows x**(i*p) mod f are built from it once (`frobenius_rows_p`), and
    each further degree step applies them.  The factors x**(p**d) - x of
    P are multiplied in the ring without unpacking (packed Barrett
    products).  v, P, the block gcds and the factors of a split block stay
    packed, as operands of the ring's remainder loop (`ring_euclid`), for
    the gcds and the exact division of v (`euclid_gcd_p`,
    `euclid_divmod_p`); only their degrees are read.  A remainder in that
    division can only come from a broken kernel: it raises AssertionError.
    """
    ring = ring_p(f, p)
    sl = ring.euclid
    v = euclid_pack(ring.m, sl)
    pattern = []
    xp = poly_powmod_p([0, 1], p, ring)  # running x**(p**d) mod f
    d0 = 1
    while 2 * d0 <= v[1]:
        d1 = min(2 * d0 - 1, v[1] // 2)
        diffs = []  # x**(p**d) - x for d in [d0, d1], packed in the ring
        for d in range(d0, d1 + 1):
            if d == 2:
                frob = frobenius_rows_p(xp, ring)  # xp is x**p here
            if d > 1:
                xp = frobenius_apply_p(frob, xp, p)
            diff = xp + [0] * (2 - len(xp))
            diff[1] = (diff[1] - 1) % p
            diffs.append(ring_pack(diff, ring))
        prod = diffs[0]
        for diff in diffs[1:]:
            prod = poly_mulmod_p(prod, diff, ring)
        g = euclid_gcd_p(ring_euclid(prod, ring), v, sl)
        if g[1] > 0:
            splits = list(islice(_part_lists(g[1], d0, d1), 2))
            if len(splits) == 1:
                pattern += splits[0]
            else:
                for d, diff in zip(range(d0, d1 + 1), diffs):
                    dg = euclid_gcd_p(ring_euclid(diff, ring), g, sl)[1]
                    pattern += [d] * (dg // d)
            v, rem = euclid_divmod_p(v, g, sl)
            if rem[1] >= 0:
                raise AssertionError("non-exact division mod %d" % p)
        d0 = d1 + 1
    if v[1] > 0:
        pattern.append(v[1])
    return sorted(pattern)


def _part_lists(s, lo, hi):
    """The nondecreasing lists of parts from [lo, hi] that sum to s."""
    if not s:
        yield []
    for d in range(lo, min(hi, s) + 1):
        for rest in _part_lists(s - d, d, hi):
            yield [d] + rest
