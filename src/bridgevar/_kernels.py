"""Polynomial kernels.

Dense little-endian coefficient lists.  These are the hot inner loops of
the whole package (bigint convolution; arithmetic mod p for degree
patterns).  Products mod p use Kronecker substitution: the coefficients
are packed into one Python int, so that CPython's bigint multiply does
the convolution (Harvey, J. Symbolic Comput. 44 (2009)).

Products modulo a monic m of degree n use its reduction table
(`reduction_table_p`): the rows x**(n + j) mod m for j < n - 1, each
packed into one int of slots wide enough for (2n - 1) (p - 1)**2.  A
product mod m is one Kronecker product of the packed operands, the n - 1
high slots read mod p, their multiples of the rows added to the n low
slots without unpacking, and one unpack.  `poly_powmod_p` squares on the
table, and when the base is x its multiplies are one-slot shifts.

`frobenius_rows_p` and `frobenius_apply_p` apply the Frobenius map
a -> a**p of GF(p)[x]/(m) as a GF(p)-linear map (von zur Gathen & Shoup,
Comput. Complexity 2 (1992)): the rows x**(i*p) mod m are built once,
each packed into one int of slots, and every later p-th power is one sum
of small-int multiples of those ints.

`poly_resultant_p` is the resultant over GF(p) by a Euclidean remainder
sequence; `poly.resultant_mod_p` interpolates bivariate resultants from it.

All functions return *normalized* lists (no trailing zeros); the zero
polynomial is the empty list.
"""

from functools import lru_cache


def trim(c):
    """Drop trailing zeros in place and return the list."""
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    del c[n:]
    return c


def poly_mul(a, b):
    """Convolution product.  Coefficients may be any exact ring elements."""
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


def _unpack(z, w, p):
    """The w-byte slots of the bytes z, reduced mod p, as a normalized
    coefficient list."""
    return trim([int.from_bytes(z[i:i + w], "little") % p
                 for i in range(0, len(z), w)])


def poly_mul_p(a, b, p):
    """Product of int-coefficient lists, reduced mod p."""
    na, nb = len(a), len(b)
    if na == 0 or nb == 0:
        return []
    # A product coefficient is a sum of at most min(na, nb) products.
    w = _slot_width(min(na, nb), p)
    x = _pack(a, p, w)
    z = (x * x if a is b else x * _pack(b, p, w)).to_bytes(
        (na + nb - 1) * w, "little")
    return _unpack(z, w, p)


def poly_rem_p(a, m, p):
    """Remainder of a modulo m over GF(p).  m must be nonzero mod p."""
    r = [x % p for x in a]
    trim(r)
    dm = len(m) - 1
    inv = pow(m[dm] % p, p - 2, p)
    while len(r) - 1 >= dm and r:
        c = (r[-1] * inv) % p
        shift = len(r) - 1 - dm
        if c:
            for j in range(dm):
                r[shift + j] = (r[shift + j] - c * m[j]) % p
        del r[-1]
        trim(r)
    return r


def poly_gcd_p(a, b, p):
    """Monic gcd over GF(p)."""
    a = trim([x % p for x in a])
    b = trim([x % p for x in b])
    while b:
        a, b = b, poly_rem_p(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(x * inv) % p for x in a]
    return a


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


def reduction_table_p(m, p):
    """The reduction table of the modulus (m, p): (n, w, rows), where n is
    the degree of m, w = `_slot_width(2n - 1, p)` and row j is
    x**(n + j) mod (m, p), for j < n - 1, packed into one int of w-byte
    slots.  The leading coefficient of m must be nonzero mod p.

    Row 0 is minus the low coefficients of m made monic; row j + 1 is x
    times row j, whose top coefficient c folds back as c times row 0.
    The last table built is kept, because a degree pattern asks for the
    table of one modulus three times in a row.
    """
    return _reduction_table(tuple(m), p)


@lru_cache(maxsize=1)
def _reduction_table(m, p):
    n = len(m) - 1
    inv = p - pow(m[n] % p, p - 2, p)
    t0 = [(c * inv) % p for c in m[:n]]
    rows = [t0][:n - 1]
    while len(rows) < n - 1:
        c = rows[-1][-1]
        rows.append([(s + c * u) % p
                     for s, u in zip([0] + rows[-1][:-1], t0)])
    w = _slot_width(2 * n - 1, p)
    return n, w, tuple([_pack(t, p, w) for t in rows])


def _reduce_packed(z, table, p):
    """z mod (m, p) as a coefficient list, where table is
    `reduction_table_p(m, p)` and z is packed in its slots: at most
    2n - 1 slots, each at most n (p - 1)**2.

    The high slots of z, read mod p, are added back as multiples of the
    rows to its n low slots.  A low slot then holds at most
    n (p - 1)**2 + (n - 1) (p - 1)**2, so no slot carries.
    """
    n, w, rows = table
    bits = 8 * w * n
    hi = z >> bits
    hi = hi.to_bytes((hi.bit_length() + 7) // 8, "little")
    z &= (1 << bits) - 1
    z += sum([(int.from_bytes(hi[i:i + w], "little") % p) * row
              for i, row in zip(range(0, len(hi), w), rows)])
    return _unpack(z.to_bytes(bits // 8, "little"), w, p)


def poly_mulmod_p(a, b, table, p):
    """a * b mod (m, p) for a and b reduced mod (m, p), where table is
    `reduction_table_p(m, p)`: one Kronecker product in the table's
    slots, then `_reduce_packed`."""
    w = table[1]
    return _reduce_packed(_pack(a, p, w) * _pack(b, p, w), table, p)


def poly_powmod_p(base, e, m, p):
    """base**e modulo (m, p) by left-to-right square and multiply on the
    reduction table of (m, p).  When base reduces to x, each multiply is a
    shift by one slot, and only that one high slot is folded back.  The
    leading coefficient of m must be nonzero mod p."""
    if not e:
        return [1]
    table = reduction_table_p(m, p)
    w = table[1]
    r = poly_rem_p(base, m, p)
    y = _pack(r, p, w)
    for bit in bin(e)[3:]:
        x = _pack(r, p, w)
        r = _reduce_packed(x * x, table, p)
        if bit == "1":
            r = _reduce_packed(_pack(r, p, w) * y, table, p)
    return r


def frobenius_rows_p(h, m, p):
    """The Frobenius map of GF(p)[x]/(m), for h = x**p reduced modulo
    (m, p), as the argument of `frobenius_apply_p`.

    Row i is x**(i*p) = h**i mod (m, p) for i < n = deg m: row i + 1 is
    the product of row i and h on the reduction table of (m, p), and the
    rows are packed in that table's w-byte slots.  A slot holds
    (2n - 1) (p - 1)**2, so a sum of the n rows times coefficients below
    p never carries between slots.
    """
    table = n, w, _ = reduction_table_p(m, p)
    y = _pack(h, p, w)
    rows = [1, y][:n]
    while len(rows) < n:
        rows.append(_pack(_reduce_packed(rows[-1] * y, table, p), p, w))
    return w, rows


def frobenius_apply_p(frob, a, p):
    """a**p = a(x**p) modulo (m, p) for a reduced modulo m, where frob is
    `frobenius_rows_p(h, m, p)`: the sum of a[i] times row i."""
    w, rows = frob
    z = sum([(c % p) * row for c, row in zip(a, rows) if c]).to_bytes(
        len(rows) * w, "little")
    return _unpack(z, w, p)
