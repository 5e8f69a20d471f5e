"""Polynomial kernels.

Dense little-endian coefficient lists.  These are the hot inner loops of
the whole package (bigint convolution; arithmetic mod p for degree
patterns).  Products mod p use Kronecker substitution: the coefficients
are packed into one Python int, so that CPython's bigint multiply does
the convolution (Harvey, J. Symbolic Comput. 44 (2009)).  `poly_powmod_p`
reduces each product by a Barrett step built from the series inverse of
the reversed modulus (von zur Gathen & Gerhard, Modern Computer Algebra,
ch. 9), so that its reductions are Kronecker products too.

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


def _series_inverse(f, k, p):
    """g with f * g = 1 mod (x**k, p), for f[0] = 1, by Newton iteration."""
    g = [1]
    n = 1
    while n < k:
        n = min(2 * n, k)
        h = poly_mul_p(f[:n], g, p)[:n]
        g = poly_mul_p(g, [1] + [-c for c in h[1:]], p)[:n]  # g * (2 - h)
    return g


def _barrett_rem(a, n, m_low, m_inv, p):
    """a mod (m, p) for a reduced a of length at most 2n - 1, where m is
    monic of degree n, m_low its n low coefficients and m_inv the inverse
    of its reversal modulo x**(n - 1)."""
    k = len(a) - n  # number of quotient coefficients
    if k <= 0:
        return a
    rev_q = poly_mul_p(a[n:][::-1], m_inv[:k], p)[:k]
    q = [0] * (k - len(rev_q)) + rev_q[::-1]
    qm = poly_mul_p(q, m_low, p)
    qm += [0] * (n - len(qm))
    return trim([(a[i] - qm[i]) % p for i in range(n)])


def _barrett_setup(m, p):
    """(n, m_low, m_inv) of `_barrett_rem` for reducing modulo (m, p): the
    degree n of m, the low coefficients of m made monic, and the series
    inverse of their reversal.  The leading coefficient of m must be
    nonzero mod p."""
    n = len(m) - 1
    inv = pow(m[n] % p, p - 2, p)
    m_low = [(c * inv) % p for c in m[:n]]
    return n, m_low, _series_inverse([1] + m_low[::-1], n - 1, p)


def poly_powmod_p(base, e, m, p):
    """base**e modulo (m, p) by square and multiply.  The leading
    coefficient of m must be nonzero mod p."""
    n, m_low, m_inv = _barrett_setup(m, p)
    result = [1]
    acc = poly_rem_p(base, m, p)
    while e:
        if e & 1:
            result = _barrett_rem(poly_mul_p(result, acc, p),
                                  n, m_low, m_inv, p)
        e >>= 1
        if e:
            acc = _barrett_rem(poly_mul_p(acc, acc, p),
                               n, m_low, m_inv, p)
    return result


def frobenius_rows_p(h, m, p):
    """The Frobenius map of GF(p)[x]/(m), for h = x**p reduced modulo
    (m, p), as the argument of `frobenius_apply_p`.

    Row i is x**(i*p) = h**i mod (m, p) for i < n = deg m, built by n - 2
    Barrett products that share one series inverse, and packed into one
    int of w-byte slots.  A slot holds n * (p - 1)**2, so a sum of the n
    rows times coefficients below p never carries between slots.
    """
    n, m_low, m_inv = _barrett_setup(m, p)
    w = _slot_width(n, p)
    rows = [[1], h][:n]
    while len(rows) < n:
        rows.append(_barrett_rem(poly_mul_p(rows[-1], h, p),
                                 n, m_low, m_inv, p))
    return w, [_pack(row, p, w) for row in rows]


def frobenius_apply_p(frob, a, p):
    """a**p = a(x**p) modulo (m, p) for a reduced modulo m, where frob is
    `frobenius_rows_p(h, m, p)`: the sum of a[i] times row i."""
    w, rows = frob
    z = sum([(c % p) * row for c, row in zip(a, rows) if c]).to_bytes(
        len(rows) * w, "little")
    return _unpack(z, w, p)
