"""Polynomial kernels.

Dense little-endian coefficient lists.  These are the hot inner loops of
the whole package (bigint convolution; arithmetic mod p for degree
patterns).  Products mod p use Kronecker substitution: the coefficients
are packed into one Python int, so that CPython's bigint multiply does
the convolution (Harvey, J. Symbolic Comput. 44 (2009)).  `poly_powmod_p`
reduces each product by a Barrett step built from the series inverse of
the reversed modulus (von zur Gathen & Gerhard, Modern Computer Algebra,
ch. 9), so that its reductions are Kronecker products too.

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


def _pack(a, p, w):
    """The coefficients of a, reduced mod p, as one int of w-byte slots."""
    return int.from_bytes(b"".join([(c % p).to_bytes(w, "little") for c in a]),
                          "little")


def poly_mul_p(a, b, p):
    """Product of int-coefficient lists, reduced mod p."""
    na, nb = len(a), len(b)
    if na == 0 or nb == 0:
        return []
    # A product coefficient is a sum of at most min(na, nb) terms below p**2,
    # so slots of w bytes never carry into each other.
    w = ((min(na, nb) * (p - 1) ** 2).bit_length() + 7) // 8
    x = _pack(a, p, w)
    z = (x * x if a is b else x * _pack(b, p, w)).to_bytes(
        (na + nb - 1) * w, "little")
    return trim([int.from_bytes(z[i:i + w], "little") % p
                 for i in range(0, len(z), w)])


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


def poly_powmod_p(base, e, m, p):
    """base**e modulo (m, p) by square and multiply.  The leading
    coefficient of m must be nonzero mod p."""
    n = len(m) - 1
    inv = pow(m[n] % p, p - 2, p)
    m_low = [(c * inv) % p for c in m[:n]]
    m_inv = _series_inverse([1] + m_low[::-1], n - 1, p)
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
