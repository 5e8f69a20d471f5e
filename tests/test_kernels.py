"""The polynomial kernels against a reference implementation.

The reference kernels below are written independently (big-endian lists,
divmod-style division) so that agreement actually means something.
"""

import random
import signal

import pytest
from hypothesis import given, settings, strategies as st

from bridgevar import kernels

# A parameter whose id keeps the name of the module's former file, so that
# the test ids stay as they were; dropping it renames every test id.
pytestmark = pytest.mark.parametrize("mod", [kernels], ids=["_kernels"])


# --- reference implementations (big-endian, no shared code) -----------

def ref_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for n in range(len(out)):
        s = 0
        for i in range(max(0, n - len(b) + 1), min(n + 1, len(a))):
            s += a[i] * b[n - i]
        out[n] = s
    while out and out[-1] == 0:
        out.pop()
    return out


def ref_divmod_p(a, m, p):
    """(quotient, remainder) of a by m over GF(p); big-endian internally."""
    A = [x % p for x in reversed(a)]
    M = [x % p for x in reversed(m)]
    while A and A[0] == 0:
        A.pop(0)
    while M and M[0] == 0:
        M.pop(0)
    assert M, "division by zero polynomial"
    inv = pow(M[0], -1, p)
    q = []
    while len(A) >= len(M):
        c = (A[0] * inv) % p
        q.append(c)
        for i in range(len(M)):
            A[i] = (A[i] - c * M[i]) % p
        A.pop(0)
        while A and A[0] == 0 and len(A) >= len(M):
            q.append(0)
            A.pop(0)
    while A and A[0] == 0:
        A.pop(0)
    return list(reversed(q)), list(reversed(A))


def ref_gcd_p(a, b, p):
    """Monic gcd over GF(p) by the reference division."""
    # a and b reduced mod p are their quotients by 1
    a, b = ref_divmod_p(a, [1], p)[0], ref_divmod_p(b, [1], p)[0]
    while b:
        a, b = b, ref_divmod_p(a, b, p)[1]
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def ref_is_zero_mod(a, m, p):
    return ref_divmod_p(a, m, p)[1] == []


def ref_powmod_p(base, e, m, p):
    """base**e mod (m, p), squaring the reference product."""
    result, acc = [1], ref_divmod_p(base, m, p)[1]
    for bit in reversed(bin(e)[2:]):
        if bit == "1":
            result = ref_divmod_p(ref_mul(result, acc), m, p)[1]
        acc = ref_divmod_p(ref_mul(acc, acc), m, p)[1]
    return result


coeffs = st.lists(st.integers(min_value=-10 ** 12, max_value=10 ** 12),
                  max_size=12)
BIG_PRIMES = [2 ** 31 - 1, 2 ** 61 - 1]
primes = st.sampled_from([2, 3, 5, 7, 31, 10007] + BIG_PRIMES)


# --- trim --------------------------------------------------------------

def test_trim_strips_and_is_idempotent(mod):
    c = [1, 0, 2, 0, 0]
    assert mod.trim(c) == [1, 0, 2]
    assert mod.trim(c) == [1, 0, 2]
    assert mod.trim([0, 0]) == []
    assert mod.trim([]) == []


# --- poly_mul ----------------------------------------------------------

def test_mul_known_values(mod):
    assert mod.poly_mul([1, 1], [1, 1]) == [1, 2, 1]
    assert mod.poly_mul([], [1, 2]) == []
    assert mod.poly_mul([5], [7]) == [35]
    # cancellation in the leading coefficient must still trim
    assert mod.poly_mul([0, 1], [0, 0]) == []


def test_mul_bigint(mod):
    a = [10 ** 50 + 1, -(10 ** 45), 3]
    b = [7, 10 ** 60]
    assert mod.poly_mul(a, b) == ref_mul(a, b)


@settings(max_examples=60, deadline=None)
@given(a=coeffs, b=coeffs)
def test_mul_matches_reference(mod, a, b):
    assert mod.poly_mul(list(a), list(b)) == ref_mul(a, b)


@settings(max_examples=30, deadline=None)
@given(a=coeffs, b=coeffs, c=coeffs)
def test_mul_distributes(mod, a, b, c):
    n = max(len(b), len(c))
    bc = [(b[i] if i < len(b) else 0) + (c[i] if i < len(c) else 0)
          for i in range(n)]
    lhs = mod.poly_mul(list(a), mod.trim(bc))
    r1, r2 = mod.poly_mul(list(a), list(b)), mod.poly_mul(list(a), list(c))
    m = max(len(r1), len(r2))
    rhs = mod.trim([(r1[i] if i < len(r1) else 0) +
                    (r2[i] if i < len(r2) else 0) for i in range(m)])
    assert lhs == rhs


# --- mod-p kernels -----------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(a=coeffs, b=coeffs, p=primes)
def test_mul_p_matches_reference(mod, a, b, p):
    want = [x % p for x in ref_mul(a, b)]
    while want and want[-1] == 0:
        want.pop()
    assert mod.poly_mul_p(list(a), list(b), p) == want


@settings(max_examples=60, deadline=None)
@given(a=coeffs, b=coeffs, p=primes)
def test_divmod_p_matches_reference(mod, a, b, p):
    # contract: the divisor's leading coefficient is nonzero mod p
    if not b or b[-1] % p == 0:
        return
    q, r = mod.poly_divmod_p(list(a), list(b), p)
    assert (q, r) == ref_divmod_p(a, b, p)
    assert len(r) < len(b)
    qb = [x % p for x in ref_mul(q, b)]
    n = max(len(qb), len(r), len(a))
    qb, rr, aa = (c + [0] * (n - len(c)) for c in (qb, r, list(a)))
    assert all((x + y - z) % p == 0 for x, y, z in zip(qb, rr, aa))


def test_divmod_p_edge_cases(mod):
    # a zero dividend, a constant divisor, a dividend of lower degree
    assert mod.poly_divmod_p([], [3, 1], 7) == ([], [])
    assert mod.poly_divmod_p([2, 4, 6], [3], 7) == ([3, 6, 2], [])
    assert mod.poly_divmod_p([9, 1], [1, 2, 1], 7) == ([], [2, 1])
    # (x + 1)(x + 2) + 5 mod 7, with the dividend unreduced
    assert mod.poly_divmod_p([7, 10, 8], [1, 1], 7) == ([2, 1], [5])
    # the divisor's leading coefficient has no inverse mod p
    with pytest.raises(ValueError):
        mod.poly_divmod_p([1, 2, 3], [1, 5], 5)


def test_divmod_p_rejects_the_zero_divisor(mod):
    # as UniPoly.divexact(0) does
    for a in ([], [1], [3, 0, 2]):
        with pytest.raises(ZeroDivisionError):
            mod.poly_divmod_p(a, [], 7)
        with pytest.raises(ZeroDivisionError):
            mod.poly_rem_p(a, [], 7)


@settings(max_examples=60, deadline=None)
@given(a=coeffs, m=coeffs, p=primes)
def test_rem_p_matches_reference(mod, a, m, p):
    # contract: the divisor is normalized with unit leading coefficient
    mm = [x % p for x in m]
    while mm and mm[-1] == 0:
        mm.pop()
    if not mm:
        return
    assert mod.poly_rem_p(list(a), list(mm), p) == ref_divmod_p(a, mm, p)[1]


@settings(max_examples=40, deadline=None)
@given(a=coeffs, b=coeffs, p=primes)
def test_gcd_p_divides_both_and_is_monic(mod, a, b, p):
    g = mod.poly_gcd_p(list(a), list(b), p)
    if not g:
        assert mod.trim([x % p for x in a]) == []
        assert mod.trim([x % p for x in b]) == []
        return
    assert g[-1] == 1
    assert ref_is_zero_mod(a, g, p)
    assert ref_is_zero_mod(b, g, p)


def test_gcd_p_finds_planted_factor(mod):
    p = 31
    f = [1, 0, 1]            # x^2 + 1
    a = ref_mul(f, [3, 1, 4, 1])
    b = ref_mul(f, [2, 7, 1])
    g = mod.poly_gcd_p(a, b, p)
    assert ref_is_zero_mod(ref_mul(g, [pow(g[-1], -1, p)]), f, p) or \
        ref_is_zero_mod(f, g, p)
    # cofactors were chosen coprime, so the gcd is exactly x^2+1
    assert g == [1, 0, 1]


@settings(max_examples=25, deadline=None)
@given(base=coeffs, e=st.integers(min_value=0, max_value=40),
       m=coeffs, p=primes)
def test_powmod_matches_iterated_product(mod, base, e, m, p):
    mm = [x % p for x in m]
    while mm and mm[-1] == 0:
        mm.pop()
    if len(mm) < 2:           # need deg >= 1 to reduce into
        return
    got = mod.poly_powmod_p(list(base), e, mod.ring_p(mm, p))
    want = [1]
    for _ in range(e):
        want = ref_divmod_p(ref_mul(want, base), mm, p)[1]
    assert got == want


def test_powmod_fermat(mod):
    # x^p = x mod (x^p - x, p): Frobenius fixes the ground field
    p = 7
    m = [0] * p + [1]
    m[1] = -1                  # x^7 - x
    assert mod.poly_powmod_p([0, 1], p, mod.ring_p(m, p)) == [0, 1]


def test_empty_and_vanishing_inputs(mod):
    m = [3, 0, 1]
    assert mod.poly_mul_p([], [1, 2], 5) == []
    assert mod.poly_mul_p([1, 2], [], 5) == []
    assert mod.poly_mul_p([5, -10], [3, 1], 5) == []   # zero mod p
    assert mod.poly_rem_p([], m, 7) == []
    assert mod.poly_gcd_p([], [], 7) == []
    assert mod.poly_gcd_p([], [2, 4], 7) == [4, 1]
    ring = mod.ring_p(m, 7)
    assert mod.poly_powmod_p([], 3, ring) == []
    assert mod.poly_powmod_p([], 0, ring) == [1]
    assert mod.poly_powmod_p([2, 5], 0, ring) == [1]


@pytest.mark.parametrize("p", [2, 3, 101] + BIG_PRIMES)
def test_mul_p_every_slot_width(mod, p):
    # All coefficients p - 1 (or -1) make every product coefficient reach
    # the largest value a slot must hold, so a slot one byte short carries.
    rng = random.Random(p)
    for na in range(0, 82, 3):
        for nb in (1, 2, na // 2 + 1, na + 1):
            for a, b in (([p - 1] * na, [-1] * nb),
                         ([rng.randint(-3 * p, 3 * p) for _ in range(na)],
                          [rng.randrange(p) for _ in range(nb)])):
                want = [x % p for x in ref_mul(a, b)]
                while want and want[-1] == 0:
                    want.pop()
                assert mod.poly_mul_p(a, b, p) == want, (na, nb)
                assert mod.poly_mul_p(a, a, p) == \
                    mod.poly_mul_p(a, list(a), p)


@pytest.mark.parametrize("p", [2, 3, 101] + BIG_PRIMES)
def test_powmod_long_moduli(mod, p):
    rng = random.Random(p)
    for n in range(1, 82, 4):
        m = [rng.randint(-p, p) for _ in range(n)] + [rng.randrange(1, p)]
        base = [rng.randint(-p, p) for _ in range(rng.randrange(2 * n + 2))]
        ring = mod.ring_p(m, p)
        assert ring.m == mod.poly_monic_p(m, p)
        assert mod.ring_p(m, p) is not ring    # no cache hands it back
        for e in (0, 1, 2, 7, rng.randrange(8, 1000)):
            assert mod.poly_powmod_p(base, e, ring) == \
                ref_powmod_p(base, e, m, p), (n, e)


# --- Frobenius map -----------------------------------------------------

def pack_slots(c, w):
    return sum(x << (8 * w * j) for j, x in enumerate(c))


def unpack_slots(v, w, n):
    mask = (1 << (8 * w)) - 1
    out = [(v >> (8 * w * j)) & mask for j in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


@pytest.mark.parametrize("p", [2, 3, 101] + BIG_PRIMES)
def test_frobenius_rows_are_powers_of_x(mod, p):
    rng = random.Random(p)
    for n in (1, 2, 3, 8, 19, 30):
        m = [rng.randint(-p, p) for _ in range(n)] + [rng.randrange(1, p)]
        ring = mod.ring_p(m, p)
        h = mod.poly_powmod_p([0, 1], p, ring)
        w, rows = mod.frobenius_rows_p(h, ring)
        assert 256 ** w > n * (p - 1) ** 2 and len(rows) == n
        for i, row in enumerate(rows):
            assert unpack_slots(row, w, n) == \
                mod.poly_powmod_p([0, 1], i * p, ring), (n, i)
        for _ in range(3):
            a = [rng.randrange(p) for _ in range(rng.randrange(n + 1))]
            assert mod.frobenius_apply_p((w, rows), mod.trim(a), p) == \
                mod.poly_powmod_p(a, p, ring), n


@pytest.mark.parametrize("p", [2, 3, 101] + BIG_PRIMES)
def test_frobenius_apply_matches_matrix_product(mod, p):
    # All-(p - 1) rows and coefficients fill every slot to n*(p-1)**2,
    # the bound the width of frobenius_rows_p is sized for.
    rng = random.Random(p)
    for n in (1, 2, 5, 17, 40, 70):
        w = mod._slot_width(n, p)
        for rows, a in (([[p - 1] * n] * n, [p - 1] * n),
                        ([[rng.randrange(p) for _ in range(n)]
                          for _ in range(n)],
                         [rng.randrange(p) for _ in range(n)])):
            want = [sum(a[i] * rows[i][j] for i in range(n)) % p
                    for j in range(n)]
            while want and want[-1] == 0:
                want.pop()
            frob = (w, [pack_slots(r, w) for r in rows])
            assert mod.frobenius_apply_p(frob, a, p) == want, n


# --- packed slots mod p ------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 101] + BIG_PRIMES)
def test_red_reduces_every_slot(mod, p):
    # 0, p - 1, p, 2**k - 1 (the largest value _red takes) and values
    # -1 mod p near 2**k (where the quotient estimate errs most), alone, in
    # neighbouring slots and mixed with random values below 2**k, on the
    # slots of a ring and on those of poly_gcd_p.
    rng = random.Random(p)
    for n in (1, 2, 7, 40):
        for sl in (mod.ring_p([1] * (n + 1), p),
                   mod._Slots(p, mod._gcd_bits(p), n)):
            k, w = sl.k, sl.w
            assert 8 * w >= 2 * k + 1
            top = 2 ** k // p
            values = [0, p - 1, p, 2 ** k - 1, top * p - 1] + [
                rng.randrange(max(1, top // 2), top + 1) * p - 1
                for _ in range(20)]
            for c in [[v] * n for v in values] + [
                    [rng.choice(values + [rng.randrange(2 ** k)])
                     for _ in range(n)] for _ in range(5)]:
                want = mod.trim([v % p for v in c])
                assert unpack_slots(mod._red(pack_slots(c, w), sl), w, n) \
                    == want, (n, k, c)


# --- ring products mod (m, p) --------------------------------------------

def ring_mulmod(mod, a, b, ring):
    return mod.ring_unpack(mod.poly_mulmod_p(
        mod.ring_pack(a, ring), mod.ring_pack(b, ring), ring), ring)


@pytest.mark.parametrize("p", [2, 3, 101] + BIG_PRIMES)
def test_ring_barrett_constants(mod, p):
    # quo is x**(2n - 2) // f and low is f - x**n for f = m made monic;
    # off is the least multiple of p at or above (n - 1) (p - 1)**2, and
    # n (p - 1)**2 + off, the largest slot _red sees, fits in k bits.
    rng = random.Random(p)
    for n in (1, 2, 3, 5, 17, 40, 81):
        m = [rng.randint(-p, p) for _ in range(n)] + [rng.randrange(1, p)]
        ring = mod.ring_p(m, p)
        inv = pow(m[-1], -1, p)
        f = [c * inv % p for c in m]
        w = ring.w
        assert ring.n == n
        assert unpack_slots(ring.quo, w, n) == \
            ref_divmod_p([0] * (2 * n - 2) + [1], f, p)[0], n
        assert unpack_slots(ring.low, w, n) == mod.trim(f[:n]), n
        off = unpack_slots(ring.off, w, n)
        off = off[0] if off else 0
        assert unpack_slots(ring.off, w, n) == mod.trim([off] * n)
        assert off % p == 0 and off - p < (n - 1) * (p - 1) ** 2 <= off
        assert n * (p - 1) ** 2 + off < 2 ** ring.k


@pytest.mark.parametrize("p", [2, 3, 101] + BIG_PRIMES)
def test_table_product_matches_reference(mod, p):
    # The name is kept from the reduction-table product this test first
    # checked; poly_mulmod_p now runs on the ring's Barrett constants.
    # All-(p - 1) operands fill the product slots to n (p - 1)**2;
    # m = 1 + x + ... + x**n and m = x**n - 1 - x - ... - x**(n - 1)
    # make f - x**n all 1 and all p - 1.
    rng = random.Random(p)
    for n in range(1, 82):
        for m in ([1] * (n + 1), [p - 1] * n + [1],
                  [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]):
            ring = mod.ring_p(m, p)
            for a, b in (([p - 1] * n, [p - 1] * n),
                         ([rng.randrange(p) for _ in range(n)],
                          [rng.randrange(p) for _ in range(n)])):
                a, b = mod.trim(a), mod.trim(b)
                want = ref_divmod_p(ref_mul(a, b), m, p)[1]
                assert ring_mulmod(mod, a, b, ring) == want, (n, m)


@pytest.mark.parametrize("p", [2, 3, 101] + BIG_PRIMES)
def test_ring_product_fills_slots_to_the_bound(mod, p):
    # f - x**n all p - 1, and z = a * x**(n - 1) whose quotient by f is
    # q = all p - 1 while the n - 1 low slots of z are 0: a low slot of
    # q (f - x**n) reaches (n - 1) (p - 1)**2 and is taken from off alone.
    # Then _red of n (p - 1)**2 + off, the documented bound, in every slot.
    for n in range(1, 82):
        m = [p - 1] * n + [1]
        ring = mod.ring_p(m, p)
        q = [p - 1] * (n - 1)
        a = mod.trim([c % p for c in ref_mul(q, m)][n - 1:])
        xn1 = [0] * (n - 1) + [1]
        assert ref_divmod_p(ref_mul(a, xn1), m, p)[0] == q
        want = ref_divmod_p(ref_mul(a, xn1), m, p)[1]
        assert ring_mulmod(mod, a, xn1, ring) == want, n
        off = -(-(n - 1) * (p - 1) ** 2 // p) * p
        bound = n * (p - 1) ** 2 + off
        got = mod._red(pack_slots([bound] * n, ring.w), ring)
        assert unpack_slots(got, ring.w, n) == \
            mod.trim([bound % p] * n), n


# --- packed gcd ----------------------------------------------------------

def test_gcd_p_edge_cases_match_reference(mod):
    p = 5
    cases = [
        # x**2 + 2x + 3 by x + 2: the next top slot is 10, zero mod 5 but
        # not 0, and the degree drops by 2
        ([3, 2, 1], [2, 1]),
        ([1, 2, 3, 4], [4, 3, 2, 1]),          # equal degrees
        ([1, 2, 3], [2, 4, 6]),                # equal degrees, b = 2a
        ([], [1, 2, 3]), ([1, 2, 3], []),      # a zero operand
        ([5, 10], [1, 2, 3]), ([1, 2, 3], [0, 5, 25]),   # zero mod p
        ([], []), ([3], [0, 1]), ([0, 1], [3]),          # constants
    ]
    rng = random.Random(5)
    for _ in range(300):
        # over GF(2) and GF(3) the top slots often vanish mod p
        q = rng.choice([2, 3, 5])
        g = [rng.randrange(q) for _ in range(rng.randrange(3))] + [1]
        a = ref_mul([rng.randrange(q) for _ in range(rng.randrange(12))], g)
        b = ref_mul([rng.randrange(q) for _ in range(rng.randrange(12))], g)
        cases.append((a, b, q))
    for case in cases:
        a, b, q = case if len(case) == 3 else case + (p,)
        assert mod.poly_gcd_p(a, b, q) == ref_gcd_p(a, b, q), case
        assert mod.poly_gcd_p(b, a, q) == ref_gcd_p(a, b, q), case


def long_gcd_cases(p):
    """Operand pairs of degree up to 81 with long remainder sequences."""
    rng = random.Random(p)
    for n in (1, 2, 9, 40, 81):
        g = [rng.randrange(p) for _ in range(rng.randrange(4))] + [1]
        yield from (([p - 1] * (n + 1), [p - 1] * n),
                    ([rng.randrange(p) for _ in range(n + 1)],
                     [rng.randrange(p) for _ in range(n)]),
                    (ref_mul([rng.randrange(p) for _ in range(n)], g),
                     ref_mul([rng.randrange(p) for _ in range(n)], g)))


@pytest.mark.parametrize("p", [2, 3, 101] + BIG_PRIMES)
def test_gcd_p_rereduces_before_the_slot_bound(mod, p, monkeypatch):
    # Long remainder sequences let the unreduced slots grow until poly_gcd_p
    # must reduce an operand; every _red it makes sees slots below 2**k.
    seen = []
    real = mod._red

    def checked(x, sl):
        n = (x.bit_length() + 8 * sl.w - 1) // (8 * sl.w)
        assert max(unpack_slots(x, sl.w, n) or [0]) < 2 ** sl.k
        seen.append(sl.k)
        return real(x, sl)

    monkeypatch.setattr(mod, "_red", checked)
    for a, b in long_gcd_cases(p):
        assert mod.poly_gcd_p(a, b, p) == ref_gcd_p(a, b, p), (a, b)
    assert seen


@pytest.mark.parametrize("p", [2, 3, 101] + BIG_PRIMES)
def test_gcd_p_raises_when_a_slot_overflows(mod, p, monkeypatch):
    # With _red a no-op the slots outgrow their bound and carry.  A carry
    # into the top slot a step has just cleared must raise at once, where
    # it used to keep the degree from falling and loop for ever; the alarm
    # turns such a loop into a failure.
    def stalled(signum, frame):
        raise AssertionError("poly_gcd_p did not end")

    monkeypatch.setattr(mod, "_red", lambda x, sl: x)
    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(20)
    raised = 0
    try:
        for a, b in long_gcd_cases(p):
            try:
                assert mod.poly_gcd_p(a, b, p) == ref_gcd_p(a, b, p), (a, b)
            except ArithmeticError:
                raised += 1
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert raised or p == 2   # GF(2) slots do not overflow on these cases


# --- the remainder loop on vanishing slots -------------------------------

EUCLID_PRIMES = [2, 3, 101, 65521, 2 ** 61 - 1]


def vanishing(p, max_size=10):
    """Coefficient lists whose entries are often nonzero multiples of p,
    so that leading coefficients vanish mod p and a step leaves chains of
    top slots that are 0 mod p."""
    return st.lists(st.one_of(st.integers(-3, 3).map(lambda j: j * p),
                              st.integers(-3 * p, 3 * p)), max_size=max_size)


def nonzero_lead(p):
    """A leading coefficient that is nonzero mod p."""
    return st.tuples(st.integers(1, p - 1), st.integers(-3, 3)).map(
        lambda t: t[0] + t[1] * p)


def ref_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]


@settings(max_examples=120, deadline=None)
@given(data=st.data(), p=st.sampled_from(EUCLID_PRIMES))
def test_divmod_p_matches_reference_on_vanishing_slots(mod, data, p):
    b = data.draw(vanishing(p)) + [data.draw(nonzero_lead(p))]
    if data.draw(st.booleans()):
        # a = c x**s b + r with deg r < deg b: the first step clears all of
        # c x**s b, and the loop then drops a chain of vanishing top slots
        s = data.draw(st.integers(0, 6))
        r = data.draw(vanishing(p, len(b) - 1))
        a = ref_add(ref_mul([0] * s + [data.draw(nonzero_lead(p))], b), r)
    else:
        a = data.draw(vanishing(p, 16))
    q, r = mod.poly_divmod_p(list(a), list(b), p)
    assert (q, r) == ref_divmod_p(a, b, p)
    assert mod.poly_rem_p(list(a), list(b), p) == r


@settings(max_examples=120, deadline=None)
@given(data=st.data(), p=st.sampled_from(EUCLID_PRIMES))
def test_gcd_p_matches_reference_on_vanishing_slots(mod, data, p):
    g = data.draw(vanishing(p, 4))
    a = ref_mul(data.draw(vanishing(p)), g) if g else data.draw(vanishing(p))
    b = ref_mul(data.draw(vanishing(p)), g) if g else data.draw(vanishing(p))
    want = ref_gcd_p(a, b, p)
    assert mod.poly_gcd_p(list(a), list(b), p) == want
    assert mod.poly_gcd_p(list(b), list(a), p) == want


def euclid_list(mod, x, d, sl):
    """The coefficient list of the remainder-loop operand (x, d)."""
    return mod._unpack(x, d + 1, sl.w, sl.p, "big")


@pytest.mark.parametrize("p", EUCLID_PRIMES)
def test_pack_orders_mirror_each_other(mod, p):
    # "big" packs the list reversed; each order reads back what it wrote
    rng = random.Random(p)
    for n in (0, 1, 2, 9):
        a = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
        w = mod._slot_width(n + 1, p)
        x = mod._pack(a, p, w, "big")
        assert x == mod._pack(a[::-1], p, w, "little"), n
        assert mod._unpack(x, n + 1, w, p, "big") == a, n
        assert mod._unpack(x, n + 1, w, p, "little") == mod.trim(a[::-1]), n


@pytest.mark.parametrize("p", EUCLID_PRIMES)
def test_packed_operands_match_the_list_kernels(mod, p):
    # A ring element moved into the Euclid slots with no unpacking is the
    # operand packed from its list; gcd and division on packed operands
    # agree with the reference.
    rng = random.Random(p)
    for n in (2, 3, 9, 30, 70):
        m = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
        ring = mod.ring_p(m, p)
        sl = ring.euclid
        for a in ([], [0, 1], [p - 1] * n,
                  [rng.randrange(p) for _ in range(rng.randrange(n + 1))]):
            a = mod.trim(list(a))
            x = mod.ring_euclid(mod.ring_pack(a, ring), ring)
            assert x == mod.euclid_pack(a, sl), (n, a)
            g, dg = mod.euclid_gcd_p(x, mod.euclid_pack(m, sl), sl)
            want = ref_gcd_p(a, m, p)
            assert dg == len(want) - 1 and (dg < 0 or mod.poly_monic_p(
                euclid_list(mod, g, dg, sl), p) == want), (n, a)
            if dg >= 0:
                (q, dq), (r, dr) = mod.euclid_divmod_p(
                    mod.euclid_pack(m, sl), (g, dg), sl)
                assert dr == -1 and r == 0
                assert euclid_list(mod, q, dq, sl) == ref_divmod_p(
                    m, euclid_list(mod, g, dg, sl), p)[0]


@pytest.mark.parametrize("p", EUCLID_PRIMES)
def test_division_and_resultant_raise_on_a_carry(mod, p):
    # The loop is told that every slot is below p, but the dividend's
    # leading slot holds a value so close to the top of its w bytes that
    # the first step carries out of it: in a division and in a resultant
    # the slot it should clear is left nonzero mod p, which raises.  Over
    # GF(2) the carry 2**(8w) is 0 mod 2, so it goes unseen there.
    sl = mod._euclid_slots(p, 8)
    top = 2 ** (8 * sl.w)
    y, dy = mod.euclid_pack([1, 1, p - 1], sl)     # lc(y) = p - 1
    # the step adds (p - c) (p - 1) to t, where c = t / (p - 1) mod p
    t = next(t for t in range(top - 1, 0, -1)
             if t % p and t + (p - t * pow(p - 1, -1, p) % p) * (p - 1) >= top)
    x, dx = mod.euclid_pack([1, 2, 3], sl)
    x, dx = (x << 8 * sl.w) + t, dx + 1
    for kw in ({"quo": []}, {"res": 1}):
        if p == 2:
            mod._euclid(x, dx, y, dy, sl, **kw)
        else:
            with pytest.raises(ArithmeticError):
                mod._euclid(x, dx, y, dy, sl, **kw)


def test_zero_leading_coefficient_mod_p_raises(mod):
    # The divisor's (the modulus') leading coefficient has no inverse mod p.
    with pytest.raises(ValueError):
        mod.poly_rem_p([1, 2, 3], [1, 5], 5)
    with pytest.raises(ValueError):
        mod.ring_p([1, 2, 7], 7)
