import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidor.cyclotomic import Cyc, cyclotomic_polynomial, cyc_sum


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta_orders():
    for n in [1, 2, 3, 4, 5, 6, 8, 9, 12]:
        z = Cyc.zeta(n)
        acc = Cyc.rational(1)
        for k in range(1, n + 1):
            acc = acc * z
            if k < n:
                assert acc != 1 or n == 1
        assert acc == 1


def test_sum_of_all_roots():
    for n in [2, 3, 4, 5, 6, 12]:
        s = cyc_sum(Cyc.zeta(n, k) for k in range(n))
        assert s.is_zero()


def test_ring_axioms_random():
    rng = random.Random(5)
    pool = [Cyc.zeta(12, k) for k in range(12)] + [Cyc.rational(Fraction(3, 7)),
                                                   Cyc.zeta(5, 2), Cyc.zeta(8, 3)]
    for _ in range(60):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_conjugation():
    z = Cyc.zeta(5)
    assert z.conj() == Cyc.zeta(5, 4)
    assert (z * z.conj()) == 1
    x = Cyc.zeta(3) - Cyc.zeta(3, 2)
    # x = i sqrt(3): x * conj(x) = 3
    v = x.norm_square()
    assert v.is_rational() and v.rational_value() == 3


def test_mixed_conductor():
    a = Cyc.zeta(3)
    b = Cyc.zeta(4)
    assert a * b == Cyc.zeta(12, 4 + 3)
    assert (a + b) - b == a


def test_from_qz():
    assert Cyc.from_qz(Fraction(1, 2)) == Cyc.rational(-1)
    assert Cyc.from_qz(Fraction(0)) == Cyc.rational(1)
    assert Cyc.from_qz(Fraction(3, 4)) == Cyc.zeta(4, 3)


def test_reduce_descends():
    z = Cyc.zeta(12, 4)  # = zeta_3
    r = z.reduce()
    assert r.n == 3
    assert r == Cyc.zeta(3)
    assert Cyc.zeta(8, 2).reduce().n == 4
    assert Cyc.rational(7).promote(20).reduce().n == 1


def test_galois_is_ring_hom():
    rng = random.Random(11)
    for _ in range(20):
        a = Cyc.zeta(12, rng.randrange(12)) + Cyc.rational(rng.randint(-3, 3))
        b = Cyc.zeta(12, rng.randrange(12))
        for s in (5, 7, 11):
            assert (a * b).galois(s) == a.galois(s) * b.galois(s)
            assert (a + b).galois(s) == a.galois(s) + b.galois(s)


_DIVISORS_120 = [d for d in range(1, 121) if 120 % d == 0]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_DIVISORS_120), st.integers(0, 119),
                          st.integers(-3, 3)), max_size=6))
def test_reduce_is_idempotent_and_equal(terms):
    x = cyc_sum(c * Cyc.zeta(n, k) for n, k, c in terms)
    r = x.reduce()
    assert r == x
    assert x.n % r.n == 0
    again = r.reduce()
    assert (again.n, again.coeffs) == (r.n, r.coeffs)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(_DIVISORS_120),
       st.lists(st.integers(-4, 4), max_size=150),
       st.sampled_from([1, Fraction(-2, 3)]))
def test_from_root_multiplicities_is_the_root_sum(n, hist, scale):
    # hist may be longer than n: exponents are read mod n
    hist = [scale * h for h in hist]
    want = cyc_sum(h * Cyc.zeta(n, s) for s, h in enumerate(hist))
    got = Cyc.from_root_multiplicities(n, hist)
    assert got.n == n and got == want
