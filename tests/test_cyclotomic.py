import functools
import operator
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidor.cyclotomic import Cyc, cyclotomic_polynomial, cyc_sum
from cuspidor.exactcore import gauss_jordan, prime_factors


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
    assert z.to_json() == {"conductor": 3, "coeffs": ["0", "1"]}


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


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(_DIVISORS_120),
       st.lists(st.integers(-2, 2), max_size=12),
       st.lists(st.integers(-2, 2), max_size=12),
       st.booleans())
def test_equality_at_one_conductor_matches_the_promote_path(n, h1, h2, same):
    a = Cyc.from_root_multiplicities(n, h1)
    # (a + a) - a is a itself, reached by another reduction
    b = (a + a) - a if same else Cyc.from_root_multiplicities(n, h2)
    assert a.n == b.n == n
    want = a.promote(120).coeffs == b.promote(120).coeffs
    assert (a == b) == (b == a) == want
    assert want or not same


@pytest.mark.parametrize("n", [0, -4])
def test_conductor_must_be_positive(n):
    with pytest.raises(ValueError, match="conductor must be positive"):
        Cyc(n, [1])
    with pytest.raises(ValueError, match="conductor must be positive"):
        Cyc.zeta(n)


def test_equality_with_non_numbers():
    z = Cyc.zeta(3)
    assert z != None  # noqa: E711
    assert z != "x"
    assert z in [None, "x", Cyc.zeta(3)]
    assert Cyc.rational(2) == 2
    assert Cyc.rational(Fraction(1, 2)) == Fraction(1, 2)
    assert Cyc.zeta(12, 4) == z and hash(Cyc.zeta(12, 4)) == hash(z)
    assert len({z, Cyc.zeta(6, 2), Cyc.zeta(3, 1).promote(30)}) == 1


def test_a_rational_hashes_as_its_fraction():
    half = (Cyc.zeta(3) + Cyc.zeta(3, 2) + 2) / 2       # (-1 + 2) / 2
    assert half.n == 3 and half == Fraction(1, 2)
    assert len({1, Cyc.rational(1)}) == 1
    assert len({Fraction(1, 2), half, Cyc.rational(Fraction(1, 2))}) == 1
    assert hash(Cyc.zeta(4, 2)) == hash(-1)
    assert {Cyc.rational(3): "three"}[3] == "three"


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
def test_arithmetic_with_a_non_number_is_a_type_error(op):
    z = Cyc.zeta(3)
    for other in ("x", None, 0.5, [1]):
        with pytest.raises(TypeError):
            op(z, other)
        with pytest.raises(TypeError):
            op(other, z)
    assert op(z, Fraction(1, 2)) == op(z, Cyc.rational(Fraction(1, 2)))


# -- frozen reference: reduction by a table of z^k rows, descent by a linear
# solve on the promoted basis; independent of from_root_multiplicities -----

@functools.lru_cache(maxsize=None)
def _frozen_rows(n):
    """z^k for k in [phi(n), n) on the power basis, as integer tuples."""
    phi = len(cyclotomic_polynomial(n)) - 1
    rows = {}
    base = [-c for c in cyclotomic_polynomial(n)[:phi]]
    cur = base[:]
    rows[phi] = tuple(cur)
    for k in range(phi + 1, n):
        shifted = [0] + cur[:-1]
        top = cur[-1]
        if top:
            shifted = [s + top * b for s, b in zip(shifted, base)]
        cur = shifted
        rows[k] = tuple(cur)
    return phi, rows


def _frozen_monomial(n, k):
    phi, rows = _frozen_rows(n)
    k %= n
    if k < phi:
        return tuple(int(i == k) for i in range(phi))
    return rows[k]


def _frozen_zeta(n, k=1):
    return Cyc(n, _frozen_monomial(n, k % n)) if n > 1 else Cyc(1, [1])


def _frozen_promote(x, m):
    if m == x.n:
        return x
    step = m // x.n
    acc = [0] * _frozen_rows(m)[0]
    for k, c in enumerate(x.coeffs):
        if c:
            mono = _frozen_monomial(m, (k * step) % m)
            acc = [a + c * b for a, b in zip(acc, mono)]
    return Cyc(m, acc)


def _frozen_add(x, y):
    m = math.lcm(x.n, y.n)
    a, b = _frozen_promote(x, m), _frozen_promote(y, m)
    return Cyc(m, [u + v for u, v in zip(a.coeffs, b.coeffs)])


def _frozen_mul(x, y):
    n = math.lcm(x.n, y.n)
    a, b = _frozen_promote(x, n), _frozen_promote(y, n)
    if n == 1:
        return Cyc(1, [a.coeffs[0] * b.coeffs[0]])
    phi, _ = _frozen_rows(n)
    raw = [Fraction(0)] * (2 * phi - 1)
    for i, u in enumerate(a.coeffs):
        if not u:
            continue
        for j, v in enumerate(b.coeffs):
            if v:
                raw[i + j] += u * v
    acc = list(raw[:phi])
    for k in range(phi, len(raw)):
        if raw[k]:
            acc = [u + raw[k] * v for u, v in zip(acc, _frozen_monomial(n, k))]
    return Cyc(n, acc)


def _frozen_galois(x, a):
    if x.n == 1:
        return x
    acc = [0] * _frozen_rows(x.n)[0]
    for k, c in enumerate(x.coeffs):
        if c:
            mono = _frozen_monomial(x.n, (k * a) % x.n)
            acc = [u + c * v for u, v in zip(acc, mono)]
    return Cyc(x.n, acc)


def _frozen_descend(x, m):
    """Representative of x in Q(zeta_m), or None, by a Gauss-Jordan solve."""
    phi_m = _frozen_rows(m)[0] if m > 1 else 1
    cols = [_frozen_promote(Cyc(m, [int(i == k) for i in range(phi_m)]),
                            x.n).coeffs for k in range(phi_m)]
    a, pivots, _ = gauss_jordan(
        [[cols[j][i] for j in range(phi_m)] + [x.coeffs[i]]
         for i in range(len(x.coeffs))], phi_m)
    if any(row[phi_m] != 0 for row in a[len(pivots):]):
        return None
    sol = [Fraction(0)] * phi_m
    for row, c in zip(a, pivots):
        sol[c] = row[phi_m]
    cand = Cyc(m, sol)
    return cand if _frozen_promote(cand, x.n).coeffs == x.coeffs else None


def _frozen_reduce(x):
    changed = True
    while changed and x.n > 1:
        changed = False
        for p in prime_factors(x.n):
            down = _frozen_descend(x, x.n // p)
            if down is not None:
                x, changed = down, True
                break
    return x


_CONDUCTORS = sorted(set(_DIVISORS_120) | {2, 3, 5, 7, 11, 13, 17, 19, 23,
                                           25, 27, 28, 36, 42})


def _frozen_root_sum(rng, n):
    """A sum of roots of unity of conductors dividing n, in Q(zeta_n); a
    third are made real, so they lie in no smaller cyclotomic field."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    x = _frozen_promote(Cyc(1, [0]), n)
    for _ in range(rng.randint(0, 4)):
        d = rng.choice(divisors)
        c = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
        z = _frozen_promote(_frozen_zeta(d, rng.randrange(d)), n)
        x = _frozen_add(x, Cyc(n, [c * v for v in z.coeffs]))
    if rng.random() < 1 / 3:
        x = _frozen_add(x, _frozen_galois(x, -1))
    return x


def _state(x):
    return x.n, x.coeffs, [type(c) for c in x.coeffs]


def test_one_reduction_matches_the_frozen_reference():
    rng = random.Random(24)
    for _ in range(300):
        n = rng.choice(_CONDUCTORS)
        x = _frozen_root_sum(rng, n)
        y = _frozen_root_sum(rng, rng.choice(
            [d for d in _CONDUCTORS if math.lcm(n, d) <= 240]))
        assert _state(x.reduce()) == _state(_frozen_reduce(x))
        assert _state(x * y) == _state(_frozen_mul(x, y))
        m = n * rng.choice([1, 2, 3, 5])
        assert _state(x.promote(m)) == _state(_frozen_promote(x, m))
        a = rng.choice([a for a in range(-n, n) if math.gcd(a, n) == 1])
        assert _state(x.galois(a)) == _state(_frozen_galois(x, a))
        k = rng.randrange(-n, 2 * n)
        assert _state(Cyc.zeta(n, k)) == _state(_frozen_zeta(n, k))


def test_integer_coefficients_become_fractions_equal_to_them():
    # the int -> Fraction cache must give the same coefficient tuple as
    # Fraction(c) would, for every int (small, large, negative) and a bool
    big = 10 ** 30
    cases = [(1, [0]), (3, [1, -1]), (5, [2, 0, -3, 7]), (4, [big, -big]),
             (3, [True, False]), (4, [True, 5])]
    for n, ints in cases * 2:
        x = Cyc(n, ints)
        assert all(type(c) is Fraction for c in x.coeffs)
        assert x.coeffs == tuple(Fraction(c) for c in ints)
        assert list(x.coeffs) == list(ints)
    assert Cyc(3, [True, False]) == Cyc(3, [1, 0])


def test_invalid_input_is_a_named_value_error():
    from cuspidor.errors import CuspidorError, InvalidCyclotomic
    z = Cyc.zeta(3)
    calls = [lambda: Cyc(0, [1]), lambda: Cyc(3, [1]), lambda: Cyc.zeta(-1),
             lambda: z.promote(4), lambda: z / z, lambda: z.rational_value(),
             lambda: z.galois(3)]
    for call in calls:
        with pytest.raises(InvalidCyclotomic) as err:
            call()
        assert isinstance(err.value, CuspidorError)
        assert isinstance(err.value, ValueError)


def test_a_failed_division_by_phi_n_is_a_failed_check():
    from cuspidor.cyclotomic import _polydiv_exact
    from cuspidor.errors import FailedCheck
    # x^2 - 1 = (x - 1)(x + 1); x^2 + 1 leaves 2; x / (2x + 1) is not integral
    assert _polydiv_exact([-1, 0, 1], [-1, 1]) == [1, 1]
    for num, den in (([1, 0, 1], [-1, 1]), ([0, 1], [1, 2])):
        with pytest.raises(FailedCheck) as err:
            _polydiv_exact(num, den)
        assert isinstance(err.value, ArithmeticError)


def test_cyclotomic_raises_only_its_named_errors():
    import ast
    import pathlib

    import cuspidor.cyclotomic as cyclotomic
    import cuspidor.errors as errors
    tree = ast.parse(pathlib.Path(cyclotomic.__file__).read_text())
    raised = {node.exc.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Raise)}
    assert raised == {"FailedCheck", "InvalidCyclotomic"}
    assert all(issubclass(getattr(errors, name), errors.CuspidorError)
               for name in raised)
    assert issubclass(errors.InvalidCyclotomic, ValueError)
