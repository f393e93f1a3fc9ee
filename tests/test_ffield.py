import pytest

from cuspidor.cyclotomic import Cyc
from cuspidor.errors import InvalidOrder
from cuspidor.ffield import (
    FiniteField,
    additive_character,
    finite_field,
    gauss_sum,
    mult_character,
    normalized_gauss_value,
)


def odd_prime_powers(bound):
    out = []
    for q in range(3, bound + 1):
        n = q
        p = 2
        while p * p <= n:
            if n % p == 0:
                break
            p += 1
        else:
            p = n
        while n % p == 0:
            n //= p
        if n == 1 and p != 2:
            out.append(q)
    return out


def norm_down(big, small):
    """The subfield dlog of N(gen) = gen gen^Q ... gen^(Q^(d-1)), Q = |small|.

    The norm of big's generator must be a root of small's modulus (so it is
    small's generator under the embedding), and its dlog in big must be
    (|big| - 1)/(|small| - 1), so its subfield dlog is 1: the Conway
    chain's norm compatibility.
    """
    nrm, x = big.one, big.generator
    while True:                 # x runs over the d conjugates of gen
        nrm, x = big.mul(nrm, x), big.power(x, small.q)
        if x == big.generator:
            break
    acc, power = big.zero, big.one
    for c in small.modulus:
        acc = big.add(acc, tuple(c * t % big.p for t in power))
        power = big.mul(power, nrm)
    assert acc == big.zero
    e, step = big.dlog(nrm), (big.q - 1) // (small.q - 1)
    assert e % step == 0
    return e // step


def test_field_basics():
    f = FiniteField(3, 2)
    assert f.q == 9
    els = list(f.elements())
    assert len(els) == 9
    assert len(set(els)) == 9
    g = f.generator
    # generator order is q-1
    seen = set()
    x = f.one
    for _ in range(8):
        x = f.mul(x, g)
        seen.add(x)
    assert x == f.one and len(seen) == 8


def test_dlog_consistency():
    f = FiniteField(7, 2)
    for e in range(0, 48, 5):
        assert f.dlog(f.gen_power(e)) == e % 48


def test_sgn_examples():
    f = FiniteField(7)
    squares = {f.mul(x, x) for x in f.units()}
    for x in f.units():
        assert (f.sgn(x) == 1) == (x in squares)
    # 3 is a nonsquare mod 7
    assert f.sgn((3,)) == -1


def test_mult_character_orders():
    f = FiniteField(9 // 3, 2)
    chi = mult_character(f, 8)
    assert chi(f.generator) == Cyc.zeta(8)
    one = mult_character(f, 1)
    for x in f.units():
        assert one(x) == 1
    with pytest.raises(InvalidOrder):
        mult_character(f, 5)


def test_character_multiplicativity():
    for (p, m) in [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2)]:
        f = FiniteField(p, m)
        if f.q > 49:
            continue
        for order in (2, (f.q - 1)):
            chi = mult_character(f, order)
            units = list(f.units())
            for x in units:
                for y in units:
                    assert chi(f.mul(x, y)) == chi(x) * chi(y)


def test_gauss_sum_gf3():
    f = FiniteField(3)
    res = gauss_sum(f)
    assert res.sum == Cyc.zeta(3) - Cyc.zeta(3, 2)
    assert res.alternate_agrees
    assert normalized_gauss_value(f) == Cyc.zeta(4)  # i


def test_gauss_sum_gf5():
    f = FiniteField(5)
    res = gauss_sum(f)
    assert res.alternate_agrees
    assert normalized_gauss_value(f) == Cyc.rational(1)


def test_cmd_gauss_walks_the_units_once(monkeypatch, capsys):
    # the sum in cmd_gauss, and the two inside normalized_gauss_value (the
    # field itself and its prime field, the same field for m = 1), are one
    from cuspidor import cli
    walks = []
    units = FiniteField.units
    monkeypatch.setattr(FiniteField, "units",
                        lambda self: walks.append(self.q) or units(self))
    gauss_sum.cache_clear()
    assert cli.main(["gauss", "--p", "13"]) == 0
    assert walks == [13]
    assert '"normalized_value"' in capsys.readouterr().out


def test_gauss_sum_modulus_all_small_q():
    for q in odd_prime_powers(121):
        n = q
        p = 2
        while n % p:
            p += 1
        m = 0
        while n > 1:
            n //= p
            m += 1
        f = FiniteField(p, m)
        res = gauss_sum(f)
        gg = res.sum.norm_square()
        assert gg.is_rational() and gg.rational_value() == q
        assert res.alternate_agrees


def test_tower_compatibility():
    # the generator of GF(q^d) norms down to the generator of GF(q)
    cases = [(3, 1, 2), (3, 1, 3), (3, 1, 4), (3, 2, 2), (5, 1, 2), (5, 1, 3),
             (7, 1, 2), (11, 1, 2), (5, 2, 2), (3, 2, 4), (13, 1, 2)]
    for p, m, d in cases:
        big = FiniteField(p, m * d)
        small = FiniteField(p, m)
        assert norm_down(big, small) == 1


def test_subfield_embedding_is_field_hom():
    big = FiniteField(3, 4)
    small = FiniteField(3, 2)
    step = (big.q - 1) // (small.q - 1)
    emb = {small.zero: big.zero}
    for e in range(small.q - 1):
        emb[small.gen_power(e)] = big.gen_power(e * step)
    for a in small.elements():
        for b in small.elements():
            assert emb[small.add(a, b)] == big.add(emb[a], emb[b])
            assert emb[small.mul(a, b)] == big.mul(emb[a], emb[b])


def test_trivial_additive_character_rejected():
    from cuspidor.errors import TrivialCharacter
    f = FiniteField(5)
    with pytest.raises(TrivialCharacter):
        additive_character(f, 5)


def test_finite_field_is_shared_per_size():
    f = finite_field(3, 2)
    assert f is finite_field(3, 2)
    assert f == FiniteField(3, 2) and f.q == 9
    assert finite_field(3) is not f


def _poly_divides(g, f, p):
    """Does the monic g divide f over GF(p)?  Coefficients low to high."""
    f = list(f)
    for i in range(len(f) - len(g), -1, -1):
        c = f[i + len(g) - 1]
        for j, gj in enumerate(g):
            f[i + j] = (f[i + j] - c * gj) % p
    return not any(f[:len(g) - 1])


def test_conway_moduli_are_irreducible():
    # trial division by every monic polynomial of degree <= m/2
    import itertools
    from cuspidor.exactcore import prime_power
    from cuspidor.ffield import _conway_modulus
    for q in odd_prime_powers(2000):
        p, m = prime_power(q)
        f = _conway_modulus(p, m)
        assert len(f) == m + 1 and f[-1] == 1
        for deg in range(1, m // 2 + 1):
            for low in itertools.product(range(p), repeat=deg):
                assert not _poly_divides(low + (1,), f, p), (p, m, low)


def test_primitivity_test_rejects_a_reducible_modulus():
    # x^2 + x + 1 = (x - 1)^2 over GF(3): there x^k = 1 + k(x - 1), so
    # x^((q-1)/r) != 1 for the only prime r = 2 of q - 1 = 8, yet x^8 != 1
    from cuspidor.ffield import _element_is_primitive, _poly_pow_mod
    modulus = (1, 1, 1)
    assert _poly_pow_mod((0, 1), 4, modulus, 3) != (1, 0)
    assert not _element_is_primitive((0, 1), modulus, 3, 9)


# -- exponent arithmetic against the polynomial reference ----------------------

def _fields(bound):
    from cuspidor.exactcore import prime_power
    return [finite_field(*prime_power(q)) for q in odd_prime_powers(bound)]


def _reference_trace(f, a):
    """tr(a) = a + a^p + ... + a^(p^(m-1)), by repeated Frobenius."""
    from cuspidor.ffield import _poly_pow_mod
    out, x = f.zero, a
    for _ in range(f.m):
        out = f.add(out, x)
        x = _poly_pow_mod(x, f.p, f.modulus, f.p)
    assert not any(out[1:])
    return out[0]


def test_unit_arithmetic_matches_polynomials_up_to_729():
    import random
    from cuspidor.ffield import _poly_mul_mod, _poly_pow_mod
    rng = random.Random(729)
    for f in _fields(729):
        def ref_mul(a, b):
            return _poly_mul_mod(a, b, f.modulus, f.p)

        els = list(f.elements())
        assert len(set(els)) == f.q and els[0] == f.zero
        assert list(f.units()) == els[1:]
        fixed = [f.zero, f.one, f.generator, rng.choice(els)]
        x = f.one
        for e in range(f.q - 1):
            assert f.gen_power(e) == x
            assert f.gen_power(e - (f.q - 1)) == x
            assert f.dlog(x) == e
            x = ref_mul(x, f.generator)
        assert x == f.one
        for a in els:
            for b in fixed:
                assert f.mul(a, b) == ref_mul(a, b)
            assert f.absolute_trace(a) == _reference_trace(f, a)
            if a != f.zero:
                assert ref_mul(a, f.inv(a)) == f.one
        for a in rng.sample(els[1:], min(12, f.q - 1)):
            inverse = _poly_pow_mod(a, f.q - 2, f.modulus, f.p)
            assert f.inv(a) == inverse
            for e in (0, 1, 2, f.p, f.q - 2, f.q - 1, f.q, 3 * f.q + 1):
                assert f.power(a, e) == _poly_pow_mod(a, e, f.modulus, f.p)
                assert f.power(a, -e) == _poly_pow_mod(inverse, e, f.modulus,
                                                       f.p)
        assert f.power(f.zero, 0) == f.one
        assert f.power(f.zero, 5) == f.zero
        with pytest.raises(ZeroDivisionError):
            f.inv(f.zero)
        with pytest.raises(ZeroDivisionError):
            f.power(f.zero, -2)


def test_products_match_polynomials_on_all_pairs_up_to_125():
    from cuspidor.ffield import _poly_mul_mod
    for f in _fields(125):
        els = list(f.elements())
        for a in els:
            for b in els:
                assert f.mul(a, b) == _poly_mul_mod(a, b, f.modulus, f.p)
