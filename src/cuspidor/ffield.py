"""Exact GF(p^m) arithmetic, multiplicative characters, Gauss sums.

Moduli are chosen deterministically, Conway style: the lexicographically
least monic irreducible polynomial whose root x is primitive and whose
powers norm down compatibly to the generators of all proper subfields.
Elements are coefficient tuples over Z/p.  The powers of the generator and
the discrete-log table are built eagerly (fields here stay small,
q <= 10^6), so products, inverses and powers of units are index arithmetic
mod q - 1; sums keep the coefficient path.
"""

from __future__ import annotations

import functools
import itertools

from .cyclotomic import Cyc
from .errors import (
    FailedCheck,
    InvalidOrder,
    InvalidPrimePower,
    InvalidSubfield,
    TrivialCharacter,
)
from .exactcore import is_prime, is_primitive_root, prime_factors


def _poly_mul_mod(a, b, modulus, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_rem(out, modulus, p)


def _poly_rem(a, modulus, p):
    a = list(a)
    m = len(modulus) - 1
    for i in range(len(a) - 1, m - 1, -1):
        c = a[i]
        if c:
            for j in range(m + 1):
                a[i - m + j] = (a[i - m + j] - c * modulus[j]) % p
    a = a[:m]
    while len(a) < m:
        a.append(0)
    return tuple(a)


def _poly_pow_mod(a, e, modulus, p):
    result = (1,) + (0,) * (len(modulus) - 2)
    base = _poly_rem(a, modulus, p)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, modulus, p)
        base = _poly_mul_mod(base, base, modulus, p)
        e >>= 1
    return result


@functools.lru_cache(maxsize=None)
def _conway_modulus(p: int, m: int):
    """Deterministic primitive modulus with norm-compatible subfield chain."""
    if m == 1:
        for c in range(p):
            root = (-c) % p
            if root and is_primitive_root(root, p):
                return (c, 1)
        raise FailedCheck("no primitive root found")
    subgens = {}
    for d in range(1, m):
        if m % d == 0:
            sub = _conway_modulus(p, d)
            subgens[d] = sub
    q = p ** m
    for coeffs in itertools.product(range(p), repeat=m):
        modulus = coeffs + (1,)
        if modulus[0] == 0:
            continue
        x = (0, 1) + (0,) * (m - 2)
        if not _element_is_primitive(x, modulus, p, q):
            continue
        ok = True
        for d, submod in subgens.items():
            y = _poly_pow_mod(x, (q - 1) // (p ** d - 1), modulus, p)
            # y must be a root of the degree-d modulus
            if not _poly_eval_in_field(submod, y, modulus, p):
                ok = False
                break
        if ok:
            return modulus
    raise FailedCheck("no Conway-style modulus found")


def _poly_eval_in_field(poly, y, modulus, p):
    """Is poly(y) == 0 inside GF(p)[x]/modulus?"""
    acc = (0,) * (len(modulus) - 1)
    one = (1,) + (0,) * (len(modulus) - 2)
    power = one
    for c in poly:
        if c:
            term = tuple((c * t) % p for t in power)
            acc = tuple((a + b) % p for a, b in zip(acc, term))
        power = _poly_mul_mod(power, y, modulus, p)
    return all(c == 0 for c in acc)


def _element_is_primitive(x, modulus, p, q):
    """Does x have order q - 1 in GF(p)[x]/modulus, q = p^deg?

    A unit of order q - 1 exists only when the modulus is irreducible: for
    a reducible modulus the prime-to-p part of the unit group's exponent is
    at most the product of p^deg(f) - 1 over its distinct irreducible
    factors f, which is below q - 1.  So a pass also proves the modulus
    irreducible.
    """
    one = (1,) + (0,) * (len(modulus) - 2)
    if _poly_pow_mod(x, q - 1, modulus, p) != one:
        return False
    return all(_poly_pow_mod(x, (q - 1) // r, modulus, p) != one
               for r in prime_factors(q - 1))


class FiniteField:
    """GF(p^m) with a fixed primitive generator and eager exponent/dlog tables.

    ``sign_table(e)`` keeps, per e asked for, the list k -> sgn(zeta^(k(q-1)/e)
    - 1) for k mod e, zeta the generator: None where that power is 1, and 0
    where e does not divide k (q - 1), so that the root is not in this field.
    The table belongs to the field because zeta is the field's generator; it
    has e entries and is built on first use.
    """

    MAX_ENUM = 10 ** 6

    def __init__(self, p: int, m: int = 1):
        if not is_prime(p) or p == 2:
            raise InvalidPrimePower("p must be an odd prime")
        if m < 1:
            raise InvalidPrimePower("degree must be >= 1")
        self.p = p
        self.m = m
        self.q = p ** m
        if self.q > self.MAX_ENUM:
            raise InvalidPrimePower("field too large for dlog table")
        self.modulus = _conway_modulus(p, m)
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)
        if m == 1:
            self.generator = ((-self.modulus[0]) % p,)
        else:
            self.generator = (0, 1) + (0,) * (m - 2)
        self._exp = [self.one]          # _exp[e] = generator^e, e < q - 1
        for _ in range(self.q - 2):
            self._exp.append(_poly_mul_mod(self._exp[-1], self.generator,
                                           self.modulus, p))
        self._dlog = {x: e for e, x in enumerate(self._exp)}
        if len(self._dlog) != self.q - 1:
            raise FailedCheck("generator is not primitive")
        # the trace is F_p-linear: keep tr(x^i) for the basis x^i, i < m,
        # which are the first m generator powers (for m = 1 just 1)
        self._basis_traces = tuple(self.trace_to_subfield(x, p)[0]
                                   for x in self._exp[:m])
        self._sign_tables = {}

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        return isinstance(other, FiniteField) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self):
        return hash((self.p, self.m))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        if a == self.zero or b == self.zero:
            return self.zero
        return self._exp[(self._dlog[a] + self._dlog[b]) % (self.q - 1)]

    def inv(self, a):
        return self.power(a, -1)

    def power(self, a, e: int):
        if a == self.zero:
            if e < 0:
                raise ZeroDivisionError
            return self.one if e == 0 else self.zero
        return self._exp[self._dlog[a] * e % (self.q - 1)]

    def elements(self):
        yield self.zero
        yield from self._exp

    def units(self):
        """generator^e for e = 0, 1, ..., q - 2, in that order."""
        return iter(self._exp)

    def dlog(self, a) -> int:
        if a == self.zero:
            raise ZeroDivisionError("dlog of zero")
        return self._dlog[a]

    def gen_power(self, e: int):
        return self._exp[e % (self.q - 1)]

    def sgn(self, a) -> int:
        """Quadratic character of the unit a: +1 square, -1 nonsquare."""
        return -1 if self.dlog(a) % 2 else 1

    def sign_table(self, e: int) -> list:
        """sgn(zeta^(k(q-1)/e) - 1) for k = 0, ..., e - 1, zeta the generator.

        The entry is None where that power is 1, and 0 where k (q - 1)/e is
        not an integer (the e-th root of unity is not in this field).  Built
        once per e and kept.
        """
        table = self._sign_tables.get(e)
        if table is None:
            card = self.q - 1
            table = []
            for k in range(e):
                step, rest = divmod(k * card, e)
                x = self._exp[step % card]
                table.append(0 if rest else None if x == self.one
                             else self.sgn(self.sub(x, self.one)))
            self._sign_tables[e] = table
        return table

    # -- subfield structure ------------------------------------------------

    def trace_to_subfield(self, a, qsub: int):
        """tr over the subfield of size qsub; result stays in this field."""
        d = self._subfield_degree(qsub)
        out = self.zero
        x = a
        for _ in range(d):
            out = self.add(out, x)
            x = self.power(x, qsub)
        return out

    def _subfield_degree(self, qsub: int) -> int:
        d = 0
        qq = 1
        while qq < self.q:
            qq *= qsub
            d += 1
        if qq != self.q:
            raise InvalidSubfield("not a subfield size")
        return d

    def absolute_trace(self, a):
        """Trace down to the prime field, as an integer mod p."""
        return sum(c * t for c, t in zip(a, self._basis_traces)) % self.p


@functools.lru_cache(maxsize=None)
def finite_field(p: int, m: int = 1) -> FiniteField:
    """The one shared GF(p^m): fields compare by (p, m) and are never mutated."""
    return FiniteField(p, m)


def additive_character(field: FiniteField, scale: int = 1):
    """Lambda0(x) = zeta_p^(scale * tr(x)); nontrivial iff p does not divide scale."""
    if scale % field.p == 0:
        raise TrivialCharacter("additive character scale divisible by p")

    def chi(a) -> Cyc:
        return Cyc.zeta(field.p, scale * field.absolute_trace(a))

    return chi


class MultCharacter:
    """x -> zeta_N^(e * dlog x) on the units of a finite field."""

    def __init__(self, field: FiniteField, order: int, power: int = 1):
        if order < 1 or (field.q - 1) % order:
            raise InvalidOrder(f"order {order} does not divide q-1 = {field.q - 1}")
        self.field = field
        self.order = order
        self.power = power % order if order > 1 else 0

    def __call__(self, a) -> Cyc:
        e = self.field.dlog(a)
        return Cyc.zeta(self.order, self.power * e) if self.order > 1 else Cyc.rational(1)

    def is_trivial(self) -> bool:
        return self.order == 1 or self.power % self.order == 0

    def gauss_sum(self) -> Cyc:
        """g(psi) = sum over the units x of psi(x) zeta_p^tr(x), exactly.

        With n = order * p (order divides q - 1, so it is prime to p) each
        term is zeta_n^(power * dlog(x) * p + tr(x) * order): the sum is one
        histogram of those exponents mod n and one Cyc.
        """
        f = self.field
        n = self.order * f.p
        counts = [0] * n
        for e, x in enumerate(f.units()):
            counts[(self.power * e % self.order * f.p
                    + f.absolute_trace(x) * self.order) % n] += 1
        return Cyc.from_root_multiplicities(n, counts)


def mult_character(field: FiniteField, order: int) -> MultCharacter:
    """The canonical character of exact order ``order`` (quadratic = sgn)."""
    return MultCharacter(field, order, 1)


class GaussSumResult:
    __slots__ = ("sum", "normalized_square", "alternate_agrees")

    def __init__(self, s: Cyc, normalized_square: int, alternate_agrees: bool):
        self.sum = s
        self.normalized_square = normalized_square
        self.alternate_agrees = alternate_agrees


@functools.lru_cache(maxsize=None)
def gauss_sum(ell: FiniteField) -> GaussSumResult:
    """Unnormalized quadratic Gauss sum g = sum sgn(x) Lambda0(tr x).

    Lambda0 = zeta_p^tr depends on x only through tr(x), so g and the
    alternate expression are summed as one count per trace value.  Returns g
    together with the verified payload: g * conj(g) = q exactly (so q^{-1/2} g
    has absolute value 1), and the alternate expression
    sum_x Lambda0(tr(x^2)) agrees with g.  Kept once per field, as
    ``finite_field`` keeps the field: fields compare by (p, m).
    """
    p = ell.p
    signed = [0] * p             # sum of sgn(x) over the units of trace t
    squares = [0] * p            # number of x with tr(x^2) = t
    squares[0] = 1               # x = 0
    for x in ell.units():
        signed[ell.absolute_trace(x)] += ell.sgn(x)
        squares[ell.absolute_trace(ell.mul(x, x))] += 1
    g = Cyc.from_root_multiplicities(p, signed)
    g2 = Cyc.from_root_multiplicities(p, squares)
    gg = g.norm_square()
    if not (gg.is_rational() and gg.rational_value() == ell.q):
        raise FailedCheck("Gauss sum modulus check failed")
    return GaussSumResult(g, ell.q, (g == g2))


def normalized_gauss_value(ell: FiniteField) -> Cyc:
    """The root of unity or quartic unit G with g = G * sqrt(q).

    Exact: determined by testing g^2 = q (G = ±1) or g^2 = -q (G = ±i)
    and comparing g against the explicit candidate times sqrt(q), which is
    itself expressed exactly via the prime-field Gauss sum.
    """
    g = gauss_sum(ell).sum
    gsq = (g * g)
    if not gsq.is_rational():
        raise FailedCheck("unexpected Gauss sum square")
    val = gsq.rational_value()
    # sqrt(q) as an exact cyclotomic: q = p^m, sqrt(q) = p^(m//2) * sqrt(p)^(m%2)
    p, m = ell.p, ell.m
    root = Cyc.rational(p ** (m // 2))
    if m % 2:
        gp = gauss_sum(finite_field(p)).sum
        # Gauss: gp = sqrt(p) if p=1 mod 4, i*sqrt(p) if p=3 mod 4
        sqrtp = gp if p % 4 == 1 else gp * Cyc.zeta(4, 3)
        root = root * sqrtp
    for cand in (Cyc.rational(1), Cyc.rational(-1), Cyc.zeta(4, 1), Cyc.zeta(4, 3)):
        if (cand * cand).is_rational():
            s = (cand * cand).rational_value() * ell.q
            if s == val and g == cand * root:
                return cand
    raise FailedCheck("normalized Gauss value not identified")
