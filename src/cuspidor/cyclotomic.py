"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored as rational coefficient vectors on the power basis
1, z, ..., z^(phi(N)-1), reduced modulo the N-th cyclotomic polynomial.
Mixed-conductor arithmetic promotes both operands to the lcm.
"""

from __future__ import annotations

import functools
import math
import numbers
from fractions import Fraction

from .errors import FailedCheck, InvalidCyclotomic
from .exactcore import prime_factors

# One Fraction per small integer coefficient: power_basis hands every Cyc
# built from a histogram integer coordinates, mostly the same few values.
# Fractions are immutable, so sharing them is safe; the cache is bounded.
_int_fraction = functools.lru_cache(maxsize=1024)(Fraction)


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int):
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    # Phi_n = (x^n - 1) / prod_{d|n, d<n} Phi_d, by exact polynomial division.
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_polynomial(d)
            num = _polydiv_exact(num, list(den))
    return tuple(num)


def _polydiv_exact(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1]:
            raise FailedCheck("non-exact division by a cyclotomic polynomial")
        q = c // den[-1]
        out[i] = q
        if q:
            for j, dj in enumerate(den):
                num[i + j] -= q * dj
    if any(num[: len(den) - 1]):
        raise FailedCheck("non-zero remainder after division by a "
                          "cyclotomic polynomial")
    return out


@functools.lru_cache(maxsize=None)
def _division_terms(n: int):
    """phi(n) and the non-zero (j, c) of Phi_n below its leading term."""
    poly = cyclotomic_polynomial(n)
    phi = len(poly) - 1
    return phi, tuple((j, c) for j, c in enumerate(poly[:phi]) if c)


def power_basis(n: int, coeffs) -> list:
    """The phi(n) coordinates of sum_s coeffs[s] zeta_n^s on 1, z, z^2, ...

    The coefficients are folded mod n and the polynomial is divided by
    Phi_n from the top down, touching only the non-zero coefficients of
    Phi_n; integer coefficients give integer coordinates.  This is the one
    reduction mod Phi_n: every Cyc and every exponent histogram goes through
    it.
    """
    acc = [0] * n
    for s, c in enumerate(coeffs):
        if c:
            acc[s % n] += c
    phi, low = _division_terms(n)
    for k in range(n - 1, phi - 1, -1):
        c = acc[k]
        if c:
            base = k - phi
            for j, pj in low:
                acc[base + j] -= c * pj
    return acc[:phi]


class Cyc:
    """An exact element of Q(zeta_N)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        if n < 1:
            raise InvalidCyclotomic("conductor must be positive")
        cs = [_int_fraction(c) if type(c) is int else Fraction(c)
              for c in coeffs]
        if len(cs) != _division_terms(n)[0]:
            raise InvalidCyclotomic("coefficient vector has wrong length")
        self.n = n
        self.coeffs = tuple(cs)

    @staticmethod
    def rational(x) -> "Cyc":
        return Cyc(1, [Fraction(x)])

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyc":
        """zeta_n^k."""
        if n < 1:
            raise InvalidCyclotomic("conductor must be positive")
        return Cyc.from_root_multiplicities(n, [0] * (k % n) + [1])

    @staticmethod
    def from_qz(x: Fraction) -> "Cyc":
        """e^{2 pi i x} for x in Q/Z."""
        x = Fraction(x) % 1
        return Cyc.zeta(x.denominator, x.numerator)

    @staticmethod
    def from_root_multiplicities(n: int, coeffs) -> "Cyc":
        """sum of coeffs[s] * zeta_n^s, built in one reduction pass.

        Every Cyc that leaves the power basis is reduced here, by
        ``power_basis``.
        """
        return Cyc(n, power_basis(n, coeffs))

    def _substitute(self, m: int, t: int) -> "Cyc":
        """sum of coeffs[k] * zeta_m^(k t), reduced in Q(zeta_m)."""
        raw = [0] * m
        for k, c in enumerate(self.coeffs):
            raw[k * t % m] += c
        return Cyc.from_root_multiplicities(m, raw)

    def promote(self, m: int) -> "Cyc":
        """Rewrite in Q(zeta_m); requires n | m."""
        if m == self.n:
            return self
        if m % self.n:
            raise InvalidCyclotomic("can only promote to a multiple conductor")
        return self._substitute(m, m // self.n)

    @staticmethod
    def _coerce(x):
        """x as a Cyc if it is one or a rational, else NotImplemented."""
        if isinstance(x, Cyc):
            return x
        return Cyc.rational(x) if isinstance(x, numbers.Rational) \
            else NotImplemented

    def _pair(self, other):
        """Both operands in Q(zeta_lcm), or NotImplemented for a non-number."""
        other = Cyc._coerce(other)
        if other is NotImplemented:
            return other
        m = math.lcm(self.n, other.n)
        return self.promote(m), other.promote(m)

    def __add__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return pair
        a, b = pair
        return Cyc(a.n, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.n, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = Cyc._coerce(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Cyc):
            if not isinstance(other, numbers.Rational):
                return NotImplemented
            return Cyc(self.n, [c * Fraction(other) for c in self.coeffs])
        a, b = self._pair(other)
        raw = [0] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    raw[i + j] += x * y
        return Cyc.from_root_multiplicities(a.n, raw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Cyc):
            if not other.is_rational():
                raise InvalidCyclotomic("division only by rationals")
            other = other.rational_value()
        elif not isinstance(other, numbers.Rational):
            return NotImplemented
        return Cyc(self.n, [c / Fraction(other) for c in self.coeffs])

    def __eq__(self, other):
        # one conductor: the power basis is the same, compare directly
        if isinstance(other, Cyc) and other.n == self.n:
            return self.coeffs == other.coeffs
        pair = self._pair(other)
        if pair is NotImplemented:
            return pair
        a, b = pair
        return a.coeffs == b.coeffs

    def __hash__(self):
        """Equal elements hash equal, a rational one as its Fraction."""
        red = self.reduce()
        return hash(red.coeffs[0]) if red.n == 1 else hash((red.n, red.coeffs))

    def __repr__(self):
        return f"Cyc({self.n}, {[str(c) for c in self.coeffs]})"

    def to_json(self):
        """JSON form: conductor and coefficient strings of ``reduce()``."""
        r = self.reduce()
        return {"conductor": r.n, "coeffs": [str(c) for c in r.coeffs]}

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise InvalidCyclotomic("not rational")
        return self.coeffs[0]

    def galois(self, a: int) -> "Cyc":
        """Apply zeta -> zeta^a; a must be prime to the conductor."""
        if math.gcd(a, self.n) != 1:
            raise InvalidCyclotomic(
                "galois exponent not coprime to conductor")
        return self._substitute(self.n, a)

    def conj(self) -> "Cyc":
        """Complex conjugation, zeta -> zeta^{-1}."""
        return self.galois(-1)

    def norm_square(self) -> "Cyc":
        """self * conj(self)."""
        return self * self.conj()

    def reduce(self) -> "Cyc":
        """Smallest conductor representative (descends prime by prime)."""
        cur = self
        changed = True
        while changed and cur.n > 1:
            changed = False
            for p in prime_factors(cur.n):
                down = cur._descend(p)
                if down is not None:
                    cur = down
                    changed = True
                    break
        return cur

    def _descend(self, p: int):
        """Representative in Q(zeta_m), m = n/p, if self lies there, else None.

        The candidate is the average of self over Gal(Q(zeta_n)/Q(zeta_m)),
        the units a = 1 mod m; it equals self exactly when self lies in
        Q(zeta_m) (Washington, Introduction to Cyclotomic Fields, ch. 2).
        On zeta_n^s with p | s the average is zeta_n^s = zeta_m^(s/p).  For
        p not dividing s it is
        - 0 when p | m: a = 1 + jm multiplies zeta_n^s by zeta_p^(js);
        - -1/(p-1) * zeta_m^(s/p mod m) when p is prime to m: a runs over
          every unit mod p, the p-th roots of unity other than 1 sum to -1,
          and zeta_n^s = zeta_p^(s/m mod p) * zeta_m^(s/p mod m).
        """
        m = self.n // p
        raw = [0] * m
        inv = pow(p, -1, m) if m % p else None
        for s, c in enumerate(self.coeffs):
            if s % p == 0:
                raw[s // p] += c
            elif inv is not None:
                raw[s * inv % m] -= c / (p - 1)
        cand = Cyc.from_root_multiplicities(m, raw)
        return cand if cand.promote(self.n).coeffs == self.coeffs else None


def cyc_sum(terms) -> Cyc:
    acc = Cyc.rational(0)
    for t in terms:
        acc = acc + t
    return acc
