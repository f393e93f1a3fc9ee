"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored as rational coefficient vectors on the power basis
1, z, ..., z^(phi(N)-1), reduced modulo the N-th cyclotomic polynomial.
Mixed-conductor arithmetic promotes both operands to the lcm.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .exactcore import gauss_jordan, prime_factors


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
            raise ArithmeticError("non-exact division")
        q = c // den[-1]
        out[i] = q
        if q:
            for j, dj in enumerate(den):
                num[i + j] -= q * dj
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-zero remainder")
    return out


@functools.lru_cache(maxsize=None)
def _reduction_rows(n: int):
    """z^k for k in [phi(n), n) on the power basis, as integer tuples.

    Phi_n is monic with integer coefficients, so every row is integral.
    """
    phi = len(cyclotomic_polynomial(n)) - 1
    rows = {}
    # z^phi = -(lower coefficients of Phi_n)
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


class Cyc:
    """An exact element of Q(zeta_N)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        phi, _ = _reduction_rows(n) if n > 1 else (1, None)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) != phi:
            raise ValueError("coefficient vector has wrong length")
        self.n = n
        self.coeffs = tuple(cs)

    @staticmethod
    def rational(x) -> "Cyc":
        return Cyc(1, [Fraction(x)])

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyc":
        """zeta_n^k."""
        if n < 1:
            raise ValueError("conductor must be positive")
        k %= n
        if n == 1:
            return Cyc(1, [1])
        return Cyc(n, _monomial(n, k))

    @staticmethod
    def from_qz(x: Fraction) -> "Cyc":
        """e^{2 pi i x} for x in Q/Z."""
        x = Fraction(x) % 1
        return Cyc.zeta(x.denominator, x.numerator)

    @staticmethod
    def from_root_multiplicities(n: int, coeffs) -> "Cyc":
        """sum of coeffs[s] * zeta_n^s, built in one reduction pass.

        The coefficients are folded mod n and the polynomial is divided by
        Phi_n from the top down, touching only the non-zero coefficients of
        Phi_n; integer coefficients stay integers until the one Cyc.
        """
        acc = [0] * n
        for s, c in enumerate(coeffs):
            if c:
                acc[s % n] += c
        if n == 1:
            return Cyc.rational(acc[0])
        phi, low = _division_terms(n)
        for k in range(n - 1, phi - 1, -1):
            c = acc[k]
            if c:
                base = k - phi
                for j, pj in low:
                    acc[base + j] -= c * pj
        return Cyc(n, acc[:phi])

    def promote(self, m: int) -> "Cyc":
        """Rewrite in Q(zeta_m); requires n | m."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError("can only promote to a multiple conductor")
        step = m // self.n
        acc = _zero_vec(m)
        for k, c in enumerate(self.coeffs):
            if c:
                mono = _monomial(m, (k * step) % m)
                acc = [a + c * b for a, b in zip(acc, mono)]
        return Cyc(m, acc)

    def _pair(self, other):
        other = other if isinstance(other, Cyc) else Cyc.rational(other)
        m = math.lcm(self.n, other.n)
        return self.promote(m), other.promote(m)

    def __add__(self, other):
        a, b = self._pair(other)
        return Cyc(a.n, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.n, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-(other if isinstance(other, Cyc) else Cyc.rational(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Cyc):
            return Cyc(self.n, [c * Fraction(other) for c in self.coeffs])
        a, b = self._pair(other)
        n = a.n
        if n == 1:
            return Cyc(1, [a.coeffs[0] * b.coeffs[0]])
        phi, _ = _reduction_rows(n)
        raw = [Fraction(0)] * (2 * phi - 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    raw[i + j] += x * y
        acc = list(raw[:phi])
        for k in range(phi, len(raw)):
            c = raw[k]
            if c:
                row = _monomial(n, k)
                acc = [u + c * v for u, v in zip(acc, row)]
        return Cyc(n, acc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Cyc):
            if not other.is_rational():
                raise ValueError("division only by rationals")
            other = other.rational_value()
        return Cyc(self.n, [c / Fraction(other) for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, Cyc):
            other = Cyc.rational(other)
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        red = self.reduce()
        return hash((red.n, red.coeffs))

    def __repr__(self):
        return f"Cyc({self.n}, {[str(c) for c in self.coeffs]})"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not rational")
        return self.coeffs[0]

    def galois(self, a: int) -> "Cyc":
        """Apply zeta -> zeta^a; a must be prime to the conductor."""
        if math.gcd(a % self.n if self.n > 1 else 1, self.n) != 1:
            raise ValueError("galois exponent not coprime to conductor")
        if self.n == 1:
            return self
        acc = _zero_vec(self.n)
        for k, c in enumerate(self.coeffs):
            if c:
                mono = _monomial(self.n, (k * a) % self.n)
                acc = [x + c * y for x, y in zip(acc, mono)]
        return Cyc(self.n, acc)

    def conj(self) -> "Cyc":
        """Complex conjugation, zeta -> zeta^{-1}."""
        return self.galois(self.n - 1 if self.n > 1 else 1)

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
                m = cur.n // p
                down = cur._try_descend(m)
                if down is not None:
                    cur = down
                    changed = True
                    break
        return cur

    def _try_descend(self, m: int):
        """Representative in Q(zeta_m) if self lies there, else None."""
        if self.n % m:
            return None
        phi_m, _ = _reduction_rows(m) if m > 1 else (1, None)
        # solve: candidate in Q(zeta_m) whose promotion equals self
        # brute force via linear algebra on the promotion images of the basis
        cols = []
        for k in range(phi_m):
            e = Cyc(m, _basis_row(phi_m, k)) if m > 1 else Cyc.rational(1)
            cols.append(e.promote(self.n).coeffs)
        # Gaussian solve cols * x = self.coeffs
        a, pivots, _ = gauss_jordan(
            [[cols[j][i] for j in range(phi_m)] + [self.coeffs[i]]
             for i in range(len(self.coeffs))], phi_m)
        if any(row[phi_m] != 0 for row in a[len(pivots):]):
            return None
        sol = [Fraction(0)] * phi_m
        for row, c in zip(a, pivots):
            sol[c] = row[phi_m]
        cand = Cyc(m, sol)
        if cand.promote(self.n).coeffs == self.coeffs:
            return cand
        return None


def _zero_vec(n):
    phi, _ = _reduction_rows(n) if n > 1 else (1, None)
    return [0] * phi


def _basis_row(phi, k):
    return tuple(int(i == k) for i in range(phi))


@functools.lru_cache(maxsize=None)
def _division_terms(n: int):
    """phi(n) and the non-zero (j, c) of Phi_n below its leading term."""
    poly = cyclotomic_polynomial(n)
    phi = len(poly) - 1
    return phi, tuple((j, c) for j, c in enumerate(poly[:phi]) if c)


@functools.lru_cache(maxsize=None)
def _monomial(n: int, k: int):
    """z^k reduced on the power basis of Q(zeta_n)."""
    phi, rows = _reduction_rows(n)
    k %= n
    if k < phi:
        return _basis_row(phi, k)
    return rows[k]


def cyc_sum(terms) -> Cyc:
    acc = Cyc.rational(0)
    for t in terms:
        acc = acc + t
    return acc
