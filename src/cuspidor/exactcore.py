"""Exact integer/rational lattice arithmetic.

Everything here is immutable and pure: integer number theory (prime
factors, primality, prime powers, multiplicative orders, primitive roots),
integer matrices, Gauss–Jordan elimination over Q, Smith normal form,
coordinates on a lattice basis, subgroups ker m of (Q/Z)^n cut out by
integer matrices m, with the maps a matrix induces on them and m's Smith
form to solve m·x ≡ c over Q/Z, coinvariants, and linear congruences mod
n.  This is the substrate for every lattice quotient in the package; gcd,
lcm and isqrt come from ``math``.

Lattice-basis coordinates: a lattice is a matrix S whose rows are basis
vectors of a subspace of an ambient space; the coordinates of an ambient
vector y are (S^T)^{-1} y (a left inverse when S has fewer rows than
columns), and an ambient endomorphism M acts on coordinates by
(S^T)^{-1} M S^T.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import InvalidAction, InvalidPrimePower


def prime_factors(n: int):
    """The distinct primes dividing n, ascending (empty for n < 2)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


def prime_power(q: int):
    """(p, m) with q = p^m, p prime and m >= 1; raises InvalidPrimePower."""
    primes = prime_factors(q) if q >= 2 else []
    if len(primes) != 1:
        raise InvalidPrimePower("q must be a prime power")
    p, m = primes[0], 0
    while q > 1:
        q //= p
        m += 1
    return p, m


def mult_order(a: int, n: int) -> int:
    """The least k >= 1 with a^k = 1 mod n; a must be a unit mod n >= 1."""
    if n < 1 or math.gcd(a, n) != 1:
        raise ValueError("a must be a unit modulo n >= 1")
    one = 1 % n
    k, x = 1, a % n
    while x != one:
        x = x * a % n
        k += 1
    return k


def is_primitive_root(g: int, p: int) -> bool:
    """Does g generate (Z/p)^x, p prime?  One power per prime r | p - 1.

    g has order p - 1 exactly when g^((p-1)/r) != 1 for each such r, so
    this costs O(log p) per prime factor where ``mult_order`` is O(p).
    """
    return g % p != 0 and all(pow(g, (p - 1) // r, p) != 1
                              for r in prime_factors(p - 1))


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def gauss_jordan(rows, ncols: int):
    """Reduced row echelon form over Q of ``rows`` in its first ``ncols`` columns.

    Each column pivots on its first non-zero entry at or below the current
    row; columns with none are skipped.  Columns past ``ncols`` (an
    augmented right-hand side) are carried along.  Returns the reduced rows
    as Fractions, the pivot columns in order, and the determinant factor:
    (-1)^swaps times the product of the pivots, which is the determinant of
    a square matrix of full rank.
    """
    a = [[_frac(x) for x in row] for row in rows]
    pivots = []
    factor = Fraction(1)
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            factor = -factor
        factor *= a[r][c]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots, factor


class Mat:
    """Immutable exact matrix (int or Fraction entries)."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix")

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(n: int, m: int) -> "Mat":
        return Mat([[0] * m for _ in range(n)])

    def __eq__(self, other):
        return isinstance(other, Mat) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Mat({list(map(list, self.rows))})"

    def __add__(self, other: "Mat") -> "Mat":
        return Mat([[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        return Mat([[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __neg__(self) -> "Mat":
        return Mat([[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            cols = list(zip(*other.rows))
            return Mat([[sum(a * b for a, b in zip(row, col)) for col in cols]
                        for row in self.rows])
        return Mat([[a * other for a in r] for r in self.rows])

    def __rmul__(self, scalar):
        return Mat([[scalar * a for a in r] for r in self.rows])

    def __pow__(self, k: int) -> "Mat":
        if self.nrows != self.ncols:
            raise ValueError("square matrices only")
        if k < 0:
            return self.inverse() ** (-k)
        out = Mat.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def commutes_with(self, other: "Mat") -> bool:
        """self·other == other·self, for square matrices of one size."""
        a_cols, b_cols = list(zip(*self.rows)), list(zip(*other.rows))
        return all(sum(x * y for x, y in zip(a_row, b_col))
                   == sum(x * y for x, y in zip(b_row, a_col))
                   for a_row, b_row in zip(self.rows, other.rows)
                   for b_col, a_col in zip(b_cols, a_cols))

    def transpose(self) -> "Mat":
        return Mat(list(zip(*self.rows))) if self.rows else Mat([])

    def apply(self, vec):
        """Matrix times column vector (sequence), returned as a tuple."""
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        return tuple(sum(a * v for a, v in zip(row, vec)) for row in self.rows)

    def is_integral(self) -> bool:
        return all(_frac(a).denominator == 1 for r in self.rows for a in r)

    def to_int(self) -> "Mat":
        return Mat([[int(a) for a in r] for r in self.rows])

    def det(self):
        """Exact determinant (int for an integer matrix)."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("square matrices only")
        _, pivots, det = gauss_jordan(self.rows, n)
        if len(pivots) < n:
            return Fraction(0) if any(isinstance(x, Fraction) for r in self.rows for x in r) else 0
        if det.denominator == 1 and self.is_integral():
            return int(det)
        return det

    def inverse(self) -> "Mat":
        """Exact inverse (entries become Fractions unless they happen integral)."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("square matrices only")
        a, pivots, _ = gauss_jordan(
            [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.rows)], n)
        if len(pivots) < n:
            raise ValueError("singular matrix")
        out = [row[n:] for row in a]
        if all(x.denominator == 1 for r in out for x in r):
            out = [[int(x) for x in r] for r in out]
        return Mat(out)

    def stack(self, other: "Mat") -> "Mat":
        if self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        return Mat(self.rows + other.rows)


def clear_denominators(m: Mat):
    """(den·m, den) for den the lcm of the denominators of m's entries."""
    den = math.lcm(*(x.denominator for row in m.rows for x in row))
    return Mat([[x.numerator * (den // x.denominator) for x in row]
                for row in m.rows]), den


def smith_normal_form(m: Mat):
    """Return (U, D, V) with U*m*V = D diagonal, U and V unimodular.

    Pivot strategy: minimal absolute value, ties broken by lowest row then
    lowest column, so the output is deterministic for a fixed input.
    """
    if not m.is_integral():
        raise ValueError("SNF needs an integer matrix")
    nr, nc = m.nrows, m.ncols
    a = [[int(x) for x in row] for row in m.rows]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, q):
        for row in a:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    t = 0
    while t < min(nr, nc):
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x and (pivot is None or abs(x) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot != (t, t):
            if pivot[0] != t:
                swap_rows(t, pivot[0])
            if pivot[1] != t:
                swap_cols(t, pivot[1])
        while True:
            # clear the pivot column
            moved = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    addmul_row(i, t, q)
                    if a[i][t]:
                        swap_rows(t, i)
                        moved = True
            if moved:
                continue
            # clear the pivot row
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    addmul_col(j, t, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        moved = True
            if moved:
                continue
            # divisibility fix-up for the remaining block
            bad = None
            d = a[t][t]
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % d:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            addmul_row(t, bad, -1)
        t += 1
    for i in range(min(nr, nc)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return Mat(u), Mat(a), Mat(v)


def lattice_solver(basis_rows: Mat) -> Mat:
    """Left inverse of basis_rows^T (Gram pseudo-inverse for k < n)."""
    if basis_rows.nrows == basis_rows.ncols:
        return basis_rows.transpose().inverse()
    return (basis_rows * basis_rows.transpose()).inverse() * basis_rows


def coords_of(basis_rows: Mat, ambient, solver: Mat = None):
    """Coordinates of an ambient vector on the given lattice basis.

    ``solver`` is ``lattice_solver(basis_rows)`` when the caller keeps it.
    """
    if solver is None:
        solver = lattice_solver(basis_rows)
    coords = solver.apply(ambient)
    back = basis_rows.transpose().apply(coords)
    if [Fraction(x) for x in back] != [Fraction(x) for x in ambient]:
        raise ValueError("vector outside the span of the lattice")
    return coords


def coord_matrix(basis_rows: Mat, vstar_mat: Mat, solver: Mat = None) -> Mat:
    """An ambient endomorphism in the coordinates of the given lattice basis."""
    if solver is None:
        solver = lattice_solver(basis_rows)
    out = solver * vstar_mat * basis_rows.transpose()
    # the span must be preserved, not just hit compatibly
    back = basis_rows.transpose() * out
    if back != vstar_mat * basis_rows.transpose():
        raise ValueError("endomorphism does not preserve the span")
    if not out.is_integral():
        raise ValueError("endomorphism does not preserve the lattice")
    return out.to_int()


def coord_convert(from_rows: Mat, to_rows: Mat) -> Mat:
    """The integer matrix taking coordinates on from_rows to those on to_rows.

    Raises ValueError unless the first lattice lies in the second.
    """
    out = lattice_solver(to_rows) * from_rows.transpose()
    back = to_rows.transpose() * out
    if back != from_rows.transpose():
        raise ValueError("source lattice outside the span of the target")
    if not out.is_integral():
        raise ValueError("source lattice not contained in the target")
    return out.to_int()


class QV:
    """Vector over Q/Z: exact rationals, each reduced to [0, 1).

    The hash is that of ``coords``, computed on first use and kept, so a
    vector used again as a dict key hashes its Fractions once.
    """

    __slots__ = ("coords", "_hash")

    def __init__(self, coords):
        self.coords = tuple(_frac(c) % 1 for c in coords)
        self._hash = None

    @staticmethod
    def zero(n: int) -> "QV":
        return QV([0] * n)

    @property
    def rank(self) -> int:
        return len(self.coords)

    def __eq__(self, other):
        return isinstance(other, QV) and self.coords == other.coords

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self.coords)
        return h

    def __repr__(self):
        return "QV(%s)" % (", ".join(str(c) for c in self.coords))

    def __add__(self, other: "QV") -> "QV":
        return QV([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "QV") -> "QV":
        return QV([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "QV":
        return QV([-a for a in self.coords])

    def __rmul__(self, k) -> "QV":
        return QV([k * a for a in self.coords])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def order(self) -> int:
        return math.lcm(*(c.denominator for c in self.coords))

    def act(self, m: Mat) -> "QV":
        return QV(m.apply(self.coords))


class FinAb:
    """Finite abelian group with a concrete realization in (Q/Z)^n.

    ``factors`` is a cyclic decomposition (each >= 2); SNF-produced groups
    carry the divisibility chain d_1 | d_2 | ... and ``invariant_factors``
    recovers that normal form in general.  ``gens[i]`` is a QV of exact
    order ``factors[i]`` and the group is the internal direct sum of the
    cyclic subgroups they generate.  Elements are coordinate tuples
    (a_i mod d_i); ``project`` maps an ambient QV back to coordinates and
    raises if the vector is not in the group.  A group that ``qz_kernel``
    built as ker m keeps m's Smith form, and ``solve`` solves m·x ≡ c.
    """

    __slots__ = ("factors", "gens", "ambient", "_vinv", "_dfull", "_u", "_v")

    def __init__(self, factors, gens, vinv=None, dfull=None, ambient=None,
                 u=None, v=None):
        self.factors = tuple(int(d) for d in factors)
        self.gens = tuple(gens)
        if ambient is None:
            ambient = self.gens[0].rank if self.gens else 0
        self.ambient = ambient
        self._vinv = vinv      # Mat mapping ambient coords to SNF coords
        self._dfull = dfull    # full diagonal, aligned with vinv rows
        self._u = u            # U and V with U m V = D, when built from m
        self._v = v
        for d in self.factors:
            if d < 2:
                raise ValueError("cyclic factors must be >= 2")

    @staticmethod
    def abstract(factors) -> "FinAb":
        """The standard copy of ⊕ Z/d_i inside (Q/Z)^k."""
        factors = [int(d) for d in factors if int(d) > 1]
        k = len(factors)
        gens = [QV([Fraction(1, d) if i == j else 0 for i in range(k)])
                for j, d in enumerate(factors)]
        vinv = Mat.identity(k)
        return FinAb(factors, gens, vinv, list(factors))

    @property
    def order(self) -> int:
        out = 1
        for d in self.factors:
            out *= d
        return out

    @property
    def exponent(self) -> int:
        return math.lcm(*self.factors)

    @property
    def invariant_factors(self):
        """The divisibility-chain normal form of the cyclic decomposition."""
        if not self.factors:
            return ()
        rel = Mat([[self.factors[i] if i == j else 0
                    for i in range(len(self.factors))]
                   for j in range(len(self.factors))])
        _, d, _ = smith_normal_form(rel)
        out = [int(d.rows[i][i]) for i in range(len(self.factors))
               if int(d.rows[i][i]) > 1]
        return tuple(out)

    def __repr__(self):
        if not self.factors:
            return "FinAb(trivial)"
        return "FinAb(%s)" % " x ".join(f"Z/{d}" for d in self.factors)

    @property
    def zero(self):
        return (0,) * len(self.factors)

    def add(self, x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, self.factors))

    def neg(self, x):
        return tuple((-a) % d for a, d in zip(x, self.factors))

    def smul(self, k, x):
        return tuple((k * a) % d for a, d in zip(x, self.factors))

    def elements(self):
        return itertools.product(*(range(d) for d in self.factors))

    def standard_basis(self):
        """The coordinate tuples e_j, one per cyclic factor."""
        k = len(self.factors)
        return [tuple(int(i == j) for i in range(k)) for j in range(k)]

    def lift(self, coords) -> QV:
        v = QV.zero(self.ambient)
        for a, g in zip(coords, self.gens):
            v = v + (a * g)
        return v

    def project(self, vec: QV):
        """Normal-form coordinates of an ambient vector lying in the group."""
        if self._vinv is None:
            raise ValueError("group carries no projection data")
        if len(vec.coords) != self._vinv.ncols:
            raise ValueError("shape mismatch")
        # vec = nums / den on integers; the SNF coordinate y_i = (vinv nums)_i
        # / den lies in the group iff d_i y_i is an integer
        den = math.lcm(*(c.denominator for c in vec.coords))
        nums = [c.numerator * (den // c.denominator) for c in vec.coords]
        coords = []
        for d, row in zip(self._dfull, self._vinv.rows):
            val, rest = divmod(sum(a * x for a, x in zip(row, nums)) * d, den)
            if rest:
                raise ValueError("vector is not in the group")
            if d > 1:
                coords.append(val % d)
        # columns beyond len(_dfull) (free directions) must be absent here
        if len(coords) != len(self.factors):
            raise ValueError("projection data inconsistent")
        return tuple(coords)

    def contains(self, vec: QV) -> bool:
        try:
            self.project(vec)
            return True
        except ValueError:
            return False

    def solve(self, c: QV):
        """One x with m·x ≡ c mod Z for the m this group is ker of, or None.

        With U m V = D, y = V^{-1} x solves d_i y_i ≡ (U c)_i; a row with a
        zero or missing d_i must vanish (Cohen, GTM 138, §2.4).
        """
        if self._u is None:
            raise ValueError("group carries no system to solve")
        if len(c.coords) != self._u.ncols:
            raise ValueError("shape mismatch")
        den = math.lcm(*(t.denominator for t in c.coords))
        nums = [t.numerator * (den // t.denominator) for t in c.coords]
        y = [0] * self._v.nrows
        for i, r in enumerate(self._u.apply(nums)):
            d = self._dfull[i] if i < len(y) else 0
            if d:
                y[i] = Fraction(r % den, den * d)
            elif r % den:
                return None
        return QV(self._v.apply(y))

    def characters(self):
        """All characters as coordinate tuples x; pair with char_value."""
        return self.elements()

    def char_value(self, x, a) -> Fraction:
        """Value in Q/Z of the character indexed by x at the element a."""
        e = self.exponent
        return Fraction(sum(xi * ai * (e // d) for xi, ai, d
                            in zip(x, a, self.factors)) % e, e)

    def hom_matrix_ok(self, m: Mat) -> bool:
        """Does the integer matrix define an endomorphism in coordinates?"""
        k = len(self.factors)
        if m.nrows != k or m.ncols != k:
            return False
        for j, dj in enumerate(self.factors):
            for i, di in enumerate(self.factors):
                if (dj * m.rows[i][j]) % di:
                    return False
        return True

    def is_automorphism(self, m: Mat) -> bool:
        """Endomorphism test plus exact surjectivity via SNF."""
        if not self.hom_matrix_ok(m):
            return False
        k = len(self.factors)
        rel = Mat([list(m.transpose().rows[j]) for j in range(k)] +
                  [[self.factors[i] if i == j else 0 for i in range(k)] for j in range(k)])
        _, d, _ = smith_normal_form(rel)
        prod = 1
        for i in range(min(d.nrows, d.ncols)):
            prod *= d.rows[i][i]
        return abs(prod) == 1

    def apply_matrix(self, m: Mat, x):
        return tuple(int(c) % d for c, d in zip(m.apply(x), self.factors))

    def induced(self, m: Mat) -> Mat:
        """The matrix on the group's coordinates of an ambient m mapping it to itself."""
        return Mat(zip(*(self.project(g.act(m)) for g in self.gens)))


class RankReport:
    """Degenerate kernel: positive-dimensional fixed locus.

    ``free_rank`` counts independent (Q/Z)-divisible directions; ``torsion``
    is the finite complement in the chosen SNF splitting.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: FinAb):
        self.free_rank = free_rank
        self.torsion = torsion

    def __repr__(self):
        return f"RankReport(free_rank={self.free_rank}, torsion={self.torsion})"


def qz_kernel(m: Mat):
    """Subgroup {v in (Q/Z)^n : m·v ≡ 0 mod Z} for an integer matrix m.

    Returns a FinAb when the kernel is finite, else a RankReport; either
    way the FinAb keeps m's Smith form, and its ``solve`` solves m·x ≡ c.
    """
    u, d, v = smith_normal_form(m)
    n = m.ncols
    vinv = v.inverse()
    diag = [int(d.rows[i][i]) if i < d.nrows else 0 for i in range(n)]
    gens, factors = [], []
    free = 0
    for j, dj in enumerate(diag):
        if dj == 0:
            free += 1
        elif dj > 1:
            col = [Fraction(v.rows[i][j], dj) for i in range(n)]
            gens.append(QV(col))
            factors.append(dj)
    grp = FinAb(factors, gens, vinv, diag, ambient=n, u=u, v=v)
    if free:
        return RankReport(free, grp)
    return grp


def twisted_fixed_points(f: Mat):
    """Fixed points of the endomorphism f on (Q/Z)^n, i.e. ker(f - 1)."""
    return qz_kernel(f - Mat.identity(f.nrows))


def simultaneous_fixed_points(mats):
    """ker of all (m - 1) at once, via the stacked matrix."""
    mats = list(mats)
    n = mats[0].nrows
    stacked = mats[0] - Mat.identity(n)
    for m in mats[1:]:
        stacked = stacked.stack(m - Mat.identity(n))
    return qz_kernel(stacked)


class Quotient:
    """A quotient of a FinAb by listed elements, with coordinate projection."""

    __slots__ = ("group", "_v", "_diag", "_nsrc")

    def __init__(self, group: FinAb, v: Mat, diag, nsrc: int):
        self.group = group
        self._v = v
        self._diag = diag
        self._nsrc = nsrc

    def project(self, coords):
        """Map source-group coordinates to quotient coordinates."""
        if len(coords) != self._nsrc:
            raise ValueError("bad coordinate length")
        row = [int(c) for c in coords]
        y = [sum(row[i] * self._v.rows[i][j] for i in range(self._nsrc))
             for j in range(self._nsrc)]
        out = []
        for dj, yj in zip(self._diag, y):
            if dj > 1:
                out.append(yj % dj)
        return tuple(out)


def quotient_by(group: FinAb, elements) -> Quotient:
    """Quotient of ``group`` by the subgroup generated by coordinate tuples."""
    k = len(group.factors)
    rel_rows = [[group.factors[i] if i == j else 0 for j in range(k)] for i in range(k)]
    for e in elements:
        rel_rows.append([int(c) for c in e])
    if k == 0:
        return Quotient(FinAb.abstract([]), Mat.identity(0), [], 0)
    _, d, v = smith_normal_form(Mat(rel_rows))
    diag = [int(d.rows[i][i]) if i < min(d.nrows, d.ncols) else 0 for i in range(k)]
    factors = [dj for dj in diag if dj > 1]
    return Quotient(FinAb.abstract(factors), v, diag, k)


def coinvariants(group: FinAb, actions):
    """Quotient of ``group`` by all (sigma - 1)·a, sigma in ``actions``.

    Each action is an integer matrix in normal-form coordinates and must be
    an automorphism of the group.
    """
    k = len(group.factors)
    elems = []
    for m in actions:
        if not group.is_automorphism(m):
            raise InvalidAction(f"matrix {m!r} is not an automorphism of {group!r}")
        delta = m - Mat.identity(k)
        elems += [group.apply_matrix(delta, e) for e in group.standard_basis()]
    return quotient_by(group, elems)


def solve_mod(a: Mat, b, n: int):
    """An integer x with a·x ≡ b (mod n >= 1), or None (Cohen, GTM 138, §2.4).

    a·x + n·y = b over Z; with U [a | nI] V = D it reads d_i z_i = (U b)_i,
    and the nI block makes every d_i nonzero.
    """
    big = Mat([list(r) + [n * (i == j) for j in range(a.nrows)]
               for i, r in enumerate(a.rows)])
    u, d, v = smith_normal_form(big)
    z = [0] * big.ncols
    for i, r in enumerate(u.apply(b)):
        z[i], rem = divmod(r, d.rows[i][i])
        if rem:
            return None
    return list(v.apply(z)[:a.ncols])


def generating_words(elements, mul, identity):
    """(gens, word): greedy generators from ``elements`` (each one not yet
    reached by the earlier ones) and a word in Z^k for each element that
    right multiplication reaches from ``identity``: all of them, if it is a
    left identity, each then a product of ``identity`` and ``gens``.
    """
    gens, word = [], {identity: ()}
    for g in elements:
        if g in word:
            continue
        gens.append(g)
        frontier = list(word)
        while frontier:
            nxt = []
            for x in frontier:
                wx = word[x]
                for i, h in enumerate(gens):
                    y = mul(x, h)
                    if y not in word:
                        w = list(wx) + [0] * (len(gens) - len(wx))
                        w[i] += 1
                        word[y] = tuple(w)
                        nxt.append(y)
            frontier = nxt
    k = len(gens)
    return gens, {x: w + (0,) * (k - len(w)) for x, w in word.items()}


def abelian_basis(elements, mul, identity):
    """The SNF presentation of the finite group on ``elements`` under ``mul``.

    ``generating_words`` writes every element x as a word w(x) in Z^k in
    greedy generators g_i, and the Schreier relations
    w(x) + e_i - w(x g_i) span the relation lattice of the abelianization
    (Cohen, GTM 138, §2.4).  Its Smith normal form U R V = D gives the
    invariant factors d_1 | d_2 | ... (those > 1, ascending) and
    coords[x] = w(x)·V mod d_j, a homomorphism onto ⊕ Z/d_j that is a
    bijection exactly when the group is abelian.  Returns
    (factors, basis, coords) with coords[basis[j]] = e_j.
    """
    elems = list(elements)
    gens, word = generating_words(elems, mul, identity)
    if not gens:
        return [], [], {identity: ()}
    k = len(gens)
    rels = dict.fromkeys(
        tuple(a + (j == i) - b
              for j, (a, b) in enumerate(zip(wx, word[mul(x, g)])))
        for x, wx in word.items() for i, g in enumerate(gens))
    rels.pop((0,) * k, None)
    _, d, v = smith_normal_form(Mat(list(rels)))
    keep = [j for j in range(k) if d.rows[j][j] > 1]
    factors = [d.rows[j][j] for j in keep]
    cols = [[row[j] for row in v.rows] for j in keep]
    coords = {x: tuple(sum(a * b for a, b in zip(wx, col)) % dj
                       for col, dj in zip(cols, factors))
              for x, wx in word.items()}
    basis = [next(x for x in elems if coords[x] == e)
             for e in FinAb.abstract(factors).standard_basis()]
    return factors, basis, coords
