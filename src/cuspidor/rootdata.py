"""Root data for classical types, Weyl machinery, and the Tits pairing.

Conventions: vectors are columns; a Weyl element w acts on the character
space V by its matrix ``m`` and on the cocharacter space V* by the inverse
transpose.  Lattices are stored as square basis matrices (rows are basis
vectors); the cocharacter lattice is always the dual lattice under the
standard pairing.

Types B, C, D live in the usual e_i coordinates; type A lives in
fundamental-weight coordinates (simple roots are the Cartan matrix rows),
which keeps every lattice of full rank in an ambient Q^rank.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (FailedCheck, InvalidLattice, InvalidWeylElement, NotCommuting,
                     Reducible, TooLarge)
from .exactcore import (Mat, QV, clear_denominators, coord_convert, coords_of,
                        is_prime, lattice_solver, prime_factors)

CARTAN = {
    "E6": [[2, 0, -1, 0, 0, 0], [0, 2, 0, -1, 0, 0], [-1, 0, 2, -1, 0, 0],
           [0, -1, -1, 2, -1, 0], [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]],
    "E7": [[2, 0, -1, 0, 0, 0, 0], [0, 2, 0, -1, 0, 0, 0], [-1, 0, 2, -1, 0, 0, 0],
           [0, -1, -1, 2, -1, 0, 0], [0, 0, 0, -1, 2, -1, 0], [0, 0, 0, 0, -1, 2, -1],
           [0, 0, 0, 0, 0, -1, 2]],
    "E8": [[2, 0, -1, 0, 0, 0, 0, 0], [0, 2, 0, -1, 0, 0, 0, 0],
           [-1, 0, 2, -1, 0, 0, 0, 0], [0, -1, -1, 2, -1, 0, 0, 0],
           [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
           [0, 0, 0, 0, 0, -1, 2, -1], [0, 0, 0, 0, 0, 0, -1, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "G2": [[2, -1], [-3, 2]],
}

# intro table: first row = primes bad or dividing the connection index,
# second row = primes dividing |W|; classical columns are rules in n.
PAPER_TABLE = {
    "A": ("p|n+1", "p<=n+1"),
    "B": ("2", "p<=n"),
    "C": ("2", "p<=n"),
    "D": ("2", "p<=n"),
    "E6": ({2, 3}, {2, 3, 5}),
    "E7": ({2, 3}, {2, 3, 5, 7}),
    "E8": ({2, 3, 5}, {2, 3, 5, 7}),
    "F4": ({2, 3}, {2, 3}),
    "G2": ({2, 3}, {2, 3}),
}


# the largest Weyl group the package enumerates
WEYL_BOUND = 10 ** 5


def prime_support(n: int):
    return set(prime_factors(abs(n)))


class RootDatum:
    """Roots, coroots, a simple system, and a character lattice."""

    def __init__(self, label, basis, roots, coroots, simple_idx):
        self.label = label
        self.rank = len(roots[0]) if roots else basis.nrows
        self.basis = basis                      # rows span X in V
        self.roots = tuple(tuple(r) for r in roots)
        self.coroots = tuple(tuple(c) for c in coroots)
        self.simple_idx = tuple(simple_idx)
        self._coroot_of = dict(zip(self.roots, self.coroots))
        self._root_index = {r: i for i, r in enumerate(self.roots)}
        self.basis_inv = basis.inverse()
        self.xv_rows = self.basis_inv.transpose()   # rows span X^vee in V*
        # B = B_num / b and B^-1 = Binv_num / c, for cochar_coord_matrix
        self._basis_num, self._basis_den = clear_denominators(basis)
        self._inv_num, self._inv_den = clear_denominators(self.basis_inv)
        # the simple system need not span the ambient space (central torus
        # directions), so its solver may be a pseudo-inverse
        self._simple_mat = Mat([self.roots[i] for i in self.simple_idx])
        self._simple_solve = lattice_solver(self._simple_mat)
        self._weyl = None
        self._pos_set = None
        self._pos_frozen = None
        self._cochar_cache = {}
        self._inverse_cache = {}
        self._validate()

    # -- structure ----------------------------------------------------------

    def _validate(self):
        """Check the pairing; keep each root's X and its coroot's X^vee row."""
        for a, av in zip(self.roots, self.coroots):
            if sum(x * y for x, y in zip(a, av)) != 2:
                raise ValueError("pairing <a, a_vee> != 2")
        self._root_rows = self._integer_rows(
            self.xv_rows, self.roots, "root outside the character lattice")
        self._coroot_rows = self._integer_rows(
            self.basis, self.coroots, "coroot outside the cocharacter lattice")

    def _integer_rows(self, m: Mat, vectors, message):
        """{root: m v} for the vectors v listed root by root, as integers."""
        rows = [m.apply(v) for v in vectors]
        if any(c.denominator != 1 for row in rows for c in row):
            raise InvalidLattice(message)
        return {a: tuple(map(int, row)) for a, row in zip(self.roots, rows)}

    @property
    def simple_roots(self):
        return [self.roots[i] for i in self.simple_idx]

    @property
    def simple_coroots(self):
        return [self._coroot_of[self.roots[i]] for i in self.simple_idx]

    def coroot(self, root):
        return self._coroot_of[tuple(root)]

    def cartan_matrix(self) -> Mat:
        return Mat([[sum(x * y for x, y in zip(a, bv)) for bv in self.simple_coroots]
                    for a in self.simple_roots])

    def simple_coefficients(self, root):
        """Coefficients of a root on the simple system (exact rationals)."""
        return coords_of(self._simple_mat, root, self._simple_solve)

    def is_positive(self, root) -> bool:
        nonzero = [c for c in self.simple_coefficients(root) if c != 0]
        return bool(nonzero) and all(c > 0 for c in nonzero)

    def positive_roots(self):
        if self._pos_set is None:
            self._pos_set = tuple(r for r in self.roots if self.is_positive(r))
            self._pos_frozen = frozenset(self._pos_set)
        return list(self._pos_set)

    def positive_root_set(self) -> frozenset:
        self.positive_roots()
        return self._pos_frozen

    def inversion_set(self, m: Mat) -> frozenset:
        """N(m) = {a > 0 : m^-1 a < 0} for a matrix m permuting the roots.

        Computed as {-m b : b > 0, m b < 0}, applying m only: for a in N(m),
        b = -m^-1 a is positive with m b = -a < 0; conversely such a b gives
        a = -m b > 0 with m^-1 a = -b < 0.
        """
        pos = self.positive_root_set()
        images = (m.apply(b) for b in self._pos_set)
        return frozenset(tuple(-x for x in img) for img in images
                         if img not in pos)

    def reflection(self, root) -> Mat:
        """s_alpha acting on V (character side)."""
        av = self._coroot_of[tuple(root)]
        n = self.rank
        m = Mat([[Fraction(i == j) - av[j] * root[i] for j in range(n)]
                 for i in range(n)])
        return m.to_int() if m.is_integral() else m

    def weyl_group(self):
        """All Weyl elements as matrices on V, sorted by rows.

        One closure of the simple reflections on integer rows: s_a m is the
        rank-one update m - a (a_vee^T m), which touches only the rows where
        a is non-zero.  TooLarge before any enumeration when |W| (the
        product formula) exceeds WEYL_BOUND; FailedCheck when the closure's
        length is not |W|, found at the first level past |W| for data whose
        reflections generate more.  Nothing is memoized on either error.
        """
        if self._weyl is None:
            order = self.weyl_order()
            if order > WEYL_BOUND:
                raise TooLarge(f"Weyl group of {self.label} has {order} "
                               f"elements, more than {WEYL_BOUND}")
            # each simple reflection as the supports of a_vee and a
            gens = [[[(i, c) for i, c in enumerate(v) if c]
                     for v in (self._coroot_of[a], a)] for a in self.simple_roots]
            cols = range(self.rank)
            ident = Mat.identity(self.rank).rows
            seen = {ident}
            frontier = [ident]
            while frontier and len(seen) <= order:
                nxt = []
                for m in frontier:
                    for av_nz, a_nz in gens:
                        r = [sum(c * m[i][j] for i, c in av_nz) for j in cols]
                        x = list(m)
                        for i, c in a_nz:
                            x[i] = tuple(y - c * z for y, z in zip(m[i], r))
                        x = tuple(x)
                        if x not in seen:
                            seen.add(x)
                            nxt.append(x)
                frontier = nxt
            if len(seen) != order:
                raise FailedCheck(f"Weyl group of {self.label} has {len(seen)} "
                                  f"elements, the formula gives {order}")
            self._weyl = [Mat(rows) for rows in sorted(seen)]
        return self._weyl

    def weyl_order(self) -> int:
        """|W| from the marks of the highest roots (``weyl_order_formula``)."""
        return weyl_order_formula(self)

    def inverse(self, m: Mat) -> Mat:
        """m^-1 for a Weyl or outer matrix m, the one Gauss–Jordan on them.

        The memo holds one entry per distinct m passed in, at most |W| times
        the outer parts; a singular m raises ValueError and is not cached.
        """
        out = self._inverse_cache.get(m)
        if out is None:
            out = self._inverse_cache[m] = m.inverse()
        return out

    def dual_matrix(self, m: Mat) -> Mat:
        """Action on V* (cocharacter side) of the V-side matrix m."""
        return self.inverse(m).transpose()

    def cochar_coord_matrix(self, m: Mat) -> Mat:
        """Action of the V-side matrix m on X^vee, in dual-basis coordinates.

        B m^-T B^-1, as an integer product of numerators divided exactly.
        """
        out = self._cochar_cache.get(m)
        if out is None:
            dual_num, dual_den = clear_denominators(self.dual_matrix(m))
            raw = self._basis_num * dual_num * self._inv_num
            den = self._basis_den * dual_den * self._inv_den
            if any(x % den for row in raw.rows for x in row):
                raise InvalidLattice(
                    "matrix does not preserve the cocharacter lattice")
            out = Mat([[x // den for x in row] for row in raw.rows])
            self._cochar_cache[m] = out
        return out

    def pairing_row(self, root):
        """Integer row pairing the root against X^vee-basis coordinates."""
        return self._root_rows[tuple(root)]

    def coroot_coords(self, coroot) -> tuple:
        """Coordinates of a cocharacter-space vector on the X^vee basis."""
        out = self.basis.apply(coroot)
        return tuple(out)

    def root_permutation_ok(self, m: Mat) -> bool:
        return all(tuple(m.apply(r)) in self._root_index for r in self.roots)

    def to_json(self):
        return {
            "type": self.label,
            "rank": self.rank,
            "lattice": {"basis": [[str(x) for x in row] for row in self.basis.rows]},
            "roots": [list(r) for r in self.roots],
            "coroots": [list(c) for c in self.coroots],
            "simple": list(self.simple_idx),
        }

    @staticmethod
    def from_json(data) -> "RootDatum":
        basis = Mat([[Fraction(x) for x in row] for row in data["lattice"]["basis"]])
        return RootDatum(data["type"], basis, data["roots"], data["coroots"],
                         data["simple"])


class WeylElement:
    """An integer lattice automorphism permuting the roots."""

    __slots__ = ("rd", "matrix", "_order")

    def __init__(self, rd: RootDatum, matrix: Mat):
        self.rd = rd
        self.matrix = matrix
        self._order = None
        if (matrix.nrows, matrix.ncols) != (rd.rank, rd.rank):
            raise InvalidWeylElement(f"matrix must be {rd.rank} x {rd.rank}")
        if not rd.root_permutation_ok(matrix):
            raise InvalidWeylElement("matrix does not permute the roots")

    @property
    def order(self) -> int:
        if self._order is None:
            k, m = 1, self.matrix
            ident = Mat.identity(self.rd.rank)
            while m != ident:
                m = m * self.matrix
                k += 1
            self._order = k
        return self._order

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(self.rd, self.matrix * other.matrix)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"WeylElement({self.matrix!r})"

    def inverse(self) -> "WeylElement":
        return WeylElement(self.rd, self.rd.inverse(self.matrix))

    def is_elliptic(self) -> bool:
        return (self.matrix - Mat.identity(self.rd.rank)).det() != 0

    def commutes_with(self, other: "WeylElement") -> bool:
        return self.matrix.commutes_with(other.matrix)


def signed_perm_element(rd: RootDatum, perm, signs) -> WeylElement:
    """Weyl/automorphism element from e_j -> signs[j] * e_perm[j]."""
    n = rd.rank
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        rows[perm[j]][j] = signs[j]
    return WeylElement(rd, Mat(rows))


def _classical_data(kind: str, n: int):
    if kind == "A":
        cartan = [[0] * n for _ in range(n)]
        for i in range(n):
            cartan[i][i] = 2
            if i + 1 < n:
                cartan[i][i + 1] = -1
                cartan[i + 1][i] = -1
        simples = [tuple(row) for row in cartan]
        cosimples = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        p_basis = Mat.identity(n)
        q_basis = Mat(simples)
        return simples, cosimples, p_basis, q_basis

    def e(i, s=1):
        return tuple(s if j == i else 0 for j in range(n))

    def pm(i, j, s):
        return tuple((1 if k == i else (s if k == j else 0)) for k in range(n))

    if kind == "B":
        simples = [pm(i, i + 1, -1) for i in range(n - 1)] + [e(n - 1)]
        cosimples = [pm(i, i + 1, -1) for i in range(n - 1)] + [e(n - 1, 2)]
        q_basis = Mat.identity(n)
        p_rows = [list(e(i)) for i in range(n - 1)] + [[Fraction(1, 2)] * n]
        p_basis = Mat(p_rows)
    elif kind == "C":
        simples = [pm(i, i + 1, -1) for i in range(n - 1)] + [e(n - 1, 2)]
        cosimples = [pm(i, i + 1, -1) for i in range(n - 1)] + [e(n - 1)]
        q_rows = [list(pm(i, i + 1, -1)) for i in range(n - 1)] + [list(e(n - 1, 2))]
        q_basis = Mat(q_rows)
        p_basis = Mat.identity(n)
    elif kind == "D":
        if n < 2:
            raise InvalidLattice("type D needs rank >= 2")
        simples = [pm(i, i + 1, -1) for i in range(n - 1)] + [pm(n - 2, n - 1, 1)]
        cosimples = list(simples)
        q_rows = [list(pm(i, i + 1, -1)) for i in range(n - 1)] + [list(e(n - 1, 2))]
        q_basis = Mat(q_rows)
        p_rows = [list(e(i)) for i in range(n - 1)] + [[Fraction(1, 2)] * n]
        p_basis = Mat(p_rows)
    else:
        raise InvalidLattice(f"unknown classical type {kind!r}")
    return simples, cosimples, p_basis, q_basis


def _root_closure(simples, cosimples):
    """All (root, coroot) pairs from the simple ones under reflections.

    Reflecting a root in b also reflects its coroot on the dual side:
    s_b(a) pairs with a_vee - <b, a_vee> b_vee.
    """
    simples = [tuple(s) for s in simples]
    cosimples = [tuple(c) for c in cosimples]
    coroot_of = dict(zip(simples, cosimples))
    frontier = list(simples)
    while frontier:
        nxt = []
        for a in frontier:
            av = coroot_of[a]
            for b, bv in zip(simples, cosimples):
                k = sum(x * y for x, y in zip(a, bv))
                img = tuple(x - k * y for x, y in zip(a, b))
                if img not in coroot_of:
                    kk = sum(x * y for x, y in zip(b, av))
                    coroot_of[img] = tuple(x - kk * y for x, y in zip(av, bv))
                    nxt.append(img)
        frontier = nxt
    out_roots = sorted(coroot_of)
    return out_roots, [coroot_of[a] for a in out_roots]


def build_classical(kind: str, n: int, lattice="sc") -> RootDatum:
    """Root datum of type A/B/C/D with the requested character lattice."""
    if n < 1:
        raise InvalidLattice("rank must be >= 1")
    simples, cosimples, p_basis, q_basis = _classical_data(kind, n)
    roots, coroots = _root_closure(simples, cosimples)
    if lattice == "sc":
        basis = p_basis
    elif lattice == "ad":
        basis = q_basis
    else:
        basis = Mat([[Fraction(x) for x in row] for row in lattice])
        _check_between(basis, q_basis, p_basis)
    simple_idx = [roots.index(tuple(s)) for s in simples]
    return RootDatum(f"{kind}{n}", basis, roots, coroots, simple_idx)


def _check_between(basis, q_basis, p_basis):
    """Q <= X <= P, all full rank."""
    if basis.nrows != q_basis.nrows or basis.det() == 0:
        raise InvalidLattice("lattice basis must be square and invertible")
    for name, inner, outer in [("Q<=X", q_basis, basis), ("X<=P", basis, p_basis)]:
        try:
            coord_convert(inner, outer)
        except ValueError:
            raise InvalidLattice(f"lattice condition {name} fails") from None


def highest_root_marks(rd: RootDatum):
    """Coefficients of the highest root of each Dynkin component.

    A root's support is connected, so it lies in one component, and the
    highest root of a component is supported on all of it: taken from the
    highest down, a root whose support meets none taken so far is the
    highest root of a new component.
    """
    marks, used = [], set()
    for coeffs in sorted(map(rd.simple_coefficients, rd.positive_roots()),
                         key=sum, reverse=True):
        support = [i for i, c in enumerate(coeffs) if c]
        if used.isdisjoint(support):
            used.update(support)
            marks.append([int(coeffs[i]) for i in support])
    return marks


def connection_index(rd: RootDatum) -> int:
    return abs(int(rd.cartan_matrix().det()))


def bad_prime_data(rd: RootDatum):
    """(bad primes, connection index); bad = primes dividing a mark."""
    marks = highest_root_marks(rd)
    if len(marks) != 1:
        raise Reducible("bad primes need an irreducible datum")
    bad = set()
    for m in marks[0]:
        bad |= prime_support(m)
    bad.discard(1)
    return bad, connection_index(rd)


def weyl_order_formula(rd: RootDatum) -> int:
    """|W| = prod over components of f * n! * prod(marks).

    The connection indices f multiply to that of rd, the Cartan matrix
    being block diagonal over the components.
    """
    marks = highest_root_marks(rd)
    return connection_index(rd) * math.prod(
        math.factorial(len(m)) * math.prod(m) for m in marks)


def _exceptional_datum(label: str) -> RootDatum:
    """The adjoint root datum of an exceptional type, in simple-root coordinates.

    The simple roots are the unit vectors and the simple coroots the columns
    of the stored Cartan matrix, so <alpha_j, alpha_i^vee> = CARTAN[j][i].
    """
    cartan = Mat(CARTAN[label])
    simples = Mat.identity(cartan.nrows).rows
    roots, coroots = _root_closure(simples, cartan.transpose().rows)
    return RootDatum(label, Mat.identity(cartan.nrows), roots, coroots,
                     [roots.index(s) for s in simples])


def _table_rows(rd: RootDatum):
    """(bad primes and primes of the connection index, primes of |W|, |W|)."""
    bad, f = bad_prime_data(rd)
    order = weyl_order_formula(rd)
    return bad | prime_support(f), prime_support(order), order


def table_check(classical_ranks=None):
    """Check all nine intro-table columns; returns a per-column report."""
    if classical_ranks is None:
        classical_ranks = {"A": range(1, 5), "B": range(2, 5), "C": range(2, 5),
                           "D": range(4, 6)}
    report = {}
    for kind, ranks in classical_ranks.items():
        rule1, rule2 = PAPER_TABLE[kind]
        entries = []
        for n in ranks:
            rd = build_classical(kind, n, "sc")
            row1, row2, order = _table_rows(rd)
            if order <= WEYL_BOUND:
                assert order == len(rd.weyl_group())
            want1 = prime_support(n + 1) if rule1 == "p|n+1" else {2}
            bound = (n + 1) if rule2 == "p<=n+1" else n
            want2 = {p for p in range(2, bound + 1) if is_prime(p)}
            ok = (row1 == want1) and (row2 == want2)
            entries.append({"n": n, "row1": sorted(row1), "row2": sorted(row2),
                            "ok": ok})
        report[kind] = {"ok": all(e["ok"] for e in entries), "entries": entries}
    for label in ("E6", "E7", "E8", "F4", "G2"):
        row1, row2, order = _table_rows(_exceptional_datum(label))
        want1, want2 = PAPER_TABLE[label]
        report[label] = {"ok": (row1 == want1 and row2 == want2),
                         "row1": sorted(row1), "row2": sorted(row2),
                         "order": order}
    report["ok"] = all(v["ok"] for v in report.values() if isinstance(v, dict))
    return report


class LambdaPairResult:
    __slots__ = ("roots", "lam", "half_class_coords", "trivial")

    def __init__(self, roots, lam, half_class_coords, trivial):
        self.roots = roots
        self.lam = lam
        self.half_class_coords = half_class_coords
        self.trivial = trivial


def lambda_pair(rd: RootDatum, u: WeylElement, v: WeylElement) -> LambdaPairResult:
    """The Tits commutator pairing for commuting u, v.

    Lambda_{u,v} = (N(u) △ N(v)) - N(uv): the a > 0 with (uv)^{-1} a > 0
    made negative by exactly one of u^{-1}, v^{-1}; lambda = sum of their
    coroots; the commutator of the Tits lifts is the class of lambda/2 in
    X^vee tensor Q/Z.
    """
    if not u.commutes_with(v):
        raise NotCommuting("lambda pairing needs commuting elements")
    lam_set = ((rd.inversion_set(u.matrix) ^ rd.inversion_set(v.matrix))
               - rd.inversion_set(u.matrix * v.matrix))
    chosen = tuple(a for a in rd.positive_roots() if a in lam_set)
    lam = tuple(map(sum, zip((Fraction(0),) * rd.rank,
                             *map(rd.coroot, chosen))))
    coords = _half_coroot_sum(rd, chosen)
    return LambdaPairResult(chosen, lam, coords, coords.is_zero())


def tits_cocycle(rd: RootDatum, u_mat: Mat, v_mat: Mat) -> QV:
    """Tits section cocycle z(u,v) as a class in X^vee ⊗ Q/Z.

    n(u)n(v) = z(u,v) n(uv) with z(u,v) = (1/2) * sum of coroots over N(u) -
    N(uv) = {a > 0 : u^{-1} a < 0, (uv)^{-1} a > 0}; identified against
    concrete monomial Tits lifts, and its antisymmetrization is lambda_pair.
    """
    roots = rd.inversion_set(u_mat) - rd.inversion_set(u_mat * v_mat)
    return _half_coroot_sum(rd, roots)


def _half_coroot_sum(rd: RootDatum, roots) -> QV:
    """lambda/2 in X^vee ⊗ Q/Z, lambda the sum of the roots' integer coroot rows."""
    rows = [rd._coroot_rows[a] for a in roots]
    return QV([Fraction(sum(col), 2) for col in zip((0,) * rd.rank, *rows)])
