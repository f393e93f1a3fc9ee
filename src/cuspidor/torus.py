"""Tori over finite fields as Frobenius-twisted cocharacter lattices.

A torus is a triple (root datum, Weyl twist w, odd prime power q); Frobenius
acts on X^vee ⊗ Q/Z as F = q·w and the rational points over the degree-d
extension are ker(F^d - 1), presented as the finite abelian group
X^vee/(F^d - 1)X^vee with an explicit section.  All computations stay in
lattice-basis coordinates.

A ``FrobeniusTorus`` computes each of its invariants once and keeps it in a
per-instance dict: F^d, the norm matrix N_d and S(k_d) per degree d, the
S(k)-coordinates of N_d(alpha_vee(zeta)) per coroot and degree (and, as
``root_points``, the distinct ones over the positive roots at the splitting
degree, which decide non-singularity), C_W(w) by
one integer commutation test on V (``Mat.commutes_with``), per m in C_W(w)
the matrix of m^-1 on X^vee and on S(k) coordinates (``inverse_on_points``,
the one route from a Weyl element to S(k); the stabilizer reads its columns,
kept once per torus as ``centralizer_columns``), per such m the S(k)
coordinates of m^-1 x at each point x asked for (``weyl_image``), the S(k)
coordinates of each point of S(k) asked for (``point_coords``), and per
root the integer row alpha(gens[i]) e with e = exp S(k) (``root_row``).
Characters, non-singularity, Weyl stabilizers and the character sums of
``charformula`` then read these tables instead of rebuilding matrix powers
or projecting per character.  The caches are safe because a torus never
changes after construction and the cached ``Mat``, ``FinAb`` and tuple
values are immutable; the tables are bounded by the degrees asked for,
|roots| x degrees, one row of rk S(k) integers per root, and one
rk S(k) x rk S(k) integer matrix and at most |S(k)| image tuples per
element of C_W(w) (per distinct Weyl element a caller passes), and at most
|S(k)| coordinate tuples for the points.  ``charformula`` also keeps here
one flag per Gauss identity that passed, under ("gauss_identity", d, base).

Sublattices of the cocharacter space V* (P^vee, Q^vee, X^vee) are handled
in the lattice-basis coordinates of ``exactcore``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from types import MappingProxyType

from .cyclotomic import Cyc
from .errors import (
    FailedCheck,
    InvalidCharacter,
    InvalidDegree,
    InvalidPoint,
    InvalidPrimePower,
    InvalidWeylSet,
    NotStabilizing,
    SingularCharacter,
)
from .exactcore import (
    Mat,
    QV,
    abelian_basis,
    coord_convert,
    coord_matrix,
    prime_power,
    quotient_by,
    twisted_fixed_points,
)
from .ffield import FiniteField, finite_field
from .rootdata import RootDatum, WeylElement


class FrobeniusTorus:
    """(cocharacter lattice of rd, twist w, q) with Frobenius q·w."""

    def __init__(self, rd: RootDatum, w: WeylElement, q: int):
        p, e = prime_power(q)
        if p == 2:
            raise InvalidPrimePower("q must be odd")
        self.rd = rd
        self.w = w
        self.q = q
        self.p = p
        self._e = e
        self.w_cochar = rd.cochar_coord_matrix(w.matrix)
        self.splitting_degree = w.order
        self._cache = {}

    def _memo(self, key, build):
        """The invariant stored under key, built on first use."""
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = build()
        return out

    def frobenius(self, d: int = 1) -> Mat:
        if d < 1:
            raise InvalidDegree(f"extension degree must be >= 1, got {d}")
        return self._memo(("frobenius", d),
                          lambda: (self.q ** d) * (self.w_cochar ** d))

    def rational_points(self, d: int = 1):
        """S(k_d) = ker(F^d - 1) with section into (Q/Z)^rank; d >= 1."""
        return self._memo(("points", d),
                          lambda: twisted_fixed_points(self.frobenius(d)))

    def norm_matrix(self, d: int) -> Mat:
        """Sum of F^i for i < d, inducing the norm S(k_d) -> S(k)."""
        def build():
            acc = out = self.identity()
            for _ in range(d - 1):
                acc = acc * self.frobenius()
                out = out + acc
            return out
        return self._memo(("norm", d), build)

    def root_point(self, coroot, d: int) -> tuple:
        """S(k)-coordinates of N_d(alpha_vee(zeta)), zeta a generator of k_d^x."""
        def build():
            pt = self.coroot_point(coroot, Fraction(1, self.q ** d - 1))
            img = QV(self.norm_matrix(d).apply(pt.coords))
            return self.rational_points(1).project(img)
        return self._memo(("root_point", tuple(coroot), d), build)

    def root_points(self) -> tuple:
        """The distinct S(k)-coordinates of N(alpha_vee(zeta)) over alpha > 0.

        N is the norm from the splitting degree.  The coroot of -alpha is
        -alpha_vee and N is linear, so -alpha gives the inverse point, and a
        character vanishes on it exactly when it vanishes on alpha's point:
        the positive roots decide non-singularity for all of them.
        """
        def build():
            rd, d = self.rd, self.splitting_degree
            return tuple(dict.fromkeys(self.root_point(rd.coroot(a), d)
                                       for a in rd.positive_roots()))
        return self._memo("root_points", build)

    def identity(self) -> Mat:
        """The rank x rank identity matrix, built once per torus."""
        return self._memo("identity", lambda: Mat.identity(self.rd.rank))

    def coroot_point(self, coroot, x: Fraction) -> QV:
        """alpha_vee ⊗ x as a point of the torus over the closure."""
        coords = self.rd.coroot_coords(coroot)
        return QV([Fraction(c) * x for c in coords])

    def weyl_centralizer(self):
        """Elements of W commuting with the twist (the rational Weyl group).

        m -> cochar(m) = B m^-T B^-1 is an injective group homomorphism, so
        the integer test on V decides commutation on X^vee.
        """
        w = self.w.matrix
        return list(self._memo("centralizer", lambda: tuple(
            m for m in self.rd.weyl_group() if m.commutes_with(w))))

    def inverse_action(self, m: Mat) -> Mat:
        """cochar(m)^-1 = cochar(m^-1) on X^vee, for m commuting with the twist.

        InvalidLattice for an m not preserving X^vee comes before InvalidWeylSet.
        """
        def build():
            self.rd.cochar_coord_matrix(m)
            if not m.commutes_with(self.w.matrix):
                raise InvalidWeylSet(
                    "weyl element does not commute with the twist")
            return self.rd.cochar_coord_matrix(self.rd.inverse(m))
        return self._memo(("inverse", m), build)

    def inverse_on_points(self, m: Mat) -> tuple:
        """Rows of m^-1 on S(k) coordinates, for m commuting with the twist.

        The columns are project(m^-1 gens[i]), so the coordinates of m^-1 x
        are sum_i rows[j][i] x_i mod d_j.  Built through ``inverse_action``,
        which rejects an m that does not commute with the twist.
        """
        def build():
            return self.rational_points(1).induced(self.inverse_action(m)).rows
        return self._memo(("inverse_points", m), build)

    def point_coords(self, x: QV) -> tuple:
        """The S(k) coordinates of the point x; ValueError unless x is in S(k).

        One table per torus, keyed by x's coordinates: they are reduced
        mod 1, so it holds at most |S(k)| entries.  A point outside S(k)
        raises on every call and is never stored.
        """
        table = self._memo("point_coords", dict)
        out = table.get(x.coords)
        if out is None:
            out = table[x.coords] = self.rational_points(1).project(x)
        return out

    def weyl_image(self, m: Mat, x: tuple) -> tuple:
        """The S(k) coordinates of m^-1 x, for m commuting with the twist.

        One table per m, filled point by point from ``inverse_on_points(m)``
        and kept: it depends on the torus alone, so every character and
        field reuses it.  An m that does not commute raises InvalidWeylSet
        before its table is stored.
        """
        rows, images = self._memo(("weyl_image", m), lambda: (
            tuple(zip(self.inverse_on_points(m),
                      self.rational_points(1).factors)), {}))
        out = images.get(x)
        if out is None:
            out = images[x] = tuple(sum(map(mul, row, x)) % d
                                    for row, d in rows)
        return out

    def centralizer_columns(self):
        """(m, cols) for each m in C_W(w); cols[i] is m^-1(gens[i]) on S(k).

        The columns of ``inverse_on_points(m)``, transposed once per torus.
        theta∘m = theta exactly when theta∘m^-1 = theta, so they decide the
        stabilizer of theta in C_W(w).
        """
        return self._memo("columns", lambda: tuple(
            (m, tuple(zip(*self.inverse_on_points(m))))
            for m in self.weyl_centralizer()))

    def root_row(self, root) -> tuple:
        """alpha(gens[i]) e per generator of S(k), e = exp S(k).

        alpha(x) = (sum_i row[i] x_i mod e) / e on S(k) coordinates x.
        """
        def build():
            group = self.rational_points(1)
            e = group.exponent
            pairing = self.rd.pairing_row(root)
            return tuple(int(sum(r * c for r, c in zip(pairing, g.coords)) * e)
                         % e for g in group.gens)
        return self._memo(("root_row", tuple(root)), build)

    def extension_field(self, d: int) -> FiniteField:
        """GF(q^d), the one shared copy."""
        return finite_field(self.p, self._e * d)

    def to_json(self):
        return {"root_datum": self.rd.to_json(),
                "weyl": [list(r) for r in self.w.matrix.rows],
                "q": self.q}

    @staticmethod
    def from_json(data) -> "FrobeniusTorus":
        rd = RootDatum.from_json(data["root_datum"])
        w = WeylElement(rd, Mat(data["weyl"]))
        return FrobeniusTorus(rd, w, data["q"])


class TorusCharacter:
    """A homomorphism S(k) -> Q/Z given on normal-form coordinates.

    ``values`` are theta(gens[i]) in Q/Z; ``row`` holds the same values
    times e = ``exponent`` = exp S(k) as integers, so theta is one integer
    dot product mod e.
    """

    __slots__ = ("torus", "group", "values", "exponent", "row")

    def __init__(self, torus: FrobeniusTorus, values):
        self.torus = torus
        self.group = torus.rational_points(1)
        self.values = tuple(Fraction(v) % 1 for v in values)
        if len(self.values) != len(self.group.factors):
            raise InvalidCharacter("one value per invariant factor required")
        for v, d in zip(self.values, self.group.factors):
            if (v * d) % 1 != 0:
                raise InvalidCharacter(
                    "character value order incompatible with factor")
        self.exponent = self.group.exponent
        self.row = tuple(int(v * self.exponent) for v in self.values)

    def scaled(self, coords) -> int:
        """e theta(x) mod e at S(k) coordinates x, e = exp S(k)."""
        return sum(map(mul, coords, self.row)) % self.exponent

    def __call__(self, coords) -> Fraction:
        return Fraction(self.scaled(coords), self.exponent)

    def on_vector(self, vec: QV) -> Fraction:
        return self(self.group.project(vec))

    def order(self) -> int:
        return math.lcm(*(v.denominator for v in self.values))

    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.values)

    def composite_with_coroot(self, coroot, degree: int) -> Fraction:
        """theta∘N_d∘alpha_vee at the generator of k_d^x, as a Q/Z value.

        The composite character of the cyclic group k_d^x is nontrivial iff
        this value is nonzero.
        """
        return self(self.torus.root_point(coroot, degree))

    def twist_by(self, weyl_mat: Mat) -> "TorusCharacter":
        """theta ∘ w for w commuting with the twist."""
        mc = self.torus.rd.cochar_coord_matrix(weyl_mat)
        vals = [self.on_vector(g.act(mc)) for g in self.group.gens]
        return TorusCharacter(self.torus, vals)

    def to_json(self):
        return {"values": [str(v) for v in self.values]}


def all_characters(torus: FrobeniusTorus):
    """Every character of S(k), enumerated through the dual group."""
    group = torus.rational_points(1)
    for x in group.elements():
        yield TorusCharacter(torus, [Fraction(xi, d) for xi, d in
                                     zip(x, group.factors)])


def is_nonsingular(theta: TorusCharacter) -> bool:
    """theta∘N∘alpha_vee nontrivial for every root alpha (``root_points``)."""
    return all(theta.scaled(x) for x in theta.torus.root_points())


class StabilizerReport:
    __slots__ = ("matrices", "order", "abelian", "cyclic", "split_d2n",
                 "invariant_factors")

    def __init__(self, matrices, order, abelian, cyclic, split_d2n,
                 invariant_factors):
        self.matrices = matrices
        self.order = order
        self.abelian = abelian
        self.cyclic = cyclic
        self.split_d2n = split_d2n
        self.invariant_factors = invariant_factors

    def to_json(self):
        return {"order": self.order, "abelian": self.abelian,
                "cyclic": self.cyclic, "split_d2n": self.split_d2n,
                "invariant_factors": list(self.invariant_factors or ())}


def weyl_stabilizer(theta: TorusCharacter) -> StabilizerReport:
    """Omega(S,G)(k)_theta: w-commuting Weyl elements fixing theta on S(k).

    Abelian exactly when the ``abelian_basis`` factors of its abelianization
    multiply to its order; theta's non-singularity is not tested here.
    ``split_d2n`` holds exactly for a label "D<n>" with n even, so not for
    a dual's "D4^".
    """
    t = theta.torus
    row, e = theta.row, theta.exponent
    stab = [m for m, cols in t.centralizer_columns()
            if all(sum(c * v for c, v in zip(col, row)) % e == r
                   for col, r in zip(cols, row))]
    factors, _, _ = abelian_basis(stab, Mat.__mul__, t.identity())
    abelian = math.prod(factors) == len(stab)
    inv = tuple(factors) if abelian else None
    cyclic = abelian and len(inv) <= 1
    kind, n = t.rd.label[:1], t.rd.label[1:]
    split_d2n = kind == "D" and n.isdecimal() and int(n) % 2 == 0
    return StabilizerReport(stab, len(stab), abelian, cyclic, split_d2n, inv)


class AdjointModel:
    """The adjoint and simply connected tori with the same twist.

    S_ad lives on the coweight lattice P^vee (fundamental coweights); the
    cokernel of S(k) -> S_ad(k) is computed from the inclusion X^vee <= P^vee.
    The cokernel, its table of class representatives and each Weyl element's
    commutator matrix are built once per model.
    """

    def __init__(self, torus: FrobeniusTorus):
        rd = torus.rd
        self.torus = torus
        self.rd = rd
        self.pv_rows = Mat(rd.simple_roots).inverse().transpose()
        wm = rd.dual_matrix(torus.w.matrix)
        self.f_ad = torus.q * coord_matrix(self.pv_rows, wm)
        self.points_ad = twisted_fixed_points(self.f_ad)
        self.x_to_ad = coord_convert(rd.xv_rows, self.pv_rows)
        self._cokernel = None
        self._cokernel_reps = None
        self._commutators = {}

    def cokernel(self):
        """cok(S(k) -> S_ad(k)) as a quotient of S_ad(k)."""
        if self._cokernel is None:
            sk = self.torus.rational_points(1)
            images = [self.points_ad.project(QV(self.x_to_ad.apply(g.coords)))
                      for g in sk.gens]
            self._cokernel = quotient_by(self.points_ad, images)
        return self._cokernel

    def cokernel_reps(self) -> MappingProxyType:
        """{cokernel class: P^vee coordinates of one point of S_ad(k) in it}.

        Each class is represented by its first point in
        ``points_ad.elements()``, lifted to (Q/Z)^rank; a read-only view,
        since every caller shares the one table.
        """
        if self._cokernel_reps is None:
            cok = self.cokernel()
            reps = {}
            for coords in self.points_ad.elements():
                cls = cok.project(coords)
                if cls not in reps:
                    reps[cls] = self.points_ad.lift(coords).coords
            self._cokernel_reps = MappingProxyType(reps)
        return self._cokernel_reps

    def commutator_matrix(self, weyl_mat: Mat) -> Mat:
        """B (w - 1) P^vee^T: P^vee coordinates of s to X^vee ones of (w - 1)s.

        For w in W, (w - 1)P^vee lies in Q^vee <= X^vee, so the matrix is
        integral.  Integrality is what makes w s_sc w^{-1} s_sc^{-1} in S(k)
        independent of the lift s_sc of s_ad: every integral shift of the
        lift moves (w - 1)s_sc by an integral vector.  A non-integral matrix
        raises FailedCheck and is not cached.
        """
        out = self._commutators.get(weyl_mat)
        if out is None:
            rd = self.rd
            m = (rd.basis * (rd.dual_matrix(weyl_mat) - self.torus.identity())
                 * self.pv_rows.transpose())
            if not m.is_integral():
                raise FailedCheck("bicharacter depends on the chosen lift")
            out = self._commutators[weyl_mat] = m.to_int()
        return out


def bicharacter(theta: TorusCharacter, weyl_mat: Mat, s_ad_coords,
                _rep: StabilizerReport = None, _model: AdjointModel = None) -> Cyc:
    """theta(w s_sc w^{-1} s_sc^{-1}) for w stabilizing theta, s_ad in S_ad(k).

    The commutator (w - 1)s_sc, read in X^vee coordinates, is the integer
    ``commutator_matrix`` of w applied to the P^vee coordinates of s_ad; its
    integrality, checked once per model and w, is the independence of the
    lift.  ``_rep``/``_model`` short-circuit recomputation inside sweeps.
    """
    rep = _rep if _rep is not None else weyl_stabilizer(theta)
    if weyl_mat not in rep.matrices:
        raise NotStabilizing("weyl element does not stabilize theta")
    model = _model if _model is not None else AdjointModel(theta.torus)
    s_ad = QV(s_ad_coords)
    if not model.points_ad.contains(s_ad):
        raise InvalidPoint("s_ad is not a rational point of the adjoint torus")
    m = model.commutator_matrix(weyl_mat)
    return Cyc.from_qz(theta.on_vector(QV(m.apply(s_ad.coords))))


def packet_counts(theta: TorusCharacter):
    """(Deligne-Lusztig packet size, extension count), both |Omega_theta|."""
    if not is_nonsingular(theta):
        raise SingularCharacter("packet counts require a non-singular character")
    rep = weyl_stabilizer(theta)
    return rep.order, rep.order
