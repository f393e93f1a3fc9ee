"""Builders for the checked-in parameter fixtures.

The biquadratic fixture is derived, not hand-written: the two commuting
SL4(C) factors with their central tori are realized as a rank-9 cocharacter
lattice inside Q^11 (trace-zero SL4 diagonals + Z1 + Z2 + the three mu_4
quotient vectors), the generators' torus parts are extracted from the
concrete monomial matrices of the example by dividing off exact Tits lifts,
and the defining relation f s f^{-1} = s^11 is verified both in the concrete
semidirect product and in the abstract Tits model before the fixture is
emitted.  Run ``python -m cuspidor.fixture_gen`` to regenerate the JSON.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .centralizer import ParameterDatum
from .clifford import _block_diag
from .exactcore import (Mat, QV, clear_denominators, coord_matrix, coords_of,
                        lattice_solver, smith_normal_form)
from .rootdata import RootDatum, build_classical


class Monomial:
    """A monomial matrix with root-of-unity entries, stored as exponents.

    ``cols[j] = (i, x)`` means column j has its only entry in row i with
    value e^{2 pi i x}; x is an exact rational mod 1.
    """

    __slots__ = ("n", "cols")

    def __init__(self, n, cols):
        self.n = n
        self.cols = tuple((i, Fraction(x) % 1) for (i, x) in cols)

    @staticmethod
    def identity(n):
        return Monomial(n, [(j, 0) for j in range(n)])

    @staticmethod
    def diagonal(exps):
        return Monomial(len(exps), [(j, x) for j, x in enumerate(exps)])

    def __eq__(self, other):
        return isinstance(other, Monomial) and (self.n, self.cols) == (other.n, other.cols)

    def __repr__(self):
        return f"Monomial({self.cols})"

    def mul(self, other: "Monomial") -> "Monomial":
        cols = []
        for j in range(self.n):
            i1, x1 = other.cols[j]
            i2, x2 = self.cols[i1]
            cols.append((i2, x1 + x2))
        return Monomial(self.n, cols)

    def inv(self) -> "Monomial":
        cols = [None] * self.n
        for j, (i, x) in enumerate(self.cols):
            cols[i] = (j, -x)
        return Monomial(self.n, cols)

    def transpose(self) -> "Monomial":
        cols = [None] * self.n
        for j, (i, x) in enumerate(self.cols):
            cols[i] = (j, x)
        return Monomial(self.n, cols)

    def is_diagonal(self) -> bool:
        return all(i == j for j, (i, _) in enumerate(self.cols))

    def diagonal_exponents(self):
        if not self.is_diagonal():
            raise ValueError("not diagonal")
        return [x for (_, x) in self.cols]

    def scale(self, x) -> "Monomial":
        return Monomial(self.n, [(i, e + x) for (i, e) in self.cols])


def sl_tits_gen(n, i) -> Monomial:
    """n(s_i) in SL_n: the 2x2 block [[0,1],[-1,0]] at (i, i+1)."""
    cols = []
    for j in range(n):
        if j == i:
            cols.append((i + 1, Fraction(1, 2)))   # e_i -> -e_{i+1}
        elif j == i + 1:
            cols.append((i, 0))                    # e_{i+1} -> e_i
        else:
            cols.append((j, 0))
    return Monomial(n, cols)


def sl4_tits_longest() -> Monomial:
    """The Tits lift of the longest element of S4 (reduced word 121321)."""
    word = [0, 1, 0, 2, 1, 0]
    out = Monomial.identity(4)
    for i in word:
        out = out.mul(sl_tits_gen(4, i))
    return out


J_SIGNS = [0, Fraction(1, 2), 0, Fraction(1, 2)]


def theta_sl4(m: Monomial) -> Monomial:
    """The pinned outer automorphism g -> J (g^T)^{-1} J^{-1}, J = antidiag(1,-1,1,-1)."""
    j = Monomial(4, [(3 - k, J_SIGNS[k]) for k in range(4)])
    return j.mul(m.transpose().inv()).mul(j.inv())


class UpElement:
    """An element of (SL4 x SL4 x Z1 x Z2) x| Gamma, Gamma = (Z/2)^2."""

    __slots__ = ("m1", "m2", "z1", "z2", "gamma")

    def __init__(self, m1, m2, z1, z2, gamma):
        self.m1 = m1
        self.m2 = m2
        self.z1 = (Fraction(z1[0]) % 1, Fraction(z1[1]) % 1)
        self.z2 = Fraction(z2) % 1
        self.gamma = (gamma[0] % 2, gamma[1] % 2)

    def __eq__(self, other):
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    @staticmethod
    def identity():
        return UpElement(Monomial.identity(4), Monomial.identity(4), (0, 0), 0,
                         (0, 0))

    def gamma_act(self, other: "UpElement") -> "UpElement":
        m1, m2 = other.m1, other.m2
        z1, z2 = other.z1, other.z2
        if self.gamma[0]:
            m1, m2 = theta_sl4(m1), theta_sl4(m2)
            z1 = (-z1[0], -z1[1])
            z2 = -z2
        if self.gamma[1]:
            m1 = theta_sl4(m1)
            z1 = (z1[0] + 4 * z1[1], -z1[1])
        return UpElement(m1, m2, z1, z2, other.gamma)

    def mul(self, other: "UpElement") -> "UpElement":
        o = self.gamma_act(other)
        return UpElement(self.m1.mul(o.m1), self.m2.mul(o.m2),
                         (self.z1[0] + o.z1[0], self.z1[1] + o.z1[1]),
                         self.z2 + o.z2,
                         (self.gamma[0] + o.gamma[0], self.gamma[1] + o.gamma[1]))

    def inv(self) -> "UpElement":
        cand = UpElement(self.m1.inv(), self.m2.inv(),
                         (-self.z1[0], -self.z1[1]), -self.z2, self.gamma)
        return self_inverse_fix(self, cand)

    def power(self, k: int) -> "UpElement":
        out = UpElement.identity()
        for _ in range(k):
            out = out.mul(self)
        return out


def self_inverse_fix(x: UpElement, cand: UpElement) -> UpElement:
    # gamma has exponent 2, so x^{-1} = gamma-twist of the naive inverse
    g = UpElement(Monomial.identity(4), Monomial.identity(4), (0, 0), 0, x.gamma)
    fixed = g.gamma_act(cand)
    out = UpElement(fixed.m1, fixed.m2, fixed.z1, fixed.z2, x.gamma)
    prod = x.mul(out)
    ident = UpElement.identity()
    if prod == ident:
        return out
    raise ArithmeticError("upstairs inverse failed")


ZETA4 = Fraction(1, 4)
ZETA6 = Fraction(1, 6)
HALF = Fraction(1, 2)


def biquadratic_upstairs():
    """The concrete s, f of the example, upstairs."""
    d = Monomial.diagonal([ZETA4, ZETA6, -ZETA6, -ZETA4])
    s = UpElement(d, d, (0, 0), 0, (1, 0))
    m1 = Monomial(4, [(3, HALF - ZETA4), (2, -ZETA6), (1, HALF + ZETA6),
                      (0, ZETA4)])
    m2 = Monomial(4, [(3, HALF), (2, 0), (1, HALF), (0, 0)])
    f = UpElement(m1, m2, (0, 0), 0, (0, 1))
    return s, f


def check_upstairs_relation():
    """fsf^{-1} s^{-11} lands in the central mu_4 kernel of the quotient."""
    s, f = biquadratic_upstairs()
    w = f.mul(s).mul(f.inv()).mul(s.power(11).inv())
    if w.gamma != (0, 0):
        raise ArithmeticError("relation word has a Galois part")
    if not (w.m1.is_diagonal() and w.m2.is_diagonal()):
        raise ArithmeticError("relation word is not central")
    e1 = w.m1.diagonal_exponents()
    e2 = w.m2.diagonal_exponents()
    if len(set(e1)) != 1 or len(set(e2)) != 1:
        raise ArithmeticError("relation word is not scalar")
    # the residual must die in G = (G1 x G2)/mu4's: i.e. lie in the lattice L
    vec = e1 + [w.z1[0], w.z1[1]] + e2 + [w.z2]
    return vec


# -- the rank-9 lattice ------------------------------------------------------


def biquadratic_lattice():
    """Basis of X_*(T_G) inside Q^11."""
    rows = []

    def e(i, *vals):
        v = [Fraction(0)] * 11
        for j, x in zip(range(i, i + len(vals)), vals):
            v[j] = Fraction(x)
        return v

    # SL4 coroot lattices (trace-zero integer vectors)
    for i in range(3):
        v = [Fraction(0)] * 11
        v[i], v[i + 1] = 1, -1
        rows.append(v)
    rows.append(e(4, 1))
    rows.append(e(5, 1))
    for i in range(3):
        v = [Fraction(0)] * 11
        v[6 + i], v[7 + i] = 1, -1
        rows.append(v)
    rows.append(e(10, 1))
    q = Fraction(1, 4)
    u_a = [q, q, q, -3 * q, 0, -q, 0, 0, 0, 0, 0]
    u_b = [0, 0, 0, 0, 0, 0, q, q, q, -3 * q, -q]
    u_c = [0, 0, 0, 0, 0, q, 0, 0, 0, 0, 2 * q]
    gen_rows = rows + [u_a, u_b, u_c]
    m = Mat(gen_rows)
    num, scale = clear_denominators(m)
    u, d, v = smith_normal_form(num)
    vinv = v.inverse()
    basis_rows = []
    for i in range(min(d.nrows, d.ncols)):
        di = d.rows[i][i]
        if di:
            row = [Fraction(di * vinv.rows[i][j], scale) for j in range(11)]
            basis_rows.append(row)
    if len(basis_rows) != 9:
        raise ArithmeticError("lattice rank is not 9")
    return Mat(basis_rows)


def _rev(n):
    return Mat([[int(i + j == n - 1) for j in range(n)] for i in range(n)])


def build_biquadratic():
    """The rank-9 parameter datum of the ramified biquadratic example."""
    rel_resid = check_upstairs_relation()
    basis = biquadratic_lattice()
    solver = lattice_solver(basis)
    # the relation residue must be trivial in the quotient torus
    resid_coords = coords_of(basis, rel_resid, solver)
    if any(Fraction(x) % 1 for x in resid_coords):
        raise ArithmeticError("relation fails in the quotient")

    # roots and coroots of SL4 x SL4 in the new coordinates: e_i - e_j pairs
    # against the basis rows as a root and solves on them as a coroot
    def e_minus_e(base, i, j):
        amb = [Fraction(0)] * 11
        amb[base + i], amb[base + j] = 1, -1
        return amb

    def root_of(amb):
        return tuple(int(x) for x in basis.apply(amb))

    roots, coroots = [], []
    for base in (0, 6):
        for i in range(4):
            for j in range(4):
                if i != j:
                    amb = e_minus_e(base, i, j)
                    roots.append(root_of(amb))
                    coroots.append(tuple(int(x) for x in
                                         coords_of(basis, amb, solver)))
    simple_idx = [roots.index(root_of(e_minus_e(base, i, i + 1)))
                  for base in (0, 6) for i in range(3)]
    rd = RootDatum("biquadratic", Mat.identity(9), roots, coroots, simple_idx)

    # cochar-side 11x11 maps
    jj = _rev(4)
    mj = -1 * jj
    z1_f = Mat([[1, 4], [0, -1]])
    outer_s = _block_diag(mj, -1 * Mat.identity(2), mj, -1 * Mat.identity(1))
    weyl_f = _block_diag(jj, Mat.identity(2), jj, Mat.identity(1))
    outer_f = _block_diag(mj, z1_f, Mat.identity(4), Mat.identity(1))

    def to9_cochar(v):
        return coord_matrix(basis, v, solver)

    def to9_char(v):
        c = to9_cochar(v)
        out = c.inverse().transpose()
        return out.to_int()

    # torus parts: s is diagonal; f's monomial parts divided by Tits lifts
    s_up, f_up = biquadratic_upstairs()
    tau_s_amb = (s_up.m1.diagonal_exponents()
                 + [0, 0] + s_up.m2.diagonal_exponents() + [0])
    tau_s_amb = _trace_adjust(tau_s_amb)
    nrev = sl4_tits_longest()
    d1 = f_up.m1.mul(nrev.inv())
    d2 = f_up.m2.mul(nrev.inv())
    tau_f_amb = (d1.diagonal_exponents() + [0, 0]
                 + d2.diagonal_exponents() + [0])
    tau_f_amb = _trace_adjust(tau_f_amb)

    # theta is pinned: theta(n(w)) = n(theta w) for the generators
    for i in range(3):
        if theta_sl4(sl_tits_gen(4, i)) != sl_tits_gen(4, 2 - i):
            raise ArithmeticError("theta does not preserve the pinning")

    gens = [
        (tuple(coords_of(basis, tau_s_amb, solver)), Mat.identity(9),
         to9_char(outer_s)),
        (tuple(coords_of(basis, tau_f_amb, solver)), to9_char(weyl_f),
         to9_char(outer_f)),
    ]
    datum = ParameterDatum(rd, gens, [("conj_power", 1, 0, 11)],
                           label="biquadratic")
    return datum


def _trace_adjust(vec):
    """Subtract integers so each SL4 block has coordinate sum zero."""
    vec = [Fraction(x) for x in vec]
    for base in (0, 6):
        s = sum(vec[base:base + 4])
        if s.denominator != 1:
            raise ArithmeticError("block exponent sum is not integral")
        vec[base + 3] -= int(s)
    return vec


def build_spin9(q: int = 11):
    """The split Spin9 example: dual group PSp8, t of order 2(q+1), f = w0 lift."""
    rd = build_classical("C", 4, "ad")
    z = Fraction(1, q + 1)
    amb = (z, 2 * z, 2 * z + HALF, z + HALF)
    tau_s = tuple(rd.coroot_coords(amb))
    gens = [(tau_s, None, None),
            (tuple([0] * 4), -Mat.identity(4), None)]
    return ParameterDatum(rd, gens, [("conj_power", 1, 0, q)], label="spin9")


def build_d4_sc(q: int = 5):
    """Split simply connected D4: dual PSO8, s with stabilizer (Z/2)^2.

    The point (0, 1/(q+1), 1/2 - 1/(q+1), 1/2) of the adjoint torus is
    (q+1)-torsion, fixed by eps_1 eps_4 and by -m, and by nothing else for
    q >= 5; the stabilizer is asserted on construction.
    """
    rd = build_classical("D", 4, "ad")
    from .exactcore import QV
    from .rootdata import signed_perm_element
    w0 = -Mat.identity(4)
    w1 = signed_perm_element(rd, [0, 1, 2, 3], [-1, 1, 1, -1]).matrix
    w2 = (-Mat.identity(4)) * signed_perm_element(
        rd, [3, 2, 1, 0], [1, 1, 1, 1]).matrix
    amb = (Fraction(0), Fraction(1, q + 1),
           Fraction(1, 2) - Fraction(1, q + 1), Fraction(1, 2))
    s = QV(rd.coroot_coords(amb))
    stab = [m for m in rd.weyl_group()
            if (s.act(rd.cochar_coord_matrix(m)) - s).is_zero()]
    if len(stab) != 4 or w1 not in stab or w2 not in stab:
        raise ArithmeticError("point does not have the Klein-four stabilizer")
    gens = [(tuple(s.coords), None, None),
            (tuple([0] * 4), w0, None)]
    return ParameterDatum(rd, gens, [("conj_power", 1, 0, q)], label="d4-sc")


def datum_to_json(datum: ParameterDatum, meta=None):
    out = {
        "root_datum": datum.rd.to_json(),
        "generators": [{
            "torus": [str(x) for x in tau.coords],
            "weyl": [list(r) for r in weyl.rows],
            "outer": [list(r) for r in outer.rows],
        } for tau, weyl, outer in datum.triples],
        "relations": [list(r) for r in datum.relations],
        "label": datum.label,
    }
    if meta:
        out["meta"] = meta
    return out


def datum_from_json(data) -> ParameterDatum:
    rd = RootDatum.from_json(data["root_datum"])
    gens = []
    for g in data["generators"]:
        gens.append((tuple(Fraction(x) for x in g["torus"]),
                     Mat(g["weyl"]), Mat(g["outer"])))
    rels = [tuple(r) for r in data["relations"]]
    return ParameterDatum(rd, gens, rels, label=data.get("label", ""))


def main():
    import pathlib
    here = pathlib.Path(__file__).parent / "fixtures"
    here.mkdir(exist_ok=True)
    for name, datum, meta in [
            ("spin9", build_spin9(), {"q": 11, "tag": "unramified"}),
            ("biquadratic", build_biquadratic(), {"q": 11, "tag": "ramified"}),
            ("d4_sc", build_d4_sc(), {"q": 5, "tag": "simply-connected"})]:
        path = here / f"{name}.json"
        path.write_text(json.dumps(datum_to_json(datum, meta), indent=1,
                                   sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
