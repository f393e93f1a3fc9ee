"""Parameter centralizers in a dual-group model, and the D_{2n} calculus.

Elements of the normalizer N(T,G) (extended by pinned outer automorphisms)
are modeled as pairs (torus torsion point, matrix of the image in W ⋊ Out);
products go through the Tits section cocycle, so commutators of lifts carry
exactly the lambda_{u,v}(-1) corrections of the classical Tits-lift calculus.
The centralizer of a parameter datum is computed by enumerating the Weyl
candidates and solving the torus equations over Q/Z; the resulting extension
1 -> fixed torus -> S_phi -> Omega -> 1 is handed to the Clifford machinery.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .clifford import ExtensionDescriptor, has_multiplicity_one
from .errors import FailedCheck, InvalidCycleType, InvalidPrimePower
from .exactcore import (
    FinAb,
    Mat,
    QV,
    RankReport,
    abelian_basis,
    coinvariants,
    prime_power,
    simultaneous_fixed_points,
    twisted_fixed_points,
)
from .rootdata import RootDatum, WeylElement, build_classical, lambda_pair, tits_cocycle


class NormalizerElement:
    """(torus part, image in W ⋊ Out) in the Tits model of N(T,G).

    ``m`` is the V-side matrix of the element's image: a Weyl element times
    a pinned outer automorphism.
    """

    __slots__ = ("rd", "tau", "m")

    def __init__(self, rd: RootDatum, tau: QV, m: Mat = None):
        self.rd = rd
        self.tau = tau
        self.m = m if m is not None else Mat.identity(rd.rank)

    def cochar(self) -> Mat:
        return self.rd.cochar_coord_matrix(self.m)

    def __eq__(self, other):
        return (self.tau, self.m) == (other.tau, other.m)

    def is_identity(self) -> bool:
        return self.tau.is_zero() and self.m == Mat.identity(self.rd.rank)

    def mul(self, other: "NormalizerElement") -> "NormalizerElement":
        """(tau1 + m1.tau2 + z(m1, m2), m1 m2), z the Tits section cocycle.

        This is the product n(w1)o1 n(w2)o2 = z(w1, o1 w2 o1^-1)
        n(w1 o1 w2 o1^-1) o1 o2 of the Weyl/outer split, read off the totals
        m = w o.  A pinned o maps the positive roots onto themselves (Tits,
        J. Algebra 4 (1966); Humphreys, Reflection Groups and Coxeter Groups,
        §1.8), so b -> o b permutes them and N(w o) = N(w) for every w.  Hence
        z(w1, o1 w2 o1^-1) = z(m1, m2), because N(m1) = N(w1) and
        N(m1 m2) = N(w1 o1 w2 o1^-1), and the product's Weyl and outer parts
        multiply to m1 m2.  The split of m into W times a pinned part is
        unique, since W ∩ Stab(Φ⁺) = 1, so comparing m is comparing both
        parts.
        """
        tau = (self.tau + other.tau.act(self.cochar())
               + tits_cocycle(self.rd, self.m, other.m))
        return NormalizerElement(self.rd, tau, self.m * other.m)

    def inverse(self) -> "NormalizerElement":
        rd = self.rd
        cand = NormalizerElement(rd, QV.zero(rd.rank), rd.inverse(self.m))
        # self * cand is a torus point, and cand.m = m^-1
        shift = (-self.mul(cand).tau).act(cand.cochar())
        out = NormalizerElement(rd, shift, cand.m)
        if not self.mul(out).is_identity():
            raise FailedCheck("inverse construction failed")
        return out

    def conj(self, other: "NormalizerElement") -> "NormalizerElement":
        return self.mul(other).mul(self.inverse())

    def power(self, k: int) -> "NormalizerElement":
        out = NormalizerElement(self.rd, QV.zero(self.rd.rank))
        base = self
        if k < 0:
            base = self.inverse()
            k = -k
        while k:
            if k & 1:
                out = out.mul(base)
            k >>= 1
            if k:
                base = base.mul(base)
        return out


class ParameterDatum:
    """Finite-order generators (torus, Weyl, outer) plus declared relations.

    ``triples`` keeps each generator as given, None read as the identity,
    for the JSON form; ``generators`` holds (torus, Weyl times outer).  Each
    outer part must be pinned: it maps the positive roots onto themselves.
    Relations are tuples ("conj_power", i, j, q): g_i g_j g_i^{-1} = g_j^q,
    validated in the model on construction as g_i g_j = g_j^q g_i.
    """

    def __init__(self, rd: RootDatum, generators, relations=(), label=""):
        self.rd = rd
        one = Mat.identity(rd.rank)
        self.triples = [(QV(t), one if w is None else w,
                         one if o is None else o) for (t, w, o) in generators]
        self.generators = [NormalizerElement(rd, t, w * o)
                           for (t, w, o) in self.triples]
        self.relations = tuple(relations)
        self.label = label
        self._validate()

    def _validate(self):
        if not self.generators:
            raise ValueError("a parameter datum needs at least one generator")
        for g, (_, _, o) in zip(self.generators, self.triples):
            if not self.rd.root_permutation_ok(g.m):
                raise ValueError("generator does not permute the roots")
            g.cochar()  # must preserve the cocharacter lattice
            if self.rd.inversion_set(o):
                raise ValueError("outer part is not pinned")
        for rel in self.relations:
            if not rel or rel[0] != "conj_power":
                raise ValueError(f"relation {rel} is not of a known kind")
            _, i, j, q = rel
            if not {i, j} <= set(range(len(self.generators))):
                raise ValueError(f"relation {rel} names a missing generator")
            gi, gj = self.generators[i], self.generators[j]
            if gi.mul(gj) != gj.power(q).mul(gi):
                raise ValueError(f"relation {rel} fails in the model")

    def conjugate(self, weyl_mat: Mat) -> "ParameterDatum":
        """The datum conjugated by a (lifted) Weyl element.

        x g x^-1 keeps g's outer part o, so its Weyl part is m' o^-1.
        """
        x = NormalizerElement(self.rd, QV.zero(self.rd.rank), weyl_mat)
        gens = []
        for g, (_, _, o) in zip(self.generators, self.triples):
            h = x.conj(g)
            gens.append((h.tau.coords, h.m * self.rd.inverse(o), o))
        return ParameterDatum(self.rd, gens, self.relations,
                              label=self.label + "+conj")


class CentralizerReport:
    __slots__ = ("fixed_torus", "omega_matrices", "omega_factors", "extension",
                 "mult_one", "witness", "s_phi_order", "notes", "lifts")

    def __init__(self, fixed_torus, omega_matrices, omega_factors, extension,
                 mult_one, witness, s_phi_order, notes, lifts):
        self.fixed_torus = fixed_torus
        self.omega_matrices = omega_matrices
        self.omega_factors = omega_factors
        self.extension = extension
        self.mult_one = mult_one
        self.witness = witness
        self.s_phi_order = s_phi_order
        self.notes = notes
        self.lifts = lifts

    def to_json(self):
        ft = self.fixed_torus
        if isinstance(ft, RankReport):
            torus = {"free_rank": ft.free_rank,
                     "torsion": list(ft.torsion.factors)}
        else:
            torus = {"free_rank": 0, "torsion": list(ft.factors)}
        return {"fixed_torus": torus,
                "omega_order": len(self.omega_matrices),
                "omega_factors": list(self.omega_factors or ()),
                "s_phi_order": self.s_phi_order,
                "mult_one": self.mult_one,
                "notes": self.notes}


def centralizer(datum: ParameterDatum) -> CentralizerReport:
    """Cent of the datum's image in the dual group, as an extension report.

    Enumerates Weyl candidates commuting with every generator's image in
    W ⋊ Out, solves the torus equations by SNF over Q/Z, and verifies each
    lift directly in the model before reading off the extension cocycle.
    """
    rd = datum.rd
    weyl = rd.weyl_group()    # TooLarge before any torus work
    notes = []
    gens = datum.generators
    fixed = simultaneous_fixed_points([g.cochar() for g in gens])
    if isinstance(fixed, RankReport):
        notes.append("fixed torus has positive rank; extension omitted")
        return CentralizerReport(fixed, [], None, None, None, None, None,
                                 notes, {})

    lifts = {}
    omega = []    # m = 1 lifts with tau = 0, so omega is never empty
    ident = Mat.identity(rd.rank)
    for m in weyl:
        if not all(m.commutes_with(g.m) for g in gens):
            continue
        tau = _solve_lift(rd, m, gens, fixed)
        if tau is None:
            continue
        x = NormalizerElement(rd, tau, m)
        for g in gens:
            if x.mul(g) != g.mul(x):
                raise FailedCheck("solved lift fails to centralize")
        omega.append(m)
        lifts[m] = x

    factors, basis, coords = abelian_basis(omega, Mat.__mul__, ident)
    if math.prod(factors) != len(omega):
        notes.append("omega part is non-abelian; extension omitted")
        return CentralizerReport(fixed, omega, None, None, None, None,
                                 fixed.order * len(omega), notes, lifts)
    ext = _extension_from_lifts(rd, fixed, factors, basis, coords, lifts)
    mult_one, witness = (True, None)
    if ext is not None:
        mult_one, witness = has_multiplicity_one(ext)
    return CentralizerReport(fixed, omega, tuple(factors), ext, mult_one,
                             witness, fixed.order * len(omega), notes, lifts)


def _solve_lift(rd: RootDatum, m: Mat, gens, fixed: FinAb):
    """tau with (tau, m) centralizing all generators, or None.

    With x0 = (0, m) and v = g.cochar(), x g = g x exactly when
    (v - 1) tau = (x0 g).tau - (g x0).tau.  ``fixed`` is the kernel of the
    (v - 1) blocks stacked in generator order, so it solves the system; a
    zero block (v = 1) with a non-zero right side has no solution.
    """
    x0 = NormalizerElement(rd, QV.zero(rd.rank), m)
    one = Mat.identity(rd.rank)
    rhs = []
    for g in gens:
        part = x0.mul(g).tau - g.mul(x0).tau
        if not part.is_zero() and g.cochar() == one:
            return None
        rhs += part.coords
    return fixed.solve(QV(rhs))


def _extension_from_lifts(rd, fixed: FinAb, factors, basis, coords, lifts):
    if not lifts:
        return None
    # action matrices of the chosen C-generators on the fixed torus
    action = [fixed.induced(rd.cochar_coord_matrix(b)) for b in basis]
    if not factors:
        return ExtensionDescriptor(fixed.factors, [], [], {})

    c_group = FinAb.abstract(factors)
    lift_at = {coords[m]: x for m, x in lifts.items()}

    cocycle = {}
    for c1 in c_group.elements():
        x1 = lift_at[c1]
        for c2 in c_group.elements():
            x2 = lift_at[c2]
            x12 = lift_at[c_group.add(c1, c2)]
            # x1 x2 x12^{-1} is the torus point (x1 x2).tau - x12.tau
            prod = x1.mul(x2)
            if prod.m != x12.m:
                raise FailedCheck("cocycle word has a Weyl part")
            cocycle[(c1, c2)] = fixed.project(prod.tau - x12.tau)
    return ExtensionDescriptor(fixed.factors, factors, action, cocycle)


def mult_one_check_suite(datum: ParameterDatum, tag: str = "") -> dict:
    """Run the centralizer and compare against the tagged expectation.

    Data tagged simply-connected or unramified must come out with
    multiplicity one; untagged or ramified data may fail.
    """
    rep = centralizer(datum)
    must_hold = tag in ("simply-connected", "unramified")
    consistent = (rep.mult_one is True) if must_hold else True
    return {"label": datum.label, "tag": tag, "mult_one": rep.mult_one,
            "consistent": consistent, "s_phi_order": rep.s_phi_order,
            "omega_factors": list(rep.omega_factors or ()),
            "report": rep}


# ---------------------------------------------------------------------------
# D_{2n} commutator verification
# ---------------------------------------------------------------------------


class D2nReport:
    __slots__ = ("n", "q", "cycle_lengths", "lambda_w1_w0_empty",
                 "lambda_w2_w0_size", "lam", "b", "mu", "mu_denominators",
                 "lift_w1_fixed", "lift_w2_found", "half_lambda_w1_w2_integral",
                 "commutator_class_trivial", "fixed_group_factors",
                 "commutator_coords", "solve_affine_used")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def to_json(self):
        return {k: _jsonable(getattr(self, k)) for k in self.__slots__}

    @property
    def ok(self):
        return (self.lambda_w1_w0_empty and self.lift_w1_fixed
                and self.lift_w2_found and self.commutator_class_trivial)


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def d2n_w_elements(n: int, cycle_lengths):
    """(rd, w0, w1, w2) in D_{2n}: the consecutive-negative-cycle normal form."""
    if n < 2:
        raise InvalidCycleType("need n >= 2")
    lens = list(cycle_lengths)
    if not lens or lens[0] != 1 or any(l < 1 for l in lens) or sum(lens) != n:
        raise InvalidCycleType("cycle lengths must be (1, l2, ...) summing to n")
    rank = 2 * n
    rd = build_classical("D", rank, "sc")
    # w0' on the first n coordinates: consecutive increasing negative cycles
    perm = list(range(rank))
    signs = [1] * rank
    start = 0
    for l in lens:
        block = list(range(start, start + l))
        for j in block[:-1]:
            perm[j] = j + 1
        perm[block[-1]] = block[0]
        signs[block[-1]] = -1
        start += l
    # mirror through m(e_i) = e_{2n-1-i}
    for j in range(n):
        src = rank - 1 - j
        img = perm[j]
        perm[src] = rank - 1 - img
        signs[src] = signs[j]
    from .rootdata import signed_perm_element
    w0 = signed_perm_element(rd, perm, signs)
    w1 = signed_perm_element(rd, list(range(rank)),
                             [-1] + [1] * (rank - 2) + [-1])
    mrev = signed_perm_element(rd, list(reversed(range(rank))), [1] * rank)
    w2 = WeylElement(rd, -Mat.identity(rank) * mrev.matrix)
    return rd, w0, w1, w2


def d2n_verify(n: int, q: int, cycle_lengths) -> D2nReport:
    """The constructive commutator computation for split D_{2n}.

    Builds w0 (elliptic, from the cycle type), w1, w2; checks that the Tits
    lift of w1 is Frobenius-fixed, corrects the lift of w2 by the torus
    element mu = (q w0 - 1)^{-1} (lambda_{w2,w0} / 2), and projects the
    commutator of the two fixed lifts to the coinvariants of the fixed torus.
    q = 1 is the complex (Ad-only) case.
    """
    if q != 1:
        try:
            p, _ = prime_power(q)
        except InvalidPrimePower:
            p = None
        if p in (None, 2):
            raise InvalidCycleType("q must be 1 or an odd prime power")
    rd, w0, w1, w2 = d2n_w_elements(n, cycle_lengths)
    rank = 2 * n
    for u, v in ((w0, w1), (w0, w2), (w1, w2)):
        if not u.commutes_with(v):
            raise FailedCheck("w0, w1, w2 must commute")
    f_ambient = q * rd.dual_matrix(w0.matrix)
    f_coords = q * rd.cochar_coord_matrix(w0.matrix)

    pair10 = lambda_pair(rd, w1, w0)
    pair20 = lambda_pair(rd, w2, w0)
    pair12 = lambda_pair(rd, w1, w2)

    # mu = (q w0 - 1)^{-1} (lambda/2), ambient coordinates
    half = [Fraction(x, 2) for x in pair20.lam]
    mu = (f_ambient - Mat.identity(rank)).inverse().apply(half)
    mu_dens = [Fraction(x).denominator for x in mu]
    lens = list(cycle_lengths)
    for i, den in enumerate(mu_dens):
        cyc = _cycle_of(i, lens, n)
        if (2 * (q ** cyc + 1)) % den:
            raise FailedCheck("mu denominator outside q^l + 1 shape")
    mu_coords = QV(rd.coroot_coords(mu))
    if q != 1 and mu_coords.order() % p == 0:
        raise FailedCheck("mu class order is divisible by p")

    # f-fixedness: the w2 lift corrected by mu satisfies (F-1)mu = lambda/2
    target = QV(rd.coroot_coords(half))
    img = QV((f_coords - Mat.identity(rank)).apply(mu_coords.coords))
    lift_w2_found = (img == target)
    fixed = twisted_fixed_points(f_coords)
    sol = fixed.solve(target)
    solve_affine_used = sol is not None and fixed.contains(mu_coords - sol)

    b = 2 * n - 2 * len(lens)
    lam_ok = (pair20.lam[0] == b and pair20.lam[rank - 1] == b)
    if not lam_ok:
        raise FailedCheck("edge coordinates of lambda disagree with b")
    if b % 2:
        raise FailedCheck("b must be even")

    # commutator of the fixed lifts: (w1 - 1) mu + lambda_{w1,w2}/2
    w1c = rd.cochar_coord_matrix(w1.matrix)
    comm = (QV(w1c.apply(mu_coords.coords)) - mu_coords
            + pair12.half_class_coords)
    fixed_check = QV((f_coords - Mat.identity(rank)).apply(comm.coords))
    if not fixed_check.is_zero():
        raise FailedCheck("commutator is not Frobenius-fixed")

    acts = [fixed.induced(rd.cochar_coord_matrix(w.matrix)) for w in (w1, w2)]
    quot = coinvariants(fixed, acts)
    cls = quot.project(fixed.project(comm))
    trivial = (cls == quot.group.zero)

    return D2nReport(
        n=n, q=q, cycle_lengths=tuple(lens),
        lambda_w1_w0_empty=(len(pair10.roots) == 0),
        lambda_w2_w0_size=len(pair20.roots),
        lam=tuple(int(x) for x in pair20.lam),
        b=b,
        mu=tuple(str(x) for x in mu),
        mu_denominators=mu_dens,
        lift_w1_fixed=pair10.half_class_coords.is_zero(),
        lift_w2_found=bool(lift_w2_found and solve_affine_used),
        half_lambda_w1_w2_integral=pair12.trivial,
        commutator_class_trivial=trivial,
        fixed_group_factors=tuple(fixed.factors),
        commutator_coords=tuple(str(c) for c in comm.coords),
        solve_affine_used=solve_affine_used,
    )


def _cycle_of(i: int, lens, n: int) -> int:
    j = i if i < n else 2 * n - 1 - i
    start = 0
    for l in lens:
        if start <= j < start + l:
            return l
        start += l
    raise IndexError


def admissible_cycle_types(n: int):
    """All compositions (1, l2, ..., lk) of n."""
    def rec(rest):
        if rest == 0:
            yield ()
            return
        for first in range(1, rest + 1):
            for tail in rec(rest - first):
                yield (first,) + tail

    return [(1,) + tail for tail in rec(n - 1)]
