"""Finite-group cochain calculus for intertwining-operator normalization.

The geometric input (a family of operators indexed by pairs of basepoints,
composing incorrectly by scalars) is abstracted to an EtaFamily: a finite
group acting on a finite set X and a defect function eta on X^3 valued in
Q/Z.  The package computes the induced group 2-cocycles at basepoints, the
beta corrections comparing basepoints, and coherent splittings when the
obstruction class vanishes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import NotNormal, UnequalStabilizers
from .exactcore import FinAb, Mat, abelian_basis, generating_words, solve_mod


class FiniteGroup:
    """A finite group given by element labels and a multiplication map."""

    def __init__(self, elements, mul, identity=None):
        self.elements = tuple(elements)
        self.index = {g: i for i, g in enumerate(self.elements)}
        self._mul = {}
        for a in self.elements:
            for b in self.elements:
                c = mul(a, b)
                if c not in self.index:
                    raise ValueError("multiplication leaves the element set")
                self._mul[(a, b)] = c
        if identity is None:
            identity = next((e for e in self.elements if all(
                self._mul[(e, g)] == g for g in self.elements)), None)
        self.identity = identity
        self._inv = {a: b for (a, b), c in self._mul.items() if c == identity}
        self._validate()

    def _validate(self):
        """Identity, inverses and Light's associativity test (Clifford–Preston,
        *The Algebraic Theory of Semigroups* I, §1.2): L = {g : (xg)y = x(gy)
        for all x, y} holds 1 and is closed under products, as for g, h in L
        (x(gh))y = ((xg)h)y = (xg)(hy) = x(g(hy)) = x((gh)y).  So L is G once
        it holds the greedy ``generators``: |G|²·|S| products, not |G|³.
        """
        els, e, mul = self.elements, self.identity, self.mul
        if e not in self.index or any(
                self._mul[(e, a)] != a or self._mul[(a, e)] != a for a in els):
            raise ValueError("identity axiom fails")
        if len(self._inv) != len(els):
            raise ValueError("an element has no inverse")
        self.generators = generating_words(els, mul, e)[0]
        for g, x in itertools.product(self.generators, els):
            xg = mul(x, g)
            if any(mul(xg, y) != mul(x, mul(g, y)) for y in els):
                raise ValueError("associativity fails")

    def __len__(self):
        return len(self.elements)

    def mul(self, a, b):
        return self._mul[(a, b)]

    def inv(self, a):
        return self._inv[a]

    def is_abelian(self) -> bool:
        return all(self.mul(a, b) == self.mul(b, a)
                   for a, b in itertools.combinations(self.generators, 2))

    def homs_to_qz(self):
        """All homomorphisms into Q/Z, as dicts g -> Fraction.

        Each is a character of the abelianization ⊕ Z/d_i composed with the
        SNF coordinates of ``abelian_basis``.
        """
        factors, _, coords = abelian_basis(self.elements, self.mul, self.identity)
        dual = FinAb.abstract(factors)
        return [{g: dual.char_value(x, coords[g]) for g in self.elements}
                for x in dual.characters()]


def group_from_table(elements, table) -> FiniteGroup:
    """Group from a dense multiplication table (list of lists of labels)."""
    if len(table) != len(elements) or any(len(r) != len(table) for r in table):
        raise ValueError("the multiplication table is not |G| x |G|")
    lookup = {(elements[i], elements[j]): table[i][j]
              for i in range(len(elements)) for j in range(len(elements))}
    return FiniteGroup(elements, lambda a, b: lookup[(a, b)])


def abelian_group(factors) -> FiniteGroup:
    """⊕ Z/d as a FiniteGroup on coordinate tuples."""
    factors = tuple(factors)
    els = list(itertools.product(*(range(d) for d in factors)))

    def mul(a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, factors))

    return FiniteGroup(els, mul, tuple(0 for _ in factors))


class EtaFamily:
    """A finite group action on X plus a defect function eta on X^3.

    Validated invariants: eta(U,U,V) = eta(U,V,V) = 0, the Cech cocycle
    identity on X^4, and invariance under the group action (all three hold
    automatically for the defect of an equivariant operator family).
    """

    def __init__(self, group: FiniteGroup, xset, action, eta):
        self.group = group
        self.xset = tuple(xset)
        self.action = action
        self._eta = dict(eta) if not callable(eta) else None
        self._eta_fn = eta if callable(eta) else None
        self._validate()

    def eta(self, u, v, w) -> Fraction:
        if self._eta_fn is not None:
            return Fraction(self._eta_fn(u, v, w)) % 1
        return Fraction(self._eta.get((u, v, w), 0)) % 1

    def act(self, g, u):
        return self.action(g, u)

    def _validate(self):
        """Exact, at |S|·|G|·|X| + (|S| + 1)·|X|³: the action law and
        invariance run g over the generators S, as the g satisfying either
        contain 1 and are closed under products.  The Cech identity runs
        through the cone at x0 = xset[0] (if X is not empty): ω(x0, ., ., .)
        = 0 for ω = δeta gives ω = 0, as δω = 0 (δ² = 0) at (x0, v1, .., v4)
        is ω(v1, .., v4) ± those values."""
        xs, group = self.xset, self.group
        if any(self.act(g, u) not in xs for g in group.elements for u in xs):
            raise ValueError("action leaves X")
        if any(self.act(group.identity, u) != u for u in xs) or any(
                self.act(group.mul(g, h), u) != self.act(g, self.act(h, u))
                for g in group.generators for h in group.elements for u in xs):
            raise ValueError("the action is not a group action")
        cone = {(v, w): self.eta(xs[0], v, w) for v in xs for w in xs}
        perms = [{u: self.act(g, u) for u in xs} for g in group.generators]
        for u1, u2, u3 in itertools.product(xs, repeat=3):
            val = self.eta(u1, u2, u3)
            if val and (u1 == u2 or u2 == u3):
                raise ValueError("eta fails the degenerate-triple law")
            if (val - cone[(u2, u3)] + cone[(u1, u3)] - cone[(u1, u2)]) % 1:
                raise ValueError("eta fails the Cech identity")
            if any(self.eta(p[u1], p[u2], p[u3]) != val for p in perms):
                raise ValueError("eta is not invariant")

    def stabilizer(self, u):
        return frozenset(g for g in self.group.elements if self.act(g, u) == u)


def family_from_phi(group, xset, action, phi) -> EtaFamily:
    """The family with eta = the defect of the scalar collection phi."""

    def eta(u, v, w):
        return (Fraction(phi(u, v)) + Fraction(phi(v, w)) - Fraction(phi(u, w))) % 1

    return EtaFamily(group, xset, action, eta)


def family_from_group_cocycle(group: FiniteGroup, z) -> EtaFamily:
    """Regular-torsor family whose basepoint cocycle is the given z."""

    def act(g, x):
        return group.mul(g, x)

    def eta(u, v, w):
        return Fraction(z(group.mul(group.inv(u), v),
                          group.mul(group.inv(v), w))) % 1

    return EtaFamily(group, group.elements, act, eta)


class BasepointCocycle:
    """Inhomogeneous 2-cocycle of the quotient group at a basepoint."""

    __slots__ = ("quotient", "coset_of", "table", "basepoint")

    def __init__(self, quotient, coset_of, table, basepoint):
        self.quotient = quotient
        self.coset_of = coset_of
        self.table = table
        self.basepoint = basepoint

    def __call__(self, a, b) -> Fraction:
        return self.table[(a, b)]


def eta_cocycle(fam: EtaFamily, basepoint) -> BasepointCocycle:
    """z(a,b) = eta(U, aU, abU) on Gammabar/Stab(U); Stab must be normal."""
    g = fam.group
    stab = fam.stabilizer(basepoint)
    for x in g.elements:
        conj = frozenset(g.mul(g.mul(x, s), g.inv(x)) for s in stab)
        if conj != stab:
            raise NotNormal("stabilizer of the basepoint is not normal")
    cosets = {}
    for x in g.elements:
        key = frozenset(g.mul(x, s) for s in stab)
        cosets.setdefault(key, []).append(x)
    labels = sorted(cosets, key=lambda c: sorted(map(repr, c)))
    coset_of = {x: labels.index(key) for key, xs in cosets.items() for x in xs}
    reps = {labels.index(key): sorted(xs, key=repr)[0] for key, xs in cosets.items()}

    def mul(i, j):
        return coset_of[g.mul(reps[i], reps[j])]

    quotient = FiniteGroup(tuple(range(len(labels))), mul, coset_of[g.identity])
    table = {}
    for i in quotient.elements:
        for j in quotient.elements:
            a, b = reps[i], reps[j]
            table[(i, j)] = fam.eta(basepoint, fam.act(a, basepoint),
                                    fam.act(g.mul(a, b), basepoint))
    # independence of coset representatives
    for x in g.elements:
        for y in g.elements:
            val = fam.eta(basepoint, fam.act(x, basepoint),
                          fam.act(g.mul(x, y), basepoint))
            if val != table[(coset_of[x], coset_of[y])]:
                raise NotNormal("cocycle not constant on stabilizer cosets")
    zc = BasepointCocycle(quotient, coset_of, table, basepoint)
    _assert_cocycle(zc)
    return zc


def _assert_cocycle(z: BasepointCocycle):
    """Light's test on E = Q/Z ×_z Q, (s, a)(t, b) = (s + t + z(a, b), ab), as
    in ``FiniteGroup._validate``: the identity at (a, b, c) is associativity
    over it, and a normalized z puts each (t, 1) in L, so b runs over
    ``q.generators`` only, |Q|²·|S|, since (t, 1)(s, x) = (t + s, x).
    """
    q = z.quotient
    for a in q.elements:
        if z(q.identity, a) or z(a, q.identity):
            raise ValueError("cocycle is not normalized")
    for a, b, c in itertools.product(q.elements, q.generators, q.elements):
        lhs = (z(b, c) - z(q.mul(a, b), c) + z(a, q.mul(b, c)) - z(a, b)) % 1
        if lhs:
            raise ValueError("basepoint function is not a 2-cocycle")


def general_beta(fam: EtaFamily, v, u):
    """beta_{V,U}(g) = eta(V, U, gU) - eta(V, gV, gU) on the group.

    V and U are arbitrary basepoints, possibly in different orbits.
    """
    g = fam.group
    return {a: (fam.eta(v, u, fam.act(a, u))
                - fam.eta(v, fam.act(a, v), fam.act(a, u))) % 1
            for a in g.elements}


class SplittingResult:
    __slots__ = ("splittings", "cocycles", "quotient")

    def __init__(self, splittings, cocycles, quotient):
        self.splittings = splittings      # basepoint -> {group element: Fraction}
        self.cocycles = cocycles
        self.quotient = quotient


class NoSplitting:
    __slots__ = ("certificate",)

    def __init__(self, certificate):
        self.certificate = certificate

    def __bool__(self):
        return False

    def __repr__(self):
        return f"NoSplitting({self.certificate!r})"


def coherent_splitting(fam: EtaFamily):
    """A coherent splitting {eps_U} when the class vanishes, else NoSplitting.

    Solved as an exact congruence system over 1/N-torsion, N = |group| times
    the lcm of the eta denominators (a complete search range: any solution
    satisfies |G| e(g) = sum_h z(g,h) modulo 1).
    """
    stabs = {u: fam.stabilizer(u) for u in fam.xset}
    if len(set(stabs.values())) != 1:
        raise UnequalStabilizers("coherent splittings need equal stabilizers")
    base = fam.xset[0]
    z = eta_cocycle(fam, base)
    q = z.quotient
    lcm_den = math.lcm(*(Fraction(val).denominator for val in z.table.values()))
    modulus = len(q.elements) * lcm_den
    sol = _solve_coboundary(q, z, modulus, negate=True)
    if sol is None:
        return NoSplitting(_certificate(q, z))
    eps_base = sol
    splittings = {base: eps_base}
    cocycles = {base: z}
    for u in fam.xset:
        if u == base:
            continue
        beta = general_beta(fam, u, base)
        zu = eta_cocycle(fam, u)
        eps_u = {}
        for g in q.elements:
            rep = next(x for x in fam.group.elements if z.coset_of[x] == g)
            eps_u[g] = (eps_base[g] + beta[rep]) % 1
        _assert_splits(q, zu, eps_u)
        splittings[u] = eps_u
        cocycles[u] = zu
    _assert_splits(q, z, eps_base)
    return SplittingResult(splittings, cocycles, q)


def _assert_splits(q, z, eps):
    for a in q.elements:
        for b in q.elements:
            if (eps[a] + eps[b] - eps[q.mul(a, b)] + z(a, b)) % 1:
                raise ValueError("claimed splitting fails")


def _solve_coboundary(q, z, modulus, negate=False):
    """e with de = -z (or +z) over (1/modulus)Z/Z, or None."""
    els = [g for g in q.elements if g != q.identity]
    idx = {g: i for i, g in enumerate(els)}
    rows, rhs = [], []
    sign = -1 if negate else 1
    for a in q.elements:
        for b in q.elements:
            row = [0] * len(els)
            for g, s in ((a, 1), (b, 1), (q.mul(a, b), -1)):
                if g != q.identity:
                    row[idx[g]] += s
            val = sign * Fraction(z(a, b)) * modulus
            if val.denominator != 1:
                raise ArithmeticError("modulus does not clear denominators")
            rows.append(row)
            rhs.append(int(val) % modulus)
    x = solve_mod(Mat(rows), rhs, modulus)
    if x is None:
        return None
    out = {q.identity: Fraction(0)}
    for g, xi in zip(els, x):
        out[g] = Fraction(xi % modulus, modulus)
    return out


def _certificate(q, z):
    if q.is_abelian():
        for a in q.elements:
            for b in q.elements:
                d = (z(a, b) - z(b, a)) % 1
                if d:
                    return {"kind": "antisymmetric-pairing", "pair": (a, b),
                            "value": d}
    return {"kind": "unsolvable-congruence"}


def splitting_difference(q: FiniteGroup, eps1, eps2):
    """The function eps2 - eps1; a coherent-splitting torsor difference."""
    return {g: (eps2[g] - eps1[g]) % 1 for g in q.elements}


def is_homomorphism(q: FiniteGroup, delta) -> bool:
    return all((delta[q.mul(a, b)] - delta[a] - delta[b]) % 1 == 0
               for a in q.elements for b in q.elements)


def act_on_splitting(q: FiniteGroup, eps, delta):
    return {g: (eps[g] + delta[g]) % 1 for g in q.elements}
