"""Extensions 1 -> A -> B -> C -> 1 of finite abelian groups.

An ExtensionDescriptor carries the action of C on A and a normalized
2-cocycle.  One pass over the C-orbits of characters of A (``orbits``)
gives both the multiplicity-one verdict with its witness pair and the
irreducible census, through stabilizers and the commutator pairing on
integers (character indices, Q/Z values as numerators over exp(A)).  The
commutator of two sections in coinvariants, read off the cocycle in closed
form, stays as the pair API and builds the witness character.  Neither
multiplies in B: ConcreteGroup realizes B on pairs (a, c) only for the
character-table oracle in dixon.py and the pair API.

ConcreteGroup also numbers its elements: element number i is
``elements[i]``, which is (a, c) with i = |A|·(index of c) + (index of a),
each index taken in ``FinAb.elements()`` order, so the identity is number 0.
On first use it builds the Cayley table on these numbers (|B|² entries, so
only the oracle asks for it, at |B| <= 512) from four small tables: the
additions of A and of C, the action c·a and the cocycle, each on indices.
The inverses, the conjugacy classes and the exponent are read from the
table.  The pair API (``mul``, ``inv``, ``section``) never builds it.

The descriptor memoizes the matrix of each C-element, its action on each
A-element, the coinvariant quotient of each ordered pair of action
matrices, and the orbit summaries.  These caches, and the group's table, are
safe because neither a descriptor nor a group is ever mutated after
construction.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from functools import cached_property
from typing import NamedTuple

from .errors import FailedCheck, InvalidExtension, NotEquivariant, TooLarge
from .exactcore import FinAb, Mat, coinvariants, solve_mod


class ExtensionDescriptor:
    """1 -> A -> B -> C -> 1 with C-action matrices and a normalized cocycle.

    ``action[j]`` is the matrix (in A's normal-form coordinates) by which the
    j-th generator of C acts; ``cocycle`` maps pairs of C-elements to
    A-elements.  The twisted 2-cocycle identity is validated on construction.
    """

    def __init__(self, a_factors, c_factors, action, cocycle):
        self.A = FinAb.abstract(a_factors)
        self.C = FinAb.abstract(c_factors)
        self.action = tuple(action)
        self._action_cache = {}
        self._act_values = {}
        self._quotients = {}
        self._orbits = None
        if len(self.action) != len(self.C.factors):
            raise InvalidExtension("one action matrix per C generator")
        raw = dict(cocycle) if not callable(cocycle) else {
            (c1, c2): cocycle(c1, c2)
            for c1 in self.C.elements() for c2 in self.C.elements()}
        self.cocycle = self._normalize(raw)
        self._validate()

    # -- plumbing ------------------------------------------------------------

    def action_matrix(self, c) -> Mat:
        """The matrix by which the C-element c acts on A (memoized)."""
        c = tuple(c)
        m = self._action_cache.get(c)
        if m is None:
            m = _action_matrix(self.action, len(self.A.factors), c)
            self._action_cache[c] = m
        return m

    def act(self, c, a):
        """The action of the C-element c on the A-element a (memoized)."""
        key = (tuple(c), tuple(a))
        out = self._act_values.get(key)
        if out is None:
            out = self.A.apply_matrix(self.action_matrix(key[0]), key[1])
            self._act_values[key] = out
        return out

    def coinvariant_quotient(self, c1, c2):
        """A modulo (σ - 1)A for σ the actions of c1 and c2 (memoized).

        The key is the ordered pair of action matrices, so pairs that act
        alike share one quotient, and it equals a fresh ``coinvariants``.
        """
        key = (self.action_matrix(c1), self.action_matrix(c2))
        quot = self._quotients.get(key)
        if quot is None:
            quot = coinvariants(self.A, list(key))
            self._quotients[key] = quot
        return quot

    def orbits(self):
        """One ``OrbitSummary`` per C-orbit of characters of A (memoized).

        Each orbit is represented by its first character rho in
        ``A.characters()`` order.  The pairing on C_rho is (c1, c2) |->
        rho(z(c1, c2)) - rho(z(c2, c1)), kept only as the radical's size and
        the first pair, in ``C.elements()`` order, where it is non-zero; the
        proof that this decides multiplicity one is in
        ``has_multiplicity_one``.  rho(c·e) = rho(e) is asserted for every c
        in C_rho and generator e of A: under rho, that is the shifted-section
        test of ``commutator_function`` on C_rho.
        """
        if self._orbits is not None:
            return self._orbits
        a, exp_a = self.A, self.A.exponent
        scale = [exp_a // d for d in a.factors]
        cs = list(self.C.elements())
        gens = a.standard_basis()

        def value(weights, x):
            """rho(x) as a numerator over exp(A); weights = rho_i·exp(A)/d_i."""
            return sum(map(operator.mul, weights, x)) % exp_a

        seen = set()
        out = []
        for rho in a.characters():
            if rho in seen:
                continue
            images = [_char_act(self, c, rho) for c in cs]
            orbit = set(images)
            seen |= orbit
            stab = [c for c, img in zip(cs, images) if img == rho]
            weights = [r * s for r, s in zip(rho, scale)]
            if any(value(weights, self.act(c, e)) != value(weights, e)
                   for c in stab for e in gens):
                raise FailedCheck("commutator class depends on the section")
            pushed = {key: value(weights, self.cocycle[key])
                      for key in itertools.product(stab, repeat=2)}
            radical, first = 0, None
            for c1 in stab:
                c2 = next((c2 for c2 in stab
                           if pushed[(c1, c2)] != pushed[(c2, c1)]), None)
                if c2 is None:
                    radical += 1
                elif first is None:
                    first = (c1, c2)
            out.append(OrbitSummary(rho, len(orbit), len(stab), radical,
                                    first))
        self._orbits = tuple(out)
        return self._orbits

    def z(self, c1, c2):
        return self.cocycle[(tuple(c1), tuple(c2))]

    def _normalize(self, raw):
        """Reduce the values into A's normal form and shift by the constant
        coboundary so z(1,.) = z(.,1) = 0; InvalidExtension for a key that
        is not a pair of C-elements in normal form or a value of the wrong
        length.
        """
        a, zero, factors = self.A, self.A.zero, self.A.factors
        pairs = list(itertools.product(self.C.elements(), repeat=2))
        stray = raw.keys() - set(pairs)
        if stray:
            raise InvalidExtension(f"cocycle key {min(stray)} is not a pair "
                                   f"in {self.C!r}")
        out = {}
        for key in pairs:
            v = raw.get(key, zero)
            if len(v) != len(factors):
                raise InvalidExtension(f"cocycle value {v} is not in {a!r}")
            out[key] = tuple([operator.index(x) % d
                              for x, d in zip(v, factors)])
        z11 = out[(self.C.zero, self.C.zero)]
        if z11 != zero:
            for c1, c2 in pairs:
                out[(c1, c2)] = a.add(out[(c1, c2)], a.neg(self.act(c1, z11)))
        return out

    def _validate(self):
        """Given a normalized z and a C-action, the cocycle identity runs c2
        over ``C.standard_basis()`` only, |C|²·rank C, by Light's test
        (Clifford–Preston, *The Algebraic Theory of Semigroups* I, §1.2): the
        bracketings of (a1, c1)(a2, c2)(a3, c3) differ by the identity's
        defect at (c1, c2, c3), so L = {g : (xg)y = x(gy) for all x, y} holds
        (a, c2) iff it holds at all (c1, c2, c3), as it does for c2 = 0.  L is
        closed under products, (x(gh))y = ((xg)h)y = (xg)(hy) = x(g(hy)) =
        x((gh)y), and (a, 0)(x, c) = (a + x, c): L = B once it holds (0, e_j).
        """
        if self.order() > 4096:
            raise TooLarge("extension too large to validate")
        cs = list(self.C.elements())
        zero = self.A.zero
        for c in cs:
            if self.z(self.C.zero, c) != zero or self.z(c, self.C.zero) != zero:
                raise InvalidExtension("cocycle is not normalized")
        # action must be by automorphisms and define a C-action
        if not all(self.A.is_automorphism(g) for g in self.action):
            raise InvalidExtension("action matrix is not an automorphism")
        if not all(_commute_on(self.A, g, h)
                   for g, h in itertools.product(self.action, repeat=2)):
            raise InvalidExtension("action matrices must commute on A")
        for j, g in enumerate(self.action):
            m = g ** self.C.factors[j]
            for a in self.A.standard_basis():
                if self.A.apply_matrix(m, a) != a:
                    raise InvalidExtension("action order incompatible with C")
        # twisted cocycle identity, c2 running over generators
        for c1, c2, c3 in itertools.product(cs, self.C.standard_basis(), cs):
            lhs = self.A.add(self.act(c1, self.z(c2, c3)),
                             self.z(c1, self.C.add(c2, c3)))
            rhs = self.A.add(self.z(c1, c2), self.z(self.C.add(c1, c2), c3))
            if lhs != rhs:
                raise InvalidExtension("2-cocycle identity fails")

    def order(self) -> int:
        return self.A.order * self.C.order

    def to_json(self):
        return {
            "A": list(self.A.factors),
            "C": list(self.C.factors),
            "action": [[list(r) for r in m.rows] for m in self.action],
            "cocycle": [[list(c1), list(c2), list(v)]
                        for (c1, c2), v in sorted(self.cocycle.items())],
        }

    @staticmethod
    def from_json(data) -> "ExtensionDescriptor":
        cocycle = {(tuple(c1), tuple(c2)): tuple(v)
                   for c1, c2, v in data["cocycle"]}
        return ExtensionDescriptor(data["A"], data["C"],
                                   [Mat(m) for m in data["action"]], cocycle)


class ConcreteGroup:
    """B realized on pairs (a, c) with the twisted multiplication.

    ``table`` and ``inverses`` work on element numbers (the module
    docstring); the other methods take and return pairs.
    """

    def __init__(self, ext: ExtensionDescriptor):
        if ext.order() > 4096:
            raise TooLarge("concrete group bounded at 4096 elements")
        self.ext = ext
        self.elements = [(a, c) for c in ext.C.elements()
                         for a in ext.A.elements()]
        self.identity = (ext.A.zero, ext.C.zero)
        self._classes = None

    def mul(self, x, y):
        a1, c1 = x
        a2, c2 = y
        a = self.ext.A.add(self.ext.A.add(a1, self.ext.act(c1, a2)),
                           self.ext.z(c1, c2))
        return (a, self.ext.C.add(c1, c2))

    def inv(self, x):
        a, c = x
        ci = self.ext.C.neg(c)
        # (a', ci) with (a,c)(a',ci) = identity
        ap = self.ext.act(ci, self.ext.A.add(a, self.ext.z(c, ci)))
        return (self.ext.A.neg(ap), ci)

    @cached_property
    def number(self):
        """The number of each element: its position in ``elements``."""
        return {x: i for i, x in enumerate(self.elements)}

    @cached_property
    def table(self):
        """The Cayley table: ``table[i][j]`` numbers elements[i]·elements[j].

        (a1, c1)(a2, c2) = (a1 + c1·a2 + z(c1, c2), c1 + c2), read off the
        index tables of A and C.
        """
        ext = self.ext
        a_els, c_els = list(ext.A.elements()), list(ext.C.elements())
        n_a = len(a_els)
        a_num = {a: i for i, a in enumerate(a_els)}
        add_a = _addition_table(ext.A.factors)
        add_c = _addition_table(ext.C.factors)
        rows = []
        for i, c1 in enumerate(c_els):
            act = [a_num[ext.act(c1, a)] for a in a_els]
            # per c2: the number of (0, c1 + c2), and a2 -> c1·a2 + z(c1, c2)
            blocks = []
            for j, c2 in enumerate(c_els):
                shift = add_a[a_num[ext.z(c1, c2)]]
                blocks.append((add_c[i][j] * n_a, [shift[v] for v in act]))
            for a1 in range(n_a):
                plus_a1 = add_a[a1]
                row = []
                for base, block in blocks:
                    row += [base + plus_a1[v] for v in block]
                rows.append(row)
        return rows

    @cached_property
    def inverses(self):
        """``inverses[i]`` is the number of the inverse of element i."""
        return [row.index(0) for row in self.table]

    def exponent(self) -> int:
        table = self.table
        out = 1
        for x in range(len(table)):
            k, y = 1, x
            while y:
                y = table[y][x]
                k += 1
            out = math.lcm(out, k)
        return out

    @cached_property
    def generators(self):
        """(e_i, 0) and (0, f_j): they generate B, as (a, 0)(0, c) = (a, c)."""
        zero_a, zero_c = self.ext.A.zero, self.ext.C.zero
        return ([(a, zero_c) for a in self.ext.A.standard_basis()]
                + [(zero_a, c) for c in self.ext.C.standard_basis()])

    def is_abelian(self) -> bool:
        """Do the generators of B commute pairwise?"""
        return all(self.mul(x, y) == self.mul(y, x)
                   for x, y in itertools.combinations(self.generators, 2))

    def conjugacy_classes(self):
        """The classes as sorted tuples of pairs, in sorted order."""
        if self._classes is None:
            table, inverses, els = self.table, self.inverses, self.elements
            seen = [False] * len(els)
            classes = []
            for x in range(len(els)):
                if seen[x]:
                    continue
                orbit = {table[row[x]][g_inv]
                         for row, g_inv in zip(table, inverses)}
                for y in orbit:
                    seen[y] = True
                classes.append(tuple(sorted(els[y] for y in orbit)))
            self._classes = sorted(classes)
        return self._classes

    def section(self, c):
        return (self.ext.A.zero, c)


def _addition_table(factors):
    """Addition on the indices 0..n-1 of ⊕ Z/d in ``FinAb.elements()`` order."""
    table = [[0]]
    for d in reversed(factors):
        n = len(table)
        table = [[(x + y) % d * n + v for y in range(d) for v in row]
                 for x in range(d) for row in table]
    return table


def commutator_function(ext: ExtensionDescriptor, c1, c2):
    """Image of s(c1)s(c2)s(c1)^{-1}s(c2)^{-1} in the <c1,c2>-coinvariants.

    Returns (coinvariant quotient, class).  Section independence is asserted
    by recomputing with the section of c1 shifted by each generator of A.
    """
    quot = ext.coinvariant_quotient(c1, c2)
    word, shifted = _commutator_words(ext, c1, c2)
    cls = quot.project(word)
    if any(quot.project(w) != cls for w in shifted):
        raise FailedCheck("commutator class depends on the section")
    return quot, cls


def _commutator_words(ext: ExtensionDescriptor, c1, c2):
    """[s(c1), s(c2)] in A for the zero section and the shifted ones.

    For s(c) = (0, c) the group law gives s(c1)s(c2) = (z(c1, c2), c1 + c2)
    and s(c2)s(c1) = (z(c2, c1), c1 + c2), both over c1 + c2 as C is abelian,
    so [s(c1), s(c2)] = s(c1)s(c2)·(s(c2)s(c1))^{-1} = z(c1, c2) - z(c2, c1).
    The section (t, c1) = t·s(c1) gives t·word·s(c2)t^{-1}s(c2)^{-1}, that is
    word + t - c2·t, linear in t: one shifted word per generator t of A.
    """
    a = ext.A
    z12, z21 = ext.z(c1, c2), ext.z(c2, c1)
    word = tuple((x - y) % d for x, y, d in zip(z12, z21, a.factors))
    shifted = [tuple((w + x - y) % d for w, x, y, d
                     in zip(word, t, ext.act(c2, t), a.factors))
               for t in a.standard_basis()]
    return word, shifted


def has_multiplicity_one(ext: ExtensionDescriptor):
    """(bool, witness): the multiplicity-one criterion via the commutator.

    The pair (c1, c2) fails when the class of w = z(c1, c2) - z(c2, c1), the
    commutator of the sections, is non-zero in A_H for H = <c1, c2>.  As
    (A_H)^ = (A^)^H, that class is 0 exactly when every H-invariant rho,
    that is every rho with c1, c2 in C_rho, kills w.  Orbit representatives
    suffice: C is abelian, so C_{c·rho} = C_rho, and conjugating s(c1),
    s(c2) by s(c) gives sections of c1, c2 with commutator c·w, so section
    independence in A_H gives rho(c·w) = rho(w), that is (c^{-1}·rho)(w) =
    rho(w).  The failing pairs are therefore the pairs in some C_rho², rho
    an orbit representative, where rho(w) != 0, and the first of them in
    ``C.elements()`` order is the least ``first_pair`` of ``ext.orbits()``.

    On failure the witness is (c1, c2, rho) for that pair, where rho is a
    character of A that is <c1,c2>-invariant and nontrivial on the
    commutator, built through ``commutator_function`` on that pair alone.
    """
    pairs = [o.first_pair for o in ext.orbits() if o.first_pair is not None]
    if not pairs:
        return True, None
    c1, c2 = min(pairs)
    quot, cls = commutator_function(ext, c1, c2)
    return False, (c1, c2, _separating_character(ext, quot, cls))


def _separating_character(ext, quot, cls):
    """A character of A, invariant under the pair, nontrivial on the class."""
    q = quot.group
    for x in q.elements():
        if q.char_value(x, cls) != 0:
            # pull back along the projection: character of A
            def rho(a, _x=x):
                return q.char_value(_x, quot.project(a))

            return rho
    raise FailedCheck("no separating character found")


class Pullback(NamedTuple):
    matrix: Mat
    c_factors: tuple


class Pushout(NamedTuple):
    matrix: Mat
    a_factors: tuple


def transform(ext: ExtensionDescriptor, op):
    """Pullback along C' -> C, pushout along A -> A', or Cartesian product."""
    if isinstance(op, Pullback):
        cp = FinAb.abstract(op.c_factors)
        m = op.matrix
        _check_homomorphism(cp, ext.C, m, "pullback")
        action = [ext.action_matrix(ext.C.apply_matrix(m, g))
                  for g in cp.standard_basis()]
        cocycle = {(c1, c2): ext.z(ext.C.apply_matrix(m, c1),
                                   ext.C.apply_matrix(m, c2))
                   for c1 in cp.elements() for c2 in cp.elements()}
        return ExtensionDescriptor(ext.A.factors, op.c_factors, action, cocycle)
    if isinstance(op, Pushout):
        ap = FinAb.abstract(op.a_factors)
        m = op.matrix
        _check_homomorphism(ext.A, ap, m, "pushout")
        # the pushout action matrices A' -> A' must commute with the map
        new_action = []
        for g in ext.action:
            rows = _induced_matrix(ext.A, ap, m, g)
            if rows is None:
                raise NotEquivariant("pushout map is not C-equivariant")
            new_action.append(rows)
        cocycle = {(c1, c2): ap.apply_matrix(m, ext.z(c1, c2))
                   for c1 in ext.C.elements() for c2 in ext.C.elements()}
        return ExtensionDescriptor(op.a_factors, ext.C.factors, new_action,
                                   cocycle)
    if isinstance(op, ExtensionDescriptor):
        other = op
        a_factors = list(ext.A.factors) + list(other.A.factors)
        c_factors = list(ext.C.factors) + list(other.C.factors)
        ka, kb = len(ext.A.factors), len(other.A.factors)
        action = ([_block_diag(g, Mat.identity(kb)) for g in ext.action]
                  + [_block_diag(Mat.identity(ka), g) for g in other.action])
        pairs = itertools.product(ext.cocycle.items(), other.cocycle.items())
        cocycle = {(c1a + c1b, c2a + c2b): za + zb
                   for ((c1a, c2a), za), ((c1b, c2b), zb) in pairs}
        return ExtensionDescriptor(a_factors, c_factors, action, cocycle)
    raise InvalidExtension("unknown transform")


def _check_homomorphism(src: FinAb, dst: FinAb, m: Mat, name: str):
    """Raise unless d_j·m(e_j) = 0 in dst for every generator e_j of src."""
    for d, e in zip(src.factors, src.standard_basis()):
        if dst.smul(d, dst.apply_matrix(m, e)) != dst.zero:
            raise InvalidExtension(f"{name} map is not a homomorphism")


def _induced_matrix(a_group: FinAb, ap_group: FinAb, proj: Mat, g: Mat):
    """Matrix on A' with proj∘g = (matrix)∘proj, or None if not induced.

    Column j is proj(g(s_j)) for any s_j with proj(s_j) = e_j (a congruence
    mod the exponent of A'); proj is a homomorphism, so the choice of s_j
    does not matter.
    """
    k = len(ap_group.factors)
    if k == 0:
        return Mat.identity(0)
    n = ap_group.exponent
    scale = [n // d for d in ap_group.factors]
    scaled = Mat([[c * x for x in row] for c, row in zip(scale, proj.rows)])
    cols = []
    for e in ap_group.standard_basis():
        s = solve_mod(scaled, [c * x for c, x in zip(scale, e)], n)
        if s is None:
            return None
        cols.append(ap_group.apply_matrix(proj, a_group.apply_matrix(g, s)))
    m = Mat(zip(*cols))
    # verify equivariance on every generator
    for a in a_group.standard_basis():
        if ap_group.apply_matrix(m, ap_group.apply_matrix(proj, a)) != \
                ap_group.apply_matrix(proj, a_group.apply_matrix(g, a)):
            return None
    return m


def _block_diag(*mats):
    """The block-diagonal matrix with the given blocks, in order."""
    n = sum(m.ncols for m in mats)
    rows = []
    off = 0
    for m in mats:
        for r in m.rows:
            rows.append([0] * off + list(r) + [0] * (n - off - m.ncols))
        off += m.ncols
    return Mat(rows)


class CensusEntry(NamedTuple):
    dimension: int
    orbit_size: int
    multiplicity: int
    count: int
    orbit_rep: tuple

    def to_json(self):
        return {**self._asdict(), "orbit_rep": list(self.orbit_rep)}


class OrbitSummary(NamedTuple):
    """A C-orbit of characters of A, as ``ExtensionDescriptor.orbits`` keeps it.

    ``rho`` represents the orbit, ``stabilizer`` and ``radical`` are the
    orders of C_rho and of the radical of the commutator pairing on it, and
    ``first_pair`` is the first (c1, c2) where that pairing is non-zero, or
    None.
    """
    rho: tuple
    orbit_size: int
    stabilizer: int
    radical: int
    first_pair: tuple | None


def irrep_census(ext: ExtensionDescriptor):
    """Census of Irr(B) via Clifford theory over the characters of A.

    For each C-orbit of characters rho of A (``ext.orbits()``): the
    stabilizer C_rho, the pushed-out cocycle rho∘z on C_rho (trivial iff
    symmetric, since the coefficients are divisible), the projective
    dimension m = sqrt of the index of the radical of its commutator
    pairing, and the census entry (dim = orbit * m, count = |C_rho| / m^2).
    """
    if ext.order() > 4096:
        raise TooLarge("census bounded at 4096")
    entries = []
    for o in ext.orbits():
        m2 = o.stabilizer // o.radical
        m = math.isqrt(m2)
        if m * m != m2:
            raise FailedCheck("commutator pairing radical of odd index")
        entries.append(CensusEntry(o.orbit_size * m, o.orbit_size, m,
                                   o.stabilizer // m2, o.rho))
    total = sum(e.dimension ** 2 * e.count for e in entries)
    if total != ext.order():
        raise FailedCheck("census mass formula fails")
    return entries


def _char_act(ext: ExtensionDescriptor, c, rho):
    """(c·rho)(a) = rho(c^{-1} a): the action on the character indices.

    With m the matrix of c^{-1} and e = exp(A), rho(m e_j) is
    (sum_i rho_i·m_ij·e/d_i mod e)/e: index j is that numerator over e/d_j.
    """
    factors, e = ext.A.factors, ext.A.exponent
    rows = ext.action_matrix(ext.C.neg(c)).rows
    return tuple(sum(r * row[j] * (e // d)
                     for r, row, d in zip(rho, rows, factors)) % e // (e // dj)
                 for j, dj in enumerate(factors))


def census_summary(entries):
    out = {}
    for e in entries:
        out[e.dimension] = out.get(e.dimension, 0) + e.count
    return out


def q8_descriptor() -> ExtensionDescriptor:
    """The quaternion group: A = Z/2 central, C = (Z/2)^2."""
    ident = Mat.identity(1)

    def z(c1, c2):
        # x^2 = y^2 = [x, y] = the central element
        carry_x = (c1[0] + c2[0]) // 2
        carry_y = (c1[1] + c2[1]) // 2
        cross = c1[1] * c2[0]
        return ((carry_x + carry_y + cross) % 2,)

    return ExtensionDescriptor([2], [2, 2], [ident, ident], z)


def dihedral8_central_descriptor() -> ExtensionDescriptor:
    """D4 of order 8 as a central extension of (Z/2)^2 by Z/2."""
    ident = Mat.identity(1)

    def z(c1, c2):
        return ((c1[1] * c2[0]) % 2,)

    return ExtensionDescriptor([2], [2, 2], [ident, ident], z)


def dihedral8_cyclic_descriptor() -> ExtensionDescriptor:
    """D4 of order 8 as Z/4 acted on by inversion, split."""
    return ExtensionDescriptor([4], [2], [Mat([[-1]])], {})


def random_descriptor(rng: random.Random, max_order=256) -> ExtensionDescriptor:
    """A random valid extension from the provably-cocycle families."""
    while True:
        a_factors = _random_factors(rng, rng.randint(1, 2))
        c_factors = _random_factors(rng, rng.randint(1, 2))
        order = 1
        for d in a_factors + c_factors:
            order *= d
        if order <= max_order:
            break
    a = FinAb.abstract(a_factors)
    c = FinAb.abstract(c_factors)
    ka, kc = len(a.factors), len(c.factors)
    action = []
    for j in range(kc):
        for _ in range(20):
            cand = _random_action(rng, a, c.factors[j])
            if all(_commute_on(a, cand, g) for g in action):
                action.append(cand)
                break
        else:
            action.append(Mat.identity(ka))
    trivial_action = all(g == Mat.identity(ka) for g in action)

    cocycle = {(c1, c2): a.zero for c1 in c.elements() for c2 in c.elements()}

    def add_cocycle(fn):
        for key in cocycle:
            cocycle[key] = a.add(cocycle[key], fn(*key))

    # carry cocycles along each C coordinate, valued at C-invariant elements
    # (inflation along C ->> Z/e_j needs invariance under the whole action)
    inv_els = [x for x in a.elements()
               if all(a.apply_matrix(g, x) == x for g in action)]
    for j in range(kc):
        t = rng.choice(inv_els)
        e = c.factors[j]
        add_cocycle(lambda c1, c2, j=j, t=t, e=e:
                    a.smul((c1[j] + c2[j]) // e, t))
    # a bilinear form when the action is trivial; the (i, j) coefficient must
    # be killed by gcd(e_i, e_j) so the form is biadditive on C
    if trivial_action and rng.random() < 0.7:
        coeffs = {}
        for i in range(kc):
            for j in range(kc):
                g = math.gcd(c.factors[i], c.factors[j])
                pool = [x for x in a.elements() if a.smul(g, x) == a.zero]
                coeffs[(i, j)] = rng.choice(pool)

        def bilinear(c1, c2):
            acc = a.zero
            for (i, j), t in coeffs.items():
                acc = a.add(acc, a.smul(c1[i] * c2[j], t))
            return acc

        add_cocycle(bilinear)
    # a random coboundary (always legal, changes nothing observable)
    eps = {cc: rng.choice(list(a.elements())) for cc in c.elements()}
    eps[c.zero] = a.zero

    def cob(c1, c2):
        m = _action_matrix(action, ka, c1)
        return a.add(a.add(a.apply_matrix(m, eps[c2]), eps[c1]),
                     a.neg(eps[c.add(c1, c2)]))

    add_cocycle(cob)
    return ExtensionDescriptor(a_factors, c_factors, action, cocycle)


def _commute_on(a_group: FinAb, g: Mat, h: Mat) -> bool:
    return all(a_group.apply_matrix(g, a_group.apply_matrix(h, x))
               == a_group.apply_matrix(h, a_group.apply_matrix(g, x))
               for x in a_group.standard_basis())


def _action_matrix(action, rank, c):
    """The product of action[j]^c[j] on Z^rank; ``action`` commutes."""
    m = Mat.identity(rank)
    for g, e in zip(action, c):
        for _ in range(e):
            m = g * m
    return m


def _random_factors(rng, k):
    # divisibility chains built from small prime powers
    base = rng.choice([2, 2, 2, 3, 4])
    out = [base]
    for _ in range(k - 1):
        out.append(out[-1] * rng.choice([1, 1, 2]))
    return out


def _random_action(rng, a: FinAb, order: int):
    ka = len(a.factors)
    ident = Mat.identity(ka)
    candidates = [ident]
    # inversion
    candidates.append(Mat([[-1 if i == j else 0 for j in range(ka)]
                           for i in range(ka)]))
    # coordinate swaps between equal factors
    for i in range(ka):
        for j in range(i + 1, ka):
            if a.factors[i] == a.factors[j]:
                rows = [[int(k == l) for l in range(ka)] for k in range(ka)]
                rows[i][i] = rows[j][j] = 0
                rows[i][j] = rows[j][i] = 1
                candidates.append(Mat(rows))
    # small shears
    for i in range(ka):
        for j in range(ka):
            if i != j and a.factors[j] % a.factors[i] == 0:
                rows = [[int(k == l) for l in range(ka)] for k in range(ka)]
                rows[i][j] = 1
                candidates.append(Mat(rows))
    rng.shuffle(candidates)
    for m in candidates:
        if not a.is_automorphism(m):
            continue
        p = m ** order
        if all(a.apply_matrix(p, g) == g for g in a.standard_basis()):
            return m
    return ident
