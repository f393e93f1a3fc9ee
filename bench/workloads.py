"""The three in-process workloads: oracle, tori, charsum.

Each workload builds all of its inputs in ``__init__`` through the program's
own constructors, from the run's seed, before the first timed item.  It then
hands out *rounds*: a round is a list of items of a fixed make-up, so a run
made of whole rounds has the same mix of cheap and dear items whatever its
seed or length.  ``run`` is the timed call into the program; ``check``
(untimed) returns a problem string or None; ``end_round`` and ``final``
return (item keys, problem) pairs for checks that span several items.
"""

from __future__ import annotations

import random
from fractions import Fraction

import checks


def elliptic_classes(rd):
    """One representative per conjugacy class of elliptic Weyl elements."""
    from cuspidor.rootdata import WeylElement
    weyl = rd.weyl_group()
    seen = set()
    reps = []
    for m in weyl:
        if m in seen:
            continue
        seen |= {g * m * g.inverse().to_int() for g in weyl}
        w = WeylElement(rd, m)
        if w.is_elliptic():
            reps.append(w)
    return reps


def _rows(mat):
    return tuple(tuple(r) for r in mat.rows)


# -- oracle -------------------------------------------------------------------

# The groups: clifford.random_descriptor(random.Random(k), max_order=128)
# for each k below, the first k that fill the quotas {order: count}
# {4: 4, 6: 3, 8: 10, 12: 4, 16: 9, 18: 2, 24: 2, 32: 6, 36: 4, 64: 4,
# 72: 3}.  Fixing the groups keeps the heavy tail (1 ms at order 4 to about
# 0.3 s at order 64) the same in every run; the run's seed re-presents every
# group by a fresh random coboundary on its cocycle, once per round, and
# orders the round.  The two order-128 groups of the first k (48 and 73) are
# left out: each of their items took 0.7-1.2 s, half of a round, and varied
# more from run to run than the rest of the round together.  The third
# order-72 group (k = 130, about 63 ms) puts the 90th percentile inside a
# cluster of three 63-66 ms groups; with two, it fell between 52 and 63 ms.
ORACLE_TEMPLATE = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 17, 18,
                   19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 33, 34, 36,
                   37, 38, 39, 40, 41, 43, 46, 60, 61, 62, 64, 67, 70, 78, 80,
                   81, 84, 97, 130)
ORACLE_MAX_ORDER = 128


class Oracle:
    name = "oracle"

    def __init__(self, seed):
        from cuspidor import dixon
        from cuspidor.clifford import random_descriptor
        self.template = [random_descriptor(random.Random(k),
                                           max_order=ORACLE_MAX_ORDER)
                         for k in ORACLE_TEMPLATE]
        self.rng = random.Random(seed)
        self.first_round = self._build_round()
        self.verdicts = []
        # keep the character table the oracle builds, for the Σ deg² check
        self.last_table = None
        build = dixon.brute_force_census

        def keep_table(group):
            self.last_table = build(group)
            return self.last_table

        dixon.brute_force_census = keep_table
        warm = random.Random(-1 - seed)
        self.warmup_items = [("random", None,
                              random_descriptor(warm, max_order=16))
                             for _ in range(4)]

    def _build_round(self):
        from cuspidor.clifford import (
            dihedral8_central_descriptor,
            q8_descriptor,
        )
        items = [("random", None, _twist(ext, self.rng))
                 for ext in self.template]
        # two fixtures whose verdict is known: both fail multiplicity one
        items.append(("q8", False, q8_descriptor()))
        items.append(("dihedral8", False, dihedral8_central_descriptor()))
        self.rng.shuffle(items)
        return items

    def rounds(self):
        """Round 0 is built in set-up, each later one just before it runs."""
        yield self.first_round
        while True:
            yield self._build_round()

    def run(self, item):
        from cuspidor.clifford import has_multiplicity_one, irrep_census
        from cuspidor.dixon import oracle_multiplicity_one
        self.last_table = None
        ext = item[2]
        ok = has_multiplicity_one(ext)[0]
        census = [(e.dimension, e.count) for e in irrep_census(ext)]
        return ok, census, oracle_multiplicity_one(ext)

    def check(self, item, out):
        kind, expected, ext = item
        ok, census, oracle = out
        self.verdicts.append(oracle)
        degrees = self.last_table.degrees() if self.last_table else None
        problem = checks.check_oracle(ext.order(), ok, census, oracle, degrees)
        if problem is None and expected is not None:
            problem = checks.check_known_verdict(kind, expected, ok, census,
                                                 {1: 4, 2: 1})
        return problem

    def end_round(self, items, outs):
        return []

    @staticmethod
    def final_key(item):
        return None

    def final(self):
        problem = checks.check_both_verdicts(self.verdicts)
        return [(None, problem)] if problem else []


def _twist(ext, rng):
    """The same extension with its cocycle moved by a random coboundary."""
    from cuspidor.clifford import ExtensionDescriptor
    a, c = ext.A, ext.C
    a_elements = list(a.elements())
    eps = {cc: rng.choice(a_elements) for cc in c.elements()}
    eps[c.zero] = a.zero
    cocycle = {}
    for (c1, c2), z in ext.cocycle.items():
        cob = a.add(a.add(ext.act(c1, eps[c2]), eps[c1]),
                    a.neg(eps[c.add(c1, c2)]))
        cocycle[(c1, c2)] = a.add(z, cob)
    return ExtensionDescriptor(list(a.factors), list(c.factors),
                               list(ext.action), cocycle)


# -- tori -----------------------------------------------------------------------

# Rank-3 elliptic tori with few singular characters: every elliptic class
# except w = -1 (which has 24 non-singular characters of 216 on B3 at q = 5).
TORI_TYPES = ("A", "B", "C", "D")
TORI_Q = (5, 7)
# non-singular characters per torus per round, plus one singular one.  A
# non-singular character costs about 7-11 ms on A3 and D3 and 13-20 ms on
# B3 and C3, a singular one about 1 ms; these counts put the median inside
# the B3/C3 class instead of on the edge between two classes.
TORI_PER_ROUND = {"A": 3, "D": 3, "B": 6, "C": 6}


class _TorusData:
    def __init__(self, rd, w, q, seed):
        from cuspidor.exactcore import QV, Mat
        from cuspidor.torus import AdjointModel, FrobeniusTorus, all_characters
        self.label = f"{rd.label} w{w.order} q{q}"
        self.w_rows = _rows(w.matrix)
        self.q = q
        t = FrobeniusTorus(rd, w, q)
        self.chars = list(all_characters(t))
        group = self.chars[0].group
        # C_W(w), by commuting the matrices here rather than asking the torus
        self.centralizer = [m for m in rd.weyl_group()
                            if checks.mat_mul(_rows(m), self.w_rows)
                            == checks.mat_mul(self.w_rows, _rows(m))]
        # the action theta -> theta∘m on character values, column by column
        actions = []
        for m in self.centralizer:
            mc = rd.cochar_coord_matrix(m)
            actions.append([group.project(g.act(mc)) for g in group.gens])
        index = {th.values: i for i, th in enumerate(self.chars)}
        orbit_of = [None] * len(self.chars)
        self.orbits = []
        for i, th in enumerate(self.chars):
            if orbit_of[i] is not None:
                continue
            members = set()
            for cols in actions:
                vals = tuple(sum((c * v for c, v in zip(col, th.values)),
                                 Fraction(0)) % 1 for col in cols)
                members.add(index[vals])
            for j in members:
                orbit_of[j] = len(self.orbits)
            self.orbits.append(sorted(members))
        random.Random(f"{seed}:{self.label}").shuffle(self.orbits)
        # theta is singular iff it vanishes at N(alpha_vee(zeta)) for some
        # root: the points is_nonsingular builds per character, found here
        # once per torus.  This keeps the singular share of a round fixed.
        d = t.splitting_degree
        nm = t.norm_matrix(d)
        points = {group.project(QV(nm.apply(t.coroot_point(
            rd.coroot(tuple(a)), Fraction(1, q ** d - 1)).coords)))
            for a in rd.roots}
        self.nonsingular = [
            all(sum((c * v for c, v in zip(x, th.values)), Fraction(0)) % 1
                for x in points)
            for th in self.chars]
        # the characters in seeded orbit order, as (orbit index, character),
        # one walk for the non-singular orbits and one for the singular ones
        self.walks = {True: [], False: []}
        for o, orbit in enumerate(self.orbits):
            self.walks[self.nonsingular[orbit[0]]] += [(o, i) for i in orbit]
        model = AdjointModel(t)
        cok = model.cokernel()
        reps = {}
        for coords in model.points_ad.elements():
            reps.setdefault(cok.project(coords),
                            model.points_ad.lift(coords).coords)
        self.model = model
        self.ad_reps = list(reps.values())
        self.ident = Mat.identity(rd.rank)


class Tori:
    name = "tori"

    def __init__(self, seed):
        from cuspidor.rootdata import build_classical
        self.tori = []
        for kind in TORI_TYPES:
            rd = build_classical(kind, 3, "sc")
            for w in elliptic_classes(rd):
                if w.order == 2:
                    continue
                for q in TORI_Q:
                    self.tori.append(_TorusData(rd, w, q, seed))
        self.rng = random.Random(seed)
        self.pending = {}           # orbit key -> outputs seen so far
        warm_rd = build_classical("A", 3, "sc")
        warm = _TorusData(warm_rd, elliptic_classes(warm_rd)[0], 3, seed)
        self.warmup_items = [(warm, i, (0, 0)) for i in range(6)]

    def rounds(self):
        """Each round takes the next characters of every torus, a fixed
        number of non-singular ones and one singular one, walking the
        orbits in seeded order."""
        r = 0
        while True:
            items = []
            for ti, t in enumerate(self.tori):
                for nonsingular, k in ((True, TORI_PER_ROUND[t.label[0]]),
                                       (False, 1)):
                    walk = t.walks[nonsingular]
                    for j in range(r * k, (r + 1) * k if walk else 0):
                        o, i = walk[j % len(walk)]
                        items.append((t, i, (ti, o)))
            self.rng.shuffle(items)
            yield items
            r += 1

    def run(self, item):
        from cuspidor.torus import bicharacter, is_nonsingular, weyl_stabilizer
        t, i, _ = item
        th = t.chars[i]
        if not is_nonsingular(th):
            return False, None, None
        rep = weyl_stabilizer(th)
        pairings = [[bicharacter(th, m, coords, _rep=rep, _model=t.model)
                     for coords in t.ad_reps]
                    for m in rep.matrices if m != t.ident]
        return True, rep, pairings

    def check(self, item, out):
        t, i, _ = item
        nonsingular, rep, pairings = out
        problem = checks.check_verdict("is_nonsingular", nonsingular,
                                       t.nonsingular[i])
        if problem or not nonsingular:
            return problem
        return (checks.check_stabilizer([_rows(m) for m in rep.matrices],
                                        rep.order, len(t.centralizer),
                                        t.w_rows)
                or checks.check_left_kernel(
                    [[v == 1 for v in vals] for vals in pairings]))

    def end_round(self, items, outs):
        """Check every orbit whose last character ran in this round."""
        for item, out in zip(items, outs):
            self.pending.setdefault(item[2], []).append(out)
        problems = []
        for key in {item[2] for item in items}:
            t = self.tori[key[0]]
            members = self.pending[key]
            if len(members) < len(t.orbits[key[1]]):
                continue
            del self.pending[key]
            if None in members:
                continue              # an item of the orbit raised
            problem = checks.check_orbit(
                [m[0] for m in members],
                [m[1].order for m in members if m[0]], len(t.centralizer))
            if problem:
                problems.append((key, f"{t.label}: {problem}"))
        return problems

    @staticmethod
    def final_key(item):
        return item[2][0]

    def final(self):
        problems = []
        for ti, t in enumerate(self.tori):
            problem = checks.check_char_count(len(t.chars), t.w_rows, t.q)
            if problem:
                problems.append((ti, f"{t.label}: {problem}"))
        return problems


# -- charsum --------------------------------------------------------------------

# (type, rank, order of w, q, items per round).  The B2 Coxeter torus is kept
# at q = 3 only: at q = 5 one mod_a_data call takes 2.3 s and would dominate.
# The quotas put mod_a_data (mostly its exact Gauss-identity validation) at
# over a third of a round, seven items of 50-65 ms around the median, and
# the dearest class (B2, w = -1, q = 7, about 0.27 s) at 3 of 22 items, so
# both percentiles fall inside a class rather than between two.
CHARSUM_TORI = [
    ("A", 1, 2, 3, 1), ("A", 1, 2, 5, 1), ("A", 1, 2, 7, 3),
    ("A", 2, 3, 3, 1), ("A", 2, 3, 5, 2), ("A", 2, 3, 7, 2),
    ("B", 2, 2, 3, 1), ("B", 2, 2, 5, 1), ("B", 2, 2, 7, 3),
    ("B", 2, 4, 3, 3),
    ("D", 2, 2, 3, 1), ("D", 2, 2, 5, 1), ("D", 2, 2, 7, 2),
]


class _CharsumTorus:
    def __init__(self, rd, w, q, seed):
        from cuspidor.charformula import classify_chi_data
        from cuspidor.exactcore import QV
        from cuspidor.ffield import FiniteField
        from cuspidor.torus import FrobeniusTorus, all_characters, is_nonsingular
        t = FrobeniusTorus(rd, w, q)
        self.label = f"{rd.label} w{w.order} q{q}"
        p, e = q, 1                 # every q of this workload is prime
        self.field_degree = e * t.splitting_degree
        self.field = FiniteField(p, self.field_degree)
        self.chi = classify_chi_data(t)
        self.wset = t.weyl_centralizer()
        self.chars = [th for th in all_characters(t) if is_nonsingular(th)]
        random.Random(f"{seed}:{self.label}").shuffle(self.chars)
        group = t.rational_points(1)
        elements = list(group.elements())
        self.gammas = [group.lift(c) for c in elements]
        position = {c: i for i, c in enumerate(elements)}
        # Weyl reindexing of the points, as theta_sum itself applies it
        self.moves = []
        for m in self.wset:
            inv = rd.cochar_coord_matrix(m).inverse().to_int()
            for i, g in enumerate(self.gammas):
                j = position[group.project(QV(inv.apply(g.coords)))]
                if j != i:
                    self.moves.append((i, j))
        # fields the workload meets: the splitting field here, and the
        # orbit fields mod_a_data validates the Gauss identity in
        self.fields = {(p, self.field_degree)}
        for orbit in self.chi.symmetric_orbits():
            if q ** orbit.degree <= 2500:
                self.fields.add((p, e * orbit.degree))


class Charsum:
    name = "charsum"

    def __init__(self, seed):
        from cuspidor.rootdata import build_classical
        self.tori = []
        self.quota = []
        for kind, rank, order, q, per_round in CHARSUM_TORI:
            rd = build_classical(kind, rank, "sc")
            w = next(w for w in elliptic_classes(rd) if w.order == order)
            self.tori.append(_CharsumTorus(rd, w, q, seed))
            self.quota.append(per_round)
        self.rng = random.Random(seed)
        self.check_rng = random.Random(seed + 1)
        rd = build_classical("A", 1, "sc")
        warm = _CharsumTorus(rd, elliptic_classes(rd)[0], 11, seed)
        self.warmup_items = [(warm, i, None) for i in range(2)]

    def rounds(self):
        """Round r: the next characters (in seeded order) of every torus."""
        r = 0
        while True:
            items = []
            for ti, (t, k) in enumerate(zip(self.tori, self.quota)):
                for j in range(k):
                    i = (r * k + j) % len(t.chars)
                    items.append((t, i, ti))
            self.rng.shuffle(items)
            yield items
            r += 1

    def run(self, item):
        from cuspidor.charformula import mod_a_data, theta_sum
        t, i, _ = item
        th = t.chars[i]
        a = mod_a_data(th, t.chi)
        return a, [theta_sum(th, g, t.chi, a, t.wset, t.field)
                   for g in t.gammas]

    def check(self, item, out):
        from cuspidor.charformula import delta_II_at_representative
        t, i, _ = item
        th = t.chars[i]
        a, values = out
        problem = checks.check_reindex(values, t.moves)
        if problem:
            return problem
        gamma = t.gammas[self.check_rng.randrange(len(t.gammas))]
        per_orbit = [[delta_II_at_representative(th, gamma, t.chi, a, orb,
                                                 rep, t.field)
                      for rep in orb.roots]
                     for orb in t.chi.symmetric_orbits()]
        return checks.check_delta_reps(per_orbit)

    def end_round(self, items, outs):
        return []

    @staticmethod
    def final_key(item):
        return item[2]

    def final(self):
        from cuspidor.ffield import FiniteField, gauss_sum
        problems = []
        fields = set()
        for t in self.tori:
            fields |= t.fields
        base = {}
        for p, m in sorted(fields):
            if p not in base:
                base[p] = gauss_sum(FiniteField(p, 1)).sum
            g = gauss_sum(FiniteField(p, m)).sum
            problem = (checks.check_gauss(p ** m, g, g.norm_square())
                       or checks.check_hasse_davenport(m, g, base[p]))
            if problem:
                users = [ti for ti, t in enumerate(self.tori)
                         if (p, m) in t.fields]
                problems += [(ti, f"GF({p}^{m}): {problem}") for ti in users]
        return problems


WORKLOADS = {"oracle": Oracle, "tori": Tori, "charsum": Charsum}
