import itertools
import random
from fractions import Fraction

import pytest

from cuspidor.cocycle import (
    BasepointCocycle,
    EtaFamily,
    FiniteGroup,
    NoSplitting,
    SplittingResult,
    abelian_group,
    act_on_splitting,
    coherent_splitting,
    eta_cocycle,
    family_from_group_cocycle,
    family_from_phi,
    general_beta,
    is_homomorphism,
    splitting_difference,
)
from cuspidor.cocycle import _assert_cocycle
from cuspidor.errors import NotNormal, UnequalStabilizers


def klein():
    return abelian_group([2, 2])


def zmod(n):
    return abelian_group([n])


def regular_action(g):
    return lambda a, x: g.mul(a, x)


def nontrivial_klein_cocycle(a, b):
    # the Q8/D4 class of H^2((Z/2)^2, Q/Z)
    return Fraction(a[1] * b[0], 2)


def zero_family(group):
    return EtaFamily(group, group.elements, regular_action(group),
                     lambda u, v, w: 0)


def test_zero_family_gives_zero_cocycle():
    g = klein()
    fam = zero_family(g)
    z = eta_cocycle(fam, g.identity)
    assert all(v == 0 for v in z.table.values())


def test_coboundary_family_splits():
    g = zmod(4)
    vals = {x: Fraction(i, 8) for i, x in enumerate(g.elements)}

    def phi(u, v):
        return vals[u] - vals[v]

    fam = family_from_phi(g, g.elements, regular_action(g), phi)
    res = coherent_splitting(fam)
    assert isinstance(res, SplittingResult)


def test_nontrivial_klein_class_detected():
    g = klein()
    fam = family_from_group_cocycle(g, nontrivial_klein_cocycle)
    z = eta_cocycle(fam, g.identity)
    # antisymmetrization is nonzero -> nontrivial class
    res = coherent_splitting(fam)
    assert isinstance(res, NoSplitting)
    assert res.certificate["kind"] == "antisymmetric-pairing"


def test_beta_properties():
    g = klein()
    table = {x: Fraction(i, 4) for i, x in enumerate(g.elements)}
    table[g.identity] = Fraction(0)
    fam = family_from_phi(g, g.elements, regular_action(g),
                          lambda u, v: table[g.mul(g.inv(u), v)])
    u = g.elements[0]
    v = g.elements[1]
    w = g.elements[2]
    b_uu = general_beta(fam, u, u)
    assert all(x == 0 for x in b_uu.values())
    b_vu = general_beta(fam, v, u)
    b_uv = general_beta(fam, u, v)
    # for V = xU in U's orbit, the basepoint-change lemma's closed form
    # eta_U(x, 1, a) - eta_U(x, ax, a) agrees with beta_{V,U}(a)
    for vv, uu, beta in ((u, u, b_uu), (v, u, b_vu), (u, v, b_uv)):
        x = next(a for a in g.elements if fam.act(a, uu) == vv)
        for a in g.elements:
            lemma = (fam.eta(fam.act(x, uu), uu, fam.act(a, uu))
                     - fam.eta(fam.act(x, uu), fam.act(g.mul(a, x), uu),
                               fam.act(a, uu))) % 1
            assert beta[a] == lemma
    for a in g.elements:
        assert (b_vu[a] + b_uv[a]) % 1 == 0
    b_uw = general_beta(fam, u, w)
    b_wv = general_beta(fam, w, v)
    b_vu2 = general_beta(fam, v, u)
    for a in g.elements:
        assert (b_uw[a] + b_wv[a] + b_vu2[a]) % 1 == 0
    # d(beta_{V,U}) = z_U - z_V
    z_u = eta_cocycle(fam, u)
    z_v = eta_cocycle(fam, v)
    q = z_u.quotient
    for a in g.elements:
        for c in g.elements:
            lhs = (b_vu[a] + b_vu[c] - b_vu[g.mul(a, c)]) % 1
            rhs = (z_u(z_u.coset_of[a], z_u.coset_of[c])
                   - z_v(z_v.coset_of[a], z_v.coset_of[c])) % 1
            assert lhs == rhs


def test_splitting_validates_and_covers_all_basepoints():
    g = klein()
    xset = [("L", x) for x in g.elements] + [("R", x) for x in g.elements]

    def act(a, u):
        side, x = u
        return (side, g.mul(a, x))

    # translation-invariant phi: depends only on (side_u, side_v, x_u^{-1} x_v)
    table = {}
    values = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(0)]
    k = 0
    for su in ("L", "R"):
        for sv in ("L", "R"):
            for d in g.elements:
                table[(su, sv, d)] = values[k % 4]
                k += 1
    for side in ("L", "R"):
        table[(side, side, g.identity)] = Fraction(0)  # Phi_{U,U} = id

    def phi2(u, v):
        return table[(u[0], v[0], g.mul(g.inv(u[1]), v[1]))]

    fam = EtaFamily(g, xset, act,
                    lambda u, v, w: (phi2(u, v) + phi2(v, w) - phi2(u, w)) % 1)
    res = coherent_splitting(fam)
    assert isinstance(res, SplittingResult)
    assert set(res.splittings) == set(xset)


def test_splitting_torsor():
    g = klein()
    fam = zero_family(g)
    res = coherent_splitting(fam)
    assert isinstance(res, SplittingResult)
    q = res.quotient
    base = fam.xset[0]
    eps = res.splittings[base]
    homs = q.homs_to_qz()
    assert len(homs) == 4
    # every hom-translate splits, and distinct homs give distinct splittings
    seen = set()
    for delta in homs:
        shifted = act_on_splitting(q, eps, delta)
        for a in q.elements:
            for b in q.elements:
                z = res.cocycles[base]
                assert (shifted[a] + shifted[b] - shifted[q.mul(a, b)] + z(a, b)) % 1 == 0
        seen.add(tuple(sorted(shifted.items())))
    assert len(seen) == 4
    # two splittings differ by a homomorphism
    delta = splitting_difference(q, eps, act_on_splitting(q, eps, homs[1]))
    assert is_homomorphism(q, delta)


def test_exhaustive_splittings_zmod2():
    # over 1/2 + 1/|G| torsion range the solution set is a hom-torsor
    g = zmod(2)
    fam = zero_family(g)
    res = coherent_splitting(fam)
    q = res.quotient
    base = fam.xset[0]
    z = res.cocycles[base]
    # enumerate all 1-cochains with denominators dividing 2*|G| and check
    found = []
    n = 4
    for k in range(n):
        eps = {q.identity: Fraction(0), q.elements[1]: Fraction(k, n)}
        ok = all((eps[a] + eps[b] - eps[q.mul(a, b)] + z(a, b)) % 1 == 0
                 for a in q.elements for b in q.elements)
        if ok:
            found.append(eps)
    homs = q.homs_to_qz()
    assert len(found) == len(homs)


def test_product_family_class_is_sum():
    g1 = klein()
    g2 = zmod(3)
    els = list(itertools.product(g1.elements, g2.elements))
    prod = FiniteGroup(els, lambda a, b: (g1.mul(a[0], b[0]), g2.mul(a[1], b[1])))

    def act(a, x):
        return (g1.mul(a[0], x[0]), g2.mul(a[1], x[1]))

    def eta(u, v, w):
        # inflation of the nontrivial Klein class plus a trivial factor
        z1 = nontrivial_klein_cocycle(g1.mul(g1.inv(u[0]), v[0]),
                                      g1.mul(g1.inv(v[0]), w[0]))
        return z1 % 1

    fam = EtaFamily(prod, els, act, eta)
    res = coherent_splitting(fam)
    assert isinstance(res, NoSplitting)

    fam0 = EtaFamily(prod, els, act, lambda u, v, w: 0)
    assert isinstance(coherent_splitting(fam0), SplittingResult)


def test_unequal_stabilizers_raises():
    g = klein()
    # X with two orbits of different stabilizers: a torsor plus a fixed point
    xset = list(g.elements) + ["pt"]

    def act(a, u):
        if u == "pt":
            return "pt"
        return g.mul(a, u)

    fam = EtaFamily(g, xset, act, lambda u, v, w: 0)
    with pytest.raises(UnequalStabilizers):
        coherent_splitting(fam)


def test_not_normal_raises():
    # S3 acting on cosets of a non-normal subgroup
    import itertools as it
    perms = list(it.permutations(range(3)))

    def pm(a, b):
        return tuple(a[b[i]] for i in range(3))

    s3 = FiniteGroup(perms, pm)
    swap = (1, 0, 2)
    stab = frozenset({(0, 1, 2), swap})
    cosets = {}
    for x in perms:
        key = frozenset(pm(x, s) for s in stab)
        cosets.setdefault(key, sorted(key))
    xset = sorted(cosets, key=lambda c: sorted(c))

    def act(a, u):
        return frozenset(pm(a, x) for x in u)

    fam = EtaFamily(s3, xset, act, lambda u, v, w: 0)
    base = next(u for u in xset if (0, 1, 2) in u)
    with pytest.raises(NotNormal):
        eta_cocycle(fam, base)


# -- the generator-cost validators against the full sweeps --------------------

def s3():
    perms = list(itertools.permutations(range(3)))
    return FiniteGroup(perms, lambda a, b: tuple(a[b[i]] for i in range(3)))


def s3_times_z2():
    g1, g2 = s3(), zmod(2)
    els = list(itertools.product(g1.elements, g2.elements))
    return FiniteGroup(els, lambda a, b: (g1.mul(a[0], b[0]),
                                          g2.mul(a[1], b[1])))


TABLE_GROUPS = pytest.mark.parametrize(
    "make", [lambda: abelian_group([2, 4]), s3, s3_times_z2],
    ids=["Z2xZ4", "S3", "S3xZ2"])


def _is_group_by_full_sweep(elements, table):
    """A two-sided identity, an inverse for every element, and
    associativity on all |G|^3 triples."""
    def mul(a, b):
        return table[(a, b)]

    ids = [e for e in elements
           if all(mul(e, x) == x == mul(x, e) for x in elements)]
    return (bool(ids)
            and all(any(mul(a, x) == ids[0] for x in elements)
                    for a in elements)
            and all(mul(mul(a, b), c) == mul(a, mul(b, c))
                    for a, b, c in itertools.product(elements, repeat=3)))


def _table_is_accepted(elements, table):
    try:
        FiniteGroup(elements, lambda a, b: table[(a, b)])
    except ValueError:
        return False
    return True


def _intercalates(elements, table, e):
    """Tables with one 2x2 Latin subsquare off the identity's row and column
    swapped: Latin squares with an identity, so inverses exist."""
    others = [x for x in elements if x != e]
    for a, b in itertools.combinations(others, 2):
        for c, d in itertools.combinations(others, 2):
            if (table[(a, c)] == table[(b, d)]
                    and table[(a, d)] == table[(b, c)]):
                out = dict(table)
                out[(a, c)], out[(a, d)] = table[(a, d)], table[(a, c)]
                out[(b, c)], out[(b, d)] = table[(b, d)], table[(b, c)]
                yield out


@TABLE_GROUPS
def test_associativity_check_matches_the_full_sweep(make):
    g = make()
    els = g.elements
    table = {(a, b): g.mul(a, b) for a in els for b in els}
    assert _table_is_accepted(els, table)
    rng = random.Random(len(els))
    broken = []
    for key in rng.sample(sorted(table), 30):
        one_cell = dict(table)
        one_cell[key] = rng.choice([x for x in els if x != table[key]])
        broken.append(one_cell)
    broken += list(_intercalates(els, table, g.identity))[:10]
    for t in broken:
        assert _table_is_accepted(els, t) == _is_group_by_full_sweep(els, t)


@TABLE_GROUPS
def test_generators_generate_and_decide_commutativity(make):
    g = make()
    reached, frontier = {g.identity}, [g.identity]
    while frontier:
        frontier = [y for x in frontier for y in
                    {g.mul(x, s) for s in g.generators} - reached]
        reached.update(frontier)
    assert reached == set(g.elements)
    assert g.is_abelian() == all(g.mul(a, b) == g.mul(b, a)
                                 for a in g.elements for b in g.elements)


def _family_by_full_sweep(group, xs, act, eta):
    """The degenerate-triple law, the action law on all of G x G x X, the
    Cech identity on X^4 and invariance under every element on X^3."""
    els, triples = group.elements, list(itertools.product(xs, repeat=3))
    return (all(eta(u, u, v) == 0 == eta(u, v, v) for u in xs for v in xs)
            and all(act(g, u) in xs for g in els for u in xs)
            and all(act(group.identity, u) == u for u in xs)
            and all(act(group.mul(g, h), u) == act(g, act(h, u))
                    for g in els for h in els for u in xs)
            and all((eta(u2, u3, u4) - eta(u1, u3, u4) + eta(u1, u2, u4)
                     - eta(u1, u2, u3)) % 1 == 0
                    for u1, u2, u3, u4 in itertools.product(xs, repeat=4))
            and all(eta(act(g, u1), act(g, u2), act(g, u3))
                    == eta(u1, u2, u3) for g in els for u1, u2, u3 in triples))


def _family_is_accepted(group, xs, act, eta):
    try:
        EtaFamily(group, xs, act, eta)
    except ValueError:
        return False
    return True


def _coboundary_eta(xs, phi):
    return {(u, v, w): (phi[(u, v)] + phi[(v, w)] - phi[(u, w)]) % 1
            for u, v, w in itertools.product(xs, repeat=3)}


def _phi(xs, rng, orbit_rep):
    """A random 1/4-valued phi with phi(u, u) = 0, constant on the classes
    of ``orbit_rep``."""
    values = {}
    for u, v in itertools.product(xs, repeat=2):
        values.setdefault(orbit_rep(u, v), Fraction(rng.randrange(4), 4))
    return {(u, v): 0 if u == v else values[orbit_rep(u, v)]
            for u, v in itertools.product(xs, repeat=2)}


def z3_on_nine_points():
    g = zmod(3)
    return g, list(range(9)), {(a, u): (u + 3 * a[0]) % 9
                               for a in g.elements for u in range(9)}


def klein_on_twelve_points():
    g = klein()
    xs = [(x, i) for x in g.elements for i in range(3)]
    return g, xs, {(a, u): (g.mul(a, u[0]), u[1])
                   for a in g.elements for u in xs}


@pytest.mark.parametrize("make", [z3_on_nine_points, klein_on_twelve_points],
                         ids=["Z3-on-9", "klein-on-12"])
def test_family_checks_match_the_full_sweeps(make):
    group, xs, action = make()
    rng = random.Random(len(xs))

    def orbit_rep(u, v):
        return min((action[(a, u)], action[(a, v)]) for a in group.elements)

    invariant = _coboundary_eta(xs, _phi(xs, rng, orbit_rep))
    # d(phi) with phi not invariant: the Cech identity holds, invariance fails
    moved = _coboundary_eta(xs, _phi(xs, rng, lambda u, v: (u, v)))
    cases = [(action, invariant), (action, moved)]
    # one value moved on a whole orbit of triples: invariance still holds
    for _ in range(15):
        eta = dict(invariant)
        u1, u2, u3 = rng.choice(sorted(eta))
        shift = Fraction(rng.randrange(1, 4), 4)
        for key in {(action[(a, u1)], action[(a, u2)], action[(a, u3)])
                    for a in group.elements}:
            eta[key] = (eta[key] + shift) % 1
        cases.append((action, eta))
    for _ in range(10):
        act = dict(action)
        key = rng.choice(sorted(act))
        act[key] = rng.choice([u for u in xs if u != act[key]])
        cases.append((act, invariant))
    verdicts = []
    for act, eta in cases:
        args = (group, xs, lambda a, u: act[(a, u)],
                lambda u, v, w: eta[(u, v, w)])
        verdicts.append(_family_is_accepted(*args))
        assert verdicts[-1] == _family_by_full_sweep(*args)
    assert verdicts[:2] == [True, False]


@TABLE_GROUPS
def test_basepoint_cocycle_check_matches_the_full_sweep(make):
    q = make()
    els = q.elements
    rng = random.Random(len(els))
    eps = {g: Fraction(rng.randrange(6), 6) for g in els}
    eps[q.identity] = Fraction(0)
    table = {(a, b): (eps[a] + eps[b] - eps[q.mul(a, b)]) % 1
             for a in els for b in els}
    tables = [table]
    for key in rng.sample(sorted(table), 30):
        t = dict(table)
        t[key] = (t[key] + Fraction(rng.randrange(1, 6), 6)) % 1
        tables.append(t)
    verdicts = []
    for t in tables:
        z = BasepointCocycle(q, None, t, None)
        try:
            _assert_cocycle(z)
            verdicts.append(True)
        except ValueError:
            verdicts.append(False)
        assert verdicts[-1] == (
            all(z(q.identity, a) == 0 == z(a, q.identity) for a in els)
            and all((z(b, c) - z(q.mul(a, b), c) + z(a, q.mul(b, c))
                     - z(a, b)) % 1 == 0
                    for a, b, c in itertools.product(els, repeat=3)))
    assert verdicts[0] and not all(verdicts)


def test_family_on_an_empty_set_is_accepted():
    fam = EtaFamily(klein(), [], regular_action(klein()), lambda u, v, w: 0)
    assert fam.xset == ()
