import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidor.clifford import (
    CensusEntry,
    ConcreteGroup,
    ExtensionDescriptor,
    Pullback,
    Pushout,
    census_summary,
    commutator_function,
    dihedral8_central_descriptor,
    dihedral8_cyclic_descriptor,
    has_multiplicity_one,
    irrep_census,
    q8_descriptor,
    random_descriptor,
    transform,
)
from cuspidor.clifford import (_char_act, _commutator_words,
                               _separating_character)
from cuspidor.cyclotomic import Cyc, cyc_sum
from cuspidor.dixon import (
    brute_force_census,
    oracle_multiplicity_one,
    restriction_multiplicities,
)
from cuspidor.errors import NotEquivariant
from cuspidor.exactcore import Mat, coinvariants


def order_of(g, x):
    """The order of x in the ConcreteGroup g, by repeated multiplication."""
    k, y = 1, x
    while y != g.identity:
        y = g.mul(y, x)
        k += 1
    return k


def direct_product(a_factors, c_factors):
    k = len(a_factors)
    return ExtensionDescriptor(a_factors, c_factors,
                               [Mat.identity(k)] * len(c_factors), {})


def test_concrete_group_roundtrip():
    ext = q8_descriptor()
    g = ConcreteGroup(ext)
    assert len(g.elements) == 8
    for x in g.elements:
        assert g.mul(x, g.inv(x)) == g.identity
        assert g.mul(g.inv(x), x) == g.identity
    # Q8 has a unique element of order 2
    assert sum(1 for x in g.elements if order_of(g, x) == 2) == 1


def test_commutator_q8():
    ext = q8_descriptor()
    c1, c2 = (1, 0), (0, 1)
    quot, cls = commutator_function(ext, c1, c2)
    assert cls != quot.group.zero
    _, cls_same = commutator_function(ext, c1, c1)
    assert cls_same == quot.group.zero


def test_commutator_direct_product_trivial():
    ext = direct_product([4], [2, 2])
    for c1 in ext.C.elements():
        for c2 in ext.C.elements():
            quot, cls = commutator_function(ext, c1, c2)
            assert cls == quot.group.zero


def test_multiplicity_one_q8_false():
    ok, witness = has_multiplicity_one(q8_descriptor())
    assert not ok
    c1, c2, rho = witness
    # the witness character of A is nontrivial on the section commutator
    grp = ConcreteGroup(q8_descriptor())
    word = grp.mul(grp.mul(grp.section(c1), grp.section(c2)),
                   grp.mul(grp.inv(grp.section(c1)), grp.inv(grp.section(c2))))
    assert rho(word[0]) != 0


def test_multiplicity_one_dihedral_presentations():
    ok, _ = has_multiplicity_one(dihedral8_central_descriptor())
    assert not ok
    ok, _ = has_multiplicity_one(dihedral8_cyclic_descriptor())
    assert ok  # cyclic quotient always has multiplicity one


def test_census_q8():
    entries = irrep_census(q8_descriptor())
    assert census_summary(entries) == {1: 4, 2: 1}
    two = next(e for e in entries if e.dimension == 2)
    assert two.multiplicity == 2  # central character seen twice


def test_census_dihedral_cyclic():
    entries = irrep_census(dihedral8_cyclic_descriptor())
    assert census_summary(entries) == {1: 4, 2: 1}
    two = next(e for e in entries if e.dimension == 2)
    assert two.multiplicity == 1  # mult-one presentation of the same group


def test_census_abelian():
    ext = direct_product([3], [2])
    assert census_summary(irrep_census(ext)) == {1: 6}


def test_oracle_q8():
    table, mults = restriction_multiplicities(q8_descriptor())
    assert table.degrees() == [1, 1, 1, 1, 2]
    two = table.degrees().index(2)
    central = [per for ch, per in zip(table.chars, mults)
               if int(ch[0].rational_value()) == 2][0]
    assert list(central.values()) == [2]
    assert not oracle_multiplicity_one(q8_descriptor())


def test_oracle_s3_shape():
    ext = ExtensionDescriptor([3], [2], [Mat([[-1]])], {})
    table, _ = restriction_multiplicities(ext)
    assert table.degrees() == [1, 1, 2]


def test_oracle_abelian():
    ext = direct_product([4], [2])
    table, mults = restriction_multiplicities(ext)
    assert table.degrees() == [1] * 8
    assert all(sorted(per.values()) == [1] for per in mults)


def test_transform_pushout_kills_q8():
    ext = q8_descriptor()
    out = transform(ext, Pushout(Mat([[0]]), []))
    ok, _ = has_multiplicity_one(out)
    assert ok


def test_transform_pullback_cyclic():
    ext = q8_descriptor()
    out = transform(ext, Pullback(Mat([[1], [0]]), [2]))
    ok, _ = has_multiplicity_one(out)
    assert ok


def test_transform_product():
    ext = q8_descriptor()
    prod = transform(ext, direct_product([3], [2]))
    ok, _ = has_multiplicity_one(prod)
    assert not ok
    assert prod.order() == 8 * 6


def test_transform_pushout_equivariance_checked():
    # A = Z/2 x Z/2 with swap action; projection to the first coordinate
    # is not equivariant
    swap = Mat([[0, 1], [1, 0]])
    ext = ExtensionDescriptor([2, 2], [2], [swap], {})
    with pytest.raises(NotEquivariant):
        transform(ext, Pushout(Mat([[1, 0]]), [2]))


def test_transform_pushout_rejects_a_non_homomorphism():
    # Z/2 -> Z/4, 1 -> 1 does not respect 2·1 = 0
    ext = ExtensionDescriptor([2], [2], [Mat.identity(1)], {})
    with pytest.raises(ValueError, match="not a homomorphism"):
        transform(ext, Pushout(Mat([[1]]), [4]))


def _bfs_induced_matrix(a_group, ap_group, proj, g):
    """The breadth-first search the congruence solve replaced, as reference."""
    k = len(ap_group.factors)
    if k == 0:
        return Mat.identity(0)
    cols = {}
    for a in a_group.standard_basis():
        cols[ap_group.apply_matrix(proj, a)] = ap_group.apply_matrix(
            proj, a_group.apply_matrix(g, a))
    table = {ap_group.zero: []}
    frontier = [ap_group.zero]
    while frontier:
        nxt = []
        for x in frontier:
            for src in cols:
                y = ap_group.add(x, src)
                if y not in table:
                    combo = dict(table[x])
                    combo[src] = combo.get(src, 0) + 1
                    table[y] = sorted(combo.items())
                    nxt.append(y)
        frontier = nxt
    out_cols = []
    for e in ap_group.standard_basis():
        combo = table.get(e)
        if combo is None:
            return None
        acc = ap_group.zero
        for src, mult in combo:
            acc = ap_group.add(acc, ap_group.smul(mult, cols[src]))
        out_cols.append(acc)
    m = Mat([[out_cols[j][i] for j in range(k)] for i in range(k)])
    for a in a_group.standard_basis():
        if ap_group.apply_matrix(m, ap_group.apply_matrix(proj, a)) != \
                ap_group.apply_matrix(proj, a_group.apply_matrix(g, a)):
            return None
    return m


def test_induced_matrix_matches_the_breadth_first_search():
    # random homomorphisms A -> A' from random descriptors: entry (i, j) is
    # a multiple of d'_i / gcd(d_j, d'_i), so d_j·m(e_j) = 0 in A', plus a
    # multiple of d'_i, since a row is only defined mod d'_i; the first case
    # has a row that is 1 mod 2 but 0 mod 3 in A' = Z/2 x Z/6
    from cuspidor.clifford import _induced_matrix
    from cuspidor.exactcore import FinAb
    cases = [(ExtensionDescriptor([2, 6], [2], [Mat([[1, 0], [0, -1]])], {}),
              FinAb.abstract([2, 6]), Mat([[3, 0], [0, 1]]))]
    rng = random.Random(20261018)
    for _ in range(150):
        ext = random_descriptor(rng, max_order=64)
        # A' cyclic factors divide those of A, so that proj is often onto
        picked = rng.sample(ext.A.factors, rng.randint(1, len(ext.A.factors)))
        ap = FinAb.abstract([rng.choice([x for x in range(2, d + 1) if d % x == 0])
                             for d in picked])
        proj = Mat([[rng.randrange(math.gcd(d, dp)) * (dp // math.gcd(d, dp))
                     + rng.randrange(3) * dp
                     for d in ext.A.factors] for dp in ap.factors])
        cases.append((ext, ap, proj))
    outcomes = {True: 0, False: 0}
    for ext, ap, proj in cases:
        for g in ext.action:
            new = _induced_matrix(ext.A, ap, proj, g)
            assert new == _bfs_induced_matrix(ext.A, ap, proj, g)
            outcomes[new is not None] += 1
    first, ap, proj = cases[0]
    assert _induced_matrix(first.A, ap, proj, first.action[0]) == \
        Mat([[1, 0], [0, 5]])
    assert outcomes[True] > 50 and outcomes[False] > 50


def test_oracle_agreement_small_corpus():
    rng = random.Random(20240808)
    checked = 0
    for _ in range(40):
        ext = random_descriptor(rng, max_order=64)
        ok, _ = has_multiplicity_one(ext)
        assert ok == oracle_multiplicity_one(ext), ext.to_json()
        # census multiplicities agree with the oracle's restriction counts
        entries = irrep_census(ext)
        table, mults = restriction_multiplicities(ext)
        assert sorted(e.dimension for e in entries for _ in range(e.count)) == \
            table.degrees()
        checked += 1
    assert checked == 40


def test_cor_abext_dimension_identity():
    # the bracket reading of the dimension identity: dim(pi) = |orbit| * m,
    # and the count of irreducibles above the orbit is |C_rho| / m^2
    rng = random.Random(7)
    for _ in range(15):
        ext = random_descriptor(rng, max_order=48)
        for e in irrep_census(ext):
            assert e.dimension == e.orbit_size * e.multiplicity
            stab_order = ext.C.order // e.orbit_size
            assert e.count * e.multiplicity ** 2 == stab_order


def test_extension_json_roundtrip():
    ext = q8_descriptor()
    data = ext.to_json()
    back = ExtensionDescriptor.from_json(data)
    assert back.cocycle == ext.cocycle
    assert back.A.factors == ext.A.factors


def table_groups():
    """The three nonabelian fixtures and 20 random extensions, 13 of them
    with a nontrivial action and 10 nonabelian."""
    rng = random.Random(1)
    return ([q8_descriptor(), dihedral8_central_descriptor(),
             dihedral8_cyclic_descriptor()]
            + [random_descriptor(rng, max_order=64) for _ in range(20)])


def test_group_table_matches_pair_operations():
    for ext in table_groups():
        g = ConcreteGroup(ext)
        els = g.elements
        assert els[0] == g.identity
        for i, x in enumerate(els):
            assert g.number[x] == i
            assert els[g.inverses[i]] == g.inv(x)
            assert [els[k] for k in g.table[i]] == [g.mul(x, y) for y in els]


def test_group_invariants_match_definitions():
    nonabelian = 0
    for ext in table_groups():
        g = ConcreteGroup(ext)
        els = g.elements
        abelian = all(g.mul(x, y) == g.mul(y, x) for x in els for y in els)
        assert g.is_abelian() == abelian
        nonabelian += not abelian
        assert g.exponent() == math.lcm(*(order_of(g, x) for x in els))
        orbits = {tuple(sorted({g.mul(g.mul(h, x), g.inv(h)) for h in els}))
                  for x in els}
        assert g.conjugacy_classes() == sorted(orbits)
    assert nonabelian == 13


def _power(ext, c):
    m = Mat.identity(len(ext.A.factors))
    for g, e in zip(ext.action, c):
        m = (g ** e) * m
    return m


def test_cached_coinvariant_quotient_equals_fresh():
    for ext in table_groups():
        for c1, c2 in itertools.product(ext.C.elements(), repeat=2):
            commutator_function(ext, c1, c2)    # fills the descriptor's cache
        for c1 in ext.C.elements():
            for c2 in ext.C.elements():
                quot, cls = commutator_function(ext, c1, c2)
                fresh = coinvariants(ext.A, [_power(ext, c1), _power(ext, c2)])
                assert quot.group.factors == fresh.group.factors
                assert all(quot.project(a) == fresh.project(a)
                           for a in ext.A.elements())


def test_trivial_action_shares_one_quotient():
    ext = q8_descriptor()
    quots = {id(commutator_function(ext, c1, c2)[0])
             for c1 in ext.C.elements() for c2 in ext.C.elements()}
    assert len(quots) == 1


def test_character_tables_are_row_orthogonal():
    # sum_k |C_k| chi_i(g_k) conj(chi_j(g_k)) = |B| [i == j], on every pair
    # of rows of every Dixon table with at most 32 classes (abelian B has
    # its own path, and a 40-class table takes seconds in Cyc arithmetic)
    checked = 0
    for ext in table_groups():
        group = ConcreteGroup(ext)
        if group.is_abelian():
            continue
        table = brute_force_census(group)
        if len(table.classes) > 32:
            continue
        sizes = [Cyc.rational(len(c)) for c in table.classes]
        conj = [[psi[k].conj() for k in range(len(sizes))]
                for psi in table.chars]
        for i, chi in enumerate(table.chars):
            for j, psi_bar in enumerate(conj):
                acc = cyc_sum(size * chi[k] * psi_bar[k]
                              for k, size in enumerate(sizes))
                assert acc == Cyc.rational(ext.order() if i == j else 0)
        checked += 1
    assert checked == 12


def test_unreduced_cocycle_values_are_reduced():
    ext = ExtensionDescriptor([2], [2], [Mat.identity(1)],
                              {((1,), (1,)): (5,)})
    assert ext.cocycle == {((0,), (0,)): (0,), ((0,), (1,)): (0,),
                           ((1,), (0,)): (0,), ((1,), (1,)): (1,)}
    # a value with a negative coordinate, on A = Z/4 x Z/2
    ext = ExtensionDescriptor([4, 2], [2], [Mat.identity(2)],
                              {((1,), (1,)): (-1, 3)})
    assert ext.z((1,), (1,)) == (3, 1)


@pytest.mark.parametrize("cocycle", [{((3,), (1,)): (1,)},
                                     {((1,), (1, 0)): (1,)},
                                     {((1,), (1,)): (1, 0)},
                                     {((1,), (1,)): ()}])
def test_malformed_cocycle_entries_are_rejected(cocycle):
    with pytest.raises(ValueError, match="cocycle (key|value)"):
        ExtensionDescriptor([2], [2], [Mat.identity(1)], cocycle)


# -- the closed forms against the group law and the Fraction census -----------

def _shift(ext):
    """t in the shifted section (t, c1) of the section-independence check."""
    return tuple((i + 1) % d for i, d in enumerate(ext.A.factors))


def _group_law_commutator(grp, s1, s2):
    """s1·s2·s1^{-1}·s2^{-1} through ConcreteGroup.mul and inv."""
    w = grp.mul(grp.mul(s1, s2), grp.mul(grp.inv(s1), grp.inv(s2)))
    assert w[1] == grp.ext.C.zero
    return w[0]


def _reference_verdict(ext):
    """has_multiplicity_one with both commutators multiplied out in B."""
    grp = ConcreteGroup(ext)
    cs = list(ext.C.elements())
    for c1 in cs:
        for c2 in cs:
            quot = ext.coinvariant_quotient(c1, c2)
            cls = quot.project(_group_law_commutator(
                grp, grp.section(c1), grp.section(c2)))
            shifted = _group_law_commutator(grp, (_shift(ext), c1),
                                            grp.section(c2))
            assert quot.project(shifted) == cls
            if cls != quot.group.zero:
                return False, (c1, c2, _separating_character(ext, quot, cls))
    return True, None


def _fraction_char_act(ext, c, rho):
    m = ext.action_matrix(ext.C.neg(c))
    return tuple(int(ext.A.char_value(rho, ext.A.apply_matrix(m, e)) * d) % d
                 for d, e in zip(ext.A.factors, ext.A.standard_basis()))


def _fraction_census(ext):
    """irrep_census with Q/Z values as Fractions, one character at a time."""
    a, cs = ext.A, list(ext.C.elements())
    seen, entries = set(), []
    for rho in a.characters():
        if rho in seen:
            continue
        orbit = {_fraction_char_act(ext, cc, rho) for cc in cs}
        seen |= orbit
        stab = [cc for cc in cs if _fraction_char_act(ext, cc, rho) == rho]
        pairs = {(c1, c2): a.char_value(rho, ext.z(c1, c2))
                 for c1 in stab for c2 in stab}
        radical = [c1 for c1 in stab
                   if all((pairs[(c1, c2)] - pairs[(c2, c1)]) % 1 == 0
                          for c2 in stab)]
        m = math.isqrt(len(stab) // len(radical))
        assert m * m * len(radical) == len(stab)
        entries.append(CensusEntry(len(orbit) * m, len(orbit), m,
                                   len(stab) // (m * m), rho))
    return entries


@st.composite
def descriptors(draw):
    """random_descriptor(random.Random(k), 128); on half of the draws, the
    first k' >= k whose action is not trivial."""
    k = draw(st.integers(0, 10 ** 6))
    acting = draw(st.booleans())
    while True:
        ext = random_descriptor(random.Random(k), max_order=128)
        ident = Mat.identity(len(ext.A.factors))
        if not acting or any(g != ident for g in ext.action):
            return ext
        k += 1


def bilinear_z2xz4_descriptor():
    """A = Z/2 x Z/4 central, C = (Z/4)^2, z(c1, c2) = c1[0]·c2[1]·(0, 1).

    The commutator pairing of the order-4 character rho = (0, 1) takes
    values of order 4 although A has a factor 2, and its radical is 0.
    """
    return ExtensionDescriptor(
        [2, 4], [4, 4], [Mat.identity(2)] * 2,
        lambda c1, c2: (0, c1[0] * c2[1] % 4))


FIXTURES = [q8_descriptor(), dihedral8_central_descriptor(),
            dihedral8_cyclic_descriptor(), bilinear_z2xz4_descriptor()]
SAMPLE = settings(derandomize=True, max_examples=60, deadline=None)


def check_closed_form_commutators(ext):
    grp = ConcreteGroup(ext)
    for c1 in ext.C.elements():
        for c2 in ext.C.elements():
            word, shifted = _commutator_words(ext, c1, c2)
            assert word == _group_law_commutator(grp, grp.section(c1),
                                                 grp.section(c2))
            assert shifted == [
                _group_law_commutator(grp, (t, c1), grp.section(c2))
                for t in ext.A.standard_basis()]
            quot, cls = commutator_function(ext, c1, c2)
            assert cls == quot.project(word)


def check_against_the_fraction_code(ext):
    ok, witness = has_multiplicity_one(ext)
    ref_ok, ref_witness = _reference_verdict(ext)
    assert ok == ref_ok
    if not ok:
        assert witness[:2] == ref_witness[:2]
        assert [witness[2](a) for a in ext.A.elements()] == \
            [ref_witness[2](a) for a in ext.A.elements()]
    assert [e.to_json() for e in irrep_census(ext)] == \
        [e.to_json() for e in _fraction_census(ext)]
    for c in ext.C.elements():
        for rho in ext.A.characters():
            assert _char_act(ext, c, rho) == _fraction_char_act(ext, c, rho)


@pytest.mark.parametrize("ext", FIXTURES,
                         ids=["q8", "d8", "d8-cyclic", "bilinear-z2xz4"])
def test_closed_form_commutators_on_the_fixtures(ext):
    check_closed_form_commutators(ext)
    check_against_the_fraction_code(ext)


def test_census_of_the_bilinear_fixture():
    # rho = (0, 1) has stabilizer C and a pairing with radical 0: one
    # irreducible of dimension 4 above it
    census = {tuple(e.orbit_rep): (e.dimension, e.count)
              for e in irrep_census(bilinear_z2xz4_descriptor())}
    assert census[(0, 1)] == (4, 1)
    assert census[(0, 0)] == (1, 16)


@SAMPLE
@given(descriptors())
def test_closed_form_commutators_match_the_group_law(ext):
    check_closed_form_commutators(ext)


@SAMPLE
@given(descriptors())
def test_integer_census_and_verdict_match_the_fraction_code(ext):
    check_against_the_fraction_code(ext)


def skew_forms_descriptor():
    """A = (Z/2)^3 central, C = (Z/2)^3, z(c1, c2) = (c1[2]·c2[1],
    c1[2]·c2[1], c1[1]·c2[0]).

    The characters (0, 1, 0) and (1, 0, 0) see the skew form on coordinates
    1, 2 of C, whose first non-zero pair is ((0, 0, 1), (0, 1, 0)).  The
    first non-trivial character, (0, 0, 1), and the last, (1, 1, 1), see
    the form on coordinates 0, 1, non-zero first at the later pair
    ((0, 1, 0), (1, 0, 0)).
    """
    return ExtensionDescriptor(
        [2, 2, 2], [2, 2, 2], [Mat.identity(3)] * 3,
        lambda c1, c2: (c1[2] * c2[1], c1[2] * c2[1], c1[1] * c2[0]))


def failing_products():
    """q8 x R and R x D8 for the first ten R = random_descriptor(Random(k),
    16), q8 x D8, D8 x q8 and the bilinear and skew-forms fixtures:
    extensions that fail multiplicity one."""
    q8, d8 = q8_descriptor(), dihedral8_central_descriptor()
    small = [random_descriptor(random.Random(k), max_order=16)
             for k in range(10)]
    return ([transform(q8, r) for r in small]
            + [transform(r, d8) for r in small]
            + [transform(q8, d8), transform(d8, q8),
               bilinear_z2xz4_descriptor(), skew_forms_descriptor()])


def test_orbit_pass_matches_the_reference_on_failing_products():
    failing = 0
    for ext in failing_products():
        check_against_the_fraction_code(ext)
        failing += not has_multiplicity_one(ext)[0]
    assert failing >= 15
    # the witness pair is the least over all orbits, not the first orbit's
    ext = skew_forms_descriptor()
    pairs = {o.rho: o.first_pair for o in ext.orbits()}
    assert pairs[(0, 1, 0)] == pairs[(1, 0, 0)] == ((0, 0, 1), (0, 1, 0))
    assert pairs[(0, 0, 1)] == pairs[(1, 1, 1)] == ((0, 1, 0), (1, 0, 0))
    assert has_multiplicity_one(ext)[1][:2] == ((0, 0, 1), (0, 1, 0))


def _counting(monkeypatch, name):
    """Replace cuspidor.clifford.<name> by a wrapper; return its call list."""
    import cuspidor.clifford as clifford
    calls = []
    inner = getattr(clifford, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(clifford, name, wrapper)
    return calls


def test_verdict_builds_a_coinvariant_quotient_only_for_the_witness(
        monkeypatch):
    quotients = _counting(monkeypatch, "coinvariants")
    assert has_multiplicity_one(dihedral8_cyclic_descriptor())[0]
    assert len(quotients) == 0
    ext = q8_descriptor()
    assert not has_multiplicity_one(ext)[0]
    assert len(quotients) == 1
    acts = _counting(monkeypatch, "_char_act")
    assert census_summary(irrep_census(ext)) == {1: 4, 2: 1}
    assert acts == []


def test_orbit_pass_keeps_the_section_check(monkeypatch):
    # A = Z/4 with trivial action and t = 1; make act invert A off c = 0,
    # so rho = 1, fixed by all of C, sees rho(c·t) = -rho(t) != rho(t)
    assert has_multiplicity_one(direct_product([4], [2]))[0]
    ext = direct_product([4], [2])
    monkeypatch.setattr(ext, "act",
                        lambda c, a: ext.A.neg(a) if any(c) else a)
    with pytest.raises(ArithmeticError, match="section"):
        has_multiplicity_one(ext)


@pytest.mark.parametrize("check", [
    has_multiplicity_one,
    lambda ext: commutator_function(ext, (0, 0), (1, 0))])
def test_section_check_shifts_by_every_generator(monkeypatch, check):
    # on A = Z/2 x Z/4 with trivial action the single shift (1, 2) has order
    # 2, so inverting A off c = 0 moves none of its images; the generator
    # (0, 1) is moved to (0, 3)
    ext = bilinear_z2xz4_descriptor()
    monkeypatch.setattr(ext, "act",
                        lambda c, a: ext.A.neg(a) if any(c) else a)
    with pytest.raises(ArithmeticError, match="section"):
        check(ext)


# -- the generator-cost cocycle check against the full |C|^3 sweep ------------

def _full_sweep_accepts(ext, cocycle):
    """The old validation of ``cocycle`` over ext's groups and action: the
    normalization ExtensionDescriptor applies, z(0, .) = z(., 0) = 0, and the
    twisted cocycle identity on all |C|^3 triples."""
    a, c = ext.A, ext.C
    cs = list(c.elements())
    z00 = cocycle[(c.zero, c.zero)]
    z = {(c1, c2): a.add(v, a.neg(ext.act(c1, z00)))
         for (c1, c2), v in cocycle.items()}
    if any(z[(c.zero, x)] != a.zero or z[(x, c.zero)] != a.zero for x in cs):
        return False
    return all(a.add(ext.act(c1, z[(c2, c3)]), z[(c1, c.add(c2, c3))])
               == a.add(z[(c1, c2)], z[(c.add(c1, c2), c3)])
               for c1, c2, c3 in itertools.product(cs, repeat=3))


def _validator_accepts(ext, cocycle):
    try:
        ExtensionDescriptor(ext.A.factors, ext.C.factors, ext.action, cocycle)
    except ValueError:
        return False
    return True


def _shifted_cocycles(ext, rng, count):
    """``count`` copies of ext's cocycle, each with one value moved by a
    non-zero element of A."""
    keys = sorted(ext.cocycle)
    nonzero = [x for x in ext.A.elements() if x != ext.A.zero]
    for _ in range(count):
        key = rng.choice(keys)
        cocycle = dict(ext.cocycle)
        cocycle[key] = ext.A.add(cocycle[key], rng.choice(nonzero))
        yield cocycle


def _inflated_cocycles(ext, rng):
    """ext's cocycle plus g(c1[j], c2[j]), one random normalized g per
    coordinate j of C.  The sum passes the identity at every c2 = e_i with
    i != j, so only e_j can reject it; a one-value shift is caught by any
    single generator."""
    a = ext.A
    for j, d in enumerate(ext.C.factors):
        g = {(x, y): rng.choice(list(a.elements())) if x and y else a.zero
             for x in range(d) for y in range(d)}
        yield {(c1, c2): a.add(v, g[(c1[j], c2[j])])
               for (c1, c2), v in ext.cocycle.items()}


def test_cocycle_check_matches_the_full_sweep_on_perturbed_cocycles():
    rng = random.Random(11)
    verdicts = []
    for k in range(150):
        ext = random_descriptor(random.Random(k), max_order=256)
        for cocycle in itertools.chain(_shifted_cocycles(ext, rng, 2),
                                       _inflated_cocycles(ext, rng)):
            verdict = _validator_accepts(ext, cocycle)
            assert verdict == _full_sweep_accepts(ext, cocycle), (k, cocycle)
            verdicts.append(verdict)
    assert 0 < verdicts.count(True) < len(verdicts)


@pytest.mark.parametrize("a, c, action, z", [
    ([2], [64], [Mat.identity(1)], lambda c1, c2: ((c1[0] + c2[0]) // 64,)),
    ([4], [2, 32], [Mat([[-1]]), Mat.identity(1)],
     lambda c1, c2: (2 * ((c1[1] + c2[1]) // 32),)),
], ids=["Z/64", "Z/2xZ/32"])
def test_cocycle_check_matches_the_full_sweep_on_a_large_c(a, c, action, z):
    # |C|^3 > 200000 triples: the old validator sampled 5000 of them
    ext = ExtensionDescriptor(a, c, action, z)
    assert _full_sweep_accepts(ext, ext.cocycle)
    rng = random.Random(len(c))
    for cocycle in itertools.chain(_shifted_cocycles(ext, rng, 8),
                                   _inflated_cocycles(ext, rng)):
        assert (_validator_accepts(ext, cocycle)
                == _full_sweep_accepts(ext, cocycle))


def test_clifford_raises_only_its_named_errors():
    import ast
    import pathlib

    import cuspidor.clifford as clifford
    import cuspidor.errors as errors
    tree = ast.parse(pathlib.Path(clifford.__file__).read_text())
    raised = {node.exc.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Raise)}
    assert raised == {"FailedCheck", "InvalidExtension", "NotEquivariant",
                      "TooLarge"}
    assert all(issubclass(getattr(errors, name), errors.CuspidorError)
               for name in raised)
    assert issubclass(errors.InvalidExtension, ValueError)
