import random

import pytest

from cuspidor.clifford import (
    ConcreteGroup,
    ExtensionDescriptor,
    dihedral8_central_descriptor,
    has_multiplicity_one,
    q8_descriptor,
    random_descriptor,
)
from cuspidor.cyclotomic import Cyc, cyc_sum
from cuspidor.dixon import (
    CharacterTable,
    _validate_table,
    brute_force_census,
    oracle_multiplicity_one,
    restriction_multiplicities,
)
from cuspidor.exactcore import Mat


def small_groups():
    """q8, the central D8 and 8 random extensions of order <= 48, abelian
    ones among them."""
    rng = random.Random(9)
    return ([q8_descriptor(), dihedral8_central_descriptor()]
            + [random_descriptor(rng, max_order=48) for _ in range(8)])


def test_table_keeps_root_multiplicities():
    for ext in small_groups():
        table = brute_force_census(ConcreteGroup(ext))
        e = table.exponent
        for row, terms in zip(table.mults, table.terms):
            degree = sum(row[0])
            assert row[0][0] == degree
            for m, t in zip(row, terms):
                assert len(m) == e and min(m) >= 0 and sum(m) == degree
                assert t == tuple((s, c) for s, c in enumerate(m) if c)
        assert table.degrees() == sorted(sum(row[0]) for row in table.mults)


def test_corrupted_table_fails_row_orthogonality():
    group = ConcreteGroup(q8_descriptor())
    table = brute_force_census(group)
    # multiply one non-zero value at a non-identity class by zeta_e^-1:
    # rotating its multiplicity vector keeps every degree, so only the
    # orthogonality check can see it
    i, k = next((i, k) for i, row in enumerate(table.mults)
                for k in range(1, len(row))
                if not Cyc.from_root_multiplicities(table.exponent,
                                                    row[k]).is_zero())
    mults = [list(row) for row in table.mults]
    m = mults[i][k]
    mults[i][k] = m[1:] + m[:1]
    bad = CharacterTable(table.classes, mults, table.class_of,
                         table.exponent, group)
    assert bad.degrees() == table.degrees()
    with pytest.raises(ArithmeticError, match="row orthogonality fails"):
        _validate_table(bad, group)
    _validate_table(table, group)


def test_chars_are_built_once_from_the_multiplicities(monkeypatch):
    group = ConcreteGroup(dihedral8_central_descriptor())
    table = brute_force_census(group)
    calls = []
    build = Cyc.from_root_multiplicities

    def counting(n, coeffs):
        calls.append(n)
        return build(n, coeffs)

    monkeypatch.setattr(Cyc, "from_root_multiplicities",
                        staticmethod(counting))
    chars = table.chars
    assert table.chars is chars
    n = len(table.classes)
    assert len(calls) == n * n
    for row, values in zip(table.mults, chars):
        assert sorted(values) == list(range(n))
        for k, m in enumerate(row):
            assert values[k] == build(table.exponent, m)


def test_restriction_multiplicities_match_the_cyc_sum():
    # <chi|_A, rho> = (1/|A|) sum_a chi(a) conj(rho(a)), summed term by term
    # in Q(zeta_e) against the histogram the table computes
    for ext in small_groups():
        table, mults = restriction_multiplicities(ext)
        a = ext.A
        elems = list(a.elements())
        czero = ext.C.zero
        for chi, per in zip(table.chars, mults):
            for rho in a.characters():
                total = cyc_sum(chi[table.class_of[(x, czero)]]
                                * Cyc.from_qz(-a.char_value(rho, x))
                                for x in elems)
                assert total == Cyc.rational(len(elems) * per.get(rho, 0))


def test_oracle_norm_pairs_x_with_its_inverse():
    # the Heisenberg group mod 3 as (Z/3)^2 x| Z/3: each degree-3
    # irreducible restricts to A as an orbit of three characters with the
    # same non-trivial central character, so no constituent is conjugate to
    # another; sum_a chi(a) chi(a^-1) = 3 |A| while sum_a chi(a)^2 = 0
    ext = ExtensionDescriptor((3, 3), (3,), [Mat([[1, 0], [1, 1]])], {})
    table = brute_force_census(ConcreteGroup(ext))
    assert table.degrees() == [1] * 9 + [3, 3]
    assert has_multiplicity_one(ext)[0] is True
    assert oracle_multiplicity_one(ext) is True


def _pairwise_sweep_accepts(table, group):
    """The full check: degree count, sum of squared degrees, and
    orthogonality of every pair of rows, one histogram mod e per pair."""
    n = len(table.classes)
    order = len(group.elements)
    if len(table.mults) != n:
        return False
    if sum(sum(row[0]) ** 2 for row in table.mults) != order:
        return False
    e = table.exponent
    sizes = [len(c) for c in table.classes]
    for i in range(n):
        for j in range(n):
            hist = [0] * e
            for k, size in enumerate(sizes):
                for s, a in enumerate(table.mults[i][k]):
                    for t, b in enumerate(table.mults[j][k]):
                        if a and b:
                            hist[(s - t) % e] += size * a * b
            total = Cyc.from_root_multiplicities(e, hist)
            if not (total == Cyc.rational(order if i == j else 0)):
                return False
    return True


def _abelian_groups():
    """Abelian extensions of order <= 32, trivial and twisted cocycles."""
    rng = random.Random(12)
    found = [ConcreteGroup(ExtensionDescriptor.from_json(
        {"A": [4], "C": [2, 2], "action": [[[1]], [[1]]], "cocycle": []}))]
    while len(found) < 5:
        group = ConcreteGroup(random_descriptor(rng, max_order=32))
        if group.is_abelian() and len(group.elements) > 4:
            found.append(group)
    return found


def _with_mults(table, group, mults):
    return CharacterTable(table.classes, mults, table.class_of,
                          table.exponent, group)


@pytest.mark.parametrize("group", _abelian_groups(),
                         ids=lambda g: f"order{len(g.elements)}")
def test_abelian_check_matches_the_pairwise_sweep(group):
    from cuspidor.dixon import _validate_abelian_table
    table = brute_force_census(group)
    assert _pairwise_sweep_accepts(table, group)
    _validate_abelian_table(table, group)
    rng = random.Random(len(group.elements))
    n = len(table.mults)
    corpus = []
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        k, k2 = rng.sample(range(n), 2)
        mults = [list(row) for row in table.mults]
        m = mults[i][k]
        mults[i][k] = m[-1:] + m[:-1]           # one entry times zeta_e
        corpus.append(mults)
        mults = [list(row) for row in table.mults]
        mults[j] = list(mults[i])               # two rows equal
        corpus.append(mults)
        mults = [list(row) for row in table.mults]
        mults[i][k], mults[i][k2] = mults[i][k2], mults[i][k]
        corpus.append(mults)                    # two entries of one row swapped
    # a swap of two equal entries changes nothing and must pass both
    i = next(i for i, row in enumerate(table.mults) if row.count(row[0]) > 1)
    k, k2 = [k for k, m in enumerate(table.mults[i]) if m == table.mults[i][0]][:2]
    mults = [list(row) for row in table.mults]
    mults[i][k], mults[i][k2] = mults[i][k2], mults[i][k]
    corpus.append(mults)
    verdicts = []
    for mults in corpus:
        bad = _with_mults(table, group, mults)
        want = _pairwise_sweep_accepts(bad, group)
        try:
            _validate_table(bad, group)
            got = True
        except ArithmeticError:
            got = False
        assert got == want
        verdicts.append(got)
    assert verdicts.count(False) >= 12 and verdicts[-1]
