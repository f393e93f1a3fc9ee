import json
import random
from fractions import Fraction

import pytest

from cuspidor.errors import (FailedCheck, InvalidLattice, NotCommuting, Reducible,
                             TooLarge)
from cuspidor.exactcore import Mat, QV
from cuspidor.rootdata import (
    RootDatum,
    WeylElement,
    _exceptional_datum,
    bad_prime_data,
    build_classical,
    connection_index,
    lambda_pair,
    prime_support,
    signed_perm_element,
    table_check,
    tits_cocycle,
    weyl_order_formula,
)


def minus_one(rd):
    return WeylElement(rd, -Mat.identity(rd.rank))


def test_a1_basics():
    rd = build_classical("A", 1, "sc")
    assert len(rd.roots) == 2
    a = rd.simple_roots[0]
    av = rd.coroot(a)
    assert sum(x * y for x, y in zip(a, av)) == 2


def test_d4_counts_and_connection_index():
    rd = build_classical("D", 4, "sc")
    assert len(rd.roots) == 24
    assert len(rd.positive_roots()) == 12
    assert connection_index(rd) == 4


def test_b4_counts():
    rd = build_classical("B", 4, "ad")
    assert len(rd.roots) == 32
    assert len(rd.positive_roots()) == 16


def test_root_closure_matches_formula_counts():
    for kind, n, total in [("A", 2, 6), ("A", 3, 12), ("B", 2, 8), ("B", 3, 18),
                           ("C", 3, 18), ("D", 4, 24), ("D", 5, 40)]:
        rd = build_classical(kind, n, "sc")
        assert len(rd.roots) == total


def test_reflection_closure_invariant():
    for kind, n in [("A", 2), ("B", 3), ("C", 3), ("D", 4), ("A", 4), ("D", 5)]:
        rd = build_classical(kind, n, "sc")
        rootset = set(rd.roots)
        for a in rd.simple_roots:
            s = rd.reflection(a)
            for r in rd.roots:
                assert tuple(s.apply(r)) in rootset


def test_weyl_orders():
    rd = build_classical("D", 4, "sc")
    assert rd.weyl_order() == 192
    assert prime_support(rd.weyl_order()) == {2, 3}
    assert weyl_order_formula(rd) == 192
    rd = build_classical("A", 1, "sc")
    assert (rd.weyl_order(), prime_support(rd.weyl_order())) == (2, {2})
    for kind, n, expect in [("A", 3, 24), ("B", 3, 48), ("C", 2, 8), ("D", 5, 1920)]:
        rd = build_classical(kind, n, "sc")
        assert rd.weyl_order() == expect
        assert weyl_order_formula(rd) == expect


def test_bad_primes():
    assert bad_prime_data(build_classical("B", 4, "sc"))[0] == {2}
    bad, f = bad_prime_data(build_classical("A", 3, "sc"))
    assert bad == set()
    assert f == 4
    with pytest.raises(Reducible):
        bad_prime_data(build_classical("D", 2, "sc"))


def test_table_check_all_columns():
    report = table_check()
    assert report["ok"], report
    assert report["E7"]["row2"] == [2, 3, 5, 7]
    assert report["G2"]["row1"] == [2, 3]


def test_intermediate_lattice_validation():
    # Z^4 sits between Q and P for D4
    rd = build_classical("D", 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert rd.rank == 4
    with pytest.raises(InvalidLattice):
        build_classical("D", 4, [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])


def _biquadratic_rd():
    from cuspidor.fixture_gen import build_biquadratic
    return build_biquadratic().rd


def test_coroot_outside_the_cocharacter_lattice_is_rejected():
    # X = (1/2)Z holds the roots ±2, but X^vee = 2Z does not hold ±1
    with pytest.raises(InvalidLattice,
                       match="coroot outside the cocharacter lattice"):
        RootDatum("A1", Mat([[Fraction(1, 2)]]), [(2,), (-2,)], [(1,), (-1,)],
                  [0])
    with pytest.raises(InvalidLattice,
                       match="root outside the character lattice"):
        RootDatum("A1", Mat([[2]]), [(1,), (-1,)], [(2,), (-2,)], [0])


@pytest.mark.parametrize("build", [
    lambda: build_classical("B", 3, "ad"),
    lambda: build_classical("D", 4, "sc"),
    _biquadratic_rd], ids=["B3-ad", "D4-sc", "biquadratic"])
def test_integer_coordinates_match_the_rational_products(build):
    rd = build()
    for a, av in zip(rd.roots, rd.coroots):
        assert rd.pairing_row(a) == rd.xv_rows.apply(a)
        assert rd._coroot_rows[a] == rd.basis.apply(av)
    for m in rd.weyl_group():
        ref = rd.basis * rd.inverse(m).transpose() * rd.basis_inv
        assert rd.cochar_coord_matrix(m) == ref
        assert all(type(x) is int
                   for row in rd.cochar_coord_matrix(m).rows for x in row)


def test_a_matrix_off_the_cocharacter_lattice_is_rejected():
    rd = build_classical("A", 1, "sc")
    assert rd.cochar_coord_matrix(Mat([[-1]])) == Mat([[-1]])
    with pytest.raises(InvalidLattice,
                       match="does not preserve the cocharacter lattice"):
        rd.cochar_coord_matrix(Mat([[2]]))


def d4_w1_w2():
    rd = build_classical("D", 4, "sc")
    w1 = signed_perm_element(rd, [0, 1, 2, 3], [-1, 1, 1, -1])   # eps_1 eps_{2n}
    m = signed_perm_element(rd, [3, 2, 1, 0], [1, 1, 1, 1])
    w2 = WeylElement(rd, -Mat.identity(4) * m.matrix)
    return rd, w1, w2


def test_lambda_pair_d4_w1_w2():
    rd, w1, w2 = d4_w1_w2()
    res = lambda_pair(rd, w1, w2)
    expected = {(1, 0, -1, 0), (1, -1, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1)}
    assert set(res.roots) == expected
    assert res.lam == (2, 0, 0, 2)
    assert res.trivial  # (1/2)(2n-2)(e1 + e_2n) lies in the coroot lattice


def test_lambda_pair_self_is_trivial():
    rd, w1, _ = d4_w1_w2()
    res = lambda_pair(rd, w1, w1)
    assert res.roots == ()
    assert res.trivial


def test_lambda_pair_w1_w0_empty():
    # w0 elliptic of cycle type (1,1) in the consecutive-negative-cycle form
    rd, w1, w2 = d4_w1_w2()
    w0 = signed_perm_element(rd, [0, 1, 2, 3], [-1, -1, -1, -1])
    res = lambda_pair(rd, w1, w0)
    assert res.roots == ()
    assert res.trivial


def test_lambda_pair_requires_commuting():
    rd = build_classical("D", 4, "sc")
    s1 = WeylElement(rd, rd.reflection(rd.simple_roots[0]))
    s2 = WeylElement(rd, rd.reflection(rd.simple_roots[1]))
    with pytest.raises(NotCommuting):
        lambda_pair(rd, s1, s2)


def test_lambda_antisymmetry_shadow():
    # the two half-classes are inverse: [w_u, w_v] * [w_v, w_u] = 1
    rd, w1, w2 = d4_w1_w2()
    a = lambda_pair(rd, w1, w2).half_class_coords
    b = lambda_pair(rd, w2, w1).half_class_coords
    assert (a + b).is_zero()
    w0 = signed_perm_element(rd, [0, 1, 2, 3], [-1, -1, -1, -1])
    for u, v in [(w1, w0), (w2, w0), (w1, w2)]:
        x = lambda_pair(rd, u, v).half_class_coords
        y = lambda_pair(rd, v, u).half_class_coords
        assert (x + y).is_zero()


def test_tits_cocycle_identity_small():
    # twisted 2-cocycle law: z(u,v) + z(uv,w) = u.z(v,w) + z(u,vw) in Xv/Z
    for kind, n in [("A", 2), ("B", 2), ("D", 4)]:
        rd = build_classical(kind, n, "sc")
        w = rd.weyl_group()
        sample = w[:: max(1, len(w) // 8)]
        for mu in sample[:6]:
            for mv in sample[:6]:
                for mw in sample[:6]:
                    lhs = tits_cocycle(rd, mu, mv) + tits_cocycle(rd, mu * mv, mw)
                    zvw = tits_cocycle(rd, mv, mw)
                    acted = zvw.act(rd.cochar_coord_matrix(mu))
                    rhs = acted + tits_cocycle(rd, mu, mv * mw)
                    assert lhs == rhs


def test_tits_cocycle_antisymmetrization_is_lambda():
    rd, w1, w2 = d4_w1_w2()
    z12 = tits_cocycle(rd, w1.matrix, w2.matrix)
    z21 = tits_cocycle(rd, w2.matrix, w1.matrix)
    lam = lambda_pair(rd, w1, w2).half_class_coords
    assert (z12 - z21) == lam or (z12 - z21) == -lam


def test_sl2_tits_square():
    rd = build_classical("A", 1, "sc")
    s = WeylElement(rd, rd.reflection(rd.simple_roots[0]))
    z = tits_cocycle(rd, s.matrix, s.matrix)
    # n(s)^2 = alpha_vee(-1): one half-coroot, nontrivial in the sc lattice
    assert not z.is_zero()
    assert (2 * z).is_zero()


def test_signed_permutation_and_ellipticity():
    rd = build_classical("D", 4, "sc")
    w0 = signed_perm_element(rd, [0, 1, 2, 3], [-1, -1, -1, -1])
    assert w0.is_elliptic()
    # a non-elliptic signed permutation: single sign flip pair leaves fixed vectors
    w = signed_perm_element(rd, [0, 1, 2, 3], [-1, -1, 1, 1])
    assert not w.is_elliptic()


def test_json_roundtrip():
    rd = build_classical("C", 3, "ad")
    data = rd.to_json()
    rd2 = RootDatum.from_json(data)
    assert rd2.roots == rd.roots
    assert rd2.coroots == rd.coroots
    assert rd2.basis == rd.basis


def test_prime_support():
    assert prime_support(192) == {2, 3}
    assert prime_support(1) == set()


def test_weyl_element_of_the_wrong_size_is_rejected():
    from cuspidor.errors import InvalidWeylElement
    rd = build_classical("A", 1, "sc")
    for m in (Mat.identity(2), Mat([[1, 0]]), Mat([[1], [0]])):
        with pytest.raises(InvalidWeylElement, match="1 x 1"):
            WeylElement(rd, m)


# -- inversion sets against a frozen copy of the inverse-based formulas -------

def _ref_tits_cocycle(rd, u_mat, v_mat):
    """tits_cocycle as computed from the inverses of u and uv."""
    ui = u_mat.inverse().to_int()
    uvi = (u_mat * v_mat).inverse().to_int()
    pos = set(rd.positive_roots())
    lam = tuple(Fraction(0) for _ in range(rd.rank))
    for a in rd.positive_roots():
        if tuple(ui.apply(a)) in pos:
            continue
        if tuple(uvi.apply(a)) not in pos:
            continue
        av = rd.coroot(a)
        lam = tuple(x + y for x, y in zip(lam, av))
    half = tuple(Fraction(x, 2) for x in lam)
    return QV(rd.coroot_coords(half))


def _ref_lambda_pair(rd, u, v):
    """lambda_pair as computed from the inverses of u, v and uv, as a tuple."""
    ui = u.matrix.inverse().to_int()
    vi = v.matrix.inverse().to_int()
    uvi = (u.matrix * v.matrix).inverse().to_int()
    chosen = []
    pos = set(rd.positive_roots())
    lam = tuple(Fraction(0) for _ in range(rd.rank))
    for a in rd.positive_roots():
        if tuple(uvi.apply(a)) not in pos:
            continue
        nu = tuple(ui.apply(a)) not in pos
        nv = tuple(vi.apply(a)) not in pos
        if nu != nv:
            chosen.append(a)
            av = rd.coroot(a)
            lam = tuple(x + y for x, y in zip(lam, av))
    half = tuple(Fraction(x, 2) for x in lam)
    coords = QV(rd.coroot_coords(half))
    return tuple(chosen), lam, coords, coords.is_zero()


def _lambda_tuple(res):
    assert all(isinstance(x, Fraction) for x in res.lam)
    return res.roots, res.lam, res.half_class_coords, res.trivial


@pytest.mark.parametrize("kind", ["A", "B", "C"])
@pytest.mark.parametrize("lattice", ["sc", "ad"])
def test_inversion_set_formulas_match_the_inverse_ones_on_all_of_w(kind,
                                                                   lattice):
    rd = build_classical(kind, 3, lattice)
    elements = [WeylElement(rd, m) for m in rd.weyl_group()]
    for u in elements:
        for v in elements:
            assert tits_cocycle(rd, u.matrix, v.matrix) == \
                _ref_tits_cocycle(rd, u.matrix, v.matrix)
            if u.commutes_with(v):
                assert _lambda_tuple(lambda_pair(rd, u, v)) == \
                    _ref_lambda_pair(rd, u, v)


@pytest.mark.parametrize("build", [
    lambda: build_classical("D", 4, "sc"),
    lambda: build_classical("D", 4, "ad"),
    _biquadratic_rd], ids=["D4-sc", "D4-ad", "biquadratic"])
def test_inversion_set_cocycle_matches_the_inverse_one_on_sampled_pairs(build):
    rd = build()
    rng = random.Random(15)
    w = rd.weyl_group()
    for _ in range(300):
        u, v = rng.choice(w), rng.choice(w)
        assert tits_cocycle(rd, u, v) == _ref_tits_cocycle(rd, u, v)


def test_inversion_set_formulas_make_no_inverse(monkeypatch):
    rd, w1, w2 = d4_w1_w2()

    def banned(self):
        raise AssertionError("Mat.inverse called")

    monkeypatch.setattr(Mat, "inverse", banned)
    assert not tits_cocycle(rd, w1.matrix, w2.matrix).is_zero()
    assert lambda_pair(rd, w1, w2).lam == (2, 0, 0, 2)


def test_inversion_set_is_read_by_applying_m():
    rd = build_classical("B", 3, "sc")
    pos = rd.positive_root_set()
    assert rd.positive_root_set() is pos
    for m in rd.weyl_group():
        mi = m.inverse()
        assert rd.inversion_set(m) == {
            a for a in pos if tuple(mi.apply(a)) not in pos}


@pytest.mark.parametrize("kind,n", [("B", 3), ("D", 4)])
def test_root_datum_inverse_is_memoized(kind, n):
    rd = build_classical(kind, n, "sc")
    one = Mat.identity(n)
    for m in rd.weyl_group():
        inv = rd.inverse(m)
        assert m * inv == one
        assert all(type(x) is int for row in inv.rows for x in row)
        assert rd.inverse(m) is inv


def test_root_datum_inverse_of_a_singular_matrix_is_not_cached():
    rd = build_classical("B", 3, "sc")
    with pytest.raises(ValueError):
        rd.inverse(Mat([[1, 0, 0], [0, 1, 0], [1, 1, 0]]))
    assert rd._inverse_cache == {}


# -- one enumeration of W ------------------------------------------------------

def _frozen_mat_closure(rd):
    """W as the full Mat-product closure of the simple reflections, sorted."""
    gens = [rd.reflection(a) for a in rd.simple_roots]
    seen = {Mat.identity(rd.rank)}
    frontier = [Mat.identity(rd.rank)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                x = g * m
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    return sorted(seen, key=lambda m: m.rows)


def _fixture_rd(name):
    from importlib import resources

    from cuspidor.fixture_gen import datum_from_json
    text = (resources.files("cuspidor") / "fixtures" / f"{name}.json").read_text()
    return datum_from_json(json.loads(text)).rd


_IRREDUCIBLE = ([(k, n, lat) for k, ns in [("A", range(1, 5)), ("B", range(2, 5)),
                                           ("C", range(2, 5))]
                 for n in ns for lat in ("sc", "ad")]
                + [("D", 4, "sc"), ("D", 5, "sc")])


def _irreducible_builds():
    builds = [(f"{k}{n}-{lat}", lambda k=k, n=n, lat=lat: build_classical(k, n, lat))
              for k, n, lat in _IRREDUCIBLE]
    builds += [(label, lambda label=label: _exceptional_datum(label))
               for label in ("G2", "F4")]
    return builds


_WEYL_BUILDS = _irreducible_builds() + [
    (name, lambda name=name: _fixture_rd(name))
    for name in ("spin9", "biquadratic", "d4_sc")]


@pytest.mark.parametrize("build", [b for _, b in _WEYL_BUILDS],
                         ids=[name for name, _ in _WEYL_BUILDS])
def test_weyl_group_matches_the_mat_product_closure(build):
    rd = build()
    got = rd.weyl_group()
    assert got == _frozen_mat_closure(rd)
    assert all(type(x) is int for m in got for row in m.rows for x in row)


# D2 = A1 x A1 and biquadratic = A3 x A3 are reducible: the formula takes
# one highest root per component
_ORDER_BUILDS = _WEYL_BUILDS + [("D2-sc", lambda: build_classical("D", 2, "sc"))]


@pytest.mark.parametrize("build", [b for _, b in _ORDER_BUILDS],
                         ids=[name for name, _ in _ORDER_BUILDS])
def test_weyl_order_is_the_length_of_the_enumeration(build):
    rd = build()
    assert rd.weyl_order() == len(rd.weyl_group()) == weyl_order_formula(rd)


def test_an_infinite_reflection_group_ends_in_a_failed_check():
    # <a1, a2_vee> = <a2, a1_vee> = -3: a hyperbolic Cartan matrix, whose
    # reflections generate an infinite group
    rd = RootDatum("H2", Mat.identity(2), [(1, 0), (0, 1), (-1, 0), (0, -1)],
                   [(2, -3), (-3, 2), (-2, 3), (3, -2)], [0, 1])
    with pytest.raises(FailedCheck):
        rd.weyl_group()
    assert rd._weyl is None


def test_a_weyl_group_over_the_bound_is_refused(monkeypatch, capsys):
    from cuspidor import cli, rootdata
    from cuspidor.centralizer import centralizer
    from cuspidor.fixture_gen import build_spin9

    # refused from the formula, before the closure starts
    with pytest.raises(TooLarge, match="92897280"):
        build_classical("D", 9, "sc").weyl_group()
    monkeypatch.setattr(rootdata, "WEYL_BOUND", 100)
    rd = build_classical("B", 4, "sc")
    for _ in range(2):
        with pytest.raises(TooLarge):
            rd.weyl_group()
    assert rd._weyl is None
    with pytest.raises(TooLarge):
        centralizer(build_spin9())
    assert cli.main(["stabilizer", "--type", "B", "--rank", "4", "--q", "3",
                     "--theta", "1/4", "1/4", "1/4", "1/4"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "error"
    assert doc["error"].startswith("TooLarge:")


def test_a_pairing_other_than_two_is_an_invalid_root_datum():
    from cuspidor.errors import CuspidorError, InvalidRootDatum
    data = build_classical("A", 1, "sc").to_json()
    data["coroots"] = [[2 * c for c in v] for v in data["coroots"]]
    with pytest.raises(InvalidRootDatum, match="pairing") as err:
        RootDatum.from_json(data)
    assert isinstance(err.value, ValueError)
    assert isinstance(err.value, CuspidorError)
