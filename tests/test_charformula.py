import math
from fractions import Fraction

import pytest

from cuspidor.charformula import (
    ASYMMETRIC,
    SYMMETRIC_UNRAMIFIED,
    classify_chi_data,
    delta_II,
    delta_II_at_representative,
    mod_a_data,
    theta_sum,
)
from cuspidor.cyclotomic import Cyc
from cuspidor.errors import SingularRoot
from cuspidor.exactcore import Mat, QV
from cuspidor.ffield import FiniteField
from cuspidor.rootdata import WeylElement, build_classical
from cuspidor.torus import FrobeniusTorus, TorusCharacter, all_characters, is_nonsingular


def sl2_coxeter(q=3):
    rd = build_classical("A", 1, "sc")
    return FrobeniusTorus(rd, WeylElement(rd, -Mat.identity(1)), q)


def theta_of_order(torus, order):
    g = torus.rational_points(1)
    d = g.factors[0]
    return TorusCharacter(torus, [Fraction(d // order, d)])


def test_classify_sl2():
    chi = classify_chi_data(sl2_coxeter(3))
    assert len(chi.orbits) == 1
    orb = chi.orbits[0]
    assert orb.kind == SYMMETRIC_UNRAMIFIED
    assert orb.degree == 2


def test_classify_split():
    rd = build_classical("A", 1, "sc")
    t = FrobeniusTorus(rd, WeylElement(rd, Mat.identity(1)), 3)
    chi = classify_chi_data(t)
    assert all(o.kind == ASYMMETRIC for o in chi.orbits)
    assert len(chi.orbits) == 2


def test_classify_d4_minus_one():
    rd = build_classical("D", 4, "sc")
    t = FrobeniusTorus(rd, WeylElement(rd, -Mat.identity(4)), 3)
    chi = classify_chi_data(t)
    assert len(chi.orbits) == 12
    assert all(o.kind == SYMMETRIC_UNRAMIFIED and o.degree == 2
               for o in chi.orbits)


def test_mod_a_sl2_order4_nonsquare():
    t = sl2_coxeter(3)
    th = theta_of_order(t, 4)
    a = mod_a_data(th)
    orb = classify_chi_data(t).orbits[0]
    assert a.sign(orb.rep) == -1  # the nonsquare class of GF(9)^x


def test_mod_a_singular_root():
    t = sl2_coxeter(3)
    with pytest.raises(SingularRoot):
        mod_a_data(TorusCharacter(t, [0]))


def test_mod_a_rescaling_invariance():
    # rescaling Lambda0 by a base-field unit u leaves the square class
    # unchanged: u is automatically a square in the even-degree orbit field,
    # so the class of u^{-1} a equals that of a.
    f9 = FiniteField(3, 2)
    emb = f9.zero
    for _ in range(1, 3):
        emb = f9.add(emb, f9.one)   # the prime-field element u, embedded
        assert f9.sgn(emb) == 1


def test_delta_sl2():
    t = sl2_coxeter(3)
    th = theta_of_order(t, 4)
    chi = classify_chi_data(t)
    a = mod_a_data(th)
    gamma = th.group.gens[0]
    f9 = FiniteField(3, 2)
    res = delta_II(th, gamma, chi, a, f9)
    assert res.value == Cyc.rational(1) or res.value == Cyc.rational(-1)
    # direct recomputation of the single orbit factor
    orb = chi.orbits[0]
    pairing = t.rd.pairing_row(orb.rep)
    val = sum(Fraction(r) * c for r, c in zip(pairing, gamma.coords)) % 1
    x = f9.gen_power(val.numerator * (8 // val.denominator))
    want = f9.sgn(f9.sub(x, f9.one)) * a.sign(orb.rep)
    assert res.value == Cyc.rational(want)


def test_delta_trivial_when_no_symmetric_orbits():
    rd = build_classical("A", 1, "sc")
    t = FrobeniusTorus(rd, WeylElement(rd, Mat.identity(1)), 3)
    th = TorusCharacter(t, [Fraction(1, 2)])
    chi = classify_chi_data(t)
    a = mod_a_data(th, chi)
    gamma = th.group.gens[0]
    f3 = FiniteField(3, 1)
    res = delta_II(th, gamma, chi, a, f3)
    assert res.value == Cyc.rational(1)


def test_delta_skips_degenerate():
    t = sl2_coxeter(3)
    th = theta_of_order(t, 4)
    chi = classify_chi_data(t)
    a = mod_a_data(th)
    f9 = FiniteField(3, 2)
    res = delta_II(th, QV([0]), chi, a, f9)
    assert res.skipped_orbits
    assert res.value == Cyc.rational(1)


def test_delta_square_class_well_defined():
    # replacing a by a square multiple leaves every factor fixed: the factor
    # uses only the stored sign, asserted by recomputing with both reps
    t = sl2_coxeter(3)
    th = theta_of_order(t, 4)
    chi = classify_chi_data(t)
    a = mod_a_data(th)
    f9 = FiniteField(3, 2)
    gamma = th.group.gens[0]
    base = delta_II(th, gamma, chi, a, f9).value
    # flipping the class flips the value: the class genuinely enters
    flipped = type(a)(a.torus, {k: -v for k, v in a.classes.items()})
    assert delta_II(th, gamma, chi, flipped, f9).value == base * Fraction(-1)


def test_delta_representative_independence():
    for q in (3, 5):
        t = sl2_coxeter(q)
        for th in all_characters(t):
            if not is_nonsingular(th):
                continue
            chi = classify_chi_data(t)
            a = mod_a_data(th, chi)
            field = FiniteField(q if q == 3 else 5, 2)
            for gamma_coords in th.group.elements():
                gamma = th.group.lift(gamma_coords)
                orb = chi.orbits[0]
                vals = set()
                for rep in orb.roots:
                    v = delta_II_at_representative(th, gamma, chi, a, orb, rep,
                                                   field)
                    vals.add(v)
                assert len(vals) == 1, (q, gamma_coords)


def test_theta_sum_single_term():
    t = sl2_coxeter(3)
    th = theta_of_order(t, 4)
    chi = classify_chi_data(t)
    a = mod_a_data(th)
    f9 = FiniteField(3, 2)
    gamma = th.group.gens[0]
    s = theta_sum(th, gamma, chi, a, [Mat.identity(1)], f9)
    d = delta_II(th, gamma, chi, a, f9)
    assert s == d.value * Cyc.from_qz(th.on_vector(gamma))


def test_theta_sum_sl2_quadratic():
    # theta quadratic: two terms with theta(gamma^w) = theta(gamma)
    t = sl2_coxeter(3)
    th = theta_of_order(t, 2)
    chi = classify_chi_data(t)
    a = mod_a_data(th)
    f9 = FiniteField(3, 2)
    gamma = th.group.gens[0]
    wset = [Mat.identity(1), -Mat.identity(1)]
    s = theta_sum(th, gamma, chi, a, wset, f9)
    tv = Cyc.from_qz(th.on_vector(gamma))
    d1 = delta_II(th, gamma, chi, a, f9).value
    d2 = delta_II(th, QV([(-1) * gamma.coords[0]]), chi, a, f9).value
    assert s == tv * (d1 + d2)


def test_theta_sum_reindex_invariance():
    for q in (3, 5):
        t = sl2_coxeter(q)
        field = FiniteField(q, 2) if q in (3, 5) else None
        wset = [Mat.identity(1), -Mat.identity(1)]
        for th in all_characters(t):
            if not is_nonsingular(th):
                continue
            chi = classify_chi_data(t)
            a = mod_a_data(th, chi)
            for gc in th.group.elements():
                gamma = th.group.lift(gc)
                base = theta_sum(th, gamma, chi, a, wset, field)
                for m in wset:
                    gw = QV(t.rd.cochar_coord_matrix(m).inverse().to_int()
                            .apply(gamma.coords))
                    assert theta_sum(th, gw, chi, a, wset, field) == base


def test_theta_sum_rejects_noncommuting():
    rd = build_classical("A", 2, "sc")
    # Coxeter twist of order 3; a reflection does not commute with it
    cox = None
    for m in rd.weyl_group():
        w = WeylElement(rd, m)
        if w.order == 3 and w.is_elliptic():
            cox = w
            break
    t = FrobeniusTorus(rd, cox, 3)
    refl = rd.reflection(rd.simple_roots[0])
    th = TorusCharacter(t, [Fraction(1, o) for o in t.rational_points(1).factors])
    chi = classify_chi_data(t)
    from cuspidor.errors import InvalidWeylSet
    a = mod_a_data(th, chi) if is_nonsingular(th) else None
    if a is None:
        pytest.skip("character not non-singular for this q")
    with pytest.raises(InvalidWeylSet):
        theta_sum(th, th.group.gens[0], chi, a, [refl])


def test_galois_stability_of_delta():
    # Frobenius-stable data: the value is fixed by the q-power galois map
    t = sl2_coxeter(3)
    th = theta_of_order(t, 2)
    chi = classify_chi_data(t)
    a = mod_a_data(th)
    f9 = FiniteField(3, 2)
    gamma = th.group.gens[0]
    v = delta_II(th, gamma, chi, a, f9).value
    assert v.galois(3) == v  # value is rational (+-1), trivially stable


# -- histogram sums against direct term-by-term references ---------------------

def _rank2_tori():
    """Every elliptic torus of A1, A2, B2 and D2 at q in {3, 5, 7}."""
    from cuspidor.acceptance import _elliptic_classes
    for kind, rank in [("A", 1), ("A", 2), ("B", 2), ("D", 2)]:
        rd = build_classical(kind, rank, "sc")
        for w in _elliptic_classes(rd):
            for q in (3, 5, 7):
                yield FrobeniusTorus(rd, w, q)


def _direct_gauss_sum(psi, lam, field):
    """sum of psi(x) * lam(x) over the units, each term a Cyc product.

    The product is formed once per distinct pair of character values.
    """
    products = {}
    total = Cyc.rational(0)
    for x in field.units():
        key = (psi.power * field.dlog(x) % psi.order, field.absolute_trace(x))
        if key not in products:
            products[key] = psi(x) * lam(x)
        total = total + products[key]
    return total


def test_gauss_histogram_matches_direct_sum():
    # every (field, order, power) that mod_a_data validates on these tori;
    # the powers of one (field, order) form one Galois orbit, so the direct
    # sum is taken for the least power k and g(psi^(k s)) = sigma(g(psi^k)),
    # where sigma maps zeta_order to zeta_order^s and fixes zeta_p
    from cuspidor.ffield import MultCharacter, additive_character
    met = {}
    for t in _rank2_tori():
        chi = classify_chi_data(t)
        for th in all_characters(t):
            if not is_nonsingular(th):
                continue
            for orbit in chi.symmetric_orbits():
                base = th.composite_with_coroot(t.rd.coroot(orbit.rep),
                                                orbit.degree)
                field = t.extension_field(orbit.degree)
                met.setdefault((field.p, field.m, base.denominator),
                               set()).add(base.numerator)
    assert sum(len(ks) for ks in met.values()) > 90
    for (p, m, order), powers in sorted(met.items()):
        field = FiniteField(p, m)
        k0 = min(powers)
        direct = _direct_gauss_sum(MultCharacter(field, order, k0),
                                   additive_character(field), field)
        n = order * p
        for k in sorted(powers):
            s = k * pow(k0, -1, order) % order
            sigma = next(x for x in range(s, n, order) if x % p == 1)
            got = MultCharacter(field, order, k).gauss_sum()
            assert got == direct.galois(sigma), (p, m, order, k)
            assert got.n == n


def test_theta_sum_matches_per_w_accumulation():
    for t in _rank2_tori():
        chi = classify_chi_data(t)
        wset = t.weyl_centralizer()
        field = t.extension_field(t.splitting_degree)
        chars = [th for th in all_characters(t) if is_nonsingular(th)]
        for th in chars[:3]:
            a = mod_a_data(th, chi)
            for gc in th.group.elements():
                gamma = th.group.lift(gc)
                want = Cyc.rational(0)
                for m in wset:
                    gw = QV(t.inverse_action(m).apply(gamma.coords))
                    d = delta_II(th, gw, chi, a, field)
                    want = want + d.value * Cyc.from_qz(th.on_vector(gw))
                got = theta_sum(th, gamma, chi, a, wset, field)
                assert (got.n, got.coeffs) == (want.n, want.coeffs)
            scaled = theta_sum(th, gamma, chi, a, wset, field, Fraction(-3, 2))
            assert scaled == want * Fraction(-3, 2)


def test_point_of_wrong_length_is_rejected():
    from cuspidor.errors import InvalidPoint
    t = sl2_coxeter(3)
    th = theta_of_order(t, 4)
    chi = classify_chi_data(t)
    a = mod_a_data(th, chi)
    wset = [Mat.identity(1)]
    for gamma in (QV([Fraction(1, 4), Fraction(1, 2)]), QV([])):
        with pytest.raises(InvalidPoint):
            delta_II(th, gamma, chi, a)
        with pytest.raises(InvalidPoint):
            theta_sum(th, gamma, chi, a, wset)
        with pytest.raises(InvalidPoint):
            delta_II_at_representative(th, gamma, chi, a, chi.orbits[0],
                                       chi.orbits[0].rep)


# -- frozen reference: the Fraction formulas on ambient Q/Z coordinates --------

def _ref_check_point(t, gamma):
    assert t.rational_points(1).contains(gamma)


def _ref_orbit_factor(t, rd, orbit, rep, gamma, a, field):
    """sgn((alpha(gamma)-1)/a) for one orbit representative, or None."""
    from cuspidor.errors import NotRealizable
    pairing = rd.pairing_row(rep)
    val = sum((Fraction(r) * c for r, c in zip(pairing, gamma.coords)),
              Fraction(0)) % 1
    card = field.q - 1
    if card % val.denominator:
        raise NotRealizable("alpha(gamma) does not live in the splitting field")
    x = field.gen_power(val.numerator * (card // val.denominator))
    if x == field.one:
        return None
    num = field.sub(x, field.one)
    return field.sgn(num) * a.sign(orbit.rep)


def _ref_delta_factors(t, gamma, chi, a, field):
    skipped = []
    factors = {}
    for orbit in chi.orbits:
        if orbit.kind != SYMMETRIC_UNRAMIFIED:
            continue
        f = _ref_orbit_factor(t, t.rd, orbit, orbit.rep, gamma, a, field)
        if f is None:
            skipped.append(orbit.rep)
            continue
        factors[tuple(orbit.rep)] = f
    return factors, skipped


def _ref_theta_value(theta, vec):
    """theta at an ambient point, summed as Fractions."""
    coords = theta.group.project(vec)
    return sum((Fraction(c) * v for c, v in zip(coords, theta.values)),
               Fraction(0)) % 1


def _ref_theta_sum(theta, gamma, chi, a, weyl_set, field, leading):
    t = theta.torus
    _ref_check_point(t, gamma)
    terms = []
    for m in weyl_set:
        gw = QV(t.inverse_action(m).apply(gamma.coords))
        factors, _ = _ref_delta_factors(t, gw, chi, a, field)
        terms.append((math.prod(factors.values()), _ref_theta_value(theta, gw)))
    n = math.lcm(*(x.denominator for _, x in terms))
    counts = [0] * n
    for sign, x in terms:
        counts[x.numerator * (n // x.denominator)] += sign * leading
    return Cyc.from_root_multiplicities(n, counts)


def _ref_delta_json(theta, gamma, chi, a, field):
    from cuspidor.charformula import DeltaResult
    t = theta.torus
    _ref_check_point(t, gamma)
    factors, skipped = _ref_delta_factors(t, gamma, chi, a, field)
    return DeltaResult(Cyc.rational(math.prod(factors.values())), skipped,
                       factors).to_json()


def _ref_delta_at_representative(theta, gamma, chi, a, orbit, rep, field):
    t = theta.torus
    _ref_check_point(t, gamma)
    cur = tuple(orbit.rep)
    translates = set()
    for _ in range(orbit.degree):
        translates.add(cur)
        cur = tuple(t.w.matrix.apply(cur))
    f = _ref_orbit_factor(t, t.rd, orbit, rep, gamma, a, field)
    if f is None:
        return None
    if tuple(rep) not in translates:
        f = f * field.sgn(field.neg(field.one))
    return f


def _elliptic_tori_q35():
    """Every elliptic torus of A1, A2, B2 and D2 at q in {3, 5}."""
    from cuspidor.acceptance import _elliptic_classes
    for kind, rank in [("A", 1), ("A", 2), ("B", 2), ("D", 2)]:
        rd = build_classical(kind, rank, "sc")
        for w in _elliptic_classes(rd):
            for q in (3, 5):
                yield FrobeniusTorus(rd, w, q)


def test_weyl_image_matches_the_lattice_action():
    tori = 0
    for t in _elliptic_tori_q35():
        group = t.rational_points(1)
        for m in t.weyl_centralizer():
            for x in group.elements():
                want = group.project(
                    QV(t.inverse_action(m).apply(group.lift(x).coords)))
                assert t.weyl_image(m, x) == want
                assert t.weyl_image(m, x) is t.weyl_image(m, x)
        tori += 1
    assert tori == 10


@pytest.mark.parametrize("torus", list(_elliptic_tori_q35()),
                         ids=lambda t: f"{t.rd.label}-w{t.w.order}-q{t.q}")
def test_integer_coordinates_match_the_fraction_reference(torus):
    t = torus
    chi = classify_chi_data(t)
    field = t.extension_field(t.splitting_degree)
    wset = t.weyl_centralizer()
    subset = wset[::2]
    assert 0 < len(subset) < len(wset)
    group = t.rational_points(1)
    gammas = [group.lift(c) for c in group.elements()]
    for th in all_characters(t):
        if not is_nonsingular(th):
            continue
        # the Gauss validation is mod_a_data's own and is tested elsewhere
        a = mod_a_data(th, chi, validate_bound=0)
        for gamma in gammas:
            for ws, lead in ((wset, Fraction(1)), (wset, Fraction(-3, 2)),
                             (subset, Fraction(1))):
                got = theta_sum(th, gamma, chi, a, ws, field, lead)
                want = _ref_theta_sum(th, gamma, chi, a, ws, field, lead)
                assert (got.n, got.coeffs) == (want.n, want.coeffs)
            assert (delta_II(th, gamma, chi, a, field).to_json()
                    == _ref_delta_json(th, gamma, chi, a, field))
            for orb in chi.symmetric_orbits():
                for rep in orb.roots:
                    assert (delta_II_at_representative(th, gamma, chi, a, orb,
                                                       rep, field)
                            == _ref_delta_at_representative(th, gamma, chi, a,
                                                            orb, rep, field))


def test_root_value_outside_the_field_is_not_realizable():
    # SL2 with w = -1 at q = 5: S(k) = (1/6)Z/Z, and alpha(1/6) = 1/3 has
    # order 3, which does not divide 5 - 1: it lives in GF(25), not GF(5)
    from cuspidor.errors import NotRealizable
    t = sl2_coxeter(5)
    th = theta_of_order(t, 6)
    chi = classify_chi_data(t)
    a = mod_a_data(th, chi)
    f5 = FiniteField(5, 1)
    gamma = QV([Fraction(1, 6)])
    orb = chi.orbits[0]
    with pytest.raises(NotRealizable):
        theta_sum(th, gamma, chi, a, t.weyl_centralizer(), f5)
    with pytest.raises(NotRealizable):
        delta_II(th, gamma, chi, a, f5)
    for rep in orb.roots:
        with pytest.raises(NotRealizable):
            delta_II_at_representative(th, gamma, chi, a, orb, rep, f5)
    # alpha(1/2) = 1 is realizable anywhere and the orbit is skipped
    assert delta_II(th, QV([Fraction(1, 2)]), chi, a, f5).skipped_orbits


def test_a_warm_image_table_keeps_no_field():
    # the same point as above, after theta_sum has filled the torus's image
    # table over every point with the splitting field GF(25)
    from cuspidor.errors import NotRealizable
    t = sl2_coxeter(5)
    th = theta_of_order(t, 6)
    chi = classify_chi_data(t)
    a = mod_a_data(th, chi)
    wset = t.weyl_centralizer()
    f25 = t.extension_field(t.splitting_degree)
    for x in th.group.elements():
        theta_sum(th, th.group.lift(x), chi, a, wset, f25)
    with pytest.raises(NotRealizable):
        theta_sum(th, QV([Fraction(1, 6)]), chi, a, wset, FiniteField(5, 1))


def test_a_root_outside_the_orbit_is_not_a_representative():
    from cuspidor.errors import NotInOrbit
    t, chi = next((t, chi) for t in _rank2_tori()
                  for chi in [classify_chi_data(t)]
                  if len(chi.symmetric_orbits()) > 1)
    th = next(th for th in all_characters(t) if is_nonsingular(th))
    a = mod_a_data(th, chi)
    orbits = chi.symmetric_orbits()
    outside = orbits[1].rep
    with pytest.raises(NotInOrbit) as err:
        delta_II_at_representative(th, th.group.gens[0], chi, a, orbits[0],
                                   outside)
    assert isinstance(err.value, ValueError)


def test_charformula_raises_only_its_named_errors():
    import ast
    import pathlib

    import cuspidor.charformula as charformula
    import cuspidor.errors as errors
    tree = ast.parse(pathlib.Path(charformula.__file__).read_text())
    raised = {node.exc.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Raise)}
    assert raised == {"FailedCheck", "InvalidPoint", "NotInOrbit",
                      "NotRealizable", "SingularRoot"}
    assert all(issubclass(getattr(errors, name), errors.CuspidorError)
               for name in raised)


def _gauss_keys(t):
    return [k for k in t._cache if isinstance(k, tuple)
            and k[0] == "gauss_identity"]


def test_a_failing_gauss_identity_raises_every_time_and_is_never_kept(
        monkeypatch):
    from cuspidor.errors import FailedCheck
    from cuspidor.ffield import MultCharacter
    t = sl2_coxeter(3)                      # a cold torus: nothing kept yet
    th = theta_of_order(t, 4)
    chi = classify_chi_data(t)
    real = MultCharacter.gauss_sum
    monkeypatch.setattr(MultCharacter, "gauss_sum",
                        lambda psi: real(psi) + 1)
    for _ in range(2):
        with pytest.raises(FailedCheck, match="Gauss square identity"):
            mod_a_data(th, chi)
        assert _gauss_keys(t) == []
    monkeypatch.undo()
    assert mod_a_data(th, chi).sign(chi.orbits[0].rep) == -1
    assert _gauss_keys(t) == [("gauss_identity", 2, Fraction(1, 4))]


def test_the_gauss_identity_runs_once_per_orbit_field_and_base(monkeypatch):
    import cuspidor.charformula as charformula
    seen = []
    real = charformula._validate_gauss_identity

    def counting(t, base, d, sign, s2):
        seen.append((d, base))
        return real(t, base, d, sign, s2)

    monkeypatch.setattr(charformula, "_validate_gauss_identity", counting)
    for t in _rank2_tori():
        if t.q == 7:
            continue
        chi = classify_chi_data(t)
        chars = [th for th in all_characters(t) if is_nonsingular(th)]
        start = len(seen)
        classes = [mod_a_data(th, chi).classes for th in chars]
        # a warm torus checks nothing again and gives the same classes
        assert [mod_a_data(th, chi).classes for th in chars] == classes
        new = seen[start:]
        assert len(new) == len(set(new))
        assert sorted(new) == sorted(k[1:] for k in _gauss_keys(t))
    assert seen


def test_the_point_table_matches_the_projection():
    # every point of the A1, A2, B2 and D2 elliptic tori at q in {3, 5},
    # looked up cold and warm, and as a fresh QV with the same coordinates
    for t in _rank2_tori():
        if t.q == 7:
            continue
        group = t.rational_points(1)
        for c in group.elements():
            x = group.lift(c)
            assert t.point_coords(x) == group.project(x) == c
            assert t.point_coords(QV(x.coords)) == c
        assert len(t._cache["point_coords"]) == group.order


def test_invalid_points_still_raise_after_a_warm_sweep():
    from cuspidor.errors import InvalidPoint
    t = sl2_coxeter(5)                      # S(k) = Z/6
    th = theta_of_order(t, 6)
    chi = classify_chi_data(t)
    a = mod_a_data(th, chi)
    wset = t.weyl_centralizer()
    orb = chi.orbits[0]
    for c in th.group.elements():
        gamma = th.group.lift(c)
        theta_sum(th, gamma, chi, a, wset)
        delta_II(th, gamma, chi, a)
        delta_II_at_representative(th, gamma, chi, a, orb, orb.rep)
    table = dict(t._cache["point_coords"])
    assert len(table) == 6
    for gamma in (QV([Fraction(1, 7)]), QV([0, 0])):
        for _ in range(2):
            with pytest.raises(InvalidPoint):
                theta_sum(th, gamma, chi, a, wset)
            with pytest.raises(InvalidPoint):
                delta_II(th, gamma, chi, a)
            with pytest.raises(InvalidPoint):
                delta_II_at_representative(th, gamma, chi, a, orb, orb.rep)
    assert t._cache["point_coords"] == table
