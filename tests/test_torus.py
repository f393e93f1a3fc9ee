import math
from fractions import Fraction

import pytest

from cuspidor.cyclotomic import Cyc
from cuspidor.errors import NotRealizable, NotStabilizing, SingularCharacter
from cuspidor.exactcore import (Mat, QV, RankReport, ambient_of, coord_convert,
                                coord_matrix, coords_of, lattice_solver)
from cuspidor.ffield import FiniteField
from cuspidor.rootdata import WeylElement, build_classical, signed_perm_element
from cuspidor.torus import (
    AdjointModel,
    FrobeniusTorus,
    TorusCharacter,
    all_characters,
    bicharacter,
    disconnected_bicharacter,
    is_nonsingular,
    is_regular,
    packet_counts,
    weyl_stabilizer,
)


def sl2_coxeter(q=3):
    rd = build_classical("A", 1, "sc")
    w = WeylElement(rd, -Mat.identity(1))
    return FrobeniusTorus(rd, w, q)


def test_sl2_rational_points():
    t = sl2_coxeter(3)
    g = t.rational_points(1)
    assert g.factors == (4,)
    g2 = t.rational_points(2)
    assert g2.factors == (8,)


@pytest.mark.parametrize("degree", [0, -1])
def test_degree_below_one_is_rejected(degree):
    from cuspidor.errors import InvalidDegree
    t = sl2_coxeter(3)
    with pytest.raises(InvalidDegree):
        t.frobenius(degree)
    with pytest.raises(InvalidDegree):
        t.rational_points(degree)


def test_split_torus_points():
    rd = build_classical("A", 1, "sc")
    t = FrobeniusTorus(rd, WeylElement(rd, Mat.identity(1)), 3)
    assert t.rational_points(1).factors == (2,)


def test_norm_map_sl2():
    t = sl2_coxeter(3)
    src, dst, nm = t.norm_map(2)
    gen_img = nm((1,))
    # the image of a generator of Z/8 generates Z/4
    assert dst.element_order(gen_img) == 4
    # d = 1 gives the identity
    src1, dst1, nm1 = t.norm_map(1)
    for x in src1.elements():
        assert nm1(x) == x


def test_norm_map_split_surjective():
    rd = build_classical("A", 1, "sc")
    t = FrobeniusTorus(rd, WeylElement(rd, Mat.identity(1)), 3)
    src, dst, nm = t.norm_map(2)
    assert src.factors == (8,)
    assert dst.factors == (2,)
    images = {nm(x) for x in src.elements()}
    assert images == set(dst.elements())


def theta_of_order(torus, order):
    g = torus.rational_points(1)
    assert len(g.factors) == 1
    d = g.factors[0]
    assert d % order == 0
    return TorusCharacter(torus, [Fraction(d // order, d)])


def test_nonsingular_sl2():
    t = sl2_coxeter(3)
    th4 = theta_of_order(t, 4)
    th2 = theta_of_order(t, 2)
    triv = TorusCharacter(t, [0])
    assert is_nonsingular(th4)
    assert is_nonsingular(th2)
    assert not is_nonsingular(triv)
    # spec value: the order-2 composite evaluates to 1/2
    a = t.rd.simple_roots[0]
    assert th2.composite_with_coroot(t.rd.coroot(a)) == Fraction(1, 2)


def test_weyl_stabilizer_sl2():
    t = sl2_coxeter(3)
    th4 = theta_of_order(t, 4)
    th2 = theta_of_order(t, 2)
    assert weyl_stabilizer(th4).order == 1
    rep = weyl_stabilizer(th2)
    assert rep.order == 2
    assert rep.abelian and rep.cyclic
    assert is_regular(th4)
    assert not is_regular(th2)


def test_weyl_stabilizer_does_not_test_nonsingularity(monkeypatch):
    import cuspidor.torus as torus

    def refuse(theta):
        raise AssertionError("is_nonsingular called")

    monkeypatch.setattr(torus, "is_nonsingular", refuse)
    t = sl2_coxeter(3)
    rep = weyl_stabilizer(TorusCharacter(t, [0]))
    assert (rep.order, rep.abelian, rep.invariant_factors) == (2, True, (2,))


@pytest.mark.parametrize("kind, n, twist", [
    ("A", 2, 1), ("B", 2, -1), ("B", 3, 1), ("D", 4, -1)])
def test_weyl_stabilizer_agrees_with_the_pairwise_test(kind, n, twist):
    # the trivial theta of each is stabilized by all of W (S3, D8, W(B3),
    # W(D4)): non-abelian, with one or two factors in its abelianization
    rd = build_classical(kind, n, "sc")
    t = FrobeniusTorus(rd, WeylElement(rd, twist * Mat.identity(n)), 3)
    verdicts = set()
    for th in all_characters(t):
        rep = weyl_stabilizer(th)
        g = [WeylElement(rd, m) for m in rep.matrices]
        abelian = all(a.matrix * b.matrix == b.matrix * a.matrix
                      for a in g for b in g)
        cyclic = any(x.order == rep.order for x in g)
        assert (rep.abelian, rep.cyclic) == (abelian, cyclic)
        if abelian:
            assert math.prod(rep.invariant_factors) == rep.order
        else:
            assert rep.invariant_factors is None
        verdicts.add(abelian)
    assert False in verdicts


def test_packet_counts_sl2():
    t = sl2_coxeter(3)
    assert packet_counts(theta_of_order(t, 4)) == (1, 1)
    assert packet_counts(theta_of_order(t, 2)) == (2, 2)
    with pytest.raises(SingularCharacter):
        packet_counts(TorusCharacter(t, [0]))


def test_packet_count_torsor_sweep():
    # Labesse-Langlands: sizes 1 and 2 both occur; quadratic theta gives 2
    for q in (3, 5, 7):
        t = sl2_coxeter(q)
        sizes = set()
        for th in all_characters(t):
            if not is_nonsingular(th):
                continue
            n, e = packet_counts(th)
            assert n == e == weyl_stabilizer(th).order
            sizes.add(n)
            if th.order() == 2:
                assert n == 2
        assert sizes == {1, 2}


def test_bicharacter_sl2_forced_value():
    t = sl2_coxeter(3)
    th2 = theta_of_order(t, 2)
    model = AdjointModel(t)
    cok = model.cokernel()
    assert cok.group.order == 2
    # find an adjoint point generating the cokernel
    gen = None
    for coords in model.points_ad.elements():
        if cok.project(coords) != cok.group.zero:
            gen = coords
            break
    val = bicharacter(th2, -Mat.identity(1), model.points_ad.lift(gen).coords)
    assert val == Cyc.rational(-1)
    # identity weyl element pairs to 1
    assert bicharacter(th2, Mat.identity(1), model.points_ad.lift(gen).coords) == 1
    # points in the image of S(k) pair to 1
    img = model.x_to_ad.apply(th2.group.gens[0].coords)
    assert bicharacter(th2, -Mat.identity(1), img) == 1


def test_bicharacter_requires_stabilizer():
    t = sl2_coxeter(3)
    th4 = theta_of_order(t, 4)
    model = AdjointModel(t)
    pt = model.points_ad.lift(next(iter([c for c in model.points_ad.elements()]))).coords
    with pytest.raises(NotStabilizing):
        bicharacter(th4, -Mat.identity(1), pt)


def test_bicharacter_left_kernel_small_sweep():
    # rank <= 2 spot check here; the full rank <= 3 sweep runs in acceptance
    for kind, n in [("A", 1), ("A", 2), ("B", 2)]:
        rd = build_classical(kind, n, "sc")
        for q in (3, 5):
            for wmat in rd.weyl_group():
                w = WeylElement(rd, wmat)
                if not w.is_elliptic():
                    continue
                t = FrobeniusTorus(rd, w, q)
                model = AdjointModel(t)
                cok = model.cokernel()
                ad_reps = {}
                for coords in model.points_ad.elements():
                    cls = cok.project(coords)
                    ad_reps.setdefault(cls, coords)
                for th in all_characters(t):
                    if th.is_trivial() or not is_nonsingular(th):
                        continue
                    rep = weyl_stabilizer(th)
                    assert rep.abelian
                    assert rep.cyclic  # no split D_{2n} at rank <= 2
                    for m in rep.matrices:
                        if m == Mat.identity(rd.rank):
                            continue
                        vals = [bicharacter(th, m, model.points_ad.lift(c).coords)
                                for c in ad_reps.values()]
                        assert any(not (v == 1) for v in vals)
                break  # one elliptic class per (rd, q) keeps this quick


def _bichar_by_lift(model):
    """The bicharacter through an explicit lift s_sc on Q^vee, as a reference.

    s_ad goes to V* through P^vee and back to Q^vee coordinates; w acts there,
    and (w - 1)s_sc is pushed into X^vee.  Each value is taken on two lifts:
    the one read modulo Q^vee, and that one shifted by the first fundamental
    coweight.
    """
    rd = model.rd
    qv_rows = Mat([rd.coroot(a) for a in rd.simple_roots])
    solver = lattice_solver(qv_rows)
    sc_to_x = coord_convert(qv_rows, rd.xv_rows)
    on_qv = {}

    def value(theta, weyl_mat, s_ad_coords, shift):
        amb = list(ambient_of(model.pv_rows, QV(s_ad_coords).coords))
        if shift:
            amb = [a + w for a, w in zip(amb, model.pv_rows.rows[0])]
        sc = QV(coords_of(qv_rows, amb, solver))
        if weyl_mat not in on_qv:
            on_qv[weyl_mat] = coord_matrix(qv_rows, rd.dual_matrix(weyl_mat),
                                           solver)
        delta = QV(on_qv[weyl_mat].apply(sc.coords)) - sc
        return theta.on_vector(QV(sc_to_x.apply(delta.coords)))

    return value


def test_bicharacter_matches_the_lift_route_over_criterion_8():
    from cuspidor.acceptance import _elliptic_classes
    tori = nonsingular = evaluations = 0
    for kind, n in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                    ("C", 3), ("D", 3)]:
        rd = build_classical(kind, n, "sc")
        for w in _elliptic_classes(rd):
            for q in (3, 5, 7):
                t = FrobeniusTorus(rd, w, q)
                tori += 1
                model = AdjointModel(t)
                reference = _bichar_by_lift(model)
                cok = model.cokernel()
                ad_reps = {}
                for coords in model.points_ad.elements():
                    ad_reps.setdefault(cok.project(coords),
                                       model.points_ad.lift(coords).coords)
                for th in all_characters(t):
                    if not is_nonsingular(th):
                        continue
                    nonsingular += 1
                    rep = weyl_stabilizer(th)
                    for m in rep.matrices:
                        for s in ad_reps.values():
                            got = bicharacter(th, m, s, _rep=rep, _model=model)
                            for shift in (False, True):
                                assert got == Cyc.from_qz(
                                    reference(th, m, s, shift))
                            evaluations += 1
    assert (tori, nonsingular, evaluations) == (36, 3613, 8482)


def test_a_non_integral_commutator_matrix_is_refused(monkeypatch):
    t = sl2_coxeter(3)
    th2 = theta_of_order(t, 2)
    rep = weyl_stabilizer(th2)
    model = AdjointModel(t)
    pt = model.points_ad.gens[0].coords
    # (w - 1) with w = 1/2 moves the coweight 1/2 to -1/4, off X^vee
    monkeypatch.setattr(model.rd, "dual_matrix", lambda m: Mat([[Fraction(1, 2)]]))
    with pytest.raises(ArithmeticError, match="depends on the chosen lift"):
        bicharacter(th2, -Mat.identity(1), pt, _rep=rep, _model=model)
    assert model._commutators == {}


def test_fct_regns_shadow_rank1():
    # trivial stabilizer forces non-singularity (DL Cor 5.18 contrapositive)
    for q in (3, 5, 7):
        t = sl2_coxeter(q)
        for th in all_characters(t):
            if weyl_stabilizer(th).order == 1:
                assert is_nonsingular(th)


def test_realize_in_field_sl2():
    t = sl2_coxeter(3)
    g = t.rational_points(1)
    f9 = FiniteField(3, 2)
    vals = t.realize_in_field(g.gens[0], f9)
    assert len(vals) == 1
    x = vals[0]
    # an order-4 element of GF(9)^x
    assert f9.power(x, 4) == f9.one and f9.power(x, 2) != f9.one
    # the zero vector realizes as the identity tuple
    assert t.realize_in_field(QV([0]), f9) == (f9.one,)
    with pytest.raises(NotRealizable):
        t.realize_in_field(QV([Fraction(1, 5)]), f9)


def test_nonsingularity_weyl_invariance():
    for q in (3, 5):
        rd = build_classical("A", 2, "sc")
        for wmat in rd.weyl_group():
            w = WeylElement(rd, wmat)
            if not w.is_elliptic():
                continue
            t = FrobeniusTorus(rd, w, q)
            for th in all_characters(t):
                ns = is_nonsingular(th)
                for m in weyl_stabilizer(th).matrices:
                    assert is_nonsingular(th.twist_by(m)) == ns
            break


def test_disconnected_bicharacter_gl2():
    # GL2-style: X^vee = Z^2 with the swap twist; S^0 = the SL2 coroot line
    from cuspidor.rootdata import RootDatum
    rd = RootDatum("GL2", Mat.identity(2), [(1, -1), (-1, 1)], [(1, -1), (-1, 1)],
                   [0])
    swap = Mat([[0, 1], [1, 0]])
    w = WeylElement(rd, swap)
    t = FrobeniusTorus(rd, w, 3)
    sk = t.rational_points(1)
    assert sk.order == 8  # norm-one torus of GL2 over GF(3): q^2 - 1
    sub = Mat([[1, -1]])
    # theta_full of order 8 restricting to theta0 of order 4 on S^0(k)=Z/4
    full = TorusCharacter(t, [Fraction(1, 8)])
    # compute theta0 values from the restriction
    from cuspidor.torus import coord_convert
    xv_rows = rd.basis.inverse().transpose()
    incl = coord_convert(sub, xv_rows).to_int()
    from cuspidor.exactcore import twisted_fixed_points
    from cuspidor.torus import coord_matrix
    f_sub = 3 * coord_matrix(sub, rd.dual_matrix(w.matrix))
    s0 = twisted_fixed_points(f_sub)
    theta0_vals = [full.on_vector(QV(incl.apply(g.coords))) for g in s0.gens]
    pairing = disconnected_bicharacter(full, sub, theta0_vals)
    assert len(pairing.point_classes) == sk.order // s0.order
    # trivial cosets pair to 1
    for (i, cls), v in pairing.table.items():
        if pairing.omega_cosets[i] in pairing.omega_theta:
            assert v == 1
    assert pairing.left_kernel_trivial or len(pairing.omega_cosets) == 1


def test_disconnected_pairing_depends_only_on_theta0():
    # all extensions of a fixed theta0 compute the same Omega_theta
    from cuspidor.rootdata import RootDatum
    rd = RootDatum("GL2", Mat.identity(2), [(1, -1), (-1, 1)], [(1, -1), (-1, 1)],
                   [0])
    w = WeylElement(rd, Mat([[0, 1], [1, 0]]))
    t = FrobeniusTorus(rd, w, 3)
    sub = Mat([[1, -1]])
    from cuspidor.torus import coord_convert, coord_matrix
    from cuspidor.exactcore import twisted_fixed_points
    xv_rows = rd.basis.inverse().transpose()
    incl = coord_convert(sub, xv_rows).to_int()
    f_sub = 3 * coord_matrix(sub, rd.dual_matrix(w.matrix))
    s0 = twisted_fixed_points(f_sub)
    by_theta0 = {}
    for th in all_characters(t):
        vals = tuple(th.on_vector(QV(incl.apply(g.coords))) for g in s0.gens)
        pairing = disconnected_bicharacter(th, sub, vals)
        key = vals
        omega = frozenset(pairing.omega_theta)
        by_theta0.setdefault(key, set()).add(omega)
    for key, omegas in by_theta0.items():
        assert len(omegas) == 1, f"Omega_theta varies over extensions of {key}"


def test_cor_bichar_compatibility_square():
    # both routes of the compatibility square agree on the GL2 fixture:
    # pairing the class of s against omega equals the rank-1 bicharacter of
    # the SL2 part at the image of s in the adjoint torus of S^0
    from cuspidor.rootdata import RootDatum
    from cuspidor.torus import coord_matrix, coord_convert
    from cuspidor.exactcore import twisted_fixed_points
    rd = RootDatum("GL2", Mat.identity(2), [(1, -1), (-1, 1)], [(1, -1), (-1, 1)],
                   [0])
    w = WeylElement(rd, Mat([[0, 1], [1, 0]]))
    t = FrobeniusTorus(rd, w, 3)
    sub = Mat([[1, -1]])
    xv_rows = rd.basis.inverse().transpose()
    incl = coord_convert(sub, xv_rows).to_int()
    f_sub = 3 * coord_matrix(sub, rd.dual_matrix(w.matrix))
    s0 = twisted_fixed_points(f_sub)

    # the SL2-part torus on the A1 datum, with the same q and w = -1
    rd1 = build_classical("A", 1, "sc")
    t1 = FrobeniusTorus(rd1, WeylElement(rd1, -Mat.identity(1)), 3)
    model1 = AdjointModel(t1)

    for full in all_characters(t):
        vals0 = [full.on_vector(QV(incl.apply(g.coords))) for g in s0.gens]
        pairing = disconnected_bicharacter(full, sub, vals0)
        # theta0 as a character of the A1 torus: S^0(k) sub-coords match the
        # A1 cocharacter coordinates (both are multiples of the coroot)
        th1 = TorusCharacter(t1, vals0)
        from cuspidor.torus import weyl_stabilizer as stab1
        rep1 = stab1(th1)
        for i, m in enumerate(pairing.omega_cosets):
            # the A1-side image of the coset: swap restricts to -1, id to 1
            m1 = Mat([[1]]) if m == Mat.identity(2) else -Mat.identity(1)
            if m1 not in rep1.matrices:
                continue  # omega_theta0 element not stabilizing theta1: skip
            for cls in pairing.point_classes:
                coords = next(c for c in full.group.elements()
                              if _quot_cls(pairing, full, sub, incl, c) == cls)
                top = pairing.table[(i, cls)]
                # bottom route: image of s in the adjoint A1 torus is
                # (v1 - v2) in fundamental-coweight coordinates
                v = full.group.lift(coords)
                img = QV([v.coords[0] - v.coords[1]])
                bottom = bicharacter(th1, m1, img.coords, _rep=rep1,
                                     _model=model1)
                assert top == bottom, (cls, m.rows)


def _quot_cls(pairing, full, sub, incl, coords):
    from cuspidor.exactcore import quotient_by
    sk = full.group
    # recompute the class of coords in S(k)/S^0(k) the same way the pairing did
    from cuspidor.torus import coord_matrix
    from cuspidor.exactcore import twisted_fixed_points
    t = full.torus
    f_sub = t.q * coord_matrix(sub, t.rd.dual_matrix(t.w.matrix))
    s0 = twisted_fixed_points(f_sub)
    images = [sk.project(QV(incl.apply(g.coords))) for g in s0.gens]
    quot = quotient_by(sk, images)
    return quot.project(coords)


# -- the cached invariants against their definitions ---------------------------

def _coxeter_torus(kind, rank, q, lattice="sc"):
    rd = build_classical(kind, rank, lattice)
    elliptic = [w for w in (WeylElement(rd, m) for m in rd.weyl_group())
                if w.is_elliptic()]
    return FrobeniusTorus(rd, max(elliptic, key=lambda w: w.order), q)


def _minus_one_torus(kind, rank, q, lattice="sc"):
    rd = build_classical(kind, rank, lattice)
    return FrobeniusTorus(rd, WeylElement(rd, -Mat.identity(rank)), q)


def _cached_path_tori():
    return [_coxeter_torus("A", 2, 5),
            _minus_one_torus("B", 2, 7),
            _minus_one_torus("C", 2, 5, "ad"),
            _coxeter_torus("D", 4, 3)]


def _cochar_side_centralizer(t):
    """Frozen reference: the elements m of W with cochar(m) w = w cochar(m)."""
    rd = t.rd
    return [m for m in rd.weyl_group()
            if rd.cochar_coord_matrix(m) * t.w_cochar
            == t.w_cochar * rd.cochar_coord_matrix(m)]


def test_centralizer_matches_cochar_side_filter():
    for t in _cached_path_tori():
        assert t.weyl_centralizer() == _cochar_side_centralizer(t)


@pytest.mark.parametrize("lattice", ["sc", "ad"])
@pytest.mark.parametrize("kind, rank", [("A", 3), ("B", 3), ("C", 3)])
def test_centralizer_matches_cochar_side_filter_on_every_twist(kind, rank,
                                                               lattice):
    rd = build_classical(kind, rank, lattice)
    for m in rd.weyl_group():
        t = FrobeniusTorus(rd, WeylElement(rd, m), 3)
        assert t.weyl_centralizer() == _cochar_side_centralizer(t)


def _reference_nonsingular(theta):
    """theta(N(alpha_vee(zeta))) != 0 for every root, N = sum of q^i w^i."""
    t = theta.torus
    rd = t.rd
    d = t.splitting_degree
    norm = Mat.zero(rd.rank, rd.rank)
    for i in range(d):
        norm = norm + (t.q ** i) * (t.w_cochar ** i)
    for a in rd.roots:
        coords = rd.coroot_coords(rd.coroot(a))
        pt = [Fraction(c, t.q ** d - 1) for c in coords]
        if theta.on_vector(QV(norm.apply(pt))) == 0:
            return False
    return True


def test_cached_nonsingularity_matches_definition():
    for t in _cached_path_tori():
        verdicts = [(is_nonsingular(th), _reference_nonsingular(th))
                    for th in all_characters(t)]
        assert all(got == want for got, want in verdicts)
        assert any(got for got, _ in verdicts)
        assert not all(got for got, _ in verdicts)


def test_cached_stabilizer_matches_brute_force():
    for t in _cached_path_tori():
        w = t.w.matrix
        centralizer = [m for m in t.rd.weyl_group() if m * w == w * m]
        for th in all_characters(t):
            want = {m for m in centralizer
                    if th.twist_by(m).values == th.values}
            assert set(weyl_stabilizer(th).matrices) == want


def test_cached_frobenius_matches_definition():
    for t in _cached_path_tori():
        for _ in range(2):
            for d in range(1, 5):
                assert t.frobenius(d) == (t.q ** d) * (t.w_cochar ** d)


def test_theta_sum_rejects_noncommuting_after_warm_cache():
    from cuspidor.charformula import classify_chi_data, mod_a_data, theta_sum
    from cuspidor.errors import InvalidWeylSet
    t = _coxeter_torus("A", 2, 5)
    th = next(th for th in all_characters(t) if is_nonsingular(th))
    chi = classify_chi_data(t)
    a = mod_a_data(th, chi)
    wset = t.weyl_centralizer()
    gamma = th.group.gens[0]
    theta_sum(th, gamma, chi, a, wset)      # caches every commuting inverse
    refl = t.rd.reflection(t.rd.simple_roots[0])
    with pytest.raises(InvalidWeylSet):
        theta_sum(th, gamma, chi, a, [refl])
    with pytest.raises(InvalidWeylSet):
        theta_sum(th, gamma, chi, a, wset + [refl])
