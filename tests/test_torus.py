import math
from fractions import Fraction

import pytest

from cuspidor.cyclotomic import Cyc
from cuspidor.errors import NotStabilizing, SingularCharacter
from cuspidor.exactcore import (Mat, QV, abelian_basis, coord_convert,
                                coord_matrix, coords_of, lattice_solver)
from cuspidor.rootdata import WeylElement, build_classical, signed_perm_element
from cuspidor.torus import (
    AdjointModel,
    FrobeniusTorus,
    TorusCharacter,
    all_characters,
    bicharacter,
    is_nonsingular,
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
    assert th2.composite_with_coroot(t.rd.coroot(a),
                                     t.splitting_degree) == Fraction(1, 2)


def test_weyl_stabilizer_sl2():
    t = sl2_coxeter(3)
    th4 = theta_of_order(t, 4)
    th2 = theta_of_order(t, 2)
    assert weyl_stabilizer(th4).order == 1
    rep = weyl_stabilizer(th2)
    assert rep.order == 2
    assert rep.abelian and rep.cyclic


@pytest.mark.parametrize("kind, n, label, split", [
    ("A", 3, None, False), ("B", 2, None, False), ("C", 3, None, False),
    ("D", 3, None, False), ("D", 4, None, True), ("D", 4, "D4^", False)])
def test_split_d2n_reads_a_whole_d_n_label(kind, n, label, split):
    # "D4^" is the label a dual datum carries: no D<n> label, and no error
    rd = build_classical(kind, n, "sc")
    if label is not None:
        rd.label = label
    t = FrobeniusTorus(rd, WeylElement(rd, Mat.identity(n)), 5)
    th = TorusCharacter(t, [0] * len(t.rational_points(1).factors))
    assert weyl_stabilizer(th).split_d2n is split


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
    reps = model.cokernel_reps()
    assert len(reps) == model.cokernel().group.order == 2
    # one table per model, shared read-only
    assert model.cokernel_reps() is reps
    with pytest.raises(TypeError):
        reps[(0,)] = ()
    # an adjoint point generating the cokernel
    gen = next(s for cls, s in reps.items() if any(cls))
    val = bicharacter(th2, -Mat.identity(1), gen)
    assert val == Cyc.rational(-1)
    # identity weyl element pairs to 1
    assert bicharacter(th2, Mat.identity(1), gen) == 1
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
                for th in all_characters(t):
                    if th.is_trivial() or not is_nonsingular(th):
                        continue
                    rep = weyl_stabilizer(th)
                    assert rep.abelian
                    assert rep.cyclic  # no split D_{2n} at rank <= 2
                    for m in rep.matrices:
                        if m == Mat.identity(rd.rank):
                            continue
                        vals = [bicharacter(th, m, s)
                                for s in model.cokernel_reps().values()]
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
        amb = list(model.pv_rows.transpose().apply(QV(s_ad_coords).coords))
        if shift:
            amb = [a + w for a, w in zip(amb, model.pv_rows.rows[0])]
        sc = QV(coords_of(qv_rows, amb, solver))
        if weyl_mat not in on_qv:
            on_qv[weyl_mat] = coord_matrix(qv_rows, rd.dual_matrix(weyl_mat),
                                           solver)
        delta = QV(on_qv[weyl_mat].apply(sc.coords)) - sc
        return theta.on_vector(QV(sc_to_x.apply(delta.coords)))

    return value


def _criterion_8_tori():
    """The 36 elliptic tori of criterion 8's sweep, in its order."""
    from cuspidor.acceptance import _elliptic_classes
    for kind, n in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                    ("C", 3), ("D", 3)]:
        rd = build_classical(kind, n, "sc")
        for w in _elliptic_classes(rd):
            for q in (3, 5, 7):
                yield FrobeniusTorus(rd, w, q)


def test_bicharacter_matches_the_lift_route_over_criterion_8():
    tori = nonsingular = evaluations = 0
    for t in _criterion_8_tori():
        tori += 1
        model = AdjointModel(t)
        reference = _bichar_by_lift(model)
        for th in all_characters(t):
            if not is_nonsingular(th):
                continue
            nonsingular += 1
            rep = weyl_stabilizer(th)
            for m in rep.matrices:
                for s in model.cokernel_reps().values():
                    got = bicharacter(th, m, s, _rep=rep, _model=model)
                    for shift in (False, True):
                        assert got == Cyc.from_qz(reference(th, m, s, shift))
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


def test_an_adjoint_point_off_the_torus_is_an_invalid_point():
    from cuspidor.errors import InvalidPoint
    t = sl2_coxeter(3)
    th2 = theta_of_order(t, 2)
    model = AdjointModel(t)
    with pytest.raises(InvalidPoint, match="not a rational point"):
        bicharacter(th2, -Mat.identity(1), [Fraction(1, 5)], _model=model)


def test_torus_raises_only_its_named_errors():
    import ast
    import pathlib

    import cuspidor.errors as errors
    import cuspidor.torus as torus
    tree = ast.parse(pathlib.Path(torus.__file__).read_text())
    raised = {node.exc.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Raise)}
    assert raised == {"FailedCheck", "InvalidCharacter", "InvalidDegree",
                      "InvalidPoint", "InvalidPrimePower", "InvalidWeylSet",
                      "NotStabilizing", "SingularCharacter"}
    assert all(issubclass(getattr(errors, name), errors.CuspidorError)
               for name in raised)


def test_fct_regns_shadow_rank1():
    # trivial stabilizer forces non-singularity (DL Cor 5.18 contrapositive)
    for q in (3, 5, 7):
        t = sl2_coxeter(q)
        for th in all_characters(t):
            if weyl_stabilizer(th).order == 1:
                assert is_nonsingular(th)


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


def _frozen_nonsingular(theta):
    """Frozen reference: theta∘N∘alpha_vee at every root, negative ones too."""
    t = theta.torus
    rd = t.rd
    for a in rd.roots:
        if theta.composite_with_coroot(rd.coroot(a), t.splitting_degree) == 0:
            return False
    return True


def _frozen_stabilizer(theta):
    """Frozen reference: the stabilizer through ``scaled`` per column."""
    t = theta.torus
    stab = [m for m, cols in t.centralizer_columns()
            if all(theta.scaled(col) == r for col, r in zip(cols, theta.row))]
    factors, _, _ = abelian_basis(stab, Mat.__mul__, Mat.identity(t.rd.rank))
    abelian = math.prod(factors) == len(stab)
    inv = tuple(factors) if abelian else None
    return stab, abelian, abelian and len(inv) <= 1, inv


def test_root_points_and_stabilizer_match_the_frozen_route_over_criterion_8():
    characters = nonsingular = simple_only = wrapping = 0
    for t in _criterion_8_tori():
        rd = t.rd
        simple = [t.root_point(rd.coroot(a), t.splitting_degree)
                  for a in rd.simple_roots]
        for th in all_characters(t):
            characters += 1
            want = _frozen_nonsingular(th)
            assert is_nonsingular(th) == want
            nonsingular += want
            # singular on a non-simple root only: the positive roots are needed
            simple_only += not want and all(th.scaled(x) for x in simple)
            rep = weyl_stabilizer(th)
            stab, abelian, cyclic, factors = _frozen_stabilizer(th)
            assert rep.matrices == stab
            assert (rep.order, rep.abelian, rep.cyclic,
                    rep.invariant_factors) == (len(stab), abelian, cyclic,
                                               factors)
            # a stabilizing column whose pairing with theta exceeds e
            wrapping += any(sum(c * v for c, v in zip(col, th.row))
                            >= th.exponent
                            for m, cols in t.centralizer_columns() if m in stab
                            for col in cols)
    assert (characters, nonsingular) == (5285, 3613)
    assert simple_only > 0 and wrapping > 0


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
    # caches every commuting inverse and fills its image table at every point
    for x in th.group.elements():
        theta_sum(th, th.group.lift(x), chi, a, wset)
    refl = t.rd.reflection(t.rd.simple_roots[0])
    with pytest.raises(InvalidWeylSet):
        theta_sum(th, gamma, chi, a, [refl])
    with pytest.raises(InvalidWeylSet):
        theta_sum(th, gamma, chi, a, wset + [refl])
    assert ("weyl_image", refl) not in t._cache

