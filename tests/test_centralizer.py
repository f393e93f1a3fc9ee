import collections
import functools
import json
import random
import sys
from fractions import Fraction

import pytest

from cuspidor import centralizer as centralizer_module
from cuspidor import cli, exactcore
from cuspidor.centralizer import (
    NormalizerElement,
    ParameterDatum,
    admissible_cycle_types,
    centralizer,
    d2n_verify,
    d2n_w_elements,
    mult_one_check_suite,
)
from cuspidor.errors import InvalidCycleType
from cuspidor.exactcore import Mat, QV
from cuspidor.fixture_gen import (
    build_biquadratic,
    build_d4_sc,
    build_spin9,
    datum_from_json,
    datum_to_json,
)
from cuspidor.rootdata import build_classical, lambda_pair, tits_cocycle


@functools.lru_cache(maxsize=None)
def biquadratic_report():
    datum = build_biquadratic()
    return datum, centralizer(datum)


@functools.lru_cache(maxsize=None)
def spin9_report():
    datum = build_spin9()
    return datum, centralizer(datum)


def test_normalizer_element_arithmetic():
    rd = build_classical("A", 2, "sc")
    w = rd.weyl_group()
    for m1 in w[:4]:
        for m2 in w[:4]:
            x = NormalizerElement(rd, QV([Fraction(1, 3), 0]), m1)
            y = NormalizerElement(rd, QV([0, Fraction(1, 2)]), m2)
            # associativity with a third element
            z = NormalizerElement(rd, QV([Fraction(1, 5), Fraction(2, 5)]), w[1])
            lhs = x.mul(y).mul(z)
            rhs = x.mul(y.mul(z))
            assert lhs == rhs
            assert x.mul(x.inverse()).is_identity()


def test_tits_commutator_matches_lambda_pair():
    # [n(u), n(v)] = lambda_{u,v}(-1) for commuting u, v
    rd, w0, w1, w2 = d2n_w_elements(2, (1, 1))
    for u, v in [(w1, w2), (w1, w0), (w2, w0)]:
        x = NormalizerElement(rd, QV.zero(4), u.matrix)
        y = NormalizerElement(rd, QV.zero(4), v.matrix)
        comm = x.mul(y).mul(x.inverse()).mul(y.inverse())
        assert comm.m == Mat.identity(4)
        assert comm.tau == lambda_pair(rd, u, v).half_class_coords


class _SplitElement:
    """The (tau, Weyl part, outer part) product law, as the model had it."""

    def __init__(self, rd, tau, weyl, outer):
        self.rd, self.tau, self.weyl, self.outer = rd, tau, weyl, outer

    def mul(self, other):
        rd = self.rd
        # n(w1)o1 n(w2)o2 = z(w1, o1 w2 o1^-1) n(w1 o1(w2)) o1 o2
        w2c = self.outer * other.weyl * rd.inverse(self.outer)
        z = tits_cocycle(rd, self.weyl, w2c)
        cochar = rd.cochar_coord_matrix(self.weyl * self.outer)
        tau = self.tau + other.tau.act(cochar) + z
        return _SplitElement(rd, tau, self.weyl * w2c, self.outer * other.outer)

    def inverse(self):
        rd = self.rd
        oinv = rd.inverse(self.outer)
        winv = oinv * rd.inverse(self.weyl) * self.outer
        cand = _SplitElement(rd, QV.zero(rd.rank), winv, oinv)
        shift = (-self.mul(cand).tau).act(
            rd.cochar_coord_matrix(winv * oinv))
        return _SplitElement(rd, cand.tau + shift, winv, oinv)

    def power(self, k):
        one = Mat.identity(self.rd.rank)
        out = _SplitElement(self.rd, QV.zero(self.rd.rank), one, one)
        base = self.inverse() if k < 0 else self
        for _ in range(abs(k)):
            out = out.mul(base)
        return out

    def agrees(self, x):
        return (self.tau, self.weyl * self.outer) == (x.tau, x.m)


def _split_and_model_elements(datum):
    """Generator words of length <= 2 and W elements with seeded torus parts."""
    rd = datum.rd
    one = Mat.identity(rd.rank)
    pairs = [(_SplitElement(rd, t, w, o), g)
             for (t, w, o), g in zip(datum.triples, datum.generators)]
    pairs += [(a.inverse(), x.inverse()) for a, x in pairs]
    pairs += [(a.mul(b), x.mul(y)) for a, x in pairs for b, y in pairs]
    rng = random.Random(19)
    for m in rng.sample(rd.weyl_group(), 6):
        tau = QV([Fraction(rng.randrange(12), 12) for _ in range(rd.rank)])
        pairs.append((_SplitElement(rd, tau, m, one),
                      NormalizerElement(rd, tau, m)))
    return pairs


@pytest.mark.parametrize("build", [build_biquadratic, build_spin9])
def test_the_product_law_on_totals_matches_the_weyl_outer_split(build):
    datum = build()
    q = datum.relations[0][3]
    pairs = _split_and_model_elements(datum)
    assert all(a.agrees(x) for a, x in pairs)
    for a, x in pairs:
        assert a.inverse().agrees(x.inverse())
        assert a.power(q).agrees(x.power(q))
        assert a.power(-2).agrees(x.power(-2))
    for a, x in pairs[::3]:
        for b, y in pairs:
            assert a.mul(b).agrees(x.mul(y))


def _unpinned_spin9():
    # the torus generator written as (s, -1, -1): the total is still s,
    # but -1 maps every positive root to a negative one
    datum = build_spin9()
    minus = -Mat.identity(datum.rd.rank)
    gens = [(t.coords, w, o) for t, w, o in datum.triples]
    gens[0] = (gens[0][0], minus, minus)
    return datum, gens


def test_an_outer_part_that_is_not_pinned_is_refused():
    datum, gens = _unpinned_spin9()
    with pytest.raises(ValueError, match="outer part is not pinned"):
        ParameterDatum(datum.rd, gens, datum.relations)


def test_an_outer_part_that_is_not_pinned_is_invalid_in_the_cli(tmp_path,
                                                                capsys):
    datum, gens = _unpinned_spin9()
    doc = datum_to_json(datum)
    for entry in ("weyl", "outer"):
        doc["generators"][0][entry] = [list(r) for r in gens[0][2].rows]
    path = tmp_path / "unpinned.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["centralizer", "--fixture", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "error"
    assert out["error"].startswith("InvalidFixture:")
    assert "outer part is not pinned" in out["error"]


def test_spin9_fixture():
    datum, rep = spin9_report()
    assert rep.fixed_torus.order == 16
    assert rep.fixed_torus.factors == (2, 2, 2, 2)
    assert rep.omega_factors == (2,)
    # the nontrivial omega element acts by coordinate reversal
    nontriv = next(m for m in rep.omega_matrices if m != Mat.identity(4))
    rev = Mat([[int(i + j == 3) for j in range(4)] for i in range(4)])
    assert nontriv == rev
    assert rep.s_phi_order == 32
    assert rep.mult_one is True


def test_spin9_verdict_consistent():
    verdict = mult_one_check_suite(spin9_report()[0], tag="unramified")
    assert verdict["mult_one"] is True
    assert verdict["consistent"]


def test_regular_datum_collapses():
    # PGL2-dual situation: an SL2-style torus point of full order has
    # trivial stabilizer, so S_phi is the fixed torus alone
    rd = build_classical("A", 1, "ad")
    q = 3
    # s of order q+1 = 4 in the adjoint torus with w0 = -1
    tau = (Fraction(1, 4),)
    datum = ParameterDatum(rd, [(tau, None, None),
                                ((0,), -Mat.identity(1), None)],
                           [("conj_power", 1, 0, q)], label="pgl2")
    rep = centralizer(datum)
    assert len(rep.omega_matrices) == 1
    assert rep.s_phi_order == rep.fixed_torus.order


def test_biquadratic_fixture():
    datum, rep = biquadratic_report()
    assert rep.omega_factors == (2, 2)
    assert rep.mult_one is False
    assert rep.fixed_torus.order == 32

    # the image in the adjoint quotient: (Z/2)^3 with the delta = -1 class
    from cuspidor.clifford import (
        ConcreteGroup, Pushout, commutator_function, has_multiplicity_one,
        transform,
    )
    from cuspidor.exactcore import quotient_by
    rd = datum.rd
    a_grp = rep.fixed_torus
    pair_rows = [rd.pairing_row(rd.roots[i]) for i in rd.simple_idx]

    def to_ad(vec):
        return tuple(sum(Fraction(r) * c for r, c in zip(row, vec.coords)) % 1
                     for row in pair_rows)

    kernel = [c for c in a_grp.elements()
              if all(x == 0 for x in to_ad(a_grp.lift(c)))]
    quot = quotient_by(a_grp, kernel)
    assert quot.group.factors == (2, 2, 2)
    k = len(a_grp.factors)
    cols = [quot.project(tuple(int(i == j) for i in range(k))) for j in range(k)]
    push = Mat([[cols[j][i] for j in range(k)]
                for i in range(len(quot.group.factors))])
    ext_ad = transform(rep.extension, Pushout(push, quot.group.factors))
    ok, _ = has_multiplicity_one(ext_ad)
    assert not ok
    # commutator of the two non-torus generators in root-value coordinates
    grp = ConcreteGroup(rep.extension)
    c1, c2 = (1, 0), (0, 1)
    word = grp.mul(grp.mul(grp.section(c1), grp.section(c2)),
                   grp.mul(grp.inv(grp.section(c1)), grp.inv(grp.section(c2))))
    rv = to_ad(a_grp.lift(word[0]))
    assert rv == (0, 0, 0, Fraction(1, 2), 0, Fraction(1, 2))
    q_ad, cls = commutator_function(ext_ad, c1, c2)
    assert cls != q_ad.group.zero


def test_biquadratic_verdict_no_contradiction():
    verdict = mult_one_check_suite(biquadratic_report()[0], tag="ramified-example")
    assert verdict["mult_one"] is False
    assert verdict["consistent"]  # untagged/ramified data may fail


def test_d4_sc_fixture():
    datum = build_d4_sc()
    rep = centralizer(datum)
    assert rep.omega_factors == (2, 2)
    assert rep.mult_one is True
    verdict = mult_one_check_suite(datum, tag="simply-connected")
    assert verdict["consistent"]


@pytest.mark.parametrize("build", [build_spin9, build_biquadratic,
                                   build_d4_sc])
def test_root_datum_inverse_of_the_fixture_outer_parts(build):
    datum = build()
    one = Mat.identity(datum.rd.rank)
    for _, _, outer in datum.triples:
        assert outer * datum.rd.inverse(outer) == one


def test_centralizer_inverts_each_matrix_at_most_once(monkeypatch):
    # qz_kernel inverts the SNF transform V of each Q/Z system it solves,
    # which is not a Weyl or outer matrix; every other inverse is counted.
    # The JSON round trip gives a datum whose caches are cold.
    datum = datum_from_json(datum_to_json(build_d4_sc()))
    calls = collections.Counter()
    inverse = Mat.inverse

    def counting(self):
        if sys._getframe(1).f_code.co_name != "qz_kernel":
            calls[self] += 1
        return inverse(self)

    monkeypatch.setattr(Mat, "inverse", counting)
    assert centralizer(datum).mult_one
    assert calls and max(calls.values()) == 1


def _count_snf(monkeypatch):
    calls = collections.Counter()
    snf = exactcore.smith_normal_form

    def counting(m):
        calls[m] += 1
        return snf(m)

    monkeypatch.setattr(exactcore, "smith_normal_form", counting)
    return calls


def test_centralizer_factors_its_stacked_system_once(monkeypatch):
    datum = datum_from_json(datum_to_json(build_d4_sc()))
    one = Mat.identity(datum.rd.rank)
    stacked = Mat([row for g in datum.generators
                   for row in (g.cochar() - one).rows])
    calls = _count_snf(monkeypatch)
    assert centralizer(datum).mult_one
    assert calls[stacked] == 1


def test_d2n_verify_factors_f_minus_one_once(monkeypatch):
    rd, w0, _, _ = d2n_w_elements(3, (1, 2))
    f_minus_one = 5 * rd.cochar_coord_matrix(w0.matrix) - Mat.identity(6)
    calls = _count_snf(monkeypatch)
    assert d2n_verify(3, 5, (1, 2)).ok
    assert calls[f_minus_one] == 1


def test_a_false_relation_fails_in_the_model():
    datum = build_spin9()
    gens = [(tau.coords, w, o) for tau, w, o in datum.triples]
    with pytest.raises(ValueError, match="relation .* fails in the model"):
        ParameterDatum(datum.rd, gens, [("conj_power", 1, 0, 7)])


def test_a_wrong_lift_fails_to_centralize(monkeypatch):
    solve = centralizer_module._solve_lift
    shift = QV([Fraction(1, 3), 0, 0, 0])

    def shifted(*args):
        tau = solve(*args)
        return None if tau is None else tau + shift

    monkeypatch.setattr(centralizer_module, "_solve_lift", shifted)
    with pytest.raises(ArithmeticError, match="solved lift fails to centralize"):
        centralizer(build_d4_sc())


def test_a_wrong_lift_is_a_domain_error_in_the_cli(monkeypatch, capsys):
    solve = centralizer_module._solve_lift
    shift = QV([Fraction(1, 3), 0, 0, 0])

    def shifted(*args):
        tau = solve(*args)
        return None if tau is None else tau + shift

    monkeypatch.setattr(centralizer_module, "_solve_lift", shifted)
    assert cli.main(["centralizer", "--fixture", "d4_sc"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "error"
    assert "FailedCheck: solved lift fails to centralize" in doc["error"]


def _frozen_c_correction(rd, m, g, weyl, outer):
    """C(m; v) = z(m, v) - v.z(m, m^-1) + z(m v, m^-1), from x g x^-1."""
    minv = rd.inverse(m)
    z1 = tits_cocycle(rd, m, weyl)
    z2 = tits_cocycle(rd, m, minv)
    conj_minv = outer * minv * rd.inverse(outer)
    z3 = tits_cocycle(rd, m * weyl, conj_minv)
    return z1 - z2.act(g.cochar()) + z3


@pytest.mark.parametrize("build", [
    build_spin9, build_biquadratic, build_d4_sc,
    lambda: build_spin9().conjugate(build_spin9().rd.weyl_group()[7])],
    ids=["spin9", "biquadratic", "d4_sc", "spin9-conjugated"])
def test_lift_equation_read_off_the_product_matches_the_tits_correction(
        build):
    # the block (x0 g).tau - (g x0).tau of the lift equation, against the
    # hand-derived right side (m - 1) tau_g + C(m; v) of x g x^-1 g^-1
    datum = build()
    rd = datum.rd
    totals = [g.m for g in datum.generators]
    pairs = 0
    for m in rd.weyl_group():
        if not all(m * t == t * m for t in totals):
            continue
        x0 = NormalizerElement(rd, QV.zero(rd.rank), m)
        mc = rd.cochar_coord_matrix(m)
        for g, (_, weyl, outer) in zip(datum.generators, datum.triples):
            block = x0.mul(g).tau - g.mul(x0).tau
            ref = (QV(mc.apply(g.tau.coords)) - g.tau
                   + _frozen_c_correction(rd, m, g, weyl, outer))
            assert block == ref
            pairs += 1
    assert pairs


@pytest.mark.parametrize("build,calls", [(build_spin9, 2), (build_d4_sc, 4)])
def test_a_zero_block_rejects_a_candidate_before_solving(monkeypatch, build,
                                                         calls):
    # the torus generator's block is zero, so (m - 1)s != 0 rejects m at once
    datum = datum_from_json(datum_to_json(build()))
    count = collections.Counter()
    solve = exactcore.FinAb.solve

    def counting(self, c):
        count["solve"] += 1
        return solve(self, c)

    monkeypatch.setattr(exactcore.FinAb, "solve", counting)
    assert centralizer(datum).mult_one
    assert count["solve"] == calls


def test_induced_matrices_on_the_fixture_fixed_tori():
    # FinAb.induced against project∘act on every point of each fixed torus
    d4 = build_d4_sc()
    for datum, rep in [spin9_report(), biquadratic_report(),
                       (d4, centralizer(d4))]:
        torus = rep.fixed_torus
        for w in rep.omega_matrices:
            m = datum.rd.cochar_coord_matrix(w)
            induced = torus.induced(m)
            for x in torus.elements():
                assert torus.apply_matrix(induced, x) == \
                    torus.project(torus.lift(x).act(m))


def test_centralizer_conjugation_invariance():
    datum, rep1 = spin9_report()
    rd = datum.rd
    w = rd.weyl_group()
    conj = datum.conjugate(w[7])
    rep2 = centralizer(conj)
    assert rep1.fixed_torus.order == rep2.fixed_torus.order
    assert len(rep1.omega_matrices) == len(rep2.omega_matrices)
    assert rep1.mult_one == rep2.mult_one


def test_fixture_json_roundtrip_and_regeneration():
    import importlib.resources as res
    for name, builder in [("spin9", build_spin9),
                          ("biquadratic", build_biquadratic),
                          ("d4_sc", build_d4_sc)]:
        text = (res.files("cuspidor") / "fixtures" / f"{name}.json").read_text()
        stored = json.loads(text)
        datum = datum_from_json(stored)
        rebuilt = datum_to_json(builder(), stored.get("meta"))
        assert rebuilt == stored, f"checked-in {name}.json is stale"
        assert datum.label == stored["label"]


def test_d2n_verify_cases():
    r = d2n_verify(2, 1, (1, 1))
    assert r.ok and r.commutator_class_trivial
    r = d2n_verify(2, 3, (1, 1))
    assert r.b == 0 and r.ok
    r = d2n_verify(3, 5, (1, 2))
    assert r.ok
    assert r.half_lambda_w1_w2_integral
    # edge coordinates of lambda_{w2,w0} are b on both ends
    assert r.lam[0] == r.b and r.lam[-1] == r.b


def test_d2n_lambda_w1_w2_closed_form():
    for n in (2, 3, 4):
        rd, w0, w1, w2 = d2n_w_elements(n, tuple([1] * n))
        res = lambda_pair(rd, w1, w2)
        rank = 2 * n
        expect = {tuple(int(i == 0) - int(i == j) for i in range(rank))
                  for j in range(1, rank - 1)}
        expect |= {tuple(int(i == j) + int(i == rank - 1) for i in range(rank))
                   for j in range(1, rank - 1)}
        assert set(res.roots) == expect
        lam = [0] * rank
        lam[0] = 2 * n - 2
        lam[-1] = 2 * n - 2
        assert res.lam == tuple(lam)
        assert res.trivial


def test_d2n_lambda_w2_w0_five_line_union():
    # the explicit union of the proof, as the independent oracle
    for n, lens in [(2, (1, 1)), (3, (1, 2)), (4, (1, 1, 2)), (4, (1, 3))]:
        rd, w0, w1, w2 = d2n_w_elements(n, lens)
        res = lambda_pair(rd, w2, w0)
        starts = []
        s = 0
        for l in lens:
            starts.append(s + 1)  # 1-indexed cycle boundaries i_a
            s += l
        rank = 2 * n
        iset = set(starts)
        ipset = {rank + 1 - i for i in starts}
        bset = iset | ipset
        nxt = {starts[a]: (starts[a + 1] if a + 1 < len(starts) else n + 1)
               for a in range(len(starts))}
        expect = set()

        def root(i, j, sign):
            v = [0] * rank
            v[i - 1] += 1
            v[j - 1] += sign
            return tuple(v)

        for i in iset:
            for j in range(i + 1, nxt[i]):
                expect.add(root(i, j, -1))
                expect.add(root(i, j, +1))
            for j in range(nxt[i], rank + 1):
                if j > i and j not in bset:
                    expect.add(root(i, j, -1))
        for ip in ipset:
            for j in range(ip + 1, rank + 1):
                if j not in bset:
                    expect.add(root(ip, j, -1))
        for j in iset:
            for i in range(1, j):
                if i not in bset:
                    expect.add(root(i, j, +1))
        for jp in ipset:
            i0 = rank + 1 - (nxt[rank + 1 - jp])
            for i in range(1, jp):
                if i not in bset and i <= i0:
                    expect.add(root(i, jp, +1))
        assert set(res.roots) == expect, (n, lens)


def test_d2n_full_sweep_small():
    for n in (2, 3):
        for q in (1, 3, 5):
            for lens in admissible_cycle_types(n):
                r = d2n_verify(n, q, lens)
                assert r.ok, (n, q, lens)
                assert r.b % 2 == 0
                assert r.lift_w1_fixed and r.lift_w2_found


def test_d2n_rejects_bad_cycles():
    with pytest.raises(InvalidCycleType):
        d2n_verify(3, 3, (2, 1))
    with pytest.raises(InvalidCycleType):
        d2n_verify(2, 4, (1, 1))
    with pytest.raises(InvalidCycleType):
        d2n_verify(2, 3, (1, 2))


@pytest.mark.parametrize("q", [-1, -3, 0, 15])
def test_d2n_rejects_q_not_an_odd_prime_power(q):
    with pytest.raises(InvalidCycleType):
        d2n_verify(2, q, (1, 1))


def test_admissible_cycle_types():
    assert admissible_cycle_types(2) == [(1, 1)]
    assert set(admissible_cycle_types(4)) == {(1, 1, 1, 1), (1, 1, 2),
                                              (1, 2, 1), (1, 3)}


def test_positive_rank_fixed_torus_reported():
    # identity twist: the whole torus is fixed, so the extension is omitted
    rd = build_classical("A", 1, "ad")
    datum = ParameterDatum(rd, [((Fraction(1, 2),), None, None)], [])
    rep = centralizer(datum)
    from cuspidor.exactcore import RankReport
    assert isinstance(rep.fixed_torus, RankReport)
    assert rep.fixed_torus.free_rank == 1
    assert rep.extension is None
    assert "positive rank" in rep.notes[0]


def test_a_non_abelian_omega_omits_the_extension():
    # -1 in W(B2) is central, so every m ∈ W centralizes it: Ω = W(B2), D_8
    datum = ParameterDatum(build_classical("B", 2, "sc"),
                           [((0, 0), -Mat.identity(2), None)])
    rep = centralizer(datum)
    assert rep.to_json() == {
        "fixed_torus": {"free_rank": 0, "torsion": [2, 2]},
        "omega_order": 8, "omega_factors": [], "s_phi_order": 32,
        "mult_one": None,
        "notes": ["omega part is non-abelian; extension omitted"]}
    assert rep.extension is None and len(rep.lifts) == 8
