"""The acceptance sweep: one callable per criterion, exact tolerances.

Each criterion function returns {"name", "ok", "seconds", "detail"}; run_all
executes every criterion, printing one pass/fail line each, and is the
engine behind both the ``sweep`` CLI command and tests/test_acceptance.py.

Note on criterion 10: the full character identities this formula feeds
(a p-adic character expansion against a parameter-side expression) are not
reproducible at desk scale -- both sides need p-adic harmonic analysis.
The stated substitutes are the square-class well-definedness of delta_II and the Weyl
reindexing invariance of theta_sum, swept exhaustively at rank <= 2.
"""

from __future__ import annotations

import random
import time
import traceback
from fractions import Fraction

from .centralizer import admissible_cycle_types, centralizer, d2n_verify
from .charformula import (
    classify_chi_data,
    delta_II_at_representative,
    mod_a_data,
    theta_sum,
)
from .clifford import (
    ConcreteGroup,
    census_summary,
    has_multiplicity_one,
    irrep_census,
    q8_descriptor,
    random_descriptor,
)
from .cocycle import (
    SplittingResult,
    abelian_group,
    act_on_splitting,
    coherent_splitting,
    family_from_group_cocycle,
    family_from_phi,
    is_homomorphism,
    splitting_difference,
)
from .cyclotomic import Cyc
from .dixon import oracle_multiplicity_one, restriction_multiplicities
from .errors import InvalidPrimePower
from .exactcore import Mat, QV, prime_power
from .ffield import FiniteField, gauss_sum, normalized_gauss_value
from .fixture_gen import build_biquadratic, build_spin9
from .rootdata import WeylElement, build_classical, table_check
from .torus import (
    AdjointModel,
    FrobeniusTorus,
    all_characters,
    bicharacter,
    is_nonsingular,
    packet_counts,
    weyl_stabilizer,
)

CORPUS_SEED = 11059060


def _timed(fn):
    t0 = time.monotonic()
    detail = fn()
    return time.monotonic() - t0, detail


def criterion_1_table():
    """Intro-table reproduction for all nine Dynkin columns."""
    def body():
        report = table_check()
        assert report["ok"], report
        return {"columns": 9}

    secs, detail = _timed(body)
    return {"name": "intro-table", "ok": True, "seconds": secs,
            "bound": 1.0, "detail": detail}


def criterion_2_d2n():
    """D_{2n} commutator calculus over n in {2,3,4}, q in {1,...,11}, all types."""
    def body():
        cases = [(n, q, lens)
                 for n in (2, 3, 4)
                 for q in (1, 3, 5, 7, 9, 11)
                 for lens in admissible_cycle_types(n)]

        for n, q, lens in cases:
            rep = d2n_verify(n, q, lens)
            assert rep.ok, (n, q, lens)
            assert rep.b % 2 == 0
            # closed forms: lambda_{w1,w2} = (2n-2)(e1 + e_2n), b = 2n - |B|
            assert rep.half_lambda_w1_w2_integral
            assert rep.lam[0] == rep.b and rep.lam[-1] == rep.b
            assert rep.b == 2 * n - 2 * len(lens)
        return {"cases": len(cases)}

    secs, detail = _timed(body)
    return {"name": "d2n-commutators", "ok": True, "seconds": secs,
            "bound": 10.0, "detail": detail}


def criterion_3_oracle(count=200):
    """Clifford criterion vs the character-table oracle on a seeded corpus."""
    def body():
        rng = random.Random(CORPUS_SEED)
        descriptors = [random_descriptor(rng, max_order=256)
                       for _ in range(count)]
        disagreements = sum(
            has_multiplicity_one(ext)[0] != oracle_multiplicity_one(ext)
            for ext in descriptors)
        assert disagreements == 0
        return {"descriptors": len(descriptors), "disagreements": disagreements}

    secs, detail = _timed(body)
    return {"name": "clifford-oracle-equivalence", "ok": True, "seconds": secs,
            "bound": 60.0, "detail": detail}


def criterion_4_q8():
    """The quaternion fixture: census, central multiplicity, mult-one."""
    def body():
        ext = q8_descriptor()
        ok, witness = has_multiplicity_one(ext)
        assert not ok
        census = census_summary(irrep_census(ext))
        assert census == {1: 4, 2: 1}
        table, mults = restriction_multiplicities(ext)
        central = [per for row, per in zip(table.mults, mults)
                   if sum(row[0]) == 2]
        assert len(central) == 1 and list(central[0].values()) == [2]
        return {"census": census}

    secs, detail = _timed(body)
    return {"name": "q8-fixture", "ok": True, "seconds": secs, "bound": 1.0,
            "detail": detail}


def criterion_5_spin9():
    """Spin9: |fixed torus| = 16, omega = Z/2 reversal, 32, mult one."""
    def body():
        rep = centralizer(build_spin9())
        assert rep.fixed_torus.order == 16
        assert rep.omega_factors == (2,)
        rev = Mat([[int(i + j == 3) for j in range(4)] for i in range(4)])
        assert rev in rep.omega_matrices
        assert rep.s_phi_order == 32
        assert rep.mult_one is True
        return rep.to_json()

    secs, detail = _timed(body)
    return {"name": "spin9-fixture", "ok": True, "seconds": secs, "bound": 5.0,
            "detail": detail}


def criterion_6_biquadratic():
    """Biquadratic: commutator class (eps,eta,delta) = (1,1,-1), no mult one."""
    def body():
        from .clifford import Pushout, commutator_function, transform
        from .exactcore import quotient_by
        datum = build_biquadratic()
        rep = centralizer(datum)
        assert rep.omega_factors == (2, 2)
        assert rep.mult_one is False
        rd = datum.rd
        a_grp = rep.fixed_torus
        pair_rows = [rd.pairing_row(rd.roots[i]) for i in rd.simple_idx]

        def to_ad(vec):
            return tuple(sum(Fraction(r) * c for r, c in zip(row, vec.coords))
                         % 1 for row in pair_rows)

        kernel = [c for c in a_grp.elements()
                  if all(x == 0 for x in to_ad(a_grp.lift(c)))]
        quot = quotient_by(a_grp, kernel)
        assert quot.group.factors == (2, 2, 2)
        push = Mat(zip(*map(quot.project, a_grp.standard_basis())))
        ext_ad = transform(rep.extension, Pushout(push, quot.group.factors))
        ok, _ = has_multiplicity_one(ext_ad)
        assert not ok
        grp = ConcreteGroup(rep.extension)
        c1, c2 = (1, 0), (0, 1)
        word = grp.mul(grp.mul(grp.section(c1), grp.section(c2)),
                       grp.mul(grp.inv(grp.section(c1)),
                               grp.inv(grp.section(c2))))
        rv = to_ad(a_grp.lift(word[0]))
        assert rv == (0, 0, 0, Fraction(1, 2), 0, Fraction(1, 2))
        q_ad, cls = commutator_function(ext_ad, c1, c2)
        assert cls != q_ad.group.zero
        return {"commutator_root_values": [str(x) for x in rv]}

    secs, detail = _timed(body)
    return {"name": "biquadratic-fixture", "ok": True, "seconds": secs,
            "bound": 30.0, "detail": detail}


def criterion_7_gauss():
    """Gauss sums for all odd prime powers q <= 121, plus pinned values."""
    def body():
        checked = 0
        for q in range(3, 122, 2):
            try:
                p, m = prime_power(q)
            except InvalidPrimePower:
                continue
            f = FiniteField(p, m)
            res = gauss_sum(f)
            gg = res.sum.norm_square()
            assert gg.is_rational() and gg.rational_value() == q
            assert res.alternate_agrees
            checked += 1
        assert normalized_gauss_value(FiniteField(3)) == Cyc.zeta(4)
        assert normalized_gauss_value(FiniteField(5)) == Cyc.rational(1)
        return {"prime_powers": checked}

    secs, detail = _timed(body)
    return {"name": "gauss-sums", "ok": True, "seconds": secs, "bound": 5.0,
            "detail": detail}


def _elliptic_classes(rd):
    """Elliptic Weyl elements up to conjugacy (one representative each)."""
    weyl = rd.weyl_group()
    seen = set()
    reps = []
    for m in weyl:
        if m in seen:
            continue
        w = WeylElement(rd, m)
        orbit = {g * m * rd.inverse(g) for g in weyl}
        seen |= orbit
        if w.is_elliptic():
            reps.append(w)
    return reps


def criterion_8_bicharacter():
    """Left-kernel triviality and stabilizer structure, rank <= 3 sweep."""
    def body():
        data = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                ("C", 3), ("D", 3)]
        stats = {"tori": 0, "nonsingular": 0, "noncyclic": []}
        for kind, n in data:
            rd = build_classical(kind, n, "sc")
            for w in _elliptic_classes(rd):
                for q in (3, 5, 7):
                    t = FrobeniusTorus(rd, w, q)
                    _sweep_torus(t, stats)
        # at least one (Z/2)^2 stabilizer instance for split D4; w = -1 at
        # q = 3 admits no non-singular character at all, the first instances
        # appear at q = 5
        rd = build_classical("D", 4, "sc")
        w = WeylElement(rd, -Mat.identity(4))
        found_q = None
        for q in (3, 5, 7):
            if _find_klein(FrobeniusTorus(rd, w, q)):
                found_q = q
                break
        assert found_q is not None, "no (Z/2)^2 stabilizer found for split D4"
        stats["d4_klein_q"] = found_q
        for entry in stats["noncyclic"]:
            assert entry["split_d2n"], entry
        stats["noncyclic"] = len(stats["noncyclic"])
        return stats

    secs, detail = _timed(body)
    return {"name": "bicharacter-nondegeneracy", "ok": True, "seconds": secs,
            "bound": None, "detail": detail}


def _sweep_torus(t, stats):
    stats["tori"] += 1
    model = AdjointModel(t)
    ad_reps = model.cokernel_reps().values()
    ident = Mat.identity(t.rd.rank)
    for th in all_characters(t):
        if not is_nonsingular(th):
            continue
        stats["nonsingular"] += 1
        rep = weyl_stabilizer(th)
        assert rep.abelian
        if not rep.cyclic:
            stats["noncyclic"].append({"label": t.rd.label, "q": t.q,
                                       "split_d2n": rep.split_d2n})
        for m in rep.matrices:
            if m == ident:
                continue
            vals = [bicharacter(th, m, coords, _rep=rep, _model=model)
                    for coords in ad_reps]
            assert any(not (v == 1) for v in vals), (t.rd.label, t.q)


def _find_klein(t):
    for th in all_characters(t):
        if not is_nonsingular(th):
            continue
        rep = weyl_stabilizer(th)
        if rep.order == 4 and rep.invariant_factors == (2, 2):
            return True
    return False


def criterion_9_packets():
    """Labesse-Langlands SL2 packet counts over q in {3,5,7}."""
    def body():
        rd = build_classical("A", 1, "sc")
        sizes_seen = set()
        for q in (3, 5, 7):
            t = FrobeniusTorus(rd, WeylElement(rd, -Mat.identity(1)), q)
            for th in all_characters(t):
                if not is_nonsingular(th):
                    continue
                size, exts = packet_counts(th)
                assert size == exts == weyl_stabilizer(th).order
                sizes_seen.add(size)
                if th.order() == 2:
                    assert size == 2
        assert sizes_seen == {1, 2}
        return {"sizes": sorted(sizes_seen)}

    secs, detail = _timed(body)
    return {"name": "packet-count-torsor", "ok": True, "seconds": secs,
            "bound": None, "detail": detail}


def criterion_10_charformula():
    """delta_II square-class well-definedness + theta_sum reindexing, rank <= 2.

    The full character identities are NOT reproduced here (they need p-adic
    harmonic analysis on both sides); these property checks replace them.
    """
    def body():
        checked = {"delta": 0, "reindex": 0}
        for kind, n in [("A", 1), ("A", 2), ("B", 2), ("D", 2)]:
            rd = build_classical(kind, n, "sc")
            for w in _elliptic_classes(rd):
                for q in (3, 5):
                    t = FrobeniusTorus(rd, w, q)
                    if t.q ** t.splitting_degree > 3000:
                        continue
                    _charformula_sweep(t, checked)
        assert checked["delta"] > 0 and checked["reindex"] > 0
        return checked

    secs, detail = _timed(body)
    return {"name": "character-formula-properties", "ok": True, "seconds": secs,
            "bound": None, "detail": detail}


def _charformula_sweep(t, checked):
    field = t.extension_field(t.splitting_degree)
    chi = classify_chi_data(t)
    wset = t.weyl_centralizer()
    for th in all_characters(t):
        if not is_nonsingular(th):
            continue
        a = mod_a_data(th, chi)
        for gc in th.group.elements():
            gamma = th.group.lift(gc)
            # square-class / representative independence per orbit
            for orb in chi.symmetric_orbits():
                vals = {delta_II_at_representative(th, gamma, chi, a, orb, rep,
                                                   field)
                        for rep in orb.roots}
                assert len(vals) == 1
                checked["delta"] += 1
            base = theta_sum(th, gamma, chi, a, wset, field)
            for m in wset:
                gw = QV(t.inverse_action(m).apply(gamma.coords))
                assert theta_sum(th, gw, chi, a, wset, field) == base
            checked["reindex"] += 1


def criterion_11_cocycle():
    """Splitting exists iff the class vanishes; splittings form a hom-torsor."""
    def body():
        rng = random.Random(4096)
        klein = abelian_group([2, 2])
        z4 = abelian_group([4])
        corpus = []
        # trivial classes
        corpus.append(("zero", _regular_family(klein, lambda u, v, w: 0), True))
        corpus.append(("zero4", _regular_family(z4, lambda u, v, w: 0), True))
        # coboundary-built classes
        for name, g in (("cob-klein", klein), ("cob-z4", z4)):
            table = {x: Fraction(rng.randrange(8), 8) for x in g.elements}
            table[g.identity] = Fraction(0)
            fam = family_from_phi(g, g.elements,
                                  lambda a, x, _g=g: _g.mul(a, x),
                                  lambda u, v, _t=table, _g=g:
                                  _t[_g.mul(_g.inv(u), v)])
            corpus.append((name, fam, True))
        # the nontrivial Klein class
        fam = family_from_group_cocycle(
            klein, lambda a, b: Fraction(a[1] * b[0], 2))
        corpus.append(("klein-nontrivial", fam, False))
        for name, fam, expect in corpus:
            res = coherent_splitting(fam)
            got = isinstance(res, SplittingResult)
            assert got == expect, name
            if got:
                _check_torsor(res, fam)
        return {"corpus": [name for name, _, _ in corpus]}

    secs, detail = _timed(body)
    return {"name": "cocycle-calculus", "ok": True, "seconds": secs,
            "bound": 5.0, "detail": detail}


def _regular_family(g, eta):
    from .cocycle import EtaFamily
    return EtaFamily(g, g.elements, lambda a, x: g.mul(a, x), eta)


def _check_torsor(res: SplittingResult, fam):
    q = res.quotient
    base = fam.xset[0]
    eps = res.splittings[base]
    homs = q.homs_to_qz()
    shifted = act_on_splitting(q, eps, homs[-1])
    z = res.cocycles[base]
    for a in q.elements:
        for b in q.elements:
            assert (shifted[a] + shifted[b] - shifted[q.mul(a, b)]
                    + z(a, b)) % 1 == 0
    delta = splitting_difference(q, eps, shifted)
    assert is_homomorphism(q, delta)


CRITERIA = [
    criterion_1_table,
    criterion_2_d2n,
    criterion_3_oracle,
    criterion_4_q8,
    criterion_5_spin9,
    criterion_6_biquadratic,
    criterion_7_gauss,
    criterion_8_bicharacter,
    criterion_9_packets,
    criterion_10_charformula,
    criterion_11_cocycle,
]


def run_all(verbose=False):
    results = []
    for i, crit in enumerate(CRITERIA, start=1):
        t0 = time.monotonic()
        try:
            res = crit()
        except Exception as err:
            res = {"name": crit.__name__, "ok": False,
                   "seconds": time.monotonic() - t0, "bound": None,
                   "detail": {"error": f"{type(err).__name__}: {err}",
                              "traceback": traceback.format_exc()}}
        res["ok"] = res.get("ok", False)
        bound = res.get("bound")
        if bound is not None and res["seconds"] > bound:
            res["ok"] = False
            res.setdefault("detail", {})["over_time"] = res["seconds"]
        results.append(res)
        if verbose:
            status = "PASS" if res["ok"] else "FAIL"
            limit = f" < {bound:.0f}s" if bound else ""
            print(f"[{status}] criterion {i:2d} {res['name']}"
                  f" ({res['seconds']:.2f}s{limit})")
    return results
