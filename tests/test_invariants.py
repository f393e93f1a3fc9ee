"""Module-level invariants from the build contract that need their own sweeps."""

import itertools
import json
import random
from fractions import Fraction

from cuspidor.clifford import (
    ConcreteGroup,
    ExtensionDescriptor,
    Pullback,
    Pushout,
    has_multiplicity_one,
    irrep_census,
    random_descriptor,
    transform,
)
from cuspidor.dixon import brute_force_census, restriction_multiplicities
from cuspidor.exactcore import FinAb, Mat, coinvariants
from cuspidor.rootdata import WeylElement, build_classical
from cuspidor.torus import (
    FrobeniusTorus,
    all_characters,
    is_nonsingular,
    weyl_stabilizer,
)


def test_coinvariants_exhaustive_small_groups():
    # homomorphism + (sigma - 1)-killing checked by full enumeration, |A| <= 64
    cases = [
        ((2, 2, 2), Mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])),
        ((4, 4), Mat([[0, 1], [1, 0]])),
        ((8, 8), Mat([[-1, 0], [0, -1]])),
        ((2, 4, 8), Mat([[1, 0, 0], [0, 3, 0], [0, 2, 5]])),
    ]
    for factors, action in cases:
        a = FinAb.abstract(list(factors))
        assert a.order <= 64
        q = coinvariants(a, [action])
        for x in a.elements():
            for y in a.elements():
                assert q.project(a.add(x, y)) == q.group.add(q.project(x),
                                                             q.project(y))
        for x in a.elements():
            img = a.apply_matrix(action, x)
            assert q.project(a.add(img, a.neg(x))) == q.group.zero


def test_reflection_closure_rank_five():
    for kind, n in [("A", 5), ("B", 5), ("C", 5), ("D", 5)]:
        rd = build_classical(kind, n, "sc")
        rootset = set(rd.roots)
        for a in rd.simple_roots:
            s = rd.reflection(a)
            assert all(tuple(s.apply(r)) in rootset for r in rd.roots)


def test_regns_shadow_rank_two():
    # trivial stabilizer forces non-singularity, rank <= 2 sweep
    for kind, n in [("A", 1), ("A", 2), ("B", 2)]:
        rd = build_classical(kind, n, "sc")
        for m in rd.weyl_group():
            w = WeylElement(rd, m)
            if not w.is_elliptic():
                continue
            for q in (3, 5):
                t = FrobeniusTorus(rd, w, q)
                for th in all_characters(t):
                    if weyl_stabilizer(th).order == 1:
                        assert is_nonsingular(th)
            break


def _char_of_c_fixed_by(table, ext, chi_idx):
    """Characters chi of C with chi * chi_pi = chi_pi on every class."""
    from cuspidor.cyclotomic import Cyc
    count = 0
    for x in ext.C.elements():
        ok = True
        for cls_idx, cls in enumerate(table.classes):
            c_part = cls[0][1]
            val = ext.C.char_value(x, c_part)
            chp = table.chars[chi_idx][cls_idx]
            if not (chp * Cyc.from_qz(val) == chp):
                ok = False
                break
        if ok:
            count += 1
    return count


def test_cor_abext3_square_on_corpus():
    # Cartesian-square size identity: the stabilizer of pi in C^* is the
    # pullback of A_sigma/A' -> (A')^*, of size |C| / |radical(beta_rho)|
    # (A' is a maximal isotropic: |A'|^2 = |rad| |C_rho|).  Both sides are
    # computed independently: oracle character table vs census pairing.
    rng = random.Random(424242)
    checked = 0
    for _ in range(12):
        ext = random_descriptor(rng, max_order=48)
        table, mults = restriction_multiplicities(ext)
        for idx, per in enumerate(mults):
            rho = next(iter(per))
            stab = [c for c in ext.C.elements()
                    if _char_act_idx(ext, c, rho) == rho]
            radical = [c1 for c1 in stab
                       if all(_pair_val(ext, rho, c1, c2) == 0 for c2 in stab)]
            expected = ext.C.order // len(radical)
            got = _char_of_c_fixed_by(table, ext, idx)
            assert got == expected, ext.to_json()
            checked += 1
    assert checked > 20


def _orbit_of(ext, rho):
    out = set()
    for c in ext.C.elements():
        out.add(_char_act_idx(ext, c, rho))
    return out


def _char_act_idx(ext, c, rho):
    from cuspidor.clifford import _char_act
    return _char_act(ext, c, rho)


def _pair_val(ext, rho, c1, c2):
    v1 = ext.A.char_value(rho, ext.z(c1, c2))
    v2 = ext.A.char_value(rho, ext.z(c2, c1))
    return (v1 - v2) % 1


def test_transform_coherence_on_corpus():
    rng = random.Random(77)
    for _ in range(10):
        e1 = random_descriptor(rng, max_order=32)
        e2 = random_descriptor(rng, max_order=16)
        m1, _ = has_multiplicity_one(e1)
        m2, _ = has_multiplicity_one(e2)
        prod = transform(e1, e2)
        mp, _ = has_multiplicity_one(prod)
        assert mp == (m1 and m2)
        # pulling back along a cyclic line gives multiplicity one (cyclic
        # quotient), and pulling back by the identity preserves the answer
        col = Mat([[1] if i == 0 else [0] for i in range(len(e1.C.factors))])
        pb = transform(e1, Pullback(col, [e1.C.factors[0]]))
        ok, _ = has_multiplicity_one(pb)
        assert ok
        same = transform(e1, Pullback(Mat.identity(len(e1.C.factors)),
                                      e1.C.factors))
        assert has_multiplicity_one(same)[0] == m1
        # pushing out to the trivial group always has multiplicity one
        zero = transform(e1, Pushout(Mat([[0] * len(e1.A.factors)]), []))
        ok, _ = has_multiplicity_one(zero)
        assert ok


def norm_down(big, small):
    """The subfield dlog of the norm of big's generator down to small.

    The same reference as test_ffield's: the product of the generator's
    Frobenius conjugates over small must be a root of small's modulus.
    """
    nrm, x = big.one, big.generator
    while True:
        nrm, x = big.mul(nrm, x), big.power(x, small.q)
        if x == big.generator:
            break
    acc, power = big.zero, big.one
    for c in small.modulus:
        acc = big.add(acc, tuple(c * t % big.p for t in power))
        power = big.mul(power, nrm)
    assert acc == big.zero
    e, step = big.dlog(nrm), (big.q - 1) // (small.q - 1)
    assert e % step == 0
    return e // step


def test_tower_compatibility_extended():
    # norm compatibility for (q, d) pairs with q <= 25, d <= 4, q^d <= 3 * 10^4
    from cuspidor.ffield import FiniteField
    pairs = []
    for p, m in [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (11, 1), (13, 1),
                 (17, 1), (19, 1), (23, 1)]:
        q = p ** m
        if q > 25:
            continue
        for d in (2, 3, 4):
            if q ** d <= 30000:
                pairs.append((p, m, d))
    assert len(pairs) >= 20
    for p, m, d in pairs:
        big = FiniteField(p, m * d)
        small = FiniteField(p, m)
        assert norm_down(big, small) == 1


def test_d2n_cases_fixture_replay():
    import importlib.resources as res
    from cuspidor.centralizer import d2n_verify
    cases = json.loads(
        (res.files("cuspidor") / "fixtures" / "d2n_cases.json").read_text())
    assert len(cases) == 42
    rng = random.Random(5)
    for case in rng.sample(cases, 10):
        rep = d2n_verify(case["n"], case["q"], tuple(case["cycles"]))
        assert rep.ok == case["commutator_trivial"]
        assert rep.b == case["b"]
        assert rep.lam[0] == case["lam_edge"]
        assert list(rep.fixed_group_factors) == case["fixed_order_factors"]


def test_q8_fixture_file_loads():
    import importlib.resources as res
    data = json.loads(
        (res.files("cuspidor") / "fixtures" / "q8.json").read_text())
    ext = ExtensionDescriptor.from_json(data)
    ok, _ = has_multiplicity_one(ext)
    assert not ok
    assert ext.order() == 8


def _attributes_set_outside(path, class_name, allowed):
    """Attributes of self that a method of the class, other than ``allowed``,
    assigns: "module:line method attribute" for each."""
    import ast
    tree = ast.parse(path.read_text())
    cls = next(n for n in tree.body
               if isinstance(n, ast.ClassDef) and n.name == class_name)
    found = []
    for fn in cls.body:
        if not isinstance(fn, ast.FunctionDef) or fn.name in allowed:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store) \
                    and getattr(node.value, "id", None) == "self":
                found.append(f"{path.stem}:{node.lineno} {fn.name} "
                             f"sets {node.attr}")
    return found


def test_caches_live_on_the_object_that_owns_them():
    # charformula, torus and cyclotomic keep no module-level or class-level
    # dict/list/set cache, no mutable default argument and no global state;
    # per-torus tables go through FrobeniusTorus._memo.  The module-level
    # memos allowed are the bounded int -> Fraction cache and the two
    # lru_cached Phi_n tables of cyclotomic.  A ModAData sets its attributes,
    # theta_sum's term tables included, only in its constructor, and a QV
    # sets its kept hash only in its constructor and in __hash__.
    import ast
    import pathlib

    import cuspidor
    mutable = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
               ast.SetComp)
    containers = {"dict", "list", "set", "defaultdict", "OrderedDict",
                  "Counter", "WeakKeyDictionary", "WeakValueDictionary"}
    memo_names = {"lru_cache", "cache"}

    def called(node):
        f = node.func if isinstance(node, ast.Call) else node
        return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)

    found, memos = [], set()
    root = pathlib.Path(cuspidor.__file__).parent
    for name in ("charformula", "torus", "cyclotomic"):
        tree = ast.parse((root / f"{name}.py").read_text())
        scopes = [tree.body] + [n.body for n in tree.body
                                if isinstance(n, ast.ClassDef)]
        for body in scopes:
            for node in body:
                value = getattr(node, "value", None)
                if not isinstance(node, (ast.Assign, ast.AnnAssign)) \
                        or value is None:
                    continue
                if isinstance(value, mutable) or isinstance(value, ast.Call) \
                        and called(value) in containers:
                    found.append(f"{name}:{node.lineno} mutable container")
                if isinstance(value, ast.Call) \
                        and isinstance(value.func, ast.Call) \
                        and called(value.func) in memo_names:
                    maxsize = {k.arg: k.value for k in value.func.keywords}
                    bound = maxsize.get("maxsize")
                    if not isinstance(bound, ast.Constant) \
                            or not isinstance(bound.value, int):
                        found.append(f"{name}:{node.lineno} unbounded memo")
                    memos.update(f"{name}.{t.id}" for t in node.targets)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                found.append(f"{name}:{node.lineno} global state")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(d, mutable) for d in
                       node.args.defaults + node.args.kw_defaults):
                    found.append(f"{name}:{node.lineno} mutable default")
                if any(called(d) in memo_names for d in node.decorator_list):
                    memos.add(f"{name}.{node.name}")
            # outside torus.py no module reaches into a torus's table dict
            if name != "torus" and isinstance(node, ast.Attribute) \
                    and node.attr == "_cache":
                found.append(f"{name}:{node.lineno} ._cache")
        if name == "torus":
            # a FrobeniusTorus is changed only by its constructor: every
            # other method keeps what it builds through _memo
            cls = next(n for n in tree.body if isinstance(n, ast.ClassDef)
                       and n.name == "FrobeniusTorus")
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) \
                        or fn.name == "__init__":
                    continue
                for node in ast.walk(fn):
                    if any(isinstance(t, ast.Attribute)
                           and getattr(t.value, "id", None) == "self"
                           for t in getattr(node, "targets", [])):
                        found.append(f"torus:{node.lineno} {fn.name} "
                                     "sets an attribute")
    found += _attributes_set_outside(root / "charformula.py", "ModAData",
                                     {"__init__"})
    # a QV keeps its hash in _hash, set when built and on first use
    tree = ast.parse((root / "exactcore.py").read_text())
    qv = next(n for n in tree.body
              if isinstance(n, ast.ClassDef) and n.name == "QV")
    allowed = {id(node) for fn in qv.body if isinstance(fn, ast.FunctionDef)
               and fn.name in ("__init__", "__hash__") for node in ast.walk(fn)}
    found += [f"exactcore:{node.lineno} sets _hash"
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "_hash"
              and isinstance(node.ctx, ast.Store) and id(node) not in allowed]
    assert found == []
    assert memos == {"cyclotomic._int_fraction",
                     "cyclotomic.cyclotomic_polynomial",
                     "cyclotomic._division_terms"}
