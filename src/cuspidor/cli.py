"""Batch command-line surface: JSON in, JSON out, exact numbers only.

Exit codes: 0 ok, 1 domain error, 2 usage error.  ``sweep`` runs the full
acceptance suite; ``sweep --json`` prints it as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import acceptance
from .centralizer import centralizer, d2n_verify
from .charformula import classify_chi_data, delta_II, mod_a_data, theta_sum
from .clifford import (
    ExtensionDescriptor,
    census_summary,
    dihedral8_central_descriptor,
    dihedral8_cyclic_descriptor,
    has_multiplicity_one,
    irrep_census,
    q8_descriptor,
)
from .cocycle import (
    EtaFamily,
    NoSplitting,
    coherent_splitting,
    group_from_table,
)
from .cyclotomic import Cyc
from .dixon import restriction_multiplicities
from .errors import CuspidorError, InvalidFixture
from .exactcore import Mat, QV, RankReport
from .ffield import finite_field, gauss_sum, normalized_gauss_value
from .fixture_gen import datum_from_json
from .rootdata import WeylElement, build_classical, table_check
from .torus import (
    AdjointModel,
    FrobeniusTorus,
    TorusCharacter,
    bicharacter,
    is_nonsingular,
    packet_counts,
    weyl_stabilizer,
)

SCHEMA = 1


def _emit(payload, audit=None):
    out = {"schema": SCHEMA, "status": "ok", "payload": payload}
    if audit is not None:
        out["audit"] = audit
    json.dump(out, sys.stdout, indent=1, sort_keys=True, default=_json_default)
    sys.stdout.write("\n")
    return 0


def _fail(message):
    json.dump({"schema": SCHEMA, "status": "error", "error": message},
              sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 1


def _json_default(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Cyc):
        return x.to_json()
    if isinstance(x, Mat):
        return [list(r) for r in x.rows]
    if isinstance(x, QV):
        return [str(c) for c in x.coords]
    raise TypeError(f"cannot serialize {type(x)!r}")


def _fraction(text) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not a rational number: {text!r}") from None


def _positive_int(text) -> int:
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")


def _cycles(text):
    """Comma-separated cycle lengths, e.g. 1,2."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}") from None


def _weyl(text):
    """coxeter | minus-one | a JSON integer matrix (as a Mat)."""
    if text in ("coxeter", "minus-one"):
        return text
    try:
        m = Mat(json.loads(text))
        if m.ncols and all(type(x) is int for r in m.rows for x in r):
            return m
    except (ValueError, TypeError):
        pass
    raise argparse.ArgumentTypeError(
        f"expected coxeter, minus-one or a JSON integer matrix: {text!r}")


def _load_torus(args) -> FrobeniusTorus:
    rd = build_classical(args.type, args.rank, args.lattice)
    if args.weyl == "coxeter":
        # the product of the simple reflections, in simple_idx order
        w = WeylElement(rd, math.prod(map(rd.reflection, rd.simple_roots),
                                      start=Mat.identity(rd.rank)))
    elif args.weyl == "minus-one":
        w = WeylElement(rd, -Mat.identity(rd.rank))
    else:
        w = WeylElement(rd, args.weyl)
    return FrobeniusTorus(rd, w, args.q)


def _group_json(g):
    if isinstance(g, RankReport):
        return {"free_rank": g.free_rank, "torsion": list(g.torsion.factors)}
    return {"free_rank": 0, "invariant_factors": list(g.factors),
            "order": g.order,
            "generators": [[str(c) for c in gen.coords] for gen in g.gens]}


def cmd_table_check(args):
    report = table_check()
    payload = {"ok": report["ok"],
               "columns": {k: v for k, v in report.items() if k != "ok"}}
    return _emit(payload)


def cmd_torus(args):
    t = _load_torus(args)
    g = t.rational_points(args.degree)
    return _emit({"points": _group_json(g), "q": t.q,
                  "splitting_degree": t.splitting_degree})


def cmd_stabilizer(args):
    t = _load_torus(args)
    th = TorusCharacter(t, args.theta)
    return _emit({**weyl_stabilizer(th).to_json(),
                  "nonsingular": is_nonsingular(th)})


def cmd_bicharacter(args):
    t = _load_torus(args)
    th = TorusCharacter(t, args.theta)
    rep = weyl_stabilizer(th)
    model = AdjointModel(t)
    reps = sorted(model.cokernel_reps().items())
    table = {}
    for i, m in enumerate(rep.matrices):
        for cls, coords in reps:
            table[f"w{i}@{list(cls)}"] = bicharacter(th, m, coords, _rep=rep,
                                                     _model=model)
    return _emit({"stabilizer_order": rep.order,
                  "cokernel": list(model.cokernel().group.factors),
                  "table": table})


def cmd_packet_count(args):
    t = _load_torus(args)
    th = TorusCharacter(t, args.theta)
    size, exts = packet_counts(th)    # SingularCharacter unless non-singular
    return _emit({"packet_size": size, "extension_count": exts,
                  "nonsingular": True})


def cmd_gauss(args):
    f = finite_field(args.p, args.m)
    res = gauss_sum(f)
    return _emit({"q": f.q, "sum": res.sum,
                  "sum_times_conjugate": res.normalized_square,
                  "alternate_form_agrees": res.alternate_agrees,
                  "normalized_value": normalized_gauss_value(f)})


def _load_json(path, parse):
    """``parse`` of the JSON file at ``path``; InvalidFixture if either fails."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        return parse(data)
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise InvalidFixture(f"{path}: {err}") from err


def _fixture_descriptor(name):
    fixtures = {"q8": q8_descriptor,
                "dihedral8": dihedral8_central_descriptor,
                "dihedral8-cyclic": dihedral8_cyclic_descriptor}
    if name in fixtures:
        return fixtures[name]()
    return _load_json(name, ExtensionDescriptor.from_json)


def cmd_cliff(args):
    ext = _fixture_descriptor(args.fixture)
    ok, witness = has_multiplicity_one(ext)
    census = census_summary(irrep_census(ext))
    payload = {"mult_one": ok,
               "census": {str(k): v for k, v in sorted(census.items())},
               "order": ext.order()}
    if witness is not None:
        payload["witness_pair"] = [list(witness[0]), list(witness[1])]
    return _emit(payload)


def cmd_cliff_oracle(args):
    ext = _fixture_descriptor(args.fixture)
    table, mults = restriction_multiplicities(ext)
    payload = {
        "degrees": table.degrees(),
        "classes": len(table.classes),
        "restrictions": [
            {"degree": sum(row[0]),
             "multiplicities": sorted(per.values(), reverse=True)}
            for row, per in zip(table.mults, mults)],
    }
    return _emit(payload)


def _family_from_json(data) -> EtaFamily:
    g = group_from_table(
        [tuple(e) for e in data["group"]["elements"]],
        [[tuple(x) for x in row] for row in data["group"]["table"]])
    xset = [tuple(x) for x in data["set"]["elements"]]
    act_map = {(tuple(a), tuple(u)): tuple(v)
               for a, u, v in data["set"]["action"]}
    eta_map = {(tuple(u1), tuple(u2), tuple(u3)): Fraction(v)
               for u1, u2, u3, v in data["eta"]}
    # the maps are only ever read on G and X, so an entry off them would be
    # dropped unseen
    points, elements = set(xset), set(g.elements)
    for (a, u), v in act_map.items():
        if a not in elements or u not in points or v not in points:
            raise ValueError(f"action entry {list(a)}, {list(u)} -> {list(v)} "
                             "lies outside G x X -> X")
    for key in eta_map:
        if not points.issuperset(key):
            raise ValueError(f"eta entry at {[list(u) for u in key]} "
                             "names a point outside X")
    return EtaFamily(g, xset, lambda a, u: act_map[(a, u)],
                     lambda u1, u2, u3: eta_map.get((u1, u2, u3), 0))


def cmd_cocycle_split(args):
    fam = _load_json(args.family, _family_from_json)
    res = coherent_splitting(fam)
    if isinstance(res, NoSplitting):
        return _emit({"split": False, "certificate": {
            "kind": res.certificate["kind"],
            "detail": {k: str(v) for k, v in res.certificate.items()
                       if k != "kind"}}})
    eps = {str(k): str(v) for k, v in sorted(
        res.splittings[fam.xset[0]].items(), key=lambda kv: str(kv[0]))}
    return _emit({"split": True, "epsilon_at_base": eps})


def cmd_d2n(args):
    rep = d2n_verify(args.n, args.q, args.cycles)
    return _emit({"ok": rep.ok, "commutator_trivial": rep.commutator_class_trivial,
                  "report": rep.to_json()})


def cmd_centralizer(args):
    import importlib.resources as res
    name = args.fixture
    if name in ("spin9", "biquadratic", "d4_sc"):
        data = json.loads(
            (res.files("cuspidor") / "fixtures" / f"{name}.json").read_text())
        datum = datum_from_json(data)
    else:
        datum = _load_json(name, datum_from_json)
    rep = centralizer(datum)
    return _emit(rep.to_json())


def cmd_delta(args):
    t = _load_torus(args)
    th = TorusCharacter(t, args.theta)
    chi = classify_chi_data(t)
    a = mod_a_data(th, chi)
    gamma = QV(args.gamma)
    res = delta_II(th, gamma, chi, a)
    return _emit(res.to_json(), audit={"orbits": chi.to_json(),
                                       "a_classes": a.to_json()})


def cmd_theta_sum(args):
    t = _load_torus(args)
    th = TorusCharacter(t, args.theta)
    chi = classify_chi_data(t)
    a = mod_a_data(th, chi)
    gamma = QV(args.gamma)
    wset = [m for m in t.weyl_centralizer()]
    val = theta_sum(th, gamma, chi, a, wset)
    return _emit({"value": val, "weyl_set_size": len(wset)})


def cmd_sweep(args):
    results = acceptance.run_all(verbose=not args.json)
    ok = all(r["ok"] for r in results)
    if args.json:
        import platform
        from importlib.metadata import version

        # numpy's version from its installed metadata: only dixon imports it
        _emit({"criteria": [{key: r.get(key) for key in
                             ("name", "ok", "seconds", "bound", "detail")}
                            for r in results],
               "nproc": os.cpu_count(),
               "python": platform.python_version(),
               "numpy": version("numpy")})
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cuspidor",
        description="exact computations for supercuspidal packet combinatorics")
    sub = parser.add_subparsers(dest="command", required=True)

    def torus_flags(p):
        p.add_argument("--type", required=True, choices="ABCD")
        p.add_argument("--rank", required=True, type=int)
        p.add_argument("--lattice", default="sc", choices=("sc", "ad"))
        p.add_argument("--weyl", default="minus-one", type=_weyl,
                       help="coxeter | minus-one | JSON matrix")
        p.add_argument("--q", required=True, type=int)

    sub.add_parser("table-check")

    p = sub.add_parser("torus")
    torus_flags(p)
    p.add_argument("--degree", type=_positive_int, default=1)

    for name in ("stabilizer", "packet-count", "bicharacter"):
        p = sub.add_parser(name)
        torus_flags(p)
        p.add_argument("--theta", nargs="+", required=True, type=_fraction,
                       help="values on the invariant-factor generators")

    p = sub.add_parser("gauss")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, default=1)

    for name in ("cliff", "cliff-oracle"):
        p = sub.add_parser(name)
        p.add_argument("--fixture", required=True,
                       help="q8 | dihedral8 | dihedral8-cyclic | path.json")

    p = sub.add_parser("cocycle-split")
    p.add_argument("--family", required=True, help="family JSON path")

    p = sub.add_parser("d2n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--cycles", required=True, type=_cycles,
                   help="comma-separated, e.g. 1,2")

    p = sub.add_parser("centralizer")
    p.add_argument("--fixture", required=True,
                   help="spin9 | biquadratic | d4_sc | path.json")

    for name in ("delta", "theta-sum"):
        p = sub.add_parser(name)
        torus_flags(p)
        p.add_argument("--theta", nargs="+", required=True, type=_fraction)
        p.add_argument("--gamma", nargs="+", required=True, type=_fraction)

    p = sub.add_parser("sweep")
    p.add_argument("--json", action="store_true",
                   help="one JSON object: each criterion, nproc, versions")

    args = parser.parse_args(argv)
    handlers = {
        "table-check": cmd_table_check,
        "torus": cmd_torus,
        "stabilizer": cmd_stabilizer,
        "bicharacter": cmd_bicharacter,
        "packet-count": cmd_packet_count,
        "gauss": cmd_gauss,
        "cliff": cmd_cliff,
        "cliff-oracle": cmd_cliff_oracle,
        "cocycle-split": cmd_cocycle_split,
        "d2n": cmd_d2n,
        "centralizer": cmd_centralizer,
        "delta": cmd_delta,
        "theta-sum": cmd_theta_sum,
        "sweep": cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except CuspidorError as err:
        return _fail(f"{type(err).__name__}: {err}")


if __name__ == "__main__":
    sys.exit(main())
