"""The cli workload: a fixed batch of 100 ``cuspidor`` commands.

Each command runs as ``python -m cuspidor.cli ...`` in a fresh process, one
at a time.  Every payload is checked against a fact the README or the paper
states, or a property the mathematics requires:

- q8 (and any non-abelian group of order 8) has census {1: 4, 2: 1}; q8 and
  the central D8 fail multiplicity one, D8 = Z/4 ⋊ Z/2 has it
- spin9 has |S_phi| = 32 and multiplicity one, biquadratic fails it, and
  every centralizer has |S_phi| = |fixed torus| · |Omega|
- |T(F_q)| = |det(qI - w)|, so (q + 1)^rank for w = -1, and 4 for the SL2
  Coxeter torus at q = 3
- GF(3) normalizes to i and GF(5) to 1; g·conj(g) = q for every field
- d2n: b = 2n - 2·#cycles, commutator class trivial
- SL2: the stabilizer and the packet have size 2 exactly for a quadratic
  character; stabilizers divide |W|; the left kernel of the bicharacter is
  trivial (exactly one stabilizer element pairs trivially with every point)
- Delta_II is a sign; theta_sum is unchanged when gamma is reindexed by
  w = -1, which lies in the Weyl centralizer of the w = -1 torus
- cocycle-split: true on the zero and coboundary families, false on the
  nontrivial Klein class
- an invalid input gives a JSON error document and exit 1 or 2

The seed orders the batch and draws the coboundary families.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import checks

ORDER8 = {"1": 4, "2": 1}


def _payload(doc):
    if not isinstance(doc, dict) or doc.get("status") != "ok":
        return None
    return doc.get("payload")


def _expect(cond, message):
    return None if cond else message


def _torus_flags(kind, rank, q, weyl=None):
    out = ["--type", kind, "--rank", str(rank), "--q", str(q)]
    return out + (["--weyl", weyl] if weyl else [])


def _is_quadratic(theta):
    return all((2 * Fraction(v)) % 1 == 0 for v in theta) and any(
        Fraction(v) % 1 for v in theta)


# -- payload checks --------------------------------------------------------------

def _check_torus(expected_order):
    def check(p):
        return _expect(p["points"]["order"] == expected_order,
                       f"|T(F_q)| = {p['points']['order']}, "
                       f"expected {expected_order}")
    return check


def _check_stabilizer(kind, rank, theta):
    def check(p):
        if not p["abelian"]:
            return "stabilizer not abelian"
        if checks.weyl_order(kind, rank) % p["order"]:
            return f"stabilizer order {p['order']} does not divide |W|"
        if kind == "A" and rank == 1:
            want = 2 if _is_quadratic(theta) else 1
            return _expect(p["order"] == want,
                           f"SL2 stabilizer {p['order']}, expected {want}")
        return None
    return check


def _check_bicharacter(p):
    rows = {}
    for key, value in p["table"].items():
        w = key.split("@")[0]
        rows.setdefault(w, []).append(checks.cyc_is(value, 1))
    if len(rows) != p["stabilizer_order"]:
        return "table rows do not match the stabilizer"
    trivial = sum(1 for r in rows.values() if all(r))
    return _expect(trivial == 1, f"{trivial} elements pair trivially, "
                                 "expected only the identity")


def _check_packet(theta):
    def check(p):
        want = 2 if _is_quadratic(theta) else 1
        return _expect(p["nonsingular"] and p["packet_size"] == want
                       and p["extension_count"] == want,
                       f"packet {p['packet_size']}/{p['extension_count']}, "
                       f"expected {want}")
    return check


def _check_gauss(p_, m):
    def check(p):
        q = p_ ** m
        if p["q"] != q or p["sum_times_conjugate"] != q:
            return f"g·conj(g) = {p['sum_times_conjugate']}, expected {q}"
        if not p["alternate_form_agrees"]:
            return "the two Gauss-sum expressions differ"
        value = p["normalized_value"]
        if q == 3:
            return _expect(value["conductor"] == 4 and [Fraction(c) for c in
                           value["coeffs"]] == [0, 1], "GF(3) is not i")
        if q == 5:
            return _expect(checks.cyc_is(value, 1), "GF(5) is not 1")
        return None
    return check


def _check_cliff(fixture, mult_one):
    def check(p):
        return _expect(p["census"] == ORDER8 and p["mult_one"] is mult_one,
                       f"{fixture}: census {p['census']}, "
                       f"mult_one {p['mult_one']}")
    return check


def _check_cliff_oracle(p):
    return _expect(p["degrees"] == [1, 1, 1, 1, 2] and p["classes"] == 5,
                   f"degrees {p['degrees']}")


def _check_d2n(n, cycles):
    def check(p):
        want = 2 * n - 2 * len(cycles)
        return _expect(p["ok"] and p["commutator_trivial"]
                       and p["report"]["b"] == want,
                       f"b = {p['report']['b']}, expected {want}")
    return check


def _check_delta(p):
    signs = [checks.cyc_is(p["value"], s) for s in (1, -1)]
    return _expect(any(signs) and all(v in (1, -1)
                                      for v in p["factors"].values()),
                   f"Delta_II {p['value']} is not a sign")


def _check_theta_sum(weyl_size):
    def check(p):
        return _expect(p["weyl_set_size"] == weyl_size,
                       f"weyl set {p['weyl_set_size']}, expected {weyl_size}")
    return check


def _check_split(expected):
    def check(p):
        return _expect(p["split"] is expected,
                       f"split {p['split']}, expected {expected}")
    return check


def _check_centralizer(s_phi=None, mult_one=None):
    def check(p):
        fixed = 1
        for d in p["fixed_torus"]["torsion"]:
            fixed *= d
        if p["s_phi_order"] != fixed * p["omega_order"]:
            return "|S_phi| != |fixed torus| · |Omega|"
        if s_phi is not None and p["s_phi_order"] != s_phi:
            return f"|S_phi| = {p['s_phi_order']}, expected {s_phi}"
        if mult_one is not None and p["mult_one"] is not mult_one:
            return f"mult_one {p['mult_one']}, expected {mult_one}"
        return None
    return check


# -- family files ------------------------------------------------------------------

def _regular_family(factors, eta):
    """The regular torsor of ⊕ Z/d with the given defect function."""
    els = [[a, b] for a in range(factors[0]) for b in range(factors[1])] \
        if len(factors) == 2 else [[a] for a in range(factors[0])]

    def mul(x, y):
        return [(a + b) % d for a, b, d in zip(x, y, factors)]

    def neg(x):
        return [(-a) % d for a, d in zip(x, factors)]

    rows = []
    for u in els:
        for v in els:
            for w in els:
                val = Fraction(eta(u, v, w, mul, neg)) % 1
                if val:
                    rows.append([u, v, w, str(val)])
    return {"group": {"elements": els,
                      "table": [[mul(a, b) for b in els] for a in els]},
            "set": {"elements": els,
                    "action": [[a, u, mul(a, u)] for a in els for u in els]},
            "eta": rows}


def _klein_class(u, v, w, mul, neg):
    # z(a, b) = a_1 b_0 / 2 on the regular torsor: eta = z(u^-1 v, v^-1 w)
    a, b = mul(neg(u), v), mul(neg(v), w)
    return Fraction(a[1] * b[0], 2)


def _coboundary(table):
    def eta(u, v, w, mul, neg):
        def t(x):
            return table[tuple(x)]
        return t(mul(neg(v), w)) - t(mul(neg(u), w)) + t(mul(neg(u), v))
    return eta


def write_families(workdir, rng):
    """Family JSON files for cocycle-split; returns name -> path."""
    fams = {"zero": _regular_family([2, 2], lambda *a: 0),
            "klein": _regular_family([2, 2], _klein_class)}
    for name, factors in (("cob-klein", [2, 2]), ("cob-z4", [4])):
        keys = ([(a, b) for a in range(2) for b in range(2)]
                if len(factors) == 2 else [(a,) for a in range(4)])
        table = {k: Fraction(rng.randrange(8), 8) for k in keys}
        table[keys[0]] = Fraction(0)
        fams[name] = _regular_family(factors, _coboundary(table))
    paths = {}
    for name, fam in fams.items():
        path = os.path.join(workdir, f"family-{name}.json")
        with open(path, "w") as fh:
            json.dump(fam, fh)
        paths[name] = path
    return paths


# -- the batch --------------------------------------------------------------------

def build_batch(workdir, seed):
    """The 100 commands as (argv, check, invalid) in seeded order.

    ``check`` maps a payload to a problem or None; for an invalid input it
    is None and the error contract is checked instead.  theta-sum commands
    come in (gamma, -gamma) pairs, tagged for the pair check.
    """
    rng = random.Random(seed)
    fam = write_families(workdir, rng)
    batch = [(["table-check"], lambda p: _expect(p["ok"], "table fails"),
              None)] * 2
    for kind, rank, q in [("A", 1, 3), ("A", 1, 5), ("A", 1, 7), ("A", 1, 9),
                          ("A", 2, 3), ("A", 2, 5), ("B", 2, 3), ("B", 2, 5),
                          ("B", 2, 7), ("C", 3, 3), ("D", 2, 5), ("B", 3, 5),
                          ("A", 3, 3)]:
        batch.append((["torus", *_torus_flags(kind, rank, q)],
                      _check_torus((q + 1) ** rank), None))
    batch.append((["torus", *_torus_flags("A", 1, 3, "coxeter")],
                  _check_torus(4), None))
    chars = [("A", 1, 3, ["1/2"]), ("A", 1, 3, ["1/4"]), ("A", 1, 5, ["1/3"]),
             ("A", 1, 5, ["1/2"]), ("A", 1, 7, ["1/4"]), ("A", 1, 7, ["1/2"]),
             ("B", 2, 3, ["1/4", "1/4"]), ("B", 2, 5, ["1/6", "1/3"])]
    for kind, rank, q, theta in chars:
        flags = [*_torus_flags(kind, rank, q), "--theta", *theta]
        batch.append((["stabilizer", *flags],
                      _check_stabilizer(kind, rank, theta), None))
        batch.append((["bicharacter", *flags], _check_bicharacter, None))
    for kind, rank, q, theta in chars:
        if kind == "A":
            batch.append((["packet-count", *_torus_flags(kind, rank, q),
                           "--theta", *theta], _check_packet(theta), None))
    batch.append((["packet-count", *_torus_flags("A", 1, 9), "--theta",
                   "1/5"], _check_packet(["1/5"]), None))
    batch.append((["packet-count", *_torus_flags("A", 1, 9), "--theta",
                   "1/2"], _check_packet(["1/2"]), None))
    for p, m in [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2),
                 (7, 2)]:
        batch.append((["gauss", "--p", str(p), "--m", str(m)],
                      _check_gauss(p, m), None))
    for fixture, mult_one in [("q8", False), ("dihedral8", False),
                              ("dihedral8-cyclic", True)]:
        for _ in range(2):
            batch.append((["cliff", "--fixture", fixture],
                          _check_cliff(fixture, mult_one), None))
            batch.append((["cliff-oracle", "--fixture", fixture],
                          _check_cliff_oracle, None))
    for n, q, cycles in [(2, 1, (1, 1)), (2, 3, (1, 1)), (2, 5, (1, 1)),
                         (3, 3, (1, 1, 1)), (3, 5, (1, 2)), (3, 7, (1, 2)),
                         (4, 3, (1, 1, 1, 1)), (4, 5, (1, 1, 2)),
                         (4, 7, (1, 3)), (4, 9, (1, 2, 1))]:
        batch.append((["d2n", "--n", str(n), "--q", str(q), "--cycles",
                       ",".join(map(str, cycles))], _check_d2n(n, cycles),
                      None))
    for kind, rank, q, theta, gamma in [
            ("A", 1, 3, ["1/4"], ["1/4"]), ("A", 1, 5, ["1/3"], ["1/6"]),
            ("A", 1, 7, ["1/8"], ["3/8"]), ("B", 2, 3, ["1/4", "1/4"],
                                            ["1/4", "1/2"]),
            ("B", 2, 5, ["1/6", "1/3"], ["1/3", "1/6"]),
            ("D", 2, 5, ["1/6", "1/6"], ["1/2", "1/6"])]:
        batch.append((["delta", *_torus_flags(kind, rank, q), "--theta",
                       *theta, "--gamma", *gamma], _check_delta, None))
    for kind, rank, q, theta, gamma in [
            ("A", 1, 3, ["1/4"], ["1/4"]), ("A", 1, 5, ["1/3"], ["1/6"]),
            ("A", 1, 7, ["1/8"], ["3/8"]), ("B", 2, 3, ["1/4", "1/4"],
                                            ["1/4", "1/2"])]:
        minus = [str((-Fraction(g)) % 1) for g in gamma]
        for gam in (gamma, minus):
            batch.append((["theta-sum", *_torus_flags(kind, rank, q),
                           "--theta", *theta, "--gamma", *gam],
                          _check_theta_sum(checks.weyl_order(kind, rank)),
                          None))
    for name, split in [("zero", True), ("zero", True), ("klein", False),
                        ("klein", False), ("cob-klein", True),
                        ("cob-z4", True)]:
        batch.append((["cocycle-split", "--family", fam[name]],
                      _check_split(split), None))
    batch.append((["centralizer", "--fixture", "spin9"],
                  _check_centralizer(32, True), None))
    batch.append((["centralizer", "--fixture", "biquadratic"],
                  _check_centralizer(None, False), None))
    batch.append((["centralizer", "--fixture", "d4_sc"],
                  _check_centralizer(), None))
    # invalid inputs; the first five end in a traceback today
    missing = os.path.join(workdir, "no-such-fixture.json")
    for argv in (["torus", *_torus_flags("A", 1, 4)],
                 ["gauss", "--p", "4"],
                 ["stabilizer", *_torus_flags("A", 1, 3), "--theta", "1/3"],
                 ["torus", *_torus_flags("A", 1, 3, "[[2]]")],
                 ["cliff", "--fixture", missing],
                 ["d2n", "--n", "2", "--q", "4", "--cycles", "1,1"],
                 ["packet-count", *_torus_flags("A", 1, 3), "--theta", "0"]):
        batch.append((argv, None, True))
    assert len(batch) == 100, len(batch)
    rng.shuffle(batch)
    return batch


def outcome(argv, check, invalid, returncode, stdout):
    """('ok' | 'failed' | 'wrong', problem) for one finished command."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        doc = None
    if invalid:
        problem = checks.check_cli_error(returncode, doc)
        return ("failed", problem) if problem else ("ok", None)
    payload = _payload(doc)
    if returncode != 0 or payload is None:
        return "failed", f"exit {returncode}, no payload"
    try:
        problem = check(payload)
    except (KeyError, TypeError) as err:
        problem = f"payload lacks {err}"
    return ("wrong", problem) if problem else ("ok", None)


def pair_problems(results):
    """theta-sum at gamma and at -gamma must agree.

    ``results`` holds (argv, stdout) of the successful theta-sum commands.
    """
    by_gamma = {}
    for argv, stdout in results:
        cut = argv.index("--gamma")
        key = tuple(argv[:cut])
        gamma = tuple(Fraction(g) for g in argv[cut + 1:])
        by_gamma.setdefault(key, {})[gamma] = json.loads(stdout)["payload"][
            "value"]
    problems = []
    for key, values in by_gamma.items():
        for gamma, value in values.items():
            minus = tuple((-g) % 1 for g in gamma)
            if minus in values and values[minus] != value:
                problems.append((key, f"theta-sum changes under gamma -> "
                                      f"-gamma: {' '.join(key)}"))
    return problems
