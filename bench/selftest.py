"""Self-test of the benchmark's output checks.

Every check must accept a right value and reject a deliberately wrong one
(a count off by one, a flipped verdict, a changed sum), so that no check can
pass vacuously.  Runs in well under a second and needs only the standard
library plus the program's Cyc type:

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks                    # noqa: E402
import cli_batch                 # noqa: E402
from cuspidor.cyclotomic import Cyc   # noqa: E402

FAILURES = []


def case(name, good, bad):
    """``good`` must give None and ``bad`` a problem."""
    if good is not None:
        FAILURES.append(f"{name}: rejects the right value: {good}")
    if bad is None:
        FAILURES.append(f"{name}: accepts the wrong value")


def test_arithmetic():
    if checks.det_int([[2, 1], [1, 3]]) != 5 or checks.det_int(
            [[0, 1, 2], [1, 0, 3], [4, -3, 8]]) != -2:
        FAILURES.append("det_int")
    # SL2 Coxeter torus at q = 3: w = -1, |T(F_3)| = 4
    if checks.point_count([[-1]], 3) != 4:
        FAILURES.append("point_count")
    if [checks.weyl_order(k, 3) for k in "ABCD"] != [24, 48, 48, 24]:
        FAILURES.append("weyl_order")


def test_oracle():
    q8 = [(1, 4), (2, 1)]
    case("verdicts agree",
         checks.check_oracle(8, False, q8, False, [1, 1, 1, 1, 2]),
         checks.check_oracle(8, False, q8, True, [1, 1, 1, 1, 2]))
    case("census mass",
         checks.check_oracle(8, False, q8, False, None),
         checks.check_oracle(8, False, [(1, 4), (2, 2)], False, None))
    case("Σ deg²",
         checks.check_oracle(8, False, q8, False, [1, 1, 1, 1, 2]),
         checks.check_oracle(8, False, q8, False, [1, 1, 1, 2]))
    case("known verdict",
         checks.check_known_verdict("q8", False, False, q8, {1: 4, 2: 1}),
         checks.check_known_verdict("q8", False, True, q8, {1: 4, 2: 1}))
    case("known census",
         checks.check_known_verdict("q8", False, False, q8, {1: 4, 2: 1}),
         checks.check_known_verdict("q8", False, False, [(1, 8)],
                                    {1: 4, 2: 1}))
    case("both verdicts", checks.check_both_verdicts([True, False, True]),
         checks.check_both_verdicts([True, True]))


def test_tori():
    minus = ((-1, 0), (0, -1))
    ident = ((1, 0), (0, 1))
    swap = ((0, 1), (1, 0))
    rot = ((0, -1), (1, 0))
    case("character count", checks.check_char_count(16, minus, 3),
         checks.check_char_count(15, minus, 3))
    case("stabilizer order",
         checks.check_stabilizer([ident, swap], 2, 8, minus),
         checks.check_stabilizer([ident, swap], 3, 8, minus))
    case("stabilizer divides",
         checks.check_stabilizer([ident, swap], 2, 8, minus),
         checks.check_stabilizer([ident, swap], 2, 3, minus))
    case("stabilizer abelian",
         checks.check_stabilizer([ident, rot], 2, 8, minus),
         checks.check_stabilizer([ident, rot, swap], 3, 9, minus))
    case("stabilizer in C_W(w)",
         checks.check_stabilizer([ident, rot], 2, 4, rot),
         checks.check_stabilizer([ident, swap], 2, 4, rot))
    case("non-singular verdict", checks.check_verdict("x", True, True),
         checks.check_verdict("x", False, True))
    case("left kernel", checks.check_left_kernel([[True, False]]),
         checks.check_left_kernel([[True, False], [True, True]]))
    case("orbit sum", checks.check_orbit([True] * 3, [2, 1, 1], 4),
         checks.check_orbit([True] * 3, [1, 1, 1], 4))
    case("orbit verdict", checks.check_orbit([False, False], [], 4),
         checks.check_orbit([False, True], [1], 4))


def test_charsum():
    i = Cyc.zeta(4)
    case("reindex", checks.check_reindex([i, i, -i], [(0, 1)]),
         checks.check_reindex([i, i, -i], [(0, 1), (1, 2)]))
    case("delta reps", checks.check_delta_reps([[1, 1], [-1, -1]]),
         checks.check_delta_reps([[1, 1], [-1, 1]]))
    # the GF(3) and GF(9) Gauss sums: g(3) = i·sqrt(3), and -g(9) = (-g(3))^2
    g3 = Cyc.zeta(3) - Cyc.zeta(3, 2)
    g9 = Cyc.rational(3)
    case("g·conj(g) = q", checks.check_gauss(3, g3, g3.norm_square()),
         checks.check_gauss(5, g3, g3.norm_square()))
    case("Hasse–Davenport", checks.check_hasse_davenport(2, g9, g3),
         checks.check_hasse_davenport(2, -g9, g3))


def test_cli():
    def ok(payload):
        return json.dumps({"schema": 1, "status": "ok", "payload": payload})

    err = json.dumps({"schema": 1, "status": "error", "error": "X: y"})
    invalid = (["gauss", "--p", "4"], None, True)
    case("error contract",
         cli_batch.outcome(*invalid, 1, err)[1],
         cli_batch.outcome(*invalid, 1, "Traceback (most recent call last)")[1])
    case("error exit code", cli_batch.outcome(*invalid, 2, err)[1],
         cli_batch.outcome(*invalid, 0, err)[1])
    one = {"conductor": 1, "coeffs": ["1"]}
    minus_one = {"conductor": 1, "coeffs": ["-1"]}
    checks_by_command = [
        ("torus", cli_batch._check_torus(4),
         {"points": {"order": 4}}, {"points": {"order": 5}}),
        ("SL2 stabilizer", cli_batch._check_stabilizer("A", 1, ["1/2"]),
         {"abelian": True, "order": 2}, {"abelian": True, "order": 1}),
        ("stabilizer divides |W|", cli_batch._check_stabilizer("B", 2, ["0"]),
         {"abelian": True, "order": 4}, {"abelian": True, "order": 3}),
        ("bicharacter", cli_batch._check_bicharacter,
         {"stabilizer_order": 2, "table": {"w0@[0]": one, "w0@[1]": one,
                                           "w1@[0]": one,
                                           "w1@[1]": minus_one}},
         {"stabilizer_order": 2, "table": {"w0@[0]": one, "w0@[1]": one,
                                           "w1@[0]": one, "w1@[1]": one}}),
        ("packet", cli_batch._check_packet(["1/2"]),
         {"nonsingular": True, "packet_size": 2, "extension_count": 2},
         {"nonsingular": True, "packet_size": 1, "extension_count": 1}),
        ("GF(3)", cli_batch._check_gauss(3, 1),
         {"q": 3, "sum_times_conjugate": 3, "alternate_form_agrees": True,
          "normalized_value": {"conductor": 4, "coeffs": ["0", "1"]}},
         {"q": 3, "sum_times_conjugate": 3, "alternate_form_agrees": True,
          "normalized_value": {"conductor": 4, "coeffs": ["0", "-1"]}}),
        ("GF(5)", cli_batch._check_gauss(5, 1),
         {"q": 5, "sum_times_conjugate": 5, "alternate_form_agrees": True,
          "normalized_value": one},
         {"q": 5, "sum_times_conjugate": 4, "alternate_form_agrees": True,
          "normalized_value": one}),
        ("q8", cli_batch._check_cliff("q8", False),
         {"census": {"1": 4, "2": 1}, "mult_one": False},
         {"census": {"1": 4, "2": 1}, "mult_one": True}),
        ("cliff-oracle", cli_batch._check_cliff_oracle,
         {"degrees": [1, 1, 1, 1, 2], "classes": 5},
         {"degrees": [1, 1, 1, 1, 1], "classes": 5}),
        ("d2n", cli_batch._check_d2n(3, (1, 2)),
         {"ok": True, "commutator_trivial": True, "report": {"b": 2}},
         {"ok": True, "commutator_trivial": True, "report": {"b": 3}}),
        ("delta", cli_batch._check_delta,
         {"value": minus_one, "factors": {"[1]": -1}},
         {"value": {"conductor": 1, "coeffs": ["2"]}, "factors": {}}),
        ("theta-sum", cli_batch._check_theta_sum(2),
         {"weyl_set_size": 2}, {"weyl_set_size": 3}),
        ("cocycle-split", cli_batch._check_split(False),
         {"split": False}, {"split": True}),
        ("spin9", cli_batch._check_centralizer(32, True),
         {"fixed_torus": {"torsion": [2, 2, 2, 2]}, "omega_order": 2,
          "s_phi_order": 32, "mult_one": True},
         {"fixed_torus": {"torsion": [2, 2, 2, 2]}, "omega_order": 2,
          "s_phi_order": 32, "mult_one": False}),
        ("|S_phi| = |A|·|Omega|", cli_batch._check_centralizer(),
         {"fixed_torus": {"torsion": [2, 2]}, "omega_order": 4,
          "s_phi_order": 16, "mult_one": True},
         {"fixed_torus": {"torsion": [2, 2]}, "omega_order": 4,
          "s_phi_order": 32, "mult_one": True}),
    ]
    for name, check, good, bad in checks_by_command:
        case(name, cli_batch.outcome(["x"], check, None, 0, ok(good))[1],
             cli_batch.outcome(["x"], check, None, 0, ok(bad))[1])
    flags = ["theta-sum", "--type", "A", "--rank", "1", "--q", "3", "--theta",
             "1/4", "--gamma"]

    def value(v):
        return ok({"value": {"conductor": 1, "coeffs": [v]}})

    case("theta-sum pair",
         cli_batch.pair_problems([(flags + ["1/4"], value("2")),
                                  (flags + ["3/4"], value("2"))]) or None,
         cli_batch.pair_problems([(flags + ["1/4"], value("2")),
                                  (flags + ["3/4"], value("-2"))]) or None)
    if not cli_batch._is_quadratic(["1/2", "0"]) or cli_batch._is_quadratic(
            [Fraction(1, 4)]):
        FAILURES.append("quadratic character test")


def main():
    for test in (test_arithmetic, test_oracle, test_tori, test_charsum,
                 test_cli):
        test()
    for failure in FAILURES:
        print("FAIL", failure)
    print("selftest:", "failed" if FAILURES else "ok")
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
