import json
import subprocess
import sys

import pytest


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "cuspidor.cli", *args],
                          capture_output=True, text=True)
    return proc


def payload(proc):
    data = json.loads(proc.stdout)
    assert data["schema"] == 1
    return data


def test_table_check():
    proc = run_cli("table-check")
    assert proc.returncode == 0
    data = payload(proc)
    assert data["status"] == "ok"
    assert data["payload"]["ok"]


def test_torus_and_roundtrip():
    proc = run_cli("torus", "--type", "A", "--rank", "1", "--q", "3")
    assert proc.returncode == 0
    data = payload(proc)
    assert data["payload"]["points"]["invariant_factors"] == [4]
    # round-trip: the payload re-parses to an equal value
    assert json.loads(json.dumps(data)) == data


def test_stabilizer_and_packet_count():
    proc = run_cli("stabilizer", "--type", "A", "--rank", "1", "--q", "3",
                   "--theta", "1/2")
    data = payload(proc)
    assert data["payload"]["order"] == 2
    proc = run_cli("packet-count", "--type", "A", "--rank", "1", "--q", "3",
                   "--theta", "1/4")
    data = payload(proc)
    assert data["payload"]["packet_size"] == 1


@pytest.mark.parametrize("theta, want", [
    (["0", "0"], {"order": 8, "abelian": False, "cyclic": False,
                  "invariant_factors": [], "nonsingular": False}),
    (["1/4", "1/4"], {"order": 2, "abelian": True, "cyclic": True,
                      "invariant_factors": [2], "nonsingular": True}),
])
def test_stabilizer_payload_on_b2_minus_one(theta, want):
    proc = run_cli("stabilizer", "--type", "B", "--rank", "2",
                   "--weyl", "minus-one", "--q", "3", "--theta", *theta)
    assert proc.returncode == 0
    got = payload(proc)["payload"]
    assert {k: got[k] for k in want} == want


def _cyc(n):
    return {"coeffs": [str(n)], "conductor": 1}


@pytest.mark.parametrize("flags", [
    ["--type", "A", "--rank", "1", "--q", "3", "--theta", "1/2"],
    ["--type", "B", "--rank", "2", "--q", "3", "--theta", "1/4", "1/4"],
], ids=["A1", "B2"])
def test_bicharacter_payload(flags):
    # w0 = -1 pairs to -1 with the nontrivial cokernel class; w1 = 1 to 1
    proc = run_cli("bicharacter", *flags)
    assert proc.returncode == 0
    assert payload(proc) == {"schema": 1, "status": "ok", "payload": {
        "cokernel": [2], "stabilizer_order": 2,
        "table": {"w0@[0]": _cyc(1), "w0@[1]": _cyc(-1),
                  "w1@[0]": _cyc(1), "w1@[1]": _cyc(1)}}}


def test_packet_count_singular_is_domain_error():
    proc = run_cli("packet-count", "--type", "A", "--rank", "1", "--q", "3",
                   "--theta", "0")
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert data["status"] == "error"
    assert "SingularCharacter" in data["error"]


def test_gauss():
    proc = run_cli("gauss", "--p", "3")
    data = payload(proc)
    assert data["payload"]["sum_times_conjugate"] == 3
    assert data["payload"]["normalized_value"]["conductor"] == 4


def test_cliff_q8():
    proc = run_cli("cliff", "--fixture", "q8")
    data = payload(proc)
    assert data["payload"]["mult_one"] is False
    assert data["payload"]["census"] == {"1": 4, "2": 1}
    proc = run_cli("cliff-oracle", "--fixture", "q8")
    data = payload(proc)
    assert data["payload"]["degrees"] == [1, 1, 1, 1, 2]


def test_d2n():
    proc = run_cli("d2n", "--n", "2", "--q", "3", "--cycles", "1,1")
    data = payload(proc)
    assert data["payload"]["commutator_trivial"] is True
    proc = run_cli("d2n", "--n", "2", "--q", "3", "--cycles", "2")
    assert proc.returncode == 1


def test_centralizer_fixture():
    proc = run_cli("centralizer", "--fixture", "spin9")
    data = payload(proc)
    assert data["payload"]["s_phi_order"] == 32
    assert data["payload"]["mult_one"] is True


def test_delta_and_theta_sum():
    proc = run_cli("delta", "--type", "A", "--rank", "1", "--q", "3",
                   "--theta", "1/4", "--gamma", "1/4")
    data = payload(proc)
    assert data["payload"]["value"]["conductor"] == 1
    proc = run_cli("theta-sum", "--type", "A", "--rank", "1", "--q", "3",
                   "--theta", "1/4", "--gamma", "1/4")
    assert proc.returncode == 0


def test_usage_error_exit_code():
    proc = run_cli("no-such-command")
    assert proc.returncode == 2


def test_cocycle_split_file(tmp_path):
    # klein group, regular torsor, zero eta
    els = [[0, 0], [0, 1], [1, 0], [1, 1]]

    def mul(a, b):
        return [(a[0] + b[0]) % 2, (a[1] + b[1]) % 2]

    table = [[mul(a, b) for b in els] for a in els]
    action = [[a, u, mul(a, u)] for a in els for u in els]
    fam = {"group": {"elements": els, "table": table},
           "set": {"elements": els, "action": action},
           "eta": []}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(fam))
    proc = run_cli("cocycle-split", "--family", str(path))
    data = payload(proc)
    assert data["payload"]["split"] is True


def _domain_error(proc, name):
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert data["status"] == "error"
    assert name in data["error"]


def test_torus_even_q_is_domain_error():
    proc = run_cli("torus", "--type", "A", "--rank", "1", "--q", "4")
    _domain_error(proc, "InvalidPrimePower")


def test_stabilizer_bad_character_is_domain_error():
    proc = run_cli("stabilizer", "--type", "A", "--rank", "1", "--q", "3",
                   "--theta", "1/3")
    _domain_error(proc, "InvalidCharacter")


def test_torus_bad_weyl_matrix_is_domain_error():
    proc = run_cli("torus", "--type", "A", "--rank", "1", "--q", "3",
                   "--weyl", "[[2]]")
    _domain_error(proc, "InvalidWeylElement")


def test_gauss_even_p_is_domain_error():
    _domain_error(run_cli("gauss", "--p", "4"), "InvalidPrimePower")


def test_cliff_missing_fixture_is_domain_error(tmp_path):
    proc = run_cli("cliff", "--fixture", str(tmp_path / "no-such.json"))
    _domain_error(proc, "InvalidFixture")


def test_cliff_oracle_unreadable_fixture_is_domain_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    _domain_error(run_cli("cliff-oracle", "--fixture", str(path)),
                  "InvalidFixture")


def test_cliff_rejected_descriptor_is_domain_error(tmp_path):
    # multiplication by 2 is not an automorphism of Z/4
    path = tmp_path / "bad-action.json"
    path.write_text(json.dumps({"A": [4], "C": [2], "action": [[[2]]],
                                "cocycle": []}))
    _domain_error(run_cli("cliff", "--fixture", str(path)), "InvalidFixture")


def test_cliff_rejects_a_cocycle_broken_off_the_old_sample(tmp_path):
    # the carry cocycle of Z/4 -> Z/128 -> Z/64 with z(2, 11) flipped: the
    # 2-cocycle identity fails at (1, 1, 11), among others
    cocycle = [[[c1], [c2], [1]] for c1 in range(64) for c2 in range(64)
               if c1 + c2 >= 64]
    cocycle.append([[2], [11], [1]])
    path = tmp_path / "z64.json"
    path.write_text(json.dumps({"A": [2], "C": [64], "action": [[[1]]],
                                "cocycle": cocycle}))
    _domain_error(run_cli("cliff", "--fixture", str(path)), "InvalidFixture")


def test_cliff_oracle_reduces_an_unreduced_cocycle_value(tmp_path):
    # z(1, 1) = 5 is the element 1 of Z/2: the group is Z/4 either way
    outputs = []
    for value in (5, 1):
        path = tmp_path / f"z{value}.json"
        path.write_text(json.dumps({"A": [2], "C": [2], "action": [[[1]]],
                                    "cocycle": [[[1], [1], [value]]]}))
        for command in ("cliff", "cliff-oracle"):
            proc = run_cli(command, "--fixture", str(path))
            assert proc.returncode == 0, proc.stderr
            outputs.append(payload(proc)["payload"])
    assert outputs[:2] == outputs[2:]
    assert outputs[0]["census"] == {"1": 4}
    assert outputs[1]["degrees"] == [1, 1, 1, 1]


@pytest.mark.parametrize("entry", [[[3], [1], [1]], [[1], [1], [1, 0]]],
                         ids=["key-not-in-C", "value-of-wrong-length"])
@pytest.mark.parametrize("command", ["cliff", "cliff-oracle"])
def test_cliff_malformed_cocycle_entry_is_domain_error(tmp_path, command,
                                                       entry):
    path = tmp_path / "bad-cocycle.json"
    path.write_text(json.dumps({"A": [2], "C": [2], "action": [[[1]]],
                                "cocycle": [entry]}))
    _domain_error(run_cli(command, "--fixture", str(path)), "InvalidFixture")


def test_d2n_negative_q_is_domain_error():
    proc = run_cli("d2n", "--n", "2", "--q", "-3", "--cycles", "1,1")
    _domain_error(proc, "InvalidCycleType")


@pytest.mark.parametrize("command,flag", [("centralizer", "--fixture"),
                                          ("cocycle-split", "--family")])
@pytest.mark.parametrize("content", [None, "{}"])
def test_unreadable_fixture_is_domain_error(tmp_path, command, flag, content):
    path = tmp_path / "fixture.json"
    if content is not None:
        path.write_text(content)
    _domain_error(run_cli(command, flag, str(path)), "InvalidFixture")


def test_centralizer_coroot_outside_the_cocharacter_lattice(tmp_path):
    # X = (1/2)Z holds the roots ±2, but X^vee = 2Z does not hold ±1
    datum = {"root_datum": {"type": "A1", "rank": 1,
                            "lattice": {"basis": [["1/2"]]},
                            "roots": [[2], [-2]], "coroots": [[1], [-1]],
                            "simple": [0]},
             "generators": [{"torus": ["1/2"], "weyl": [[1]],
                             "outer": [[1]]}],
             "relations": [], "label": "half-lattice"}
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    proc = run_cli("centralizer", "--fixture", str(path))
    _domain_error(proc, "InvalidLattice")
    assert "coroot outside the cocharacter lattice" in payload(proc)["error"]


def _spin9_json():
    import importlib.resources as res
    return json.loads(
        (res.files("cuspidor") / "fixtures" / "spin9.json").read_text())


@pytest.mark.parametrize("field,value", [
    ("generators", []),
    ("relations", [["conj_power", 1, 2, 11]]),
    ("relations", [[]])],
    ids=["no-generators", "relation-past-the-generators", "empty-relation"])
def test_centralizer_malformed_datum_is_domain_error(tmp_path, field, value):
    datum = _spin9_json()
    datum[field] = value
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    _domain_error(run_cli("centralizer", "--fixture", str(path)),
                  "InvalidFixture")


def _family(elements, table, points, action, eta=()):
    return {"group": {"elements": elements, "table": table},
            "set": {"elements": points, "action": action}, "eta": list(eta)}


Z2_TABLE = [[[0], [1]], [[1], [0]]]
TEN_POINTS = [[i] for i in range(10)]
Z2_REGULAR_ACTION = [[[g], [u], [(g + u) % 2]] for g in range(2)
                     for u in range(2)]


@pytest.mark.parametrize("family", [
    # the identity swaps the two points
    _family([[0], [1]], Z2_TABLE, [[0], [1]],
            [[[g], [u], [1 - u]] for g in range(2) for u in range(2)]),
    # the Cech identity fails at (1, 8, 9, 0), past the eighth point
    _family([[0]], [[[0]]], TEN_POINTS, [[[0], u, u] for u in TEN_POINTS],
            [[[8], [9], [0], "1/2"]]),
    # no identity element
    _family([[0], [1]], [[[0], [0]], [[0], [0]]], [], []),
    # 1 has no inverse
    _family([[0], [1]], [[[0], [1]], [[1], [1]]], [], []),
    # one row for two elements
    _family([[0], [1]], Z2_TABLE[:1], [], []),
    # the regular Z/2 family with an eta entry at a point outside X
    _family([[0], [1]], Z2_TABLE, [[0], [1]], Z2_REGULAR_ACTION,
            [[[0], [1], [7], "1/2"]]),
    # the regular Z/2 family with an action entry for a point outside X
    _family([[0], [1]], Z2_TABLE, [[0], [1]],
            Z2_REGULAR_ACTION + [[[0], [5], [5]]]),
], ids=["identity-moves-points", "cech-past-point-8", "no-identity",
        "no-inverse", "missing-row", "eta-off-x", "action-off-x"])
def test_cocycle_split_invalid_family_is_domain_error(tmp_path, family):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    proc = run_cli("cocycle-split", "--family", str(path))
    _domain_error(proc, "InvalidFixture")
    assert "Traceback" not in proc.stderr


def _usage_error(proc, flag):
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"argument {flag}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_malformed_cycles_is_usage_error():
    _usage_error(run_cli("d2n", "--n", "2", "--q", "3", "--cycles", "x"),
                 "--cycles")


def test_malformed_theta_is_usage_error():
    _usage_error(run_cli("stabilizer", "--type", "A", "--rank", "1",
                         "--q", "3", "--theta", "abc"), "--theta")


def test_malformed_gamma_is_usage_error():
    _usage_error(run_cli("delta", "--type", "A", "--rank", "1", "--q", "3",
                         "--theta", "1/4", "--gamma", "zz"), "--gamma")


def test_unknown_lattice_is_usage_error():
    _usage_error(run_cli("torus", "--type", "A", "--rank", "1", "--q", "3",
                         "--lattice", "foo"), "--lattice")


def test_malformed_weyl_is_usage_error():
    _usage_error(run_cli("torus", "--type", "A", "--rank", "1", "--q", "3",
                         "--weyl", "foo"), "--weyl")


@pytest.mark.parametrize("command", ["delta", "theta-sum"])
def test_gamma_of_wrong_length_is_domain_error(command):
    proc = run_cli(command, "--type", "A", "--rank", "1", "--q", "3",
                   "--theta", "1/4", "--gamma", "1/4", "1/2")
    _domain_error(proc, "InvalidPoint")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["delta", "theta-sum"])
def test_gamma_outside_rational_points_is_domain_error(command):
    # S(k) = ker(F - 1) = (1/4)Z/Z for the SL2 torus with w = -1 at q = 3
    proc = run_cli(command, "--type", "A", "--rank", "1", "--q", "3",
                   "--theta", "1/4", "--gamma", "1/8")
    _domain_error(proc, "InvalidPoint")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("degree", ["-1", "0"])
def test_nonpositive_degree_is_usage_error(degree):
    _usage_error(run_cli("torus", "--type", "A", "--rank", "1", "--q", "3",
                         f"--degree={degree}"), "--degree")


@pytest.mark.parametrize("kind,rank,h", [
    ("A", 1, 2), ("A", 2, 3), ("A", 3, 4), ("A", 4, 5), ("B", 2, 4),
    ("B", 3, 6), ("B", 4, 8), ("B", 5, 10), ("B", 6, 12), ("C", 2, 4),
    ("C", 3, 6), ("C", 4, 8), ("C", 5, 10), ("D", 4, 6), ("D", 5, 8)])
def test_weyl_coxeter_is_an_elliptic_element_of_order_h(kind, rank, h):
    from types import SimpleNamespace

    from cuspidor import cli
    args = SimpleNamespace(type=kind, rank=rank, lattice="sc", weyl="coxeter",
                           q=3)
    w = cli._load_torus(args).w
    assert w.order == h
    assert w.is_elliptic()
