"""The eleven acceptance criteria, one test each, with the stated bounds.

Each test prints a single pass/fail line; the same bodies back the CLI's
``sweep`` command.
"""

import pytest

from cuspidor import acceptance


def _run(idx, fn, **kw):
    res = fn(**kw)
    status = "PASS" if res["ok"] else "FAIL"
    bound = res.get("bound")
    limit = f" < {bound:.0f}s" if bound else ""
    print(f"[{status}] criterion {idx:2d} {res['name']} "
          f"({res['seconds']:.2f}s{limit})")
    assert res["ok"], res
    if bound is not None:
        assert res["seconds"] < bound, (res["name"], res["seconds"], bound)
    return res


def test_criterion_01_intro_table():
    _run(1, acceptance.criterion_1_table)


def test_criterion_02_d2n_commutators():
    res = _run(2, acceptance.criterion_2_d2n)
    assert res["detail"]["cases"] == 42


def test_criterion_03_oracle_equivalence():
    res = _run(3, acceptance.criterion_3_oracle)
    assert res["detail"]["descriptors"] >= 200
    assert res["detail"]["disagreements"] == 0


def test_criterion_04_q8():
    _run(4, acceptance.criterion_4_q8)


def test_criterion_05_spin9():
    _run(5, acceptance.criterion_5_spin9)


def test_criterion_06_biquadratic():
    _run(6, acceptance.criterion_6_biquadratic)


def test_criterion_07_gauss():
    res = _run(7, acceptance.criterion_7_gauss)
    assert res["detail"]["prime_powers"] == 35  # odd prime powers <= 121


def test_criterion_08_bicharacter():
    res = _run(8, acceptance.criterion_8_bicharacter)
    assert res["detail"]["d4_klein_q"] in (3, 5, 7)


def test_criterion_09_packet_counts():
    res = _run(9, acceptance.criterion_9_packets)
    assert res["detail"]["sizes"] == [1, 2]


def test_criterion_10_character_formula():
    # The full character identities are NOT desk-reproducible (both sides
    # need p-adic harmonic analysis); per the documented note these property
    # checks stand in for them.
    _run(10, acceptance.criterion_10_charformula)


def test_criterion_11_cocycle():
    _run(11, acceptance.criterion_11_cocycle)


def test_run_all_times_failures_and_keeps_sweeping(monkeypatch):
    import time
    ran = []

    def slow_failing_assertion():
        time.sleep(0.2)
        assert False, "slow failure"

    def value_error():
        time.sleep(0.01)
        raise ValueError("not an assertion")

    def last():
        ran.append(True)
        return {"name": "last", "ok": True, "seconds": 0.0, "bound": None,
                "detail": {}}

    monkeypatch.setattr(acceptance, "CRITERIA",
                        [slow_failing_assertion, value_error, last])
    results = acceptance.run_all()
    assert [r["ok"] for r in results] == [False, False, True]
    assert results[0]["seconds"] >= 0.2
    assert results[1]["seconds"] > 0
    assert "slow failure" in results[0]["detail"]["error"]
    assert "ValueError" in results[1]["detail"]["error"]
    assert ran == [True]


def _two_criteria(monkeypatch):
    def passing():
        return {"name": "passing", "ok": True, "seconds": 0.5, "bound": 60,
                "detail": {"count": 3}}

    def failing():
        raise ValueError("broken")

    monkeypatch.setattr(acceptance, "CRITERIA", [passing, failing])


def test_sweep_json_reports_each_criterion_and_the_host(monkeypatch, capsys):
    import json
    import platform

    import numpy

    from cuspidor import cli
    _two_criteria(monkeypatch)
    assert cli.main(["sweep", "--json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "ok"
    body = out["payload"]
    assert body["criteria"][0] == {"name": "passing", "ok": True,
                                   "seconds": 0.5, "bound": 60,
                                   "detail": {"count": 3}}
    failed = body["criteria"][1]
    assert set(failed) == {"name", "ok", "seconds", "bound", "detail"}
    assert (failed["name"], failed["ok"], failed["bound"]) == (
        "failing", False, None)
    assert "ValueError: broken" in failed["detail"]["error"]
    assert body["nproc"] >= 1
    assert body["python"] == platform.python_version()
    assert body["numpy"] == numpy.__version__


def test_sweep_without_json_prints_the_text_lines(monkeypatch, capsys):
    from cuspidor import cli
    _two_criteria(monkeypatch)
    assert cli.main(["sweep"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] criterion  1 passing (0.50s < 60s)",
        "[FAIL] criterion  2 failing (0.00s)"]
