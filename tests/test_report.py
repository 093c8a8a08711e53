import json

import pytest

from nervecheck.report import (FAIL, INCONCLUSIVE, PASS, CheckResult, Report,
                               jsonable)


def _report(verdicts):
    checks = [CheckResult(id=f"c{i}", claim="claim", verdict=v, wall_ms=1.5 * i)
              for i, v in enumerate(verdicts)]
    return Report(suite="demo", parameters={"n": 3}, checks=checks)


def test_verdict_is_validated():
    CheckResult(id="ok", claim="x", verdict=PASS)
    with pytest.raises(ValueError):
        CheckResult(id="bad", claim="x", verdict="MAYBE")


def test_jsonable_normalizes_containers():
    cert = {
        1: (2, 3),
        "s": {frozenset({1, 2}), frozenset({3})},
        "nested": {"t": (True, None)},
    }
    out = jsonable(cert)
    assert out["1"] == [2, 3]
    assert out["nested"]["t"] == [True, None]
    # sets become sorted lists so the canonical form is stable
    assert isinstance(out["s"], list)
    json.dumps(out)


def test_digest_ignores_wall_time():
    a = _report([PASS, PASS])
    b = _report([PASS, PASS])
    for c in b.checks:
        c.wall_ms += 1000.0
    assert a.digest() == b.digest()
    assert a.canonical() == b.canonical()


def test_digest_sees_certificates():
    a = _report([PASS])
    b = _report([PASS])
    b.checks[0].certificate = {"witness": "01"}
    assert a.digest() != b.digest()


def test_exit_codes():
    assert _report([PASS, PASS]).exit_code() == 0
    assert _report([PASS, FAIL, INCONCLUSIVE]).exit_code() == 1
    assert _report([PASS, INCONCLUSIVE]).exit_code() == 2
    assert _report([]).exit_code() == 1  # zero checks are never green


def test_to_json_carries_digest_and_counts():
    rep = _report([PASS, FAIL])
    data = rep.to_json()
    assert data["digest"] == rep.digest()
    assert data["counts"] == {PASS: 1, FAIL: 1, INCONCLUSIVE: 0}
    assert [c["wall_ms"] for c in data["checks"]] == [0.0, 1.5]
    json.dumps(data)


def test_lines_end_with_summary():
    rep = _report([PASS, FAIL])
    out = rep.lines()
    assert len(out) == 3
    assert out[0].startswith("PASS")
    assert out[1].startswith("FAIL")
    assert "2 checks, 1 passed, 1 failed, 0 inconclusive" in out[-1]
    assert rep.digest()[:16] in out[-1]
