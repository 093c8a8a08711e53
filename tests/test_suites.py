import os
import pickle
import re
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nervecheck.battery import functor_battery
from nervecheck.bits import bits, from_digits
from nervecheck.homotopy import Complex, contractibility_verdict, strong_collapse
from nervecheck.oriental import comparable_pairs
from nervecheck.poset import Poset, nerve_chains, strict_interval
from nervecheck.report import FAIL, PASS
from nervecheck.suites import (SUITES, Check, UsageError, _dp, _execute,
                               _poset_complex, _theorem_check, build_suite,
                               normalize_params, run_suite)
from oracles import clique_graph_oracle


def test_registry_names():
    assert set(SUITES) == {
        "theorem-contractible", "lemma-distant", "lemma-close",
        "lemma-admissible", "lemma-colimit", "adjoint-lambda",
        "oracle-flag-necklace", "nerve-comparison", "nerve-definition",
        "straightening-fragment", "reduced-lifting", "base-change",
    }


def test_readme_suite_table_names_every_suite():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| suite | claim checked |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    rows = [re.match(r"\| `([a-z-]+)` \|", line) for line in table.splitlines()]
    assert None not in rows
    assert sorted(m[1] for m in rows) == sorted(SUITES)


def test_nerve_definition_holds_on_every_shipped_spec():
    rep = run_suite("nerve-definition")
    names = [name for name, _ in functor_battery()]
    assert [c.id for c in rep.checks] == [*names, "oriental-two", "three-chain"]
    assert {c.verdict for c in rep.checks} == {PASS}
    for c in rep.checks:
        cert = c.certificate
        assert len(cert["candidates"]) == 4 and cert["valid"] == cert["candidates"]
        assert "invalid" not in cert
    assert rep.checks[-2].certificate["candidates"] == [6, 19, 49, 116]
    assert sum(sum(c.certificate["candidates"]) for c in rep.checks) == 1253


def test_unknown_suite_rejected():
    with pytest.raises(UsageError):
        normalize_params("no-such-suite", {})


def test_option_the_suite_does_not_take_is_rejected():
    with pytest.raises(UsageError, match="base-change takes no --n"):
        normalize_params("base-change", {"n": 3})
    with pytest.raises(UsageError, match="lemma-distant takes no --deep, --seed"):
        run_suite("lemma-distant", {"n": 2, "seed": 1, "deep": True})


def test_theorem_grid_at_n2():
    rep = run_suite("theorem-contractible", {"n": 2})
    # D^2 is a 4-chain: 10 comparable pairs including equalities, one inner i
    assert len(rep.checks) == 10
    assert rep.exit_code() == 0
    assert all(c.verdict == PASS for c in rep.checks)
    assert rep.parameters["n"] == 2


# every (horn, strict pair) row of D^5: 301 strict pairs times i = 1..4
FULL_N5 = "7d1bab2a1b6857f88f8fee12ab58f6766b76c85fd4731a694dadd640150922e8"


@pytest.mark.slow
def test_the_full_n5_theorem_grid_passes():
    rep = run_suite("theorem-contractible", {"deep": True, "n": 5, "samples": 301}, jobs=2)
    assert len(rep.checks) == 1204
    assert all(c.verdict == PASS for c in rep.checks)
    methods = Counter(c.certificate["method"] for c in rep.checks)
    assert methods == {"strong-collapse": 1201, "acyclic-simply-connected": 3}
    assert rep.digest() == FULL_N5


@pytest.mark.slow
def test_the_n6_row_012_056_collapses_to_its_certificate():
    # 10,517 vertices: the first n=6 row under test, where retrying only
    # what a removal can unblock saves the most
    verdict, cert = _theorem_check(6, 3, from_digits("012"), from_digits("056"))
    assert verdict == PASS
    assert (cert["method"], cert["removed"], cert["vertex"]) == (
        "strong-collapse", 10_516, 15060318631051165832)


def listed_order_complex(p):
    """The order complex of p with every chain listed."""
    return Complex(tuple(bits(c)) for c in nerve_chains(p))


@st.composite
def small_posets(draw):
    """A poset on 0..n-1, n <= 8: the transitive closure of random pairs
    a < b of a random order, so the index order is often no linear
    extension."""
    n = draw(st.integers(min_value=0, max_value=8))
    order = draw(st.permutations(range(n)))
    ups = [1 << i for i in range(n)]
    for a, b in combinations(range(n), 2):
        if draw(st.booleans()):
            ups[order[a]] |= 1 << order[b]
    for i in reversed(order):  # the elements above i are closed already
        for j in bits(ups[i] & ~(1 << i)):
            ups[i] |= ups[j]
    return Poset(range(n), ups)


def test_order_complexes_from_counts_match_the_listed_route():
    unsorted = []

    @settings(max_examples=200, deadline=None)
    @given(small_posets())
    def check(p):
        unsorted.append(any(up & ((1 << i) - 1) for i, up in enumerate(p.up_masks)))
        lazy, eager = _poset_complex(p), listed_order_complex(p)
        assert lazy.strata is None
        assert lazy.counts == eager.counts
        if len(p):  # the walk refuses a complex with no strata
            assert lazy.graph == clique_graph_oracle(eager.strata)
        assert contractibility_verdict(lazy) == contractibility_verdict(eager)
    check()
    assert any(unsorted)


def test_the_crown_closes_its_core_on_both_routes():
    # a1, a2 < b1, b2: the order complex is a 4-cycle with no dominated
    # vertex, so the verdict on the graph alone closes the core itself
    crown = Poset(["a1", "a2", "b1", "b2"], [0b1101, 0b1110, 0b0100, 0b1000])
    lazy = _poset_complex(crown)
    assert lazy.strata is None and strong_collapse(lazy).removed == 0
    for cx in (lazy, listed_order_complex(crown)):
        v = contractibility_verdict(cx)
        assert (v.status, v.method, v.detail) == ("NotContractible", "homology", {
            "degree": 1, "betti": 1, "torsion": [], "core_cells": 8})


@pytest.mark.slow
def test_the_n6_distant_intervals_get_the_listed_route_verdicts():
    dp = _dp(6)
    distant = [(s, t) for s, t in comparable_pairs(dp) if not dp.geometry.close(s, t)]
    assert len(distant) == 503
    for s, t in distant:
        g = strict_interval(dp.poset, s, t)
        assert contractibility_verdict(_poset_complex(g)) == \
            contractibility_verdict(listed_order_complex(g)), (s, t)


def test_theorem_needs_deep_for_large_n():
    with pytest.raises(UsageError):
        run_suite("theorem-contractible", {"n": 5})


def test_distant_pairs_at_n2_all_pass():
    rep = run_suite("lemma-distant", {"n": 2})
    assert sorted(c.id for c in rep.checks) == ["n2/0-012", "n2/0-02", "n2/01-02"]
    assert all(c.verdict == PASS for c in rep.checks)


def test_admissible_suite_vacuous_at_n2():
    rep = run_suite("lemma-admissible", {"n": 2})
    assert len(rep.checks) == 1
    only = rep.checks[0]
    assert only.id == "n2"
    assert only.verdict == PASS
    assert only.certificate == {"instances": 0}


def test_oracle_suite_at_n2():
    rep = run_suite("oracle-flag-necklace", {"n": 2})
    assert [c.id for c in rep.checks] == ["d2/horn-1", "d2/full"]
    assert rep.exit_code() == 0


def test_oracle_suite_deep_covers_n4():
    rep = run_suite("oracle-flag-necklace", {"n": 4, "deep": True})
    assert [c.id for c in rep.checks] == ["d4/horn-1", "d4/horn-2", "d4/horn-3", "d4/full"]
    assert all(c.verdict == PASS and c.certificate["pairs"] > 0 for c in rep.checks)
    assert rep.parameters["deep"] is True
    with pytest.raises(UsageError):
        run_suite("oracle-flag-necklace", {"n": 4})


def test_straightening_includes_horn_shape():
    rep = run_suite("straightening-fragment", {"n": 1})
    by_id = {c.id: c for c in rep.checks}
    assert set(by_id) == {"n1/i0/j0", "n1/i0/j1", "n1/i1/j1", "n1/horn-shape"}
    assert by_id["n1/horn-shape"].verdict == PASS


def test_base_change_fixed_battery():
    rep = run_suite("base-change")
    assert len(rep.checks) == 6
    assert all(c.verdict == PASS for c in rep.checks)


def test_reduced_lifting_rejects_missing_level():
    with pytest.raises(UsageError):
        run_suite("reduced-lifting", {"n": 7})


def test_parallel_run_matches_serial_digest():
    serial = run_suite("lemma-distant", {"n": 3})
    parallel = run_suite("lemma-distant", {"n": 3}, jobs=3)
    assert serial.digest() == parallel.digest()
    assert [c.id for c in serial.checks] == [c.id for c in parallel.checks]


@pytest.mark.parametrize("suite, params", [
    *((name, {}) for name in sorted(SUITES)),
    ("theorem-contractible", {"n": 5, "deep": True}),
], ids=[*sorted(SUITES), "theorem-deep-n5"])
def test_checks_pickle(suite, params):
    # worker processes receive each check by pickle; no check runs here
    checks = build_suite(suite, normalize_params(suite, params))
    assert checks
    assert len(pickle.loads(pickle.dumps(checks))) == len(checks)


def test_worker_count_is_capped_at_the_cores(monkeypatch):
    import concurrent.futures

    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    rep = run_suite("lemma-distant", {"n": 2}, jobs=10**6)
    assert len(rep.checks) == 3
    cap = min(3, os.cpu_count() or 1)
    assert asked == ([cap] if cap > 1 else [])
    assert rep.digest() == run_suite("lemma-distant", {"n": 2}).digest()


def test_execute_captures_exceptions_as_fail():
    def boom():
        raise RuntimeError("no such thing")

    res = _execute(Check(id="x", claim="never", fn=boom))
    assert res.verdict == FAIL
    assert "RuntimeError" in res.certificate["error"]
    assert res.wall_ms >= 0.0


def test_normalize_fills_suite_defaults():
    p = normalize_params("lemma-colimit", {})
    assert p["count"] == 25
    q = normalize_params("oracle-flag-necklace", {"count": 4})
    assert q["count"] == 4
