"""Verification suites: named parameter grids of machine checks.

Each suite builds a deterministic, parameter-lexicographic list of
checks.  A check is data: a module-level function and a tuple of plain,
picklable arguments.  run_suite executes them (optionally on a pool of
worker processes, at most one per core, merged back in construction
order) and returns a Report.  A check that raises becomes a FAIL whose
certificate carries the exception, so one broken instance never takes
down the rest of a sweep.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from typing import Callable

from .battery import (DEFAULT_SEED, chain3_spec, functor_battery, lifting_battery,
                      oriental_two_spec, seeded_diagrams, seeded_pairs,
                      seeded_subcomplexes)
from .bits import bits, digits, interval_mask, max_bit
from .category import CatFunctor, FiniteCategory, chain_category
from .groth import grothendieck_poset
from .homotopy import Complex, Verdict, contractibility_verdict
from .horn import (a_elements, admissible_and_superior, is_admissible,
                   l_complex, phi_on_objects)
from .lifting import reduced_lifting_check
from .mapping import flag_model, necklace_oracle, square_chain_poset
from .nerves import (Rel2Backend, base_change_check, chi_groth_comparison,
                     pi_star_check, relative_nerve_1, relative_nerve_2)
from .oriental import DPoset, build_d, comparable_pairs, standard_interval
from .poset import ChainSubcomplex, Poset, nerve_chains, strict_interval
from .report import FAIL, INCONCLUSIVE, PASS, CheckResult, Report
from .simplicial import SimplexTable, horn_fill_check

SUITES: dict[str, Callable] = {}


@dataclass
class Check:
    """Run as fn(*args); fn is module-level so the check can be pickled."""
    id: str
    claim: str
    fn: Callable[..., tuple[str, dict]]
    args: tuple = ()


def _suite(name, **params):
    """Register a suite builder with the parameters it takes and their
    defaults.  A report names each parameter whose value is not None."""
    def wrap(fn):
        fn.params = params
        SUITES[name] = fn
        return fn
    return wrap


@lru_cache(maxsize=None)
def _dp(n: int) -> DPoset:
    return build_d(standard_interval(n))


@lru_cache(maxsize=None)
def _horn(n: int, i: int) -> ChainSubcomplex:
    return l_complex(n, i, _dp(n))


def _poset_complex(p: Poset) -> Complex:
    """The order complex of p: the clique complex of its comparability
    graph.  sizes[i][m] counts the chains of m + 1 elements topped by i,
    summed up a linear extension, so no chain is listed."""
    downs, sizes = p.down_masks, [[]] * len(p)
    for i in sorted(range(len(p)), key=p.topo_rank.__getitem__):
        below = (sizes[j] for j in bits(downs[i] ^ 1 << i))
        sizes[i] = [1, *map(sum, zip_longest(*below, fillvalue=0))]
    graph = [(u | d) >> (i + 1) << (i + 1) for i, (u, d) in enumerate(zip(p.up_masks, downs))]
    return Complex(labels=list(range(len(p))), graph=graph,
                   counts=list(map(sum, zip_longest(*sizes, fillvalue=0))))


def _poset_verdict(p: Poset) -> Verdict:
    return contractibility_verdict(_poset_complex(p))


def _from_verdict(v: Verdict, extra: dict | None = None) -> tuple[str, dict]:
    by_status = {"Contractible": PASS, "NotContractible": FAIL,
                 "Inconclusive": INCONCLUSIVE}
    cert = {"status": v.status, "method": v.method}
    cert.update(v.detail)
    if extra:
        cert.update(extra)
    return by_status[v.status], cert


def _no_instances() -> tuple[str, dict]:
    return PASS, {"instances": 0}


def _interval(dp: DPoset, s: int, t: int) -> list[int]:
    p = dp.poset
    return [p.elements[k] for k in bits(p.between(p.index[s], p.index[t]))]


def _ns(params: dict, lo: int, hi: int, deep_hi: int | None = None) -> list[int]:
    top = deep_hi if (deep_hi and params.get("deep")) else hi
    n = params.get("n")
    if n is None:
        return list(range(lo, top + 1))
    if not lo <= n <= top:
        extra = " (or --deep for larger n)" if deep_hi and not params.get("deep") else ""
        raise UsageError(f"--n must lie in [{lo}, {top}]{extra}")
    return [n]


class UsageError(ValueError):
    """Malformed suite parameters; callers map this to exit code 64."""


# ---------------------------------------------------------------- suites

CLAIM_THEOREM = "mapping space of the inner-horn complex is contractible"


@_suite("theorem-contractible", n=None, deep=False, seed=DEFAULT_SEED, samples=6)
def _theorem(params: dict) -> list[Check]:
    checks = []
    for n in _ns(params, 2, 4, deep_hi=5):
        if n <= 4:
            pairs = comparable_pairs(_dp(n), strict=False)
        else:
            pairs = sorted(seeded_pairs(n, params["samples"], params["seed"]))
        for i in range(1, n):
            for s, t in pairs:
                checks.append(Check(
                    f"n{n}/i{i}/{digits(s)}-{digits(t)}", CLAIM_THEOREM,
                    _theorem_check, (n, i, s, t)))
    return checks


def _theorem_check(n, i, s, t):
    fm = flag_model(_horn(n, i), s, t)
    return _from_verdict(contractibility_verdict(fm.to_complex()),
                         {"simplices": fm.counts()})


CLAIM_DISTANT = "open interval between a distant pair is contractible"


@_suite("lemma-distant", n=None)
def _distant(params: dict) -> list[Check]:
    checks = []
    for n in _ns(params, 2, 4):
        dp = _dp(n)
        found = [(s, t) for s, t in comparable_pairs(dp) if not dp.geometry.close(s, t)]
        if not found:
            checks.append(Check(
                f"n{n}", "no distant comparable pairs at this size",
                _no_instances))
        for s, t in found:
            checks.append(Check(
                f"n{n}/{digits(s)}-{digits(t)}", CLAIM_DISTANT,
                _distant_check, (n, s, t)))
    return checks


def _distant_check(n, s, t):
    g = strict_interval(_dp(n).poset, s, t)
    return _from_verdict(_poset_verdict(g), {"interior": len(g)})


CLAIM_CLOSE = "a candidate admissible face covers the closed interval"


@_suite("lemma-close", n=None)
def _close(params: dict) -> list[Check]:
    checks = []
    for n in _ns(params, 2, 4):
        dp = _dp(n)
        for s, t in comparable_pairs(dp):
            if dp.geometry.close(s, t):
                checks.append(Check(
                    f"n{n}/{digits(s)}-{digits(t)}", CLAIM_CLOSE,
                    _close_check, (n, s, t)))
    return checks


def _close_check(n, s, t):
    # the three unit-cube faces from the covering argument
    dp = _dp(n)
    full = standard_interval(n)
    candidates = [full & ~(1 << n), (0b11 << (n - 1)), 1 << n]
    interval = set(_interval(dp, s, t))
    inner = range(1, n)
    for j in candidates:
        if interval <= set(a_elements(dp, j)):
            if not all(is_admissible(j, n, i) for i in inner):
                continue
            return PASS, {"witness": digits(j),
                          "interval": len(interval),
                          "admissible_for_all_inner": True}
    return FAIL, {"reason": "no candidate face covers the interval",
                  "candidates": [digits(j) for j in candidates]}


CLAIM_ADMISSIBLE = "interval slices through superior faces stay contractible"


@_suite("lemma-admissible", n=None)
def _admissible(params: dict) -> list[Check]:
    checks = []
    for n in _ns(params, 2, 4):
        dp = _dp(n)
        found = []
        for i in range(1, n):
            sup = admissible_and_superior(n, i).superior
            amem = {j: frozenset(a_elements(dp, j)) for j in sup}
            for s, t in comparable_pairs(dp):
                interval = set(_interval(dp, s, t))
                u = [j for j in sup if s in amem[j] and t in amem[j]]
                if u and not any(interval <= amem[j] for j in u):
                    found.append((i, s, t, tuple(u)))
        if not found:
            checks.append(Check(
                f"n{n}", "no hybrid-case instances at this size",
                _no_instances))
        for i, s, t, u in found:
            checks.append(Check(
                f"n{n}/i{i}/{digits(s)}-{digits(t)}", CLAIM_ADMISSIBLE,
                _admissible_check, (n, i, s, t, u)))
    return checks


def _admissible_check(n, i, s, t, u):
    dp = _dp(n)
    full = standard_interval(n)
    amem = {j: frozenset(a_elements(dp, j)) for j in u}
    # every eligible superior face must be a punctured interval
    # avoiding i and n, with the puncture above max(S)
    shape_ok = all(
        bin(full & ~j).count("1") == 1
        and max_bit(full & ~j) > max_bit(s)
        and full & ~j != 1 << n and full & ~j != 1 << i
        for j in u)
    verdicts = {}
    worst = PASS
    for pick in range(1 << len(u)):
        jbar = [u[k] for k in range(len(u)) if (pick >> k) & 1]
        members = [v for v in _interval(dp, s, t) if v not in (s, t)
                   and all(v in amem[j] for j in jbar)]
        g = dp.poset.full_subposet(members)
        v = _poset_verdict(g)
        label = "+".join(digits(j) for j in jbar) or "none"
        verdicts[label] = v.status
        if v.status == "NotContractible":
            worst = FAIL
        elif v.status == "Inconclusive" and worst == PASS:
            worst = INCONCLUSIVE
    if not shape_ok:
        worst = FAIL
    cert = {"superior": [digits(j) for j in u], "shape_ok": shape_ok,
            "families": len(verdicts), "verdicts": verdicts}
    return worst, cert


CLAIM_COLIMIT = "total poset of a contractible diagram is contractible"


@_suite("lemma-colimit", count=25, seed=DEFAULT_SEED)
def _colimit(params: dict) -> list[Check]:
    diagrams = seeded_diagrams(params["count"], params["seed"])
    return [Check(f"diagram/{idx:02d}", CLAIM_COLIMIT,
                  _colimit_check, (trip,))
            for idx, trip in enumerate(diagrams)]


def _colimit_check(trip):
    base, values, transport = trip
    inputs_ok = _poset_verdict(base).status == "Contractible"
    for p in base.elements:
        if _poset_verdict(values[p]).status != "Contractible":
            inputs_ok = False
    total = grothendieck_poset(base, values, transport)
    v = _poset_verdict(total)
    cert = {"base_elements": len(base),
            "value_sizes": [len(values[p]) for p in base.elements],
            "total_elements": len(total),
            "inputs_contractible": inputs_ok,
            "total": v.status}
    if not inputs_ok:
        return FAIL, cert
    return _from_verdict(v, cert)[0], cert


CLAIM_ADJOINT = "horn image agrees with the expected level"


@_suite("adjoint-lambda", n=None)
def _adjoint(params: dict) -> list[Check]:
    checks = []
    for n in _ns(params, 2, 4):
        for i in range(1, n):
            for j in range(n + 1):
                checks.append(Check(
                    f"n{n}/i{i}/j{j}", CLAIM_ADJOINT,
                    _adjoint_check, (n, i, j)))
    return checks


def _adjoint_check(n, i, j):
    restricted, full = phi_on_objects(n, i, j)
    if j > 0:
        expected = set(full.chains)
        label = "full nerve over the truncated ground set"
    else:
        expected = set(_horn(n, i).chains)
        label = "horn subcomplex"
    got = set(restricted.chains)
    ok = got == expected
    cert = {"chains": len(got), "expected": len(expected),
            "matches": label}
    return (PASS if ok else FAIL), cert


CLAIM_ORACLE = "flag model agrees with the necklace oracle on every pair"


# deep=None: the suite took --deep after its default digest was fixed,
# and a report that leaves an unset deep unnamed keeps that digest
@_suite("oracle-flag-necklace", n=None, count=20, seed=DEFAULT_SEED, deep=None)
def _oracle(params: dict) -> list[Check]:
    checks = []
    ns = _ns(params, 2, 3, deep_hi=4)
    for n in ns:
        for i in range(1, n):
            checks.append(Check(f"d{n}/horn-{i}", CLAIM_ORACLE,
                                _oracle_check, (n, _horn(n, i))))
        dp = _dp(n)
        full = ChainSubcomplex(dp.poset, nerve_chains(dp.poset), validate=False)
        checks.append(Check(f"d{n}/full", CLAIM_ORACLE, _oracle_check, (n, full)))
    if 3 in ns:
        subs = seeded_subcomplexes(3, params["count"], params["seed"])
        for idx, k in enumerate(subs):
            checks.append(Check(f"d3/seeded-{idx:02d}", CLAIM_ORACLE,
                                _oracle_check, (3, k)))
    return checks


def _oracle_check(n, k):
    dp = _dp(n)
    verts = {dp.poset.elements[b] for b in k.vertices()}
    mismatches = []
    pairs = 0
    for s, t in comparable_pairs(dp, strict=False):
        if s not in verts or t not in verts:
            continue
        pairs += 1
        fm = flag_model(k, s, t)
        no = necklace_oracle(k, s, t)
        if not fm.same_simplices(no):
            mismatches.append(f"{digits(s)}-{digits(t)}")
    cert = {"pairs": pairs, "mismatches": mismatches}
    return (PASS if not mismatches else FAIL), cert


class SpecTables:
    """The family-nerve tables of the spec its checks last asked for.

    get(build, spec, dim) returns build(spec, dim), or the table an
    earlier call built at least that high; asking about another spec
    drops the tables held.  The checks of one spec share the tables of
    one object, and a run holds at most one spec's tables at a time.
    """

    def __init__(self):
        self.spec, self.tables = None, {}

    def get(self, build, spec, dim: int) -> SimplexTable:
        if spec is not self.spec:
            self.spec, self.tables = spec, {}
        table = self.tables.get(build)
        if table is None or table.dim < dim:
            table = self.tables[build] = build(spec, dim)
        return table


@_suite("nerve-comparison")
def _nerve_cmp(params: dict) -> list[Check]:
    checks = []
    tables = SpecTables()
    for name, sp in functor_battery():
        checks.append(Check(
            f"{name}/total-category",
            "family nerve matches the nerve of the total category",
            _groth_check, (sp, 4, tables)))
        checks.append(Check(
            f"{name}/comparison-map",
            "comparison map is simplicial, marked, and injective low down",
            _pi_star_check, (sp, 3, tables)))
        checks.append(Check(
            f"{name}/horn-fillers",
            "inner horns of the functor-family nerve fill",
            _horn_fill_check, (sp, tables)))
        if name == "point-arrow":
            checks.append(Check(
                f"{name}/comparison-over-point",
                "comparison map is bijective through dimension 2",
                _pi_star_point_check, (sp, tables)))
    return checks


def _groth_check(sp, dim, tables):
    rep = chi_groth_comparison(tables.get(relative_nerve_1, sp, dim), dim)
    ok = rep["bijective"] and rep["faces_commute"]
    return (PASS if ok else FAIL), rep


def _pi_star(sp, dim, tables):
    return pi_star_check(tables.get(relative_nerve_1, sp, dim),
                         tables.get(relative_nerve_2, sp, dim), dim)


def _pi_star_check(sp, dim, tables):
    rep = _pi_star(sp, dim, tables)
    flags = (rep["well_defined"] and rep["faces_commute"]
             and rep["degeneracies_commute"] and rep["markings_match"]
             and rep["projection_commutes"])
    inj = all(rep["injective"][k] for k in range(dim + 1))
    bij = all(rep["bijective"][k] for k in range(min(1, dim) + 1))
    return (PASS if flags and inj and bij else FAIL), rep


def _pi_star_point_check(sp, tables):
    rep = _pi_star(sp, 2, tables)
    ok = all(rep["bijective"][k] for k in range(3))
    return (PASS if ok else FAIL), rep


def _horn_fill_check(sp, tables):
    table = tables.get(relative_nerve_2, sp, 3)
    cert = {}
    ok = True
    for n, i in ((2, 1), (3, 1), (3, 2)):
        rep = horn_fill_check(table, n, i)
        cert[f"horn-{n}-{i}"] = {"horns": rep["horns"],
                                 "filled": rep["filled"],
                                 "unfilled": rep["unfilled_examples"]}
        ok = ok and rep["all_filled"]
    return (PASS if ok else FAIL), cert


CLAIM_DEFINITION = ("every free-data family through dim 3 satisfies the "
                    "definition (faces, theta, squares)")


@_suite("nerve-definition")
def _nerve_definition(params: dict) -> list[Check]:
    specs = [*functor_battery(), ("oriental-two", oriental_two_spec()),
             ("three-chain", chain3_spec())]
    return [Check(name, CLAIM_DEFINITION, _definition_check, (sp, 3))
            for name, sp in specs]


def _definition_check(sp, dim):
    """Per dimension, the families fill lists and how many of them
    simplex_valid accepts; the first it refuses is named."""
    back = Rel2Backend(sp)
    cert = {"candidates": [], "valid": []}
    for k in range(dim + 1):
        listed = [z for s in back.base.simplices(k) for z in back.fill(s, k)]
        bad = [z for z in listed if not back.simplex_valid(z)]
        cert["candidates"].append(len(listed))
        cert["valid"].append(len(listed) - len(bad))
        if bad and "invalid" not in cert:
            cert["invalid"] = repr(bad[0])
    return (FAIL if "invalid" in cert else PASS), cert


CLAIM_SQUARE = "chain-square map is monotone with the expected image"


@_suite("straightening-fragment", n=None)
def _straightening(params: dict) -> list[Check]:
    checks = []
    for n in _ns(params, 1, 4):
        for i in range(n + 1):
            for j in range(i, n + 1):
                checks.append(Check(
                    f"n{n}/i{i}/j{j}", CLAIM_SQUARE,
                    _square_check, (n, i, j)))
        if n == 1:
            checks.append(Check(
                "n1/horn-shape",
                "one-level source is the right-horn wedge",
                _square_shape_check))
    return checks


def _square_check(n, i, j):
    poset, cmp_map, dposet = square_chain_poset(n, i, j)
    window = interval_mask(i, j)
    expected = {e for e in dposet.poset.elements if e & ~window == 0}
    image = cmp_map.image()
    ok_img = image == expected
    vsrc = _poset_verdict(poset)
    vtgt = _poset_verdict(dposet.poset)
    ok = ok_img and vsrc.status == "Contractible" \
        and vtgt.status == "Contractible"
    worst = INCONCLUSIVE if "Inconclusive" in (vsrc.status, vtgt.status) \
        else (PASS if ok else FAIL)
    cert = {"chains": len(poset), "image": len(image),
            "window": digits(window), "image_matches_window": ok_img,
            "surjective_on_ground": j == n and ok_img,
            "source": vsrc.status, "target": vtgt.status}
    return worst, cert


def _square_shape_check():
    poset, _, _ = square_chain_poset(1, 0, 1)
    counts = _poset_complex(poset).counts
    bottom = poset.minimum()
    ok = counts == [3, 2] and bottom == frozenset({(0, 0), (1, 1)})
    cert = {"counts": counts, "minimum": sorted(bottom) if bottom else None}
    return (PASS if ok else FAIL), cert


CLAIM_LIFTING = "original and reduced lifting problems match bijectively"


@_suite("reduced-lifting", n=None)
def _lifting(params: dict) -> list[Check]:
    checks = []
    for name, nat, level in lifting_battery():
        if params.get("n") is not None and level != params["n"]:
            continue
        checks.append(Check(name, CLAIM_LIFTING, _lifting_check, (nat, level)))
    if not checks:
        raise UsageError("no battery entry at that level (use 2 or 3)")
    return checks


def _lifting_check(nat, level):
    res = reduced_lifting_check(nat, level)
    cert = {"problems": res["problems"],
            "original_total": res["original_total"],
            "reduced_total": res["reduced_total"],
            "solution_histogram": res["solution_histogram"],
            "count_mismatches": res["count_mismatches"],
            "broken_bijections": res["broken_bijections"]}
    return (PASS if res["bijective"] else FAIL), cert


CLAIM_BASE_CHANGE = "restriction commutes with the family nerve"


@_suite("base-change")
def _base_change(params: dict) -> list[Check]:
    battery = dict(functor_battery())
    checks = []
    mixed = battery["two-chain-mixed"]
    ident = CatFunctor(mixed.base, mixed.base,
                       {o: o for o in mixed.base.objects},
                       {m: m for m in mixed.base.morphisms})
    checks.append(Check("identity/two-chain-mixed", CLAIM_BASE_CHANGE,
                        _base_change_check, (ident, mixed, 3)))
    fold = battery["arrow-fold"]
    pt = FiniteCategory.point()
    for o in fold.base.objects:
        bf = CatFunctor.constant(pt, fold.base, o)
        checks.append(Check(f"fiber/arrow-fold@{o}", CLAIM_BASE_CHANGE,
                            _base_change_check, (bf, fold, 3)))
    c1, c2 = chain_category(1), chain_category(2)
    faces = {"01": (0, 1), "12": (1, 2), "02": (0, 2)}
    for tag, (a, b) in sorted(faces.items()):
        bf = CatFunctor(c1, c2, {0: a, 1: b},
                        {(0, 0): (a, a), (1, 1): (b, b), (0, 1): (a, b)})
        checks.append(Check(f"face/two-chain-mixed@{tag}", CLAIM_BASE_CHANGE,
                            _base_change_check, (bf, mixed, 3)))
    return checks


def _base_change_check(bf, sp, dim):
    rep = base_change_check(bf, sp, dim)
    ok = rep["isomorphism"] and rep["faces_commute"]
    return (PASS if ok else FAIL), rep


# ---------------------------------------------------------------- runner

def normalize_params(suite: str, params: dict | None) -> dict:
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}")
    declared = SUITES[suite].params
    stray = sorted(set(params or {}) - set(declared))
    if stray:
        raise UsageError(f"{suite} takes no {', '.join('--' + k for k in stray)}")
    return {**declared, **(params or {})}


def build_suite(suite: str, params: dict) -> list[Check]:
    return SUITES[suite](params)


def _execute(check: Check) -> CheckResult:
    start = time.perf_counter()
    try:
        verdict, cert = check.fn(*check.args)
    except Exception as err:  # a crashed check fails; the sweep continues
        verdict = FAIL
        cert = {"error": f"{type(err).__name__}: {err}"}
    wall = (time.perf_counter() - start) * 1000
    return CheckResult(check.id, check.claim, verdict, cert, wall)


def run_suite(suite: str, params: dict | None = None, jobs: int = 1) -> Report:
    eff = normalize_params(suite, params)
    checks = build_suite(suite, eff)
    workers = min(jobs, len(checks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: at the top it would add ~20 ms to every CLI start
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_execute, checks))
    else:
        results = [_execute(c) for c in checks]
    shown = {k: v for k, v in eff.items() if v is not None}
    return Report(suite, shown, results)
