"""Command line driver: inspection subcommands and the batch verifier.

Exit codes: 0 all good, 1 a check failed (or none ran), 2 inconclusive
results only, 64 usage error.  --json writes the machine-readable result
next to the human output; --dot, on dn, horn and mapping-space, writes
a Hasse diagram.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from functools import partial
from pathlib import Path
from typing import Callable

from .bits import digits, from_digits
from .category import CatFunctor, FiniteCategory
from .funcspec import FunctorSpec
from .homotopy import complex_from_json, contractibility_verdict
from .horn import admissible_and_superior, l_complex
from .lifting import collapse_nat, identity_nat, reduced_lifting_check
from .mapping import (NECKLACE_MAX_VERTICES, flag_counts, flag_model,
                      necklace_oracle)
from .nerves import relative_nerve_2
from .oriental import build_d, standard_interval
from .poset import ChainSubcomplex, Poset, nerve_chains
from .report import PASS, jsonable
from .suites import (SUITES, SpecTables, UsageError, _base_change_check,
                     _groth_check, _pi_star_check, run_suite)


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _common(p: Parser) -> None:
    p.add_argument("--json", metavar="FILE", help="write JSON result here")


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as err:
        raise UsageError(f"cannot write {path}: {err.strerror}") from None


def _emit(args, payload: dict, dot: Callable[[], str] | None = None) -> None:
    """Write --json, and --dot where dot builds a picture, only when asked for."""
    if args.json:
        _write(args.json, json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n")
    if dot is not None and args.dot:
        _write(args.dot, dot())


def _at_least(lo: int, most: int | None = None):
    def parse(text: str) -> int:
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {text}")
        if most is not None and int(text) > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {text}")
        return int(text)
    return parse


def _digit_arg(flag: str, text: str) -> int:
    try:
        return from_digits(text)
    except ValueError:
        raise UsageError(f"{flag} {text!r} is not a digit string") from None


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise UsageError(f"{path} is not valid JSON: {err}") from None
    except UnicodeDecodeError as err:
        raise UsageError(f"{path} is not UTF-8 text: {err}") from None
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err.strerror}") from None


def _parse(path: str, what: str, build):
    """build() of the JSON in path; content of the wrong shape is a usage error."""
    data = _read_json(path)
    try:
        return build(data)
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise UsageError(f"{path} is not {what}: {err!r}") from None


# Largest --n per subcommand: dn --n 12 takes ~0.6 s and 28 MB (~0.2 s and
# 22 MB at n=11), nearly all of it in the one walk of the 4096-bit rows that
# Poset validation and covers share; printing its 22,529 covers takes ~0.03 s;
# horn --i 2 at n=7 takes ~7 s and 640 MB (0.4 s and 43 MB at n=6).
MAX_N_DN = 12
MAX_N_HORN = 7
# Largest --n at which mapping-space without --i builds D^n's full nerve:
# D^6's holds 704,511 chains (0.7 s, 53 MB); D^7's holds 20,074,495 and
# runs out of memory under a 1.5 GB cap.
MAX_N_FULL_NERVE = 6
# Largest flag model mapping-space builds, in simplices (through --dim),
# counted first by mapping.flag_counts: ~1 GB.  D^5's full nerve from 0 to
# 045 holds 7.58M (~7 s, 750-960 MB peak RSS), from 01 to 05 16.2M (2.26 GB);
# counting D^6's from 0 to 06, 3.2e11, takes ~0.4 s, mostly its segment index.
MAX_FLAG_SIMPLICES = 8_000_000
# Largest --dim of nerve2, compare-nerves and base-change, --n of lift-check and
# --count of verify: each takes at most about 10 s on its slowest battery spec
# (2 cores, CPython 3.11).
# nerve2 on oriental-two takes 0.27, 1.7 and 14.8 s at dim 4-6 (21, 27 and
# 52 MB), each simplex's theta built once as a candidate and once more when a
# larger simplex reads it; no category-base spec takes over 0.12 s at dim 5.
MAX_DIM_NERVE2 = 5
# compare-nerves on three-chain takes 2.0, 8.4 and 19 s at dim 7-9 (104, 263 and
# 710 MB), on arrow-fold 1.4, 5.6 and 25 s (102, 349 and 1343 MB).  The memory
# is relative_nerve_1's table: on arrow-fold at dim 8 it peaks at 330 MB alone,
# the total category's at 39 MB and relative_nerve_2's at 25 MB.
MAX_DIM_COMPARE = 8
# base-change along the identity of three-chain takes 3.4, 4.5 and 10 s at dim
# 8-10, at most 64 MB.
MAX_DIM_BASE_CHANGE = 10
# lift-check on identity-oriental-two takes 0.15, 1.0 and 6.3 s at n = 3-5 (21,
# 29 and 69 MB); every other lifting battery entry takes at most 4.0 s at n = 5.
# At n = 6 the source and target nerves alone take 15 s each.
MAX_N_LIFT = 5
# verify lemma-colimit takes 1.4-1.6 ms per diagram: 1.4 s at --count 1000,
# 16 s and 85 MB at 10000; oracle-flag-necklace takes half that.
MAX_COUNT = 5_000


def _check_n(n: int, top: int) -> None:
    if not 0 <= n <= top:
        raise UsageError(f"--n out of range (0..{top})")


def _ground_of(args) -> int:
    if args.ground:
        return _digit_arg("--ground", args.ground)
    if args.n is None:
        raise UsageError("give --n or --ground")
    _check_n(args.n, MAX_N_DN)
    return standard_interval(args.n)


def _chain_labels(poset: Poset, mask: int) -> list[str]:
    return [digits(poset.elements[b]) for b in range(len(poset))
            if (mask >> b) & 1]


def _dim_histogram(chains) -> dict[int, int]:
    return dict(sorted(Counter(c.bit_count() - 1 for c in chains).items()))


def cmd_dn(args) -> int:
    ground = _ground_of(args)
    p = build_d(ground).poset
    labels = [digits(e) for e in p.elements]
    print(f"D-poset on {{{digits(ground)}}}: {len(p)} elements")
    for a, b in p.covers:
        print(f"  {labels[a]} < {labels[b]}")
    payload = {}
    if args.json:
        lo, hi = p.minimum(), p.maximum()
        payload = {"ground": digits(ground), "elements": labels,
                   "covers": [[labels[a], labels[b]] for a, b in p.covers],
                   "minimum": None if lo is None else digits(lo),
                   "maximum": None if hi is None else digits(hi)}
    _emit(args, payload, lambda: p.to_dot(digits))
    return 0


def _check_inner(args) -> None:
    if not 0 < args.i < args.n:
        raise UsageError(f"--i must lie in [1, {args.n - 1}] for an inner horn")


def cmd_horn(args) -> int:
    _check_n(args.n, MAX_N_HORN)
    _check_inner(args)
    fam = admissible_and_superior(args.n, args.i)
    dp = build_d(standard_interval(args.n))
    sub = l_complex(args.n, args.i, dp)
    hist = _dim_histogram(sub.chains)
    members = [dp.poset.elements[b] for b in sub.vertices()]
    print(f"horn subcomplex at n={args.n}, i={args.i}")
    print("  superior faces:", " ".join(digits(j) for j in fam.superior))
    print("  chains by dimension:", hist)
    payload = {"n": args.n, "i": args.i,
               "admissible": [digits(j) for j in fam.admissible],
               "superior": [digits(j) for j in fam.superior],
               "chains_by_dim": hist,
               "vertices": [digits(e) for e in members]}
    _emit(args, payload, lambda: dp.poset.full_subposet(members).to_dot(digits))
    return 0


def _refinement_dot(p: Poset, vs: list[int]) -> str:
    """Hasse diagram of the flag model's vertex chains under inclusion."""
    refine = Poset.from_relation(vs, lambda a, b: a & ~b == 0)
    return refine.to_dot(lambda m: "<".join(_chain_labels(p, m)))


def cmd_mapping_space(args) -> int:
    _check_n(args.n, MAX_N_HORN)
    # every horn and the full nerve of D^n keep all 2^n vertices
    if args.model != "flag" and 2 ** args.n > NECKLACE_MAX_VERTICES:
        raise UsageError(f"--model {args.model}: D^{args.n} has {2 ** args.n} vertices, "
                         f"the necklace oracle takes at most {NECKLACE_MAX_VERTICES}")
    if args.i is None and args.n > MAX_N_FULL_NERVE:
        raise UsageError(f"--n out of range without --i (0..{MAX_N_FULL_NERVE}): "
                         f"the full nerve of D^{args.n} is too large")
    dp = build_d(standard_interval(args.n))
    if args.i is not None:
        _check_inner(args)
        k = l_complex(args.n, args.i, dp)
    else:
        k = ChainSubcomplex(dp.poset, nerve_chains(dp.poset), validate=False)
    s, t = _digit_arg("--from", args.src), _digit_arg("--to", args.to)
    if s not in dp.poset or t not in dp.poset or not dp.poset.less_eq(s, t):
        raise UsageError(f"need --from <= --to in D^{args.n}, got {digits(s)}, {digits(t)}")
    payload: dict = {"n": args.n, "i": args.i,
                     "from": digits(s), "to": digits(t)}
    rc = 0
    fm = no = None
    if args.model in ("flag", "both"):
        size = sum(flag_counts(k, s, t)[:None if args.dim is None else args.dim + 1])
        if size > MAX_FLAG_SIMPLICES:
            raise UsageError(f"--model {args.model}: the flag model from {digits(s)} "
                             f"to {digits(t)} has {size} simplices, more than "
                             f"{MAX_FLAG_SIMPLICES}")
        fm = flag_model(k, s, t, max_dim=args.dim)
        payload["flag"] = {"counts": fm.counts()}
        print("flag model counts:", fm.counts())
    if args.model in ("necklace", "both"):
        no = necklace_oracle(k, s, t, max_dim=args.dim)
        payload["necklace"] = {"counts": no.counts()}
        print("necklace oracle counts:", no.counts())
        if fm is not None:
            agree = fm.same_simplices(no)
            payload["agree"] = agree
            print("models agree:", agree)
            rc = 0 if agree else 1
    model = fm if fm is not None else no
    _emit(args, payload, partial(_refinement_dot, dp.poset, model.vertices()))
    return rc


def cmd_homology(args) -> int:
    cx = _parse(args.input, "a simplex list", complex_from_json)
    v = contractibility_verdict(cx)
    h = v.homology
    for k, (b, tor) in enumerate(zip(h.betti, h.torsion)):
        print(f"  H~_{k}: betti {b}, torsion {tor}")
    print(f"verdict: {v.status} ({v.method})")
    payload = {"betti": h.betti, "torsion": h.torsion,
               "verdict": {"status": v.status, "method": v.method,
                           "detail": v.detail}}
    _emit(args, payload)
    return 0


def _load_spec(path: str, what: str = "a functor spec", build=FunctorSpec.from_json):
    """build() of the JSON in path, a spec or a (spec, target) pair whose
    base has objects: over an empty base every nerve is empty."""
    loaded = _parse(path, what, build)
    spec = loaded[0] if isinstance(loaded, tuple) else loaded
    if not spec.values:
        raise UsageError(f"{path} has a base with no objects, so every nerve over it is empty")
    return loaded


def _lift_problem(payload) -> tuple[FunctorSpec, str]:
    if "functor" in payload:
        return (FunctorSpec.from_json(payload["functor"]),
                payload.get("target", "collapse"))
    return FunctorSpec.from_json(payload), "collapse"


def _base_functor(data) -> CatFunctor:
    return CatFunctor(FiniteCategory.from_json(data["source"]),
                      FiniteCategory.from_json(data["target"]),
                      dict(data["obj"]), dict(data["mor"]))


def cmd_nerve2(args) -> int:
    spec = _load_spec(args.spec)
    table = relative_nerve_2(spec, args.dim)
    counts, back = table.counts(), table.backend
    print("nondegenerate simplices per dimension:", counts)
    marked = sum(map(back.marked, table.cells[1])) if args.dim >= 1 else 0
    thin = sum(map(back.thin, table.cells[2])) if args.dim >= 2 else 0
    print(f"marked edges: {marked}; thin triangles: {thin}")
    out = {"dim": args.dim, "counts": counts,
           "marked_edges": marked, "thin_triangles": thin,
           "simplices": {k: [repr(s) for s in cells]
                         for k, cells in enumerate(table.cells)}}
    _write(args.out, json.dumps(jsonable(out), indent=2) + "\n")
    print("table written to", args.out)
    _emit(args, {"counts": counts, "marked_edges": marked,
                 "thin_triangles": thin})
    return 0


def _category_base(spec: FunctorSpec, path: str, command: str) -> FunctorSpec:
    if spec.oriental_base:
        raise UsageError(f"{command} needs a category base; {path} has an oriental one")
    return spec


def cmd_compare_nerves(args) -> int:
    spec = _category_base(_load_spec(args.spec), args.spec, "compare-nerves")
    tables = SpecTables()  # the family nerve at --dim serves both comparisons
    gro_verdict, gro = _groth_check(spec, args.dim, tables)
    pis_verdict, pis = _pi_star_check(spec, min(args.dim, 3), tables)
    print("total-category comparison: bijective =", gro["bijective"],
          "faces commute =", gro["faces_commute"])
    print("comparison map: well defined =", pis["well_defined"],
          "injective =", pis["injective"], "bijective =", pis["bijective"])
    _emit(args, {"total_category": gro, "comparison_map": pis})
    return 0 if gro_verdict == pis_verdict == PASS else 1


def cmd_lift_check(args) -> int:
    spec, target = _load_spec(args.spec, "a lifting problem", _lift_problem)
    if target == "collapse":
        nat = collapse_nat(spec)
    elif target == "identity":
        nat = identity_nat(spec)
    else:
        raise UsageError(f"unknown target {target!r} (use collapse or identity)")
    res = reduced_lifting_check(nat, args.n)
    print(f"problems: {res['problems']}  originals: {res['original_total']}  "
          f"reduced: {res['reduced_total']}")
    print("solution histogram:", res["solution_histogram"])
    print("bijective:", res["bijective"])
    _emit(args, res)
    return 0 if res["bijective"] else 1


def cmd_base_change(args) -> int:
    bf = _parse(args.f, "a base functor", _base_functor)
    spec = _category_base(_load_spec(args.spec), args.spec, "base-change")
    if not bf.target.equals(spec.base):
        raise UsageError(f"the target of {args.f} is not the base of {args.spec}")
    verdict, rep = _base_change_check(bf, spec, args.dim)
    for k, row in rep["dims"].items():
        print(f"  dim {k}: nerve {row['nerve']} vs pullback {row['pullback']} "
              f"-> {'ok' if row['match'] else 'MISMATCH'}")
    print("isomorphism:", rep["isomorphism"], " faces commute:", rep["faces_commute"])
    _emit(args, rep)
    return 0 if verdict == PASS else 1


def cmd_verify(args) -> int:
    given = {"n": args.n, "deep": args.deep or None, "seed": args.seed,
             "count": args.count, "samples": args.samples}
    params = {k: v for k, v in given.items() if v is not None}
    report = run_suite(args.suite, params, jobs=args.jobs)
    for line in report.lines():
        print(line)
    _emit(args, report.to_json())
    return report.exit_code()


def build_parser() -> Parser:
    top = Parser(prog="nervecheck",
                 description="finite checks for nerve and horn combinatorics")
    sub = top.add_subparsers(dest="command", required=True, parser_class=Parser)

    p = sub.add_parser("dn", help="build a D-poset and its Hasse diagram")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--ground", default=None, help='digit string, e.g. "023"')
    _common(p)
    p.set_defaults(func=cmd_dn)

    p = sub.add_parser("horn", help="inner-horn subcomplex summary")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    _common(p)
    p.set_defaults(func=cmd_horn)

    p = sub.add_parser("mapping-space", help="flag model / necklace oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, default=None,
                   help="restrict to the horn subcomplex at i")
    p.add_argument("--from", dest="src", required=True, metavar="S")
    p.add_argument("--to", required=True, metavar="T")
    p.add_argument("--model", choices=("flag", "necklace", "both"),
                   default="both")
    p.add_argument("--dim", type=_at_least(0), default=None)
    _common(p)
    p.set_defaults(func=cmd_mapping_space)

    p = sub.add_parser("homology", help="reduced homology and verdict")
    p.add_argument("--input", required=True, metavar="X.json")
    _common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("nerve2", help="enumerate the functor-family nerve")
    p.add_argument("--spec", required=True, metavar="F.json")
    p.add_argument("--dim", type=_at_least(0, MAX_DIM_NERVE2), required=True)
    p.add_argument("--out", required=True, metavar="T.json")
    _common(p)
    p.set_defaults(func=cmd_nerve2)

    p = sub.add_parser("compare-nerves",
                       help="family nerve vs total-category nerve")
    p.add_argument("--spec", required=True, metavar="F.json")
    p.add_argument("--dim", type=_at_least(0, MAX_DIM_COMPARE), required=True)
    _common(p)
    p.set_defaults(func=cmd_compare_nerves)

    p = sub.add_parser("lift-check", help="original vs reduced lifting sweep")
    p.add_argument("--n", type=_at_least(2, MAX_N_LIFT), required=True)
    p.add_argument("--spec", required=True, metavar="P.json")
    _common(p)
    p.set_defaults(func=cmd_lift_check)

    p = sub.add_parser("base-change", help="restriction along a base functor")
    p.add_argument("--f", required=True, metavar="f.json")
    p.add_argument("--spec", required=True, metavar="F.json")
    p.add_argument("--dim", type=_at_least(0, MAX_DIM_BASE_CHANGE), default=3)
    _common(p)
    p.set_defaults(func=cmd_base_change)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--count", type=_at_least(1, MAX_COUNT), default=None,
                   help="seeded instance count where applicable")
    p.add_argument("--samples", type=_at_least(1), default=None,
                   help="sampled pairs per deep grid point")
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.add_argument("--seed", type=int, default=None, help="seed for sampled grids")
    p.add_argument("--deep", action="store_true", help="extend parameter ceilings")
    _common(p)
    p.set_defaults(func=cmd_verify)

    for name in ("dn", "horn", "mapping-space"):
        sub.choices[name].add_argument("--dot", metavar="FILE",
                                       help="write a DOT Hasse diagram")
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())
