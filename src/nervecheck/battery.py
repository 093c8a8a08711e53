"""Fixed input batteries for the verification suites.

Everything here is deterministic: the named diagram batteries are
literal constructions, and the randomized families take an explicit
seed with a fixed default, so repeated runs enumerate identical
objects.
"""

from __future__ import annotations

import random

from .bits import bit_list
from .category import CatFunctor, FiniteCategory, chain_category, walking_iso
from .funcspec import FunctorSpec, pair_mask
from .lifting import NatTrans, collapse_nat, identity_nat
from .oriental import build_d, comparable_pairs, standard_interval
from .poset import ChainSubcomplex, Poset

C1 = chain_category(1)
C2 = chain_category(2)
PT = FiniteCategory.point()
ISO = walking_iso()


def parallel_pair() -> FiniteCategory:
    """Two objects with a pair of non-composing parallel arrows."""
    return FiniteCategory(("a", "b"), ("ia", "ib", "u", "v"),
                          {"ia": "a", "ib": "b", "u": "a", "v": "a"},
                          {"ia": "a", "ib": "b", "u": "b", "v": "b"},
                          {"a": "ia", "b": "ib"},
                          {("ia", "ia"): "ia", ("ib", "ib"): "ib",
                           ("ia", "u"): "u", ("u", "ib"): "u",
                           ("ia", "v"): "v", ("v", "ib"): "v"})


PAR = parallel_pair()


def _spec_point(value: FiniteCategory) -> FunctorSpec:
    return FunctorSpec(FiniteCategory.point(), {"*": value}, {})


def _spec_arrow(v0: FiniteCategory, v1: FiniteCategory,
                step: CatFunctor) -> FunctorSpec:
    return FunctorSpec(chain_category(1), {0: v0, 1: v1}, {(0, 1): step})


def _spec_two_chain(v0, v1, v2, s01: CatFunctor, s12: CatFunctor) -> FunctorSpec:
    return FunctorSpec(chain_category(2), {0: v0, 1: v1, 2: v2},
                       {(0, 1): s01, (1, 2): s12, (0, 2): s12.then(s01)})


def two_chain_mixed() -> FunctorSpec:
    return _spec_two_chain(C1, C1, C1, CatFunctor.identity(C1),
                           CatFunctor.constant(C1, C1, 0))


def two_chain_parallel() -> FunctorSpec:
    ident = CatFunctor.identity(PAR)
    return _spec_two_chain(PAR, PAR, PAR, ident, ident)


def functor_battery() -> list[tuple[str, FunctorSpec]]:
    """Ten small category-base diagrams used by the nerve comparisons."""
    fold = CatFunctor(C1, ISO, {0: "a", 1: "b"},
                      {(0, 0): "ida", (1, 1): "idb", (0, 1): "u"})
    ends = CatFunctor(C1, C2, {0: 0, 1: 2},
                      {(0, 0): (0, 0), (1, 1): (2, 2), (0, 1): (0, 2)})
    return [
        ("point-arrow", _spec_point(C1)),
        ("point-iso", _spec_point(ISO)),
        ("point-two-chain", _spec_point(C2)),
        ("arrow-collapse", _spec_arrow(C1, C1, CatFunctor.constant(C1, C1, 0))),
        ("arrow-identity", _spec_arrow(C1, C1, CatFunctor.identity(C1))),
        ("arrow-fold", _spec_arrow(ISO, C1, fold)),
        ("arrow-ends", _spec_arrow(C2, C1, ends)),
        ("two-chain-mixed", two_chain_mixed()),
        ("two-chain-tower", _spec_two_chain(
            C2, C1, PT, ends, CatFunctor.constant(PT, C1, 1))),
        ("two-chain-parallel", two_chain_parallel()),
    ]


def oriental_two_spec() -> FunctorSpec:
    """Oriental base with one noninvertible comparison two-cell."""
    const0 = CatFunctor.constant(C1, C1, 0)
    return FunctorSpec(2, {0: C1, 1: C1, 2: C1},
                       {pair_mask(0, 1): const0,
                        pair_mask(1, 2): CatFunctor.identity(C1),
                        pair_mask(0, 2): CatFunctor.identity(C1)},
                       {(0b101, 0b111): {0: (0, 0), 1: (0, 1)}})


def chain3_spec() -> FunctorSpec:
    const0 = CatFunctor.constant(C1, C1, 0)
    ident = CatFunctor.identity(C1)
    act = {(0, 1): ident, (1, 2): const0, (2, 3): ident,
           (0, 2): const0, (1, 3): const0, (0, 3): const0}
    return FunctorSpec(chain_category(3), {i: C1 for i in range(4)}, act)


def lifting_battery() -> list[tuple[str, NatTrans, int]]:
    """Transformations and levels for the lifting comparison."""
    return [
        ("identity-oriental-two", identity_nat(oriental_two_spec()), 2),
        ("collapse-oriental-two", collapse_nat(oriental_two_spec()), 2),
        ("collapse-two-chain", collapse_nat(two_chain_mixed()), 2),
        ("collapse-parallel", collapse_nat(two_chain_parallel()), 2),
        ("collapse-three-chain", collapse_nat(chain3_spec()), 3),
    ]


DEFAULT_SEED = 1729


def _random_chain(rng: random.Random, poset: Poset) -> int:
    at = rng.randrange(len(poset))
    mask = 1 << at
    while True:
        ups = bit_list(poset.up_masks[at] & ~(1 << at))
        if not ups or rng.random() < 0.3:
            return mask
        at = rng.choice(ups)
        mask |= 1 << at


def seeded_subcomplexes(n: int = 3, count: int = 20,
                        seed: int = DEFAULT_SEED) -> list[ChainSubcomplex]:
    """Random subchain-closed families in the subset-poset nerve.

    Each family contains at least one comparable pair, so mapping-space
    comparisons between its endpoints are never vacuous.
    """
    dp = build_d(standard_interval(n)).poset
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        gens = [_random_chain(rng, dp) for _ in range(rng.randint(2, 4))]
        while not any(g.bit_count() >= 2 for g in gens):
            gens.append(_random_chain(rng, dp))
        out.append(ChainSubcomplex.closure(dp, gens))
    return out


def _random_poset(rng: random.Random, size: int, p: float = 0.4) -> Poset:
    reach = [[False] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < p:
                reach[i][j] = True
    for k in range(size):
        for i in range(size):
            for j in range(size):
                if reach[i][k] and reach[k][j]:
                    reach[i][j] = True
    return Poset.from_relation(
        list(range(size)), lambda a, b: a == b or reach[a][b])


def _adjoin_min(poset: Poset) -> Poset:
    els = [-1] + list(poset.elements)
    return Poset.from_relation(
        els, lambda a, b: a == -1 or (b != -1 and poset.less_eq(a, b)))


def _adjoin_max(poset: Poset, top: int) -> Poset:
    els = list(poset.elements) + [top]
    return Poset.from_relation(
        els, lambda a, b: b == top or (a != top and poset.less_eq(a, b)))


def _random_monotone(rng: random.Random, src: Poset, tgt: Poset,
                     top: int) -> dict:
    for _ in range(60):
        f = {y: rng.choice(tgt.elements) for y in src.elements}
        if all(tgt.less_eq(f[y], f[z]) for y in src.elements
               for z in src.elements if src.less_eq(y, z)):
            return f
    return {y: top for y in src.elements}


def _compose(first: dict, second: dict) -> dict:
    return {z: first[second[z]] for z in second}


def seeded_diagrams(count: int = 25, seed: int = DEFAULT_SEED
                    ) -> list[tuple[Poset, dict, dict]]:
    """Random poset diagrams with cone-shaped base and values.

    Returns (base, values, transport) triples ready for the total-poset
    construction.  Bases are chains or posets with an adjoined minimum;
    values always carry an adjoined maximum, and transports are built
    functorially: composed consecutive maps over chains, constant maps
    at the value maxima, or identities on a shared value.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            length = rng.randint(1, 3)
            base = Poset.from_relation(list(range(length + 1)),
                                       lambda a, b: a <= b)
            values, tops = {}, {}
            for p in base.elements:
                core = rng.randint(1, 2)
                values[p] = _adjoin_max(_random_poset(rng, core), core)
                tops[p] = core
            transport = {(p, p): {y: y for y in values[p].elements}
                         for p in base.elements}
            for p in range(length):
                transport[(p, p + 1)] = _random_monotone(
                    rng, values[p + 1], values[p], tops[p])
            for span in range(2, length + 1):
                for p in range(length + 1 - span):
                    transport[(p, p + span)] = _compose(
                        transport[(p, p + 1)], transport[(p + 1, p + span)])
        elif kind == 1:
            base = _adjoin_min(_random_poset(rng, rng.randint(2, 3)))
            values, tops = {}, {}
            for p in base.elements:
                core = rng.randint(1, 2)
                values[p] = _adjoin_max(_random_poset(rng, core), core)
                tops[p] = core
            transport = {}
            for p in base.elements:
                for q in base.elements:
                    if not base.less_eq(p, q):
                        continue
                    if p == q:
                        transport[(p, q)] = {y: y for y in values[p].elements}
                    else:
                        transport[(p, q)] = {y: tops[p]
                                             for y in values[q].elements}
        else:
            base = _adjoin_min(_random_poset(rng, rng.randint(2, 3)))
            core = rng.randint(1, 3)
            shared = _adjoin_max(_random_poset(rng, core), core)
            values = {p: shared for p in base.elements}
            transport = {(p, q): {y: y for y in shared.elements}
                         for p in base.elements for q in base.elements
                         if base.less_eq(p, q)}
        out.append((base, values, transport))
    return out


def seeded_pairs(n: int, count: int, seed: int = DEFAULT_SEED
                 ) -> list[tuple[int, int]]:
    """Random comparable pairs in the subset poset on [0..n]."""
    pairs = comparable_pairs(build_d(standard_interval(n)))
    rng = random.Random(seed)
    return rng.sample(pairs, min(count, len(pairs)))
