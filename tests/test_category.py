from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nervecheck.battery import functor_battery, parallel_pair
from nervecheck.category import (CatFunctor, FiniteCategory, chain_category,
                                 extend_covers, is_natural,
                                 poset_functors, walking_iso)
from nervecheck.groth import grothendieck_classical
from nervecheck.oriental import build_d
from nervecheck.poset import Poset


def divisor_poset(n):
    divs = [d for d in range(1, n + 1) if n % d == 0]
    return Poset.from_relation(divs, lambda a, b: b % a == 0)


def test_point_category():
    pt = FiniteCategory.point()
    assert len(pt) == 1
    assert pt.then("id", "id") == "id"
    assert pt.is_iso("id")


def test_chain_category_counts():
    c = chain_category(2)
    assert len(c.objects) == 3
    assert len(c.morphisms) == 6
    assert c.then((0, 1), (1, 2)) == (0, 2)
    assert c.is_thin()
    assert not c.is_iso((0, 1))
    assert c.is_iso((1, 1))


def test_walking_iso():
    j = walking_iso()
    assert j.is_iso("u") and j.is_iso("v")
    assert j.then("u", "v") == "ida"
    assert j.then("v", "u") == "idb"
    assert not j.is_thin() or True  # thin in fact: one morphism per hom
    assert j.is_thin()


def test_validation_catches_broken_associativity():
    objects = ("x",)
    morphisms = ("e", "f", "g")
    src = {m: "x" for m in morphisms}
    tgt = {m: "x" for m in morphisms}
    ident = {"x": "e"}
    comp = {("e", "e"): "e", ("e", "f"): "f", ("f", "e"): "f",
            ("e", "g"): "g", ("g", "e"): "g",
            ("f", "f"): "g", ("f", "g"): "f", ("g", "f"): "g", ("g", "g"): "g"}
    # (f f) f = g f = g but f (f f) = f g = f
    with pytest.raises(ValueError):
        FiniteCategory(objects, morphisms, src, tgt, ident, comp)


def test_validation_catches_broken_unit():
    objects = ("x",)
    morphisms = ("e", "f")
    src = {"e": "x", "f": "x"}
    tgt = {"e": "x", "f": "x"}
    ident = {"x": "e"}
    comp = {("e", "e"): "e", ("e", "f"): "e", ("f", "e"): "f", ("f", "f"): "e"}
    with pytest.raises(ValueError):
        FiniteCategory(objects, morphisms, src, tgt, ident, comp)


def test_validation_catches_missing_composite():
    objects = ("x", "y")
    morphisms = ("ix", "iy", "f")
    src = {"ix": "x", "iy": "y", "f": "x"}
    tgt = {"ix": "x", "iy": "y", "f": "y"}
    ident = {"x": "ix", "y": "iy"}
    comp = {("ix", "ix"): "ix", ("iy", "iy"): "iy", ("ix", "f"): "f"}
    with pytest.raises(ValueError):
        FiniteCategory(objects, morphisms, src, tgt, ident, comp)


def validate_all_pairs(c):
    """Oracle for the composition checks of FiniteCategory validation:
    every pair and triple of morphisms visited in turn."""
    for f in c.morphisms:
        for g in c.morphisms:
            composable = c.tgt[f] == c.src[g]
            if composable != ((f, g) in c.comp):
                raise ValueError(f"composition table mismatch at ({f!r}, {g!r})")
            if composable:
                h = c.comp[(f, g)]
                if c.src[h] != c.src[f] or c.tgt[h] != c.tgt[g]:
                    raise ValueError(f"composite endpoints wrong at ({f!r}, {g!r})")
    for f in c.morphisms:
        if c.then(c.ident[c.src[f]], f) != f or c.then(f, c.ident[c.tgt[f]]) != f:
            raise ValueError(f"unit law fails at {f!r}")
    for f in c.morphisms:
        for g in c.morphisms:
            if c.tgt[f] != c.src[g]:
                continue
            fg = c.then(f, g)
            for h in c.morphisms:
                if c.tgt[g] != c.src[h]:
                    continue
                if c.then(fg, h) != c.then(f, c.then(g, h)):
                    raise ValueError(f"associativity fails at ({f!r}, {g!r}, {h!r})")


def failure(check):
    try:
        check()
    except ValueError as err:
        return str(err)
    return None


CATEGORIES = {"chain2": chain_category(2), "walking-iso": walking_iso(),
              "parallel-pair": parallel_pair(),
              "total-two-chain-mixed": grothendieck_classical(
                  dict(functor_battery())["two-chain-mixed"])}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CATEGORIES)), st.data())
def test_validation_fails_first_where_the_all_pairs_scan_does(name, data):
    good = CATEGORIES[name]
    mor = st.sampled_from(good.morphisms)
    comp = dict(good.comp)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        if data.draw(st.booleans()) and comp:
            del comp[data.draw(st.sampled_from(sorted(comp, key=repr)))]
        else:  # a wrong value, or an entry on a pair that does not compose
            comp[(data.draw(mor), data.draw(mor))] = data.draw(mor)
    c = FiniteCategory(good.objects, good.morphisms, good.src, good.tgt,
                       good.ident, comp, validate=False)
    assert failure(c._validate) == failure(lambda: validate_all_pairs(c))


def test_validation_reports_the_first_of_an_extra_entry_and_a_missing_one():
    c = chain_category(1)  # morphisms (0, 0), (0, 1), (1, 1)
    comp = dict(c.comp)
    del comp[((0, 1), (1, 1))]
    comp[((1, 1), (0, 0))] = (1, 1)
    with pytest.raises(ValueError, match=r"mismatch at \(\(0, 1\), \(1, 1\)\)"):
        FiniteCategory(c.objects, c.morphisms, c.src, c.tgt, c.ident, comp)
    comp[((0, 1), (1, 1))] = (0, 1)
    comp[((0, 1), (0, 0))] = (0, 1)
    with pytest.raises(ValueError, match=r"mismatch at \(\(0, 1\), \(0, 0\)\)"):
        FiniteCategory(c.objects, c.morphisms, c.src, c.tgt, c.ident, comp)


def test_from_poset_hom_sets():
    c = FiniteCategory.from_poset(divisor_poset(12))
    assert c.is_thin()
    assert c.hom(2, 12) == ((2, 12),)
    assert c.hom(4, 6) == ()
    assert c.then((1, 2), (2, 6)) == (1, 6)


def test_functor_validation():
    c = chain_category(1)
    pt = FiniteCategory.point()
    CatFunctor.constant(c, pt, "*")
    with pytest.raises(ValueError):
        CatFunctor(c, pt, {0: "*", 1: "*"}, {m: "id" for m in c.morphisms[:-1]})


def test_functor_composition_identity():
    c = chain_category(2)
    ident = CatFunctor.identity(c)
    assert ident.then(ident).equals(ident)


def test_is_natural():
    c = chain_category(1)
    f = CatFunctor.identity(c)
    # constant functor at 1 with eta_x: x -> 1
    g = CatFunctor(c, c, {0: 1, 1: 1}, {m: (1, 1) for m in c.morphisms})
    eta = {0: (0, 1), 1: (1, 1)}
    assert is_natural(f, g, eta)
    assert not is_natural(g, f, eta)


def test_poset_functors_monotone_maps():
    # functors between thin categories are exactly monotone maps
    p = Poset.from_relation([0, 1, 2], lambda a, b: a <= b)
    e = chain_category(1)
    fs = poset_functors(p, e)
    assert len(fs) == 4  # monotone maps [2] -> [1]
    for obj, mor in fs:
        objs = [obj[k] for k in (0, 1, 2)]
        assert objs == sorted(objs)
        assert mor[(0, 2)] == (obj[0], obj[2])


def test_poset_functors_respect_pins():
    p = Poset.from_relation([0, 1, 2], lambda a, b: a <= b)
    e = chain_category(1)
    fs = poset_functors(p, e, obj_pin={0: 1})
    assert len(fs) == 1
    assert fs[0][0] == {0: 1, 1: 1, 2: 1}
    fs = poset_functors(p, e, edge_pin={(0, 1): (0, 1)})
    # 0 and 1 are pinned through the edge and 2 >= 1 forces value 1
    assert len(fs) == 1
    assert fs[0][0] == {0: 0, 1: 1, 2: 1}


def test_poset_functors_path_independence():
    # square poset into the walking iso: diagonal composites must agree
    sq = Poset.from_relation(
        [(0, 0), (0, 1), (1, 0), (1, 1)],
        lambda a, b: a[0] <= b[0] and a[1] <= b[1])
    j = walking_iso()
    fs = poset_functors(sq, j)
    for _, mor in fs:
        m1 = j.then(mor[((0, 0), (0, 1))], mor[((0, 1), (1, 1))])
        m2 = j.then(mor[((0, 0), (1, 0))], mor[((1, 0), (1, 1))])
        assert m1 == m2 == mor[((0, 0), (1, 1))]
    # object assignments are unconstrained (every hom is a singleton)
    assert len(fs) == 16


def _brute_functors(p, e):
    """Every functor p -> e by definition: all typed assignments of morphisms
    to comparable pairs, kept when identities sit on the diagonal and
    every a <= b <= c composes."""
    els = p.elements
    pairs = [(a, b) for a in els for b in els if p.less_eq(a, b)]
    out = []
    for objs in product(e.objects, repeat=len(els)):
        obj = dict(zip(els, objs))
        for ms in product(*(e.hom(obj[a], obj[b]) for a, b in pairs)):
            mor = dict(zip(pairs, ms))
            if all(mor[(a, a)] == e.ident[obj[a]] for a in els) and all(
                    e.then(mor[(a, b)], mor[(b, c)]) == mor[(a, c)]
                    for a, b in pairs for c in els if p.less_eq(b, c)):
                out.append((obj, mor))
    return out


def _grid_case(pname, cname):
    p = {"empty": Poset.from_relation([], lambda a, b: a == b),
         "chain1": Poset.from_relation([0, 1], lambda a, b: a <= b),
         "chain2": Poset.from_relation([0, 1, 2], lambda a, b: a <= b),
         "square": Poset.from_relation(
             [(0, 0), (0, 1), (1, 0), (1, 1)],
             lambda a, b: a[0] <= b[0] and a[1] <= b[1]),
         "d012": build_d(0b111).poset}[pname]
    e = {"C1": chain_category(1), "parallel-pair": parallel_pair(),
         "walking-iso": walking_iso()}[cname]
    return p, e


GRID = pytest.mark.parametrize("cname", ["C1", "parallel-pair", "walking-iso"])


@pytest.mark.parametrize("pname", ["chain1", "chain2", "square", "d012"])
@GRID
def test_extend_covers_matches_brute_force(pname, cname):
    p, e = _grid_case(pname, cname)
    els = p.elements
    covers = [(els[i], els[j]) for i, j in p.covers]
    functors = {}
    for obj, mor in _brute_functors(p, e):
        key = (tuple(obj[a] for a in els), tuple(mor[c] for c in covers))
        assert key not in functors  # a functor is fixed by its cover values
        functors[key] = mor
    extended = 0
    # every cover assignment, endpoints right or not
    for objs in product(e.objects, repeat=len(els)):
        for ms in product(e.morphisms, repeat=len(covers)):
            want = functors.get((objs, ms))
            got = extend_covers(p, e, dict(zip(els, objs)), dict(zip(covers, ms)))
            assert got == want, (objs, ms)
            extended += want is not None
    assert extended == len(functors) > 0


def _frozen(functors):
    return sorted((sorted(obj.items()), sorted(mor.items())) for obj, mor in functors)


@pytest.mark.parametrize("pname", ["empty", "chain1", "chain2", "square", "d012"])
@GRID
def test_poset_functors_match_brute_force_with_pins(pname, cname):
    p, e = _grid_case(pname, cname)
    brute = _brute_functors(p, e)
    assert _frozen(poset_functors(p, e)) == _frozen(brute)
    if not p.elements:
        return
    els = p.elements
    obj, mor = brute[len(brute) // 2]
    cover = (els[p.covers[0][0]], els[p.covers[0][1]])
    far = [(a, b) for a, b in mor if a != b and (p.index[a], p.index[b]) not in p.covers]
    pins = [({els[-1]: obj[els[-1]]}, None), (None, {cover: mor[cover]}),
            ({els[0]: "outside"}, None), (None, {cover: "outside"})]
    if far:
        pins.append((None, {far[0]: mor[far[0]]}))
    for obj_pin, edge_pin in pins:
        want = [f for f in brute
                if all(f[0][a] == x for a, x in (obj_pin or {}).items())
                and all(f[1][pq] == m for pq, m in (edge_pin or {}).items())]
        got = poset_functors(p, e, obj_pin, edge_pin)
        assert _frozen(got) == _frozen(want), (obj_pin, edge_pin)


def _one_endomorphism(square):
    """One object a with one non-identity endomorphism e, e then e = square."""
    comp = {("ida", "ida"): "ida", ("ida", "e"): "e", ("e", "ida"): "e",
            ("e", "e"): square}
    return FiniteCategory(("a",), ("ida", "e"), {"ida": "a", "e": "a"},
                          {"ida": "a", "e": "a"}, {"a": "ida"}, comp)


def test_category_equals_compares_structure_not_order():
    c = walking_iso()
    data = c.to_json()
    data["objects"].reverse()
    data["morphisms"].reverse()
    assert c.equals(FiniteCategory.from_json(data))
    assert not c.equals(chain_category(1))
    assert not chain_category(1).equals(chain_category(2))
    # idempotent against involution: only the composition tells them apart
    assert _one_endomorphism("e").equals(_one_endomorphism("e"))
    assert not _one_endomorphism("e").equals(_one_endomorphism("ida"))


def test_category_json_roundtrip():
    c = walking_iso()
    c2 = FiniteCategory.from_json(c.to_json())
    assert len(c2.objects) == len(c.objects)
    assert len(c2.morphisms) == len(c.morphisms)
    assert sorted(c2.objects) == sorted(c.objects)
    assert c2.is_iso("u")
