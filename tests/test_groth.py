"""Total categories and total posets of contravariant diagrams."""

import pytest

from nervecheck.battery import functor_battery
from nervecheck.category import CatFunctor, FiniteCategory, chain_category, walking_iso
from nervecheck.funcspec import FunctorSpec, pair_mask
from nervecheck.groth import grothendieck_classical, grothendieck_poset
from nervecheck.bits import bits
from nervecheck.homotopy import Complex, contractibility_verdict
from nervecheck.poset import ChainSubcomplex, Poset, nerve_chains


def arrow_spec(value0, value1, at):
    """Diagram over the walking arrow sending 1 to a point."""
    c1 = chain_category(1)
    pt = FiniteCategory.point()
    action = {(0, 1): CatFunctor(pt, value0, {"*": at},
                                 {"id": value0.ident[at]})}
    return FunctorSpec(c1, {0: value0, 1: pt}, action)


def test_total_category_of_chain_diagram_is_a_chain():
    # value [1] glued to a point along the top object: three objects in a row
    sp = arrow_spec(chain_category(1), None, at=1)
    g = grothendieck_classical(sp)
    assert sorted(g.objects) == [(0, 0), (0, 1), (1, "*")]
    assert len(g.morphisms) == 6
    assert g.is_thin()
    bot, mid, top = (0, 0), (0, 1), (1, "*")
    assert g.hom(bot, mid) and g.hom(mid, top) and g.hom(bot, top)
    assert not g.hom(top, bot) and not g.hom(mid, bot)


def test_total_category_glued_at_bottom():
    # gluing at the bottom object gives a two-armed fork out of (0, 0)
    sp = arrow_spec(chain_category(1), None, at=0)
    g = grothendieck_classical(sp)
    assert len(g.objects) == 3
    assert len(g.morphisms) == 5
    assert g.hom((0, 0), (0, 1)) and g.hom((0, 0), (1, "*"))
    assert not g.hom((0, 1), (1, "*")) and not g.hom((1, "*"), (0, 1))


def test_total_category_keeps_isomorphisms():
    sp = arrow_spec(walking_iso(), None, at="a")
    g = grothendieck_classical(sp)
    assert len(g.objects) == 3
    assert len(g.morphisms) == 7
    up = ((0, 0), "u", "b")
    assert g.src[up] == (0, "a") and g.tgt[up] == (0, "b")
    assert g.is_iso(up)
    assert not g.is_iso(((0, 1), "ida", "*"))


@pytest.mark.parametrize("item", functor_battery(), ids=lambda it: it[0])
def test_composition_table_is_filled_in_all_pairs_order(item):
    g = grothendieck_classical(item[1])
    assert list(g.comp) == [(f, h) for f in g.morphisms for h in g.morphisms
                            if g.tgt[f] == g.src[h]]


def test_total_category_rejects_oriental_base():
    pt = FiniteCategory.point()
    sp = FunctorSpec(1, {0: pt, 1: pt},
                     {pair_mask(0, 1): CatFunctor.identity(pt)})
    with pytest.raises(ValueError, match="category base"):
        grothendieck_classical(sp)


def chain_poset(labels):
    order = {l: i for i, l in enumerate(labels)}
    return Poset.from_relation(labels, lambda a, b: order[a] <= order[b])


def test_total_poset_of_chain_diagram():
    base = chain_poset([0, 1])
    values = {0: chain_poset(["a", "b"]), 1: chain_poset(["*"])}
    transport = {(0, 0): {"a": "a", "b": "b"}, (1, 1): {"*": "*"},
                 (0, 1): {"*": "b"}}
    total = grothendieck_poset(base, values, transport)
    assert sorted(total.elements) == [(0, "a"), (0, "b"), (1, "*")]
    assert total.less_eq((0, "a"), (0, "b"))
    assert total.less_eq((0, "b"), (1, "*"))
    assert total.less_eq((0, "a"), (1, "*"))
    assert not total.less_eq((1, "*"), (0, "a"))
    assert total.maximum() == (1, "*")


def test_total_poset_nerve_contractible_when_values_have_maxima():
    # every fiber has a maximum and transports preserve them: collapsible
    base = chain_poset([0, 1, 2])
    v = chain_poset(["x", "y"])
    values = {0: v, 1: v, 2: chain_poset(["z"])}
    transport = {}
    for a in base.elements:
        for b in base.elements:
            if not base.less_eq(a, b):
                continue
            transport[(a, b)] = {e: e for e in values[b].elements} if a == b \
                else {e: values[a].maximum() for e in values[b].elements}
    total = grothendieck_poset(base, values, transport)
    sub = ChainSubcomplex.closure(total, nerve_chains(total))
    assert contractibility_verdict(Complex(tuple(bits(c)) for c in sub.chains)).status == "Contractible"


def test_total_poset_transport_validation():
    base = chain_poset([0, 1])
    v2 = chain_poset(["a", "b"])
    ident = {"a": "a", "b": "b"}
    good = {(0, 0): ident, (1, 1): ident, (0, 1): ident}

    with pytest.raises(ValueError, match="missing transport"):
        grothendieck_poset(base, {0: v2, 1: v2}, {(0, 0): ident, (1, 1): ident})
    with pytest.raises(ValueError, match="not monotone"):
        grothendieck_poset(base, {0: v2, 1: v2},
                           {**good, (0, 1): {"a": "b", "b": "a"}})
    with pytest.raises(ValueError, match="out of range"):
        grothendieck_poset(base, {0: chain_poset(["c"]), 1: v2},
                           {(0, 0): {"c": "c"}, (1, 1): ident, (0, 1): ident})

    anti = Poset.from_relation([0, 1], lambda a, b: a == b)
    with pytest.raises(ValueError, match="incomparable"):
        grothendieck_poset(anti, {0: v2, 1: v2}, good)

    # antichain values make any swap monotone, isolating the later checks
    two = Poset.from_relation(["p", "q"], lambda a, b: a == b)
    idq = {"p": "p", "q": "q"}
    swap = {"p": "q", "q": "p"}
    with pytest.raises(ValueError, match="identity transport"):
        grothendieck_poset(base, {0: two, 1: two},
                           {(0, 0): idq, (1, 1): swap, (0, 1): idq})

    base3 = chain_poset([0, 1, 2])
    tr = {(a, a): idq for a in base3.elements}
    tr.update({(0, 1): idq, (1, 2): idq, (0, 2): swap})
    with pytest.raises(ValueError, match="not functorial"):
        grothendieck_poset(base3, {0: two, 1: two, 2: two}, tr)
