"""Total categories and total posets of contravariant diagrams.

The total category of a category-valued diagram has pairs (c, x) as
objects and pairs (f, eta) as morphisms, where eta maps x into the
transport of the far object.  For poset-valued diagrams over a poset
the same construction is redone directly on order relations and cross
checked against the categorical one.
"""

from __future__ import annotations

from typing import Mapping

from .category import CatFunctor, FiniteCategory
from .funcspec import FunctorSpec
from .poset import Poset


def grothendieck_classical(spec: FunctorSpec) -> FiniteCategory:
    """Total category of a diagram over a finite category base."""
    if spec.oriental_base:
        raise ValueError("total category needs a category base")
    base = spec.base
    objects = [(c, x) for c in base.objects for x in spec.values[c].objects]
    morphisms = []
    src: dict = {}
    tgt: dict = {}
    out: dict = {o: [] for o in objects}
    for f in base.morphisms:
        c, cp = base.src[f], base.tgt[f]
        e = spec.values[c]
        trans = spec.functor(f)
        for xp in spec.values[cp].objects:
            far = trans.obj[xp]
            for x in e.objects:
                for eta in e.hom(x, far):
                    label = (f, eta, xp)
                    morphisms.append(label)
                    src[label] = (c, x)
                    tgt[label] = (cp, xp)
                    out[(c, x)].append(label)
    ident = {(c, x): (base.ident[c], spec.values[c].ident[x], x)
             for (c, x) in objects}
    # composable pairs only, each object's outgoing morphisms in list order
    comp = {}
    for m1 in morphisms:
        f, eta, _ = m1
        e, trans = spec.values[base.src[f]], spec.functor(f)
        for m2 in out[tgt[m1]]:
            g, zeta, xpp = m2
            comp[(m1, m2)] = (base.then(f, g), e.then(eta, trans.on_mor(zeta)), xpp)
    return FiniteCategory(objects, morphisms, src, tgt, ident, comp)


def _validate_poset_transport(base: Poset, values: Mapping,
                              transport: Mapping) -> None:
    for a in base.elements:
        for b in base.elements:
            if not base.less_eq(a, b):
                if (a, b) in transport:
                    raise ValueError(f"transport on incomparable pair ({a!r}, {b!r})")
                continue
            t = transport.get((a, b))
            if t is None:
                raise ValueError(f"missing transport for ({a!r}, {b!r})")
            for y in values[b].elements:
                if t[y] not in values[a].index:
                    raise ValueError(f"transport image out of range at ({a!r}, {b!r})")
            for y in values[b].elements:
                for z in values[b].elements:
                    if values[b].less_eq(y, z) and not values[a].less_eq(t[y], t[z]):
                        raise ValueError(f"transport not monotone at ({a!r}, {b!r})")
    for a in base.elements:
        for y in values[a].elements:
            if transport[(a, a)][y] != y:
                raise ValueError(f"identity transport broken at {a!r}")
    for a in base.elements:
        for b in base.elements:
            for c in base.elements:
                if not (base.less_eq(a, b) and base.less_eq(b, c)):
                    continue
                for z in values[c].elements:
                    if transport[(a, c)][z] != transport[(a, b)][transport[(b, c)][z]]:
                        raise ValueError(
                            f"transport not functorial over {a!r} <= {b!r} <= {c!r}")


def grothendieck_poset(base: Poset, values: Mapping[object, Poset],
                       transport: Mapping[tuple, Mapping]) -> Poset:
    """Total poset: (p, x) <= (q, y) iff p <= q and x <= transport (p,q) y.

    The order is cross-checked against grothendieck_classical.
    """
    _validate_poset_transport(base, values, transport)
    elements = [(p, x) for p in base.elements for x in values[p].elements]

    def leq(px, qy):
        (p, x), (q, y) = px, qy
        return base.less_eq(p, q) and values[p].less_eq(x, transport[(p, q)][y])

    total = Poset.from_relation(elements, leq)
    cats = {p: FiniteCategory.from_poset(values[p]) for p in base.elements}
    base_cat = FiniteCategory.from_poset(base)
    action = {}
    for (a, b) in base_cat.morphisms:
        if a == b:
            continue
        t = transport[(a, b)]
        action[(a, b)] = CatFunctor(
            cats[b], cats[a], dict(t),
            {(y, z): (t[y], t[z]) for (y, z) in cats[b].morphisms})
    spec = FunctorSpec(base_cat, cats, action)
    g = grothendieck_classical(spec)
    if sorted(g.objects) != sorted(elements):
        raise AssertionError("total category objects disagree with total poset")
    if not g.is_thin():
        raise AssertionError("total category of poset diagram is not thin")
    for px in elements:
        for qy in elements:
            if bool(g.hom(px, qy)) != leq(px, qy):
                raise AssertionError(
                    f"order disagreement between constructions at {px!r}, {qy!r}")
    return total
