"""Reduced lifting problems for the functor-family nerve.

A lifting problem fixes a boundary sphere in the family nerve of F
together with an n-simplex in the family nerve of G lying under it
along a levelwise transformation p: F -> G; a solution is a filler
simplex whose image is the prescribed one.  The reduced form trades
the filler for a single functor out of the subset poset on the simplex
positions: the sphere pins the functor on the subposets swept out by
the boundary faces, and the G-simplex pins its composite with p.  The
boundary pins are each face's theta moved along the union map rho by
nerves.transported, the function the nerve's square check reads.  Both
solution sets are enumerated and compared through the explicit map
sending a filler to its position-subset functor.
"""

from __future__ import annotations

from typing import Mapping

from .bits import digits, max_bit, min_bit
from .category import CatFunctor, FiniteCategory, poset_functors
from .funcspec import FunctorSpec, constant_spec, pair_mask
from .nerves import Rel2Backend, pair_order, relative_nerve_2, transported
from .oriental import d_leq, rho_image
from .simplicial import SimplexTable, sphere_maps


class NatTrans:
    """Levelwise functors F(c) -> G(c) commuting with both actions.

    Over an oriental base the components must also intertwine the
    two-cell transformations; this is what keeps the induced map of
    family nerves well defined on derived pair data.
    """

    def __init__(self, source: FunctorSpec, target: FunctorSpec,
                 components: Mapping, validate: bool = True):
        self.source = source
        self.target = target
        self.components = dict(components)
        if validate:
            self._validate()

    def component(self, c) -> CatFunctor:
        return self.components[c]

    def _validate(self) -> None:
        src, tgt = self.source, self.target
        if src.oriental_base != tgt.oriental_base:
            raise ValueError("base kinds differ")
        if src.oriental_base and src.base != tgt.base:
            raise ValueError("bases differ")
        if not src.oriental_base and src.base is not tgt.base:
            raise ValueError("bases differ")
        for c in src.values:
            comp = self.components.get(c)
            if comp is None:
                raise ValueError(f"no component at {c!r}")
            if comp.source is not src.values[c] or comp.target is not tgt.values[c]:
                raise ValueError(f"component endpoints wrong at {c!r}")
        if src.oriental_base:
            for a in range(src.base + 1):
                for b in range(a + 1, src.base + 1):
                    cell = pair_mask(a, b)
                    if not src.functor(cell).then(self.components[a]).equals(
                            self.components[b].then(tgt.functor(cell))):
                        raise ValueError(f"not natural at cell {digits(cell)}")
            for (small, big), comp in src.two_cells.items():
                pi, pj = self.components[min_bit(big)], self.components[max_bit(big)]
                gtau = tgt.tau(small, big)
                for x in src.functor(big).source.objects:
                    if pi.on_mor(comp[x]) != gtau[pj.obj[x]]:
                        raise ValueError(
                            f"two-cell compatibility fails at "
                            f"{digits(small)} < {digits(big)}")
        else:
            for f in src.base.morphisms:
                if src.base.is_identity(f):
                    continue
                a, b = src.base.src[f], src.base.tgt[f]
                if not src.functor(f).then(self.components[a]).equals(
                        self.components[b].then(tgt.functor(f))):
                    raise ValueError(f"not natural at {f!r}")


def identity_nat(spec: FunctorSpec) -> NatTrans:
    comps = {c: CatFunctor.identity(e) for c, e in spec.values.items()}
    return NatTrans(spec, spec, comps)


def point_spec(base) -> FunctorSpec:
    """Diagram constant at the point category, with identity transports."""
    return constant_spec(base, FiniteCategory.point())


def collapse_nat(spec: FunctorSpec) -> NatTrans:
    """Squash every value onto the constant point diagram."""
    tgt = point_spec(spec.base)
    pt = next(iter(tgt.values.values()))
    comps = {c: CatFunctor.constant(e, pt, "*") for c, e in spec.values.items()}
    return NatTrans(spec, tgt, comps)


def apply_nat(nat: NatTrans, z):
    """Image of a concrete family-nerve simplex under the transformation."""
    s, x, data = z
    k = len(x) - 1
    comps = [nat.component(s[0][j]) for j in range(k + 1)]
    xi = tuple(comps[j].obj[x[j]] for j in range(k + 1))
    di = tuple(comps[a].on_mor(m) for (a, b), m in zip(pair_order(k), data))
    return (s, xi, di)


def image_simplex(nat: NatTrans, tg: SimplexTable, z):
    """Image of a source simplex, which must be a simplex of the target table."""
    w = apply_nat(nat, z)
    if w not in tg:
        raise ValueError(f"the image {w!r} of {z!r} is not a simplex of the target nerve")
    return w


def sn_cells(n: int) -> tuple[set[int], set[tuple[int, int]]]:
    """Vertices and comparable pairs swept out by the boundary faces.

    The sweep unions, over every proper nonempty position subset J, the
    pullback image A(J) inside the subset poset on [0..n]; pairs are
    recorded when comparable inside a single A(J).
    """
    full = (1 << (n + 1)) - 1
    verts: set[int] = set()
    edges: set[tuple[int, int]] = set()
    for jm in range(1, full):
        elems = rho_image(full, jm)
        verts.update(elems)
        edges.update((m, mp) for m in elems for mp in elems
                     if m != mp and d_leq(m, mp))
    return verts, edges


def _sphere_xf(sphere: Mapping, n: int):
    """Vertex and pair data shared by the faces of a boundary sphere."""
    x: dict = {}
    f: dict = {}
    for t in range(n + 1):
        zc = sphere[t]
        emb = [j for j in range(n + 1) if j != t]
        for q, j in enumerate(emb):
            if x.setdefault(j, zc[1][q]) != zc[1][q]:
                raise ValueError("sphere faces disagree on a vertex value")
        for (qa, qb), m in zip(pair_order(n - 1), zc[2]):
            key = (emb[qa], emb[qb])
            if f.setdefault(key, m) != m:
                raise ValueError("sphere faces disagree on an edge value")
    return tuple(x[j] for j in range(n + 1)), f


def boundary_functor(back: Rel2Backend, zv, n: int) -> tuple[dict, dict]:
    """Partial functor on the subset poset assembled from the boundary.

    Every proper position subset J contributes its face functor (the
    theta the backend keeps for that face) moved along rho by
    nerves.transported.  Reflexive pairs are left to the identities.
    """
    full = (1 << (n + 1)) - 1
    pins: tuple[dict, dict] = ({}, {})
    for jm in range(1, full):
        th = back.theta_of(zv, jm)
        if th is None:
            raise ValueError("boundary data is path dependent")
        for part, key, val in transported(back, zv[0], full, jm, th):
            if part and key[0] == key[1]:
                continue
            if pins[part].setdefault(key, val) != val:
                raise ValueError("boundary functors disagree on "
                                 + ("an arrow" if part else "an element"))
    return pins


def reduced_solutions(nat: NatTrans, back: Rel2Backend, zv, gbar) -> list[tuple[dict, dict]]:
    """Functors on the full subset poset extending the boundary data.

    Candidates come from poset_functors' one cover-pruned product,
    pinned by the boundary sweep, and are kept when they lie over the
    functor induced by the prescribed G-simplex.  Each is an (obj, mor)
    pair, the format of the backend's theta.
    """
    n = len(zv[1]) - 1
    dp = back.dpos((1 << (n + 1)) - 1)
    obj_pin, edge_pin = boundary_functor(back, zv, n)
    p0 = nat.component(zv[0][0][0])
    g_obj, g_mor = gbar
    cands = poset_functors(dp, back.value_at(zv[0], 0), obj_pin, edge_pin)
    return [(obj, mor) for obj, mor in cands
            if all(p0.obj[obj[m]] == g_obj[m] for m in dp.elements)
            and all(p0.on_mor(v) == g_mor[k] for k, v in mor.items())]


def _freeze(obj: Mapping, mor: Mapping) -> tuple:
    return (frozenset(obj.items()), frozenset(mor.items()))


def _solve(nat: NatTrans, tf: SimplexTable, tg: SimplexTable,
           sphere_xf: tuple, w, originals: list) -> dict:
    """Reduce one lifting problem and compare its solutions with the fillers.

    sphere_xf is the vertex and pair data of the boundary sphere, w the
    prescribed simplex of the target nerve and originals the fillers of
    the sphere lying over w.
    """
    n = len(w[1]) - 1
    full = (1 << (n + 1)) - 1
    x, f = sphere_xf
    zv = (w[0], x, tuple(f[pq] for pq in pair_order(n)))
    backf = tf.backend
    red = reduced_solutions(nat, backf, zv, tg.backend.theta_of(w, full))
    mapped = {_freeze(*backf.theta_of(z, full)) for z in originals}
    return {
        "original": len(originals),
        "reduced": len(red),
        "match": len(originals) == len(red),
        "bijection": len(mapped) == len(originals) == len(red)
        and mapped == {_freeze(*r) for r in red},
    }


def reduced_lifting_check(nat: NatTrans, n: int) -> dict:
    """Sweep every lifting problem at one level and compare both sides.

    A problem is a boundary sphere in the family nerve of the source
    together with an n-simplex of the target nerve restricting to its
    image.  Solutions are counted on both sides of the reduction and
    matched through the subset-poset functor of each filler.
    """
    if n < 2:
        raise ValueError("the boundary pins every vertex and pair only from n = 2 up")
    tf = relative_nerve_2(nat.source, n)
    tg = relative_nerve_2(nat.target, n)
    imgs: dict = {}

    def img(z):
        if z not in imgs:
            imgs[z] = image_simplex(nat, tg, z)
        return imgs[z]

    fillers: dict[tuple, list] = {}
    for z in tf.simplices[n]:
        fillers.setdefault(tf.boundary(z), []).append(z)
    under: dict[tuple, list] = {}
    for y in tg.simplices[n]:
        under.setdefault(tg.boundary(y), []).append(y)

    problems = 0
    mismatches = 0
    broken = 0
    reduced_total = 0
    hist: dict[int, int] = {}
    for sphere in sphere_maps(tf, n):
        key = tuple(sphere[i] for i in range(n + 1))
        cands = under.get(tuple(img(r) for r in key), [])
        if not cands:
            continue
        xf = _sphere_xf(sphere, n)
        zs_all = fillers.get(key, [])
        for w in cands:
            problems += 1
            res = _solve(nat, tf, tg, xf, w, [z for z in zs_all if img(z) == w])
            reduced_total += res["reduced"]
            hist[res["original"]] = hist.get(res["original"], 0) + 1
            if not res["match"]:
                mismatches += 1
            elif not res["bijection"]:
                broken += 1
    return {
        "n": n,
        "problems": problems,
        "count_mismatches": mismatches,
        "broken_bijections": broken,
        "bijective": mismatches == 0 and broken == 0,
        "solution_histogram": dict(sorted(hist.items())),
        "original_total": sum(k * v for k, v in hist.items()),
        "reduced_total": reduced_total,
    }
