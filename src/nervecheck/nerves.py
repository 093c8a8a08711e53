"""Nerve constructions for category-valued diagrams.

relative_nerve_1 builds the simplicial set whose n-simplices are a base
nerve simplex together with a compatible family of simplices in the
values, one for every nonempty subset of vertices.  relative_nerve_2
replaces the simplex family by functors out of the subset posets D^I,
constrained by transport squares along the union maps rho; it supports
both category bases and oriental bases, where inequalities of 1-cells
act through the two-cell components of the diagram.

The free data behind both constructions is one value object per vertex
and one connecting morphism per vertex pair; everything else is forced
by the squares.  Enumeration lists the free data alone: that every
family it lists satisfies the definition (faces, path independence,
squares) is a claim, checked by the nerve-definition suite through
Rel2Backend.simplex_valid.  A 2-nerve simplex's functor on a position
set J is its sub-simplex's on all positions, relabelled, so each
simplex's functor is built once.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, product

from .bits import bit_list, bits, mask_of, max_bit, min_bit, subsets_with_min_max
from .category import CatFunctor, FiniteCategory, extend_covers
from .funcspec import FunctorSpec, one_cells, pair_mask
from .groth import grothendieck_classical
from .oriental import build_d, comparable_pairs
from .poset import Poset
from .simplicial import (CategoryNerveBackend, SimplexTable, codegeneracy,
                         delta, map_by_dimension)


def pair_order(k: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(k + 1) for b in range(a + 1, k + 1)]


def _free_data(vals: list[FiniteCategory], step: list[CatFunctor]) -> list:
    """Each object tuple x of the values, in product order, with each choice
    fc of a morphism x[j] -> step[j](x[j + 1]) per consecutive pair; x grows
    left to right only where that hom is nonempty."""
    level = [((y,), ()) for y in vals[0].objects]
    for j, f in enumerate(step):
        level = [(x + (y,), homs + (h,)) for x, homs in level
                 for y in vals[j + 1].objects if (h := vals[j].hom(x[j], f.obj[y]))]
    return [(x, fc) for x, homs in level for fc in product(*homs)]


@lru_cache(maxsize=None)
def _pair_plan(k: int, alpha) -> tuple:
    """Per pair (a, b) of alpha's domain, alpha(a) and the index of the
    pair (alpha(a), alpha(b)) in pair_order(k), None where they meet."""
    index = {p: t for t, p in enumerate(pair_order(k))}
    return tuple((alpha[a], None if alpha[a] == alpha[b]
                  else index[(alpha[a], alpha[b])])
                 for a, b in pair_order(len(alpha) - 1))


class OrientalScaledBackend:
    """Scaled nerve of an oriental.

    A k-simplex is a weakly monotone vertex map v together with a
    1-cell h(a, b) from v(a) to v(b) for every pair, subject to
    h(a, b) <= h(a, c) | h(c, b); values on longer subsets are unions
    over consecutive pairs, so pairs determine the whole assignment.
    """

    def __init__(self, m: int):
        self.m = m

    def simplices(self, k: int) -> list:
        out = []
        order = pair_order(k)
        by_span = sorted(order, key=lambda ab: ab[1] - ab[0])
        for v in combinations_with_replacement(range(self.m + 1), k + 1):
            def assign(t: int, h: dict) -> None:
                if t == len(by_span):
                    out.append((v, tuple(h[p] for p in order)))
                    return
                a, b = by_span[t]
                for cell in one_cells(v[a], v[b]):
                    if all(not cell & ~(h[(a, c)] | h[(c, b)])
                           for c in range(a + 1, b)):
                        h[(a, b)] = cell
                        assign(t + 1, h)
                        del h[(a, b)]

            assign(0, {})
        return out

    def alpha_star(self, s, alpha):
        v, h = s
        return (tuple(v[a] for a in alpha),
                tuple((1 << v[ia]) if t is None else h[t]
                      for ia, t in _pair_plan(len(v) - 1, alpha)))

    def cell(self, s, a: int, b: int):
        """The 1-cell of s from vertex a to vertex b, a <= b."""
        v, h = s
        if a == b:
            return 1 << v[a]
        return h[a * (len(v) - 1) - a * (a - 1) // 2 + (b - a - 1)]

    def compose(self, c1, c2):
        return c1 | c2

    def thin(self, s) -> bool:
        """A triangle is thin when its long 1-cell is the union of the short ones."""
        h = s[1]
        return h[1] == h[0] | h[2]

    def dim_of(self, s) -> int:
        return len(s[0]) - 1


class Rel2Backend:
    """Simplices of the functor-family nerve, enumerated by free data.

    A simplex is (sigma, x, f) with one object per vertex and one
    morphism per vertex pair; pairs beyond the consecutive ones are the
    forced composites.  simplex_valid(z) is the definition: every subset
    functor is path independent and every transport square holds; fill
    does not read it.  The base backend supplies the cells of base
    simplices, and path_cell keeps each composite cell once.  The subset
    functor theta on a position set J is that of the sub-simplex on J,
    relabelled: it is kept per simplex once a larger simplex or a lifting
    problem reads it.
    """

    def __init__(self, spec: FunctorSpec):
        self.spec = spec
        self.base = OrientalScaledBackend(spec.base) if spec.oriental_base \
            else CategoryNerveBackend(spec.base)
        self._dps: dict[int, Poset] = {}
        self._path_cells: dict = {}
        self._valid: dict = {}
        self._thetas: dict = {}

    def dpos(self, ground: int) -> Poset:
        if ground not in self._dps:
            self._dps[ground] = build_d(ground).poset
        return self._dps[ground]

    def value_at(self, s, j: int) -> FiniteCategory:
        return self.spec.values[s[0][j]]

    def path_cell(self, s, pos_mask: int):
        """Composite base cell along the consecutive pairs of a position set."""
        key = (s, pos_mask)
        out = self._path_cells.get(key)
        if out is None:
            ps, base = bit_list(pos_mask), self.base
            out = base.cell(s, ps[0], ps[0])
            for a, b in zip(ps, ps[1:]):
                out = base.compose(out, base.cell(s, a, b))
            self._path_cells[key] = out
        return out

    def simplices(self, k: int) -> list:
        out = []
        for s in self.base.simplices(k):
            out.extend(self.fill(s, k))
        return out

    def fill(self, s, k: int) -> list:
        """Every family the free data derive over one base simplex."""
        vals = [self.value_at(s, j) for j in range(k + 1)]
        step = [self.spec.functor(self.base.cell(s, j, j + 1)) for j in range(k)]
        return [(s, x, self._derive(s, k, x, fc)) for x, fc in _free_data(vals, step)]

    def _derive(self, s, k: int, x, fc) -> tuple:
        base, spec = self.base, self.spec
        f = {(j, j + 1): fc[j] for j in range(k)}
        for span in range(2, k + 1):
            for a in range(k + 1 - span):
                b, c = a + 1, a + span
                cab, cbc = base.cell(s, a, b), base.cell(s, b, c)
                e = self.value_at(s, a)
                comp = e.then(f[(a, b)], spec.functor(cab).on_mor(f[(b, c)]))
                tau = spec.tau(base.cell(s, a, c), base.compose(cab, cbc))
                f[(a, c)] = e.then(comp, tau[x[c]])
        return tuple(f[p] for p in pair_order(k))

    # --- validation ----------------------------------------------------

    def theta_of(self, z, imask: int):
        """Functor (objects, all pair values) of D^imask; None if path dependent.

        It is the theta of the sub-simplex on the positions in imask,
        relabelled; the theta of a whole position set is kept per simplex.
        """
        if imask != (1 << len(z[1])) - 1:
            alpha, up = _relabel(imask)
            th = self.theta_of(self.alpha_star(z, alpha), (1 << len(alpha)) - 1)
            if th is None:
                return None
            return ({up[m]: y for m, y in th[0].items()},
                    {(up[a], up[b]): g for (a, b), g in th[1].items()})
        if z not in self._thetas:
            self._thetas[z] = self._build_theta(z)
        return self._thetas[z]

    def _build_theta(self, z):
        """Theta of the whole position set of z."""
        s, x, data = z
        k = len(x) - 1
        f = dict(zip(pair_order(k), data))
        imask = (1 << (k + 1)) - 1
        p = self.dpos(imask)
        e = self.value_at(s, 0)
        obj = {sm: self.spec.functor(self.path_cell(s, sm)).obj[x[max_bit(sm)]]
               for sm in p.elements}
        cov = {}
        for (ia, ib) in p.covers:
            sm, tm = p.elements[ia], p.elements[ib]
            cov[(sm, tm)] = self._cover_value(s, x, f, sm, tm)
        mor = extend_covers(p, e, obj, cov)
        if mor is None:
            return None
        return (obj, mor)

    def _cover_value(self, s, x, f, sm: int, tm: int):
        base, spec = self.base, self.spec
        added = tm & ~sm
        if added:
            t = min_bit(added)
            return spec.functor(self.path_cell(s, sm)).on_mor(f[(max_bit(sm), t)])
        j = min_bit(sm & ~tm)
        below = sm & ((1 << j) - 1)
        above = sm & ~((1 << (j + 1)) - 1)
        a, b = max_bit(below), min_bit(above)
        small = base.cell(s, a, b)
        big = base.compose(base.cell(s, a, j), base.cell(s, j, b))
        comp_at = spec.functor(self.path_cell(s, above)).obj[x[max_bit(sm)]]
        return spec.functor(self.path_cell(s, below)).on_mor(
            spec.tau(small, big)[comp_at])

    def simplex_valid(self, z) -> bool:
        """The faces are valid, theta of the whole position set exists and
        every square (whole set, J) holds.

        A square (I, J) with I proper reads only positions in I, so it is
        the relabelled square of the face d_i z for any i outside I.
        Validity is memoised per backend, so each face is proved once.
        """
        ok = self._valid.get(z)
        if ok is None:
            ok = self._valid[z] = self._valid_from_faces(z)
        return ok

    def _valid_from_faces(self, z) -> bool:
        k = len(z[1]) - 1
        if k and not all(self.simplex_valid(self.alpha_star(z, delta(i, k)))
                         for i in range(k + 1)):
            return False
        whole = (1 << (k + 1)) - 1
        # not kept: only a simplex that a larger one contains is read again,
        # so the thetas of a table's top dimension are never held
        th = self._build_theta(z)
        return th is not None and all(
            square_holds(self, z[0], whole, jm, th, self.theta_of(z, jm))
            for jm in range(1, whole))

    # --- simplicial structure -------------------------------------------

    def alpha_star(self, z, alpha):
        s, x, data = z
        fp = tuple(self.value_at(s, ia).ident[x[ia]] if t is None else data[t]
                   for ia, t in _pair_plan(len(x) - 1, alpha))
        return (self.base.alpha_star(s, alpha), tuple(x[a] for a in alpha), fp)

    def marked(self, z) -> bool:
        """An edge is marked when its value morphism is an isomorphism."""
        return self.value_at(z[0], 0).is_iso(z[2][0])

    def thin(self, z) -> bool:
        """A triangle is thin when its base triangle is."""
        return self.base.thin(z[0])

    def dim_of(self, z) -> int:
        return len(z[1]) - 1


@lru_cache(maxsize=None)
def _relabel(imask: int) -> tuple:
    """The positions alpha of imask, and per subset of alpha's domain the
    subset of imask it names."""
    alpha = tuple(bit_list(imask))
    return alpha, tuple(mask_of(alpha[t] for t in bits(m)) for m in range(1 << len(alpha)))


@lru_cache(maxsize=None)
def rho_plan(imask: int, jmask: int) -> tuple:
    """Keys of the transport squares of the union map rho for J inside I.

    Per connector s1, a subset of I from min I to min J: the element
    keys (s1|s2, s2) over D^J, and per s1p inside s1 the pair keys
    ((s1|s2, s1p|s2p), (s2, s2p)) over every comparable pair of D^J, so,
    rho being an order embedding, every comparable pair of its image.
    """
    dp_j = build_d(jmask)
    j_pairs = comparable_pairs(dp_j, strict=False)
    connectors = list(subsets_with_min_max(imask, min_bit(imask), min_bit(jmask)))
    return tuple((s1, tuple((s1 | a, a) for a in dp_j.poset.elements),
                  tuple((s1p, tuple(((s1 | a, s1p | b), (a, b)) for a, b in j_pairs))
                        for s1p in connectors if s1p & s1 == s1p))
                 for s1 in connectors)


def transported(back, s, imask, jmask, th_j):
    """What th_j forces on rho's image in D^I, J inside I.

    Yields (0, s1|s2, the object of s2 moved along the base cell s1) per
    element of the image, and (1, pair, arrow) per comparable pair of it,
    reflexive ones included: the arrow of the D^J pair moved the same
    way, composed with the two-cell tau(s1p, s1).
    """
    spec = back.spec
    comp = back.value_at(s, min_bit(imask)).comp
    obj_j, mor_j = th_j
    for s1, elems, steps in rho_plan(imask, jmask):
        f_s1 = spec.functor(back.path_cell(s, s1))
        f_obj, f_mor = f_s1.obj, f_s1.mor
        for m, s2 in elems:
            yield 0, m, f_obj[obj_j[s2]]
        for s1p, pairs in steps:
            tau = spec.tau(back.path_cell(s, s1p), back.path_cell(s, s1))
            for ikey, jkey in pairs:
                yield 1, ikey, comp[f_mor[mor_j[jkey]], tau[obj_j[jkey[1]]]]


def square_holds(back, s, imask, jmask, th_i, th_j) -> bool:
    """Transport square of the union map for J inside I: th_i takes
    every value that th_j forces.

    Families built from free data satisfy the object components
    automatically, but they are cheap and guard the literal
    enumeration, where objects are genuinely unconstrained.
    """
    for part, key, val in transported(back, s, imask, jmask, th_j):
        if th_i[part][key] != val:
            return False
    return True


def relative_nerve_2(spec: FunctorSpec, dim: int) -> SimplexTable:
    # kept as a name of its own because perfbench/spans.py traces it
    return SimplexTable(Rel2Backend(spec), dim)


class Rel1Backend:
    """Simplices carry one value simplex per nonempty vertex subset."""

    def __init__(self, spec: FunctorSpec):
        if spec.oriental_base:
            raise ValueError("the simplex-family nerve needs a category base")
        self.spec = spec
        self.catnerve = CategoryNerveBackend(spec.base)
        self.valnb = {c: CategoryNerveBackend(e) for c, e in spec.values.items()}

    def simplices(self, k: int) -> list:
        spec = self.spec
        subsets = [bit_list(imask) for imask in range(1, 1 << (k + 1))]
        out = []
        for s in self.catnerve.simplices(k):
            vals = [spec.values[c] for c in s[0]]
            paths = {(a, b): spec.functor(self.catnerve.cell(s, a, b))
                     for a in range(k + 1) for b in range(a, k + 1)}
            step = [paths[(j, j + 1)] for j in range(k)]
            # per subset, the maps and positions that build its theta
            plans = [([(paths[(ps[0], p)].obj, p) for p in ps],
                      [(paths[(ps[0], a)].mor, (a, b))
                       for a, b in zip(ps, ps[1:])]) for ps in subsets]
            for x, fc in _free_data(vals, step):
                g = {(j, j + 1): fc[j] for j in range(k)}
                for a, c in pair_order(k):  # (a, c - 1) comes first
                    if c > a + 1:
                        g[a, c] = vals[a].then(g[a, c - 1],
                                               paths[a, c - 1].on_mor(g[c - 1, c]))
                thetas = tuple(
                    (tuple([obj[x[p]] for obj, p in objs]),
                     tuple([mor[g[ab]] for mor, ab in mors]))
                    for objs, mors in plans)
                out.append((s, thetas))
        return out

    def alpha_star(self, z, alpha):
        s, thetas = z
        objs, valnb = s[0], self.valnb
        tp = tuple(thetas[t] if beta is None
                   else valnb[objs[first]].alpha_star(thetas[t], beta)
                   for t, beta, first in _restriction_plan(alpha))
        return (self.catnerve.alpha_star(s, alpha), tp)

    def marked(self, z) -> bool:
        """An edge is marked when its value edge is an isomorphism."""
        s, thetas = z
        return self.spec.values[s[0][0]].is_iso(thetas[2][1][0])

    def dim_of(self, z) -> int:
        return len(z[0][0]) - 1


@lru_cache(maxsize=None)
def _restriction_plan(alpha) -> tuple:
    """Per nonempty subset I of [k'], where its theta comes from under alpha.

    Entries are (theta index of alpha(I), beta, min alpha(I)), with beta
    the restriction of that theta to I, or None when beta is the identity.
    """
    plan = []
    for imask in range(1, 1 << len(alpha)):
        images = [alpha[t] for t in bit_list(imask)]
        m = mask_of(images)
        u = bit_list(m)
        beta = tuple(u.index(im) for im in images)
        plan.append((m - 1, None if beta == tuple(range(len(u))) else beta, u[0]))
    return tuple(plan)


def relative_nerve_1(spec: FunctorSpec, dim: int) -> SimplexTable:
    # kept as a name of its own because perfbench/spans.py traces it
    return SimplexTable(Rel1Backend(spec), dim)


def pi_star_map(z):
    """Coordinate form of the comparison into the functor-family nerve."""
    s, thetas = z
    k = len(s[0]) - 1
    x = tuple(thetas[(1 << j) - 1][0][0] for j in range(k + 1))
    f = tuple(thetas[pair_mask(a, b) - 1][1][0] for a, b in pair_order(k))
    return (s, x, f)


def pi_star_check(rel1: SimplexTable, rel2: SimplexTable, dim: int) -> dict:
    """Compare the two relative nerves of one spec along the
    projection-induced map, on their tables rel1 and rel2 through dim."""
    b1, b2 = rel1.backend, rel2.backend
    report = {"well_defined": True, "faces_commute": True,
              "degeneracies_commute": True, "markings_match": True,
              "projection_commutes": True,
              "injective": {}, "bijective": {}}
    for k, (src, images, tgt, commute) in enumerate(
            map_by_dimension(rel1, rel2, pi_star_map, dim)):
        if any(w not in tgt for w in images):
            report["well_defined"] = False
        if not commute:
            report["faces_commute"] = False
        report["injective"][k] = len(set(images)) == len(src)
        report["bijective"][k] = set(images) == tgt and report["injective"][k]
        for z, w in zip(src, images):
            if z[0] != w[0]:
                report["projection_commutes"] = False
            if k == 1 and b1.marked(z) != b2.marked(w):
                report["markings_match"] = False
            if k < dim:
                for j in range(k + 1):
                    if pi_star_map(b1.alpha_star(z, codegeneracy(j, k))) != \
                            b2.alpha_star(w, codegeneracy(j, k)):
                        report["degeneracies_commute"] = False
    return report


def chi_groth_map(z):
    """Simplex of the total category nerve determined by family data."""
    s, thetas = z
    k = len(s[0]) - 1
    x = [thetas[(1 << j) - 1][0][0] for j in range(k + 1)]
    objs = tuple((s[0][j], x[j]) for j in range(k + 1))
    mors = tuple((s[1][t], thetas[pair_mask(t, t + 1) - 1][1][0], x[t + 1])
                 for t in range(k))
    return (objs, mors)


def chi_groth_comparison(rel1: SimplexTable, dim: int) -> dict:
    """The family nerve's table rel1 against the nerve of the total
    category of its spec through dim."""
    total = SimplexTable(CategoryNerveBackend(
        grothendieck_classical(rel1.backend.spec)), dim)
    report = {"counts": [], "bijective": True, "faces_commute": True}
    for src, images, tgt, commute in map_by_dimension(rel1, total, chi_groth_map, dim):
        report["counts"].append((len(src), len(tgt)))
        if not (len(set(images)) == len(src) and set(images) == tgt):
            report["bijective"] = False
        if not commute:
            report["faces_commute"] = False
    return report


def pull_spec(bf: CatFunctor, spec: FunctorSpec) -> FunctorSpec:
    """Restrict a diagram along a functor of category bases."""
    if spec.oriental_base:
        raise ValueError("base change needs category bases")
    c = bf.source
    values = {o: spec.values[bf.obj[o]] for o in c.objects}
    action = {g: spec.functor(bf.mor[g]) for g in c.morphisms
              if not c.is_identity(g)}
    return FunctorSpec(c, values, action)


class PullbackBackend:
    """Pullback of a family nerve along the nerve of a base functor bf.

    A simplex is a pair (tau, z) of a simplex tau of the nerve of the
    source of bf and a family nerve simplex z over the base simplex
    bf(tau); alpha_star acts on both components.
    """

    def __init__(self, bf: CatFunctor, family: Rel2Backend):
        self.bf = bf
        self.source = CategoryNerveBackend(bf.source)
        self.family = family

    def over(self, tau):
        """The base simplex bf(tau)."""
        return (tuple(self.bf.obj[o] for o in tau[0]),
                tuple(self.bf.mor[m] for m in tau[1]))

    def simplices(self, k: int) -> list:
        return [(tau, z) for tau in self.source.simplices(k)
                for z in self.family.fill(self.over(tau), k)]

    def alpha_star(self, p, alpha):
        return (self.source.alpha_star(p[0], alpha), self.family.alpha_star(p[1], alpha))

    def dim_of(self, p) -> int:
        return len(p[0][0]) - 1


def base_change_check(bf: CatFunctor, spec: FunctorSpec, dim: int) -> dict:
    """Pulled-back nerve against the pullback of the nerve."""
    pulled = Rel2Backend(pull_spec(bf, spec))
    pullback = PullbackBackend(bf, Rel2Backend(spec))
    report = {"dims": {}, "isomorphism": True, "faces_commute": True}
    for k, (src, images, tgt, commute) in enumerate(map_by_dimension(
            SimplexTable(pulled, dim), SimplexTable(pullback, dim),
            lambda z: (z[0], (pullback.over(z[0]), z[1], z[2])), dim)):
        ok = len(set(images)) == len(src) and set(images) == tgt
        report["dims"][k] = {"nerve": len(src), "pullback": len(tgt), "match": ok}
        if not ok:
            report["isomorphism"] = False
        if not commute:
            report["faces_commute"] = False
    return report
