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
by the squares.  Enumeration exploits this and then verifies the
defining constraints on the result.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, product

from .bits import (bit_list, mask_of, max_bit, min_bit, subsets_of,
                   subsets_with_min_max)
from .category import CatFunctor, FiniteCategory, extend_covers, poset_functors
from .funcspec import FunctorSpec, one_cells, pair_mask
from .groth import grothendieck_classical
from .oriental import build_d
from .poset import Poset
from .simplicial import (
    CategoryNerveBackend,
    SimplexTable,
    boundary_of,
    closed_simplices,
    codegeneracy,
    delta,
    nerve_table,
)


def pair_order(k: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(k + 1) for b in range(a + 1, k + 1)]


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

    def dim_of(self, s) -> int:
        return len(s[0]) - 1


def oriental_thin(s) -> bool:
    v, h = s
    return h[1] == h[0] | h[2]


def scaled_nerve(base, dim: int) -> SimplexTable:
    """Scaled nerve table; for category bases every triangle is thin."""
    if isinstance(base, int):
        return SimplexTable(OrientalScaledBackend(base), dim,
                            thin_rule=oriental_thin)
    return nerve_table(base, dim)


class _BaseView:
    """Uniform cell calculus over category and oriental bases."""

    def __init__(self, spec: FunctorSpec):
        self.spec = spec
        self.oriental = spec.oriental_base
        self.backend = OrientalScaledBackend(spec.base) if self.oriental \
            else CategoryNerveBackend(spec.base)
        self._path_cells: dict = {}

    def simplices(self, k: int):
        return self.backend.simplices(k)

    def alpha_star(self, s, alpha):
        return self.backend.alpha_star(s, alpha)

    def vertex(self, s, j: int):
        return s[0][j]

    def cell(self, s, a: int, b: int):
        if a == b:
            va = s[0][a]
            return (1 << va) if self.oriental else self.spec.base.ident[va]
        if self.oriental:
            k = len(s[0]) - 1
            idx = a * k - a * (a - 1) // 2 + (b - a - 1)
            return s[1][idx]
        return self.spec.base.compose_path(s[1][a:b], at=s[0][a])

    def compose(self, c1, c2):
        return (c1 | c2) if self.oriental else self.spec.base.then(c1, c2)

    def path_cell(self, s, pos_mask: int):
        """Composite cell along the consecutive pairs of a position set."""
        key = (s, pos_mask)
        out = self._path_cells.get(key)
        if out is None:
            ps = bit_list(pos_mask)
            out = self.cell(s, ps[0], ps[0])
            for a, b in zip(ps, ps[1:]):
                out = self.compose(out, self.cell(s, a, b))
            self._path_cells[key] = out
        return out


class Rel2Backend:
    """Simplices of the functor-family nerve, enumerated by free data.

    A simplex is (sigma, x, f) with one object per vertex and one
    morphism per vertex pair; pairs beyond the consecutive ones are the
    forced composites.  Candidates are kept when every subset functor
    is path independent and every transport square holds.
    """

    def __init__(self, spec: FunctorSpec, validate=None):
        self.spec = spec
        self.view = _BaseView(spec)
        # category bases need no filtering: triviality of the two-cells
        # makes every derived candidate satisfy the squares
        self.validate = spec.oriental_base if validate is None else validate
        self._dps: dict[int, Poset] = {}

    def dpos(self, ground: int) -> Poset:
        if ground not in self._dps:
            self._dps[ground] = build_d(ground).poset
        return self._dps[ground]

    def value_at(self, s, j: int) -> FiniteCategory:
        return self.spec.values[self.view.vertex(s, j)]

    def simplices(self, k: int) -> list:
        out = []
        for s in self.view.simplices(k):
            out.extend(self.fill(s, k))
        return out

    def fill(self, s, k: int) -> list:
        """All simplices over one base simplex."""
        spec, view = self.spec, self.view
        vals = [self.value_at(s, j) for j in range(k + 1)]
        step = [spec.functor(view.cell(s, j, j + 1)) for j in range(k)]
        res = []
        for x in product(*(e.objects for e in vals)):
            opts = [vals[j].hom(x[j], step[j].obj[x[j + 1]]) for j in range(k)]
            for fc in product(*opts):
                data = self._derive(s, k, x, fc)
                z = (s, x, data)
                if not self.validate or self.simplex_valid(z,
                                                           full=self.validate == "full"):
                    res.append(z)
        return res

    def _derive(self, s, k: int, x, fc) -> tuple:
        view, spec = self.view, self.spec
        f = {(j, j + 1): fc[j] for j in range(k)}
        for span in range(2, k + 1):
            for a in range(k + 1 - span):
                b, c = a + 1, a + span
                cab, cbc = view.cell(s, a, b), view.cell(s, b, c)
                e = self.value_at(s, a)
                comp = e.then(f[(a, b)], spec.functor(cab).on_mor(f[(b, c)]))
                tau = spec.tau(view.cell(s, a, c), view.compose(cab, cbc))
                f[(a, c)] = e.then(comp, tau[x[c]])
        return tuple(f[p] for p in pair_order(k))

    # --- validation ----------------------------------------------------

    def theta_of(self, z, imask: int):
        """Functor (objects, all pair values) of D^imask; None if path dependent."""
        s, x, data = z
        k = len(x) - 1
        f = dict(zip(pair_order(k), data))
        p = self.dpos(imask)
        e = self.value_at(s, min_bit(imask))
        obj = {sm: self.spec.functor(self.view.path_cell(s, sm)).obj[x[max_bit(sm)]]
               for sm in p.elements}
        cov = {}
        for (ia, ib) in p.covers:
            sm, tm = p.elements[ia], p.elements[ib]
            cov[(sm, tm)] = self._cover_value(s, x, f, sm, tm)
        mor = extend_covers(p, e, obj, cov)
        if mor is None:
            return None
        return (obj, mor)

    def thetas_of(self, z) -> dict | None:
        """theta_of over every nonempty position subset; None on any failure."""
        k = len(z[1]) - 1
        out = {}
        for imask in range(1, 1 << (k + 1)):
            th = self.theta_of(z, imask)
            if th is None:
                return None
            out[imask] = th
        return out

    def _cover_value(self, s, x, f, sm: int, tm: int):
        view, spec = self.view, self.spec
        added = tm & ~sm
        if added:
            t = min_bit(added)
            return spec.functor(view.path_cell(s, sm)).on_mor(f[(max_bit(sm), t)])
        j = min_bit(sm & ~tm)
        below = sm & ((1 << j) - 1)
        above = sm & ~((1 << (j + 1)) - 1)
        a, b = max_bit(below), min_bit(above)
        small = view.cell(s, a, b)
        big = view.compose(view.cell(s, a, j), view.cell(s, j, b))
        comp_at = spec.functor(view.path_cell(s, above)).obj[x[max_bit(sm)]]
        return spec.functor(view.path_cell(s, below)).on_mor(
            spec.tau(small, big)[comp_at])

    def simplex_valid(self, z, full: bool = False) -> bool:
        thetas = self.thetas_of(z)
        if thetas is None:
            return False
        s = z[0]
        for imask, th_i in thetas.items():
            for jmask in subsets_of(imask):
                if jmask == 0 or jmask == imask:
                    continue
                if not square_holds(self, s, imask, jmask, th_i,
                                    thetas[jmask], full):
                    return False
        return True

    # --- simplicial structure -------------------------------------------

    def alpha_star(self, z, alpha):
        s, x, data = z
        fp = tuple(self.value_at(s, ia).ident[x[ia]] if t is None else data[t]
                   for ia, t in _pair_plan(len(x) - 1, alpha))
        return (self.view.alpha_star(s, alpha), tuple(x[a] for a in alpha), fp)

    def dim_of(self, z) -> int:
        return len(z[1]) - 1


def square_holds(back, s, imask, jmask, th_i, th_j, full=False) -> bool:
    """Transport square of the union map for J inside I.

    Families built from free data satisfy the object components
    automatically, but they are cheap and guard the literal
    enumeration, where objects are genuinely unconstrained.  The
    reduced mode checks morphisms on the two cover directions of the
    product ordering; naturality, vertical composition and interchange
    of the two-cell data (validated on the diagram) extend them to
    every comparable pair, which full mode checks outright.
    """
    spec, view = back.spec, back.view
    i0, j0 = min_bit(imask), min_bit(jmask)
    e = back.value_at(s, i0)
    obj_j, mor_j = th_j
    obj_i, mor_i = th_i
    p_j = back.dpos(jmask)
    connectors = list(subsets_with_min_max(imask, i0, j0))
    if full:
        j_pairs = [(a, b) for a in p_j.elements for b in p_j.elements
                   if p_j.less_eq(a, b)]
    else:
        j_pairs = [(p_j.elements[ia], p_j.elements[ib])
                   for ia, ib in p_j.covers]
    refl = [(a, a) for a in p_j.elements]
    for s1 in connectors:
        f_s1 = spec.functor(view.path_cell(s, s1))
        for s2 in p_j.elements:
            if obj_i[s1 | s2] != f_s1.obj[obj_j[s2]]:
                return False
        for s1p in connectors:
            if s1p & s1 != s1p:
                continue
            one_step = (s1 & ~s1p).bit_count() == 1
            if not full and s1 != s1p and not one_step:
                continue
            tau = spec.tau(view.path_cell(s, s1p), view.path_cell(s, s1))
            pairs = j_pairs if (full or s1 == s1p) else refl
            for s2, s2p in pairs:
                want = e.then(f_s1.on_mor(mor_j[(s2, s2p)]), tau[obj_j[s2p]])
                if mor_i[(s1 | s2, s1p | s2p)] != want:
                    return False
    return True


def _rel2_marked(spec):
    view = _BaseView(spec)

    def rule(z):
        s, x, data = z
        return spec.values[view.vertex(s, 0)].is_iso(data[0])

    return rule


def _rel2_thin(spec):
    if not spec.oriental_base:
        return lambda z: True
    return lambda z: oriental_thin(z[0])


def relative_nerve_2(spec: FunctorSpec, dim: int) -> SimplexTable:
    backend = Rel2Backend(spec)
    return SimplexTable(backend, dim, marked_rule=_rel2_marked(spec),
                        thin_rule=_rel2_thin(spec))


def relative2_simplices_literal(spec: FunctorSpec, s, k: int) -> list:
    """Definition-shaped enumeration over one base simplex.

    Assigns a functor D^I -> value for every subset independently and
    keeps the families passing every transport square at every pair.
    Exponentially slower than fill(); used to certify it.
    """
    back = Rel2Backend(spec)
    imasks = sorted(range(1, 1 << (k + 1)), key=lambda m: (m.bit_count(), m))
    per_i = {}
    for imask in imasks:
        p = back.dpos(imask)
        e = back.value_at(s, min_bit(imask))
        per_i[imask] = [({sm: f["obj"][sm] for sm in p.elements}, f["mor"])
                        for f in poset_functors(p, e)]
    out = []

    def place(t: int, chosen: dict) -> None:
        if t == len(imasks):
            x = tuple(chosen[1 << j][0][1 << j] for j in range(k + 1))
            f = tuple(chosen[pair_mask(a, b)][1]
                      [(1 << a, pair_mask(a, b))] for a, b in pair_order(k))
            out.append((s, x, f))
            return
        imask = imasks[t]
        for cand in per_i[imask]:
            ok = all(square_holds(back, s, imask, jmask, cand,
                                  chosen[jmask], full=True)
                     for jmask in subsets_of(imask)
                     if jmask not in (0, imask))
            if ok:
                chosen[imask] = cand
                place(t + 1, chosen)
                del chosen[imask]

    place(0, {})
    return sorted(out, key=lambda z: (repr(z[1]), repr(z[2])))


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
            paths = {}
            for a in range(k + 1):
                for b in range(a, k + 1):
                    paths[(a, b)] = spec.functor(
                        spec.base.compose_path(s[1][a:b], at=s[0][a]))
            step = [paths[(j, j + 1)] for j in range(k)]
            # per subset, the maps and positions that build its theta
            plans = [([(paths[(ps[0], p)].obj, p) for p in ps],
                      [(paths[(ps[0], a)].mor, (a, b))
                       for a, b in zip(ps, ps[1:])]) for ps in subsets]
            for x in product(*(e.objects for e in vals)):
                opts = [vals[j].hom(x[j], step[j].obj[x[j + 1]])
                        for j in range(k)]
                for fc in product(*opts):
                    g = {(j, j + 1): fc[j] for j in range(k)}
                    for span in range(2, k + 1):
                        for a in range(k + 1 - span):
                            c = a + span
                            g[(a, c)] = vals[a].then(
                                g[(a, c - 1)],
                                paths[(a, c - 1)].on_mor(g[(c - 1, c)]))
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


def _rel1_marked(spec):
    def rule(z):
        s, thetas = z
        return spec.values[s[0][0]].is_iso(thetas[2][1][0])

    return rule


def relative_nerve_1(spec: FunctorSpec, dim: int) -> SimplexTable:
    return SimplexTable(Rel1Backend(spec), dim, marked_rule=_rel1_marked(spec),
                        thin_rule=lambda z: True)


def transport_chain(func: CatFunctor, chain):
    objs, mors = chain
    return (tuple(func.obj[y] for y in objs), tuple(func.on_mor(m) for m in mors))


def chi_squares_hold(spec: FunctorSpec, z) -> bool:
    """Literal restriction squares for a simplex-family nerve simplex."""
    s, thetas = z
    k = len(s[0]) - 1
    for imask in range(1, 1 << (k + 1)):
        ps = bit_list(imask)
        nb = spec.values[s[0][ps[0]]]
        for jmask in subsets_of(imask):
            if jmask == 0:
                continue
            qs = bit_list(jmask)
            beta = tuple(ps.index(q) for q in qs)
            sub = CategoryNerveBackend(nb).alpha_star(thetas[imask - 1], beta)
            trans = spec.functor(
                spec.base.compose_path([], at=s[0][ps[0]])
                if ps[0] == qs[0] else _segment(spec.base, s, ps[0], qs[0]))
            if sub != transport_chain(trans, thetas[jmask - 1]):
                return False
    return True


def _segment(base, s, a, b):
    return base.compose_path(s[1][a:b], at=s[0][a])


def pi_star_map(z):
    """Coordinate form of the comparison into the functor-family nerve."""
    s, thetas = z
    k = len(s[0]) - 1
    x = tuple(thetas[(1 << j) - 1][0][0] for j in range(k + 1))
    f = tuple(thetas[pair_mask(a, b) - 1][1][0] for a, b in pair_order(k))
    return (s, x, f)


def pi_star_check(spec: FunctorSpec, dim: int) -> dict:
    """Compare the two relative nerves along the projection-induced map."""
    b1, b2 = Rel1Backend(spec), Rel2Backend(spec)
    sims1, sims2 = closed_simplices(b1, dim), closed_simplices(b2, dim)
    marked1, marked2 = _rel1_marked(spec), _rel2_marked(spec)
    report = {"well_defined": True, "faces_commute": True,
              "degeneracies_commute": True, "markings_match": True,
              "projection_commutes": True,
              "injective": {}, "bijective": {}}
    image_below: dict = {}
    for k in range(dim + 1):
        (src, _, _, faces1), (_, tgt, _, faces2) = sims1[k], sims2[k]
        images = [pi_star_map(z) for z in src]
        if any(w not in tgt for w in images):
            report["well_defined"] = False
        report["injective"][k] = len(set(images)) == len(src)
        report["bijective"][k] = set(images) == tgt and report["injective"][k]
        for z, w in zip(src, images):
            if z[0] != w[0]:
                report["projection_commutes"] = False
            if k == 1 and marked1(z) != marked2(w):
                report["markings_match"] = False
            if k > 0 and tuple([image_below[f] for f in faces1[z]]) != \
                    boundary_of(b2, faces2, w):
                report["faces_commute"] = False
            if k < dim:
                for j in range(k + 1):
                    if pi_star_map(b1.alpha_star(z, codegeneracy(j, k))) != \
                            b2.alpha_star(w, codegeneracy(j, k)):
                        report["degeneracies_commute"] = False
        if k < dim:
            image_below = dict(zip(src, images))
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


def chi_groth_comparison(spec: FunctorSpec, dim: int) -> dict:
    """The family nerve against the nerve of the total category."""
    b1 = Rel1Backend(spec)
    sims1 = closed_simplices(b1, dim)
    bg = CategoryNerveBackend(grothendieck_classical(spec))
    simsg = closed_simplices(bg, dim)
    report = {"counts": [], "bijective": True, "faces_commute": True}
    image_below: dict = {}
    for k in range(dim + 1):
        (src, _, _, faces1), (_, tgt, _, facesg) = sims1[k], simsg[k]
        images = [chi_groth_map(z) for z in src]
        ok = len(set(images)) == len(src) and set(images) == tgt
        report["counts"].append((len(src), len(tgt)))
        if not ok:
            report["bijective"] = False
        if k > 0:
            for z, w in zip(src, images):
                if tuple([image_below[f] for f in faces1[z]]) != \
                        boundary_of(bg, facesg, w):
                    report["faces_commute"] = False
        if k < dim:
            image_below = dict(zip(src, images))
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


def base_change_check(bf: CatFunctor, spec: FunctorSpec, dim: int) -> dict:
    """Pulled-back nerve against the pullback of the nerve."""
    pulled = pull_spec(bf, spec)
    tc = Rel2Backend(pulled)
    td = Rel2Backend(spec)
    nc = CategoryNerveBackend(bf.source)

    def nerve_image(tau):
        return (tuple(bf.obj[o] for o in tau[0]),
                tuple(bf.mor[m] for m in tau[1]))

    report = {"dims": {}, "isomorphism": True, "faces_commute": True}
    for k in range(dim + 1):
        by_base: dict = {}
        for z in td.simplices(k):
            by_base.setdefault(z[0], []).append(z)
        pullback = set()
        for tau in nc.simplices(k):
            for z in by_base.get(nerve_image(tau), []):
                pullback.add((tau, z))
        src = tc.simplices(k)
        images = [(z[0], (nerve_image(z[0]), z[1], z[2])) for z in src]
        ok = len(set(images)) == len(src) and set(images) == pullback
        report["dims"][k] = {"nerve": len(src), "pullback": len(pullback),
                             "match": ok}
        if not ok:
            report["isomorphism"] = False
        if k > 0:
            for z in src:
                for i in range(k + 1):
                    fz = tc.alpha_star(z, delta(i, k))
                    w = (z[0], (nerve_image(z[0]), z[1], z[2]))
                    fw = (nc.alpha_star(w[0], delta(i, k)),
                          td.alpha_star(w[1], delta(i, k)))
                    if (fz[0], (nerve_image(fz[0]), fz[1], fz[2])) != fw:
                        report["faces_commute"] = False
    return report
