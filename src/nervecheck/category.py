"""Finite categories with exhaustively verified laws.

Morphisms are hashable labels with explicit source/target and a total
composition table on composable pairs.  Composition is written in
diagram order: then(f, g) is "f followed by g".  Everything is small
enough that unit and associativity laws are checked on construction.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from typing import Hashable, Iterable, Mapping

from .poset import Poset

Label = Hashable


def label_str(x: Label) -> str:
    """Stable string form for a label; strings pass through unchanged."""
    return x if isinstance(x, str) else repr(x)


class FiniteCategory:
    def __init__(self, objects: Iterable[Label], morphisms: Iterable[Label],
                 src: Mapping[Label, Label], tgt: Mapping[Label, Label],
                 ident: Mapping[Label, Label], comp: Mapping[tuple, Label],
                 validate: bool = True):
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self.obj_index = {x: i for i, x in enumerate(self.objects)}
        self.mor_index = {f: i for i, f in enumerate(self.morphisms)}
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.ident = dict(ident)
        self.comp = dict(comp)
        self._hom: dict[tuple, tuple] = {}
        for f in self.morphisms:
            key = (self.src[f], self.tgt[f])
            self._hom.setdefault(key, ())
            self._hom[key] += (f,)
        if validate:
            self._validate()

    def _validate(self) -> None:
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate objects")
        if len(set(self.morphisms)) != len(self.morphisms):
            raise ValueError("duplicate morphisms")
        for f in self.morphisms:
            if self.src.get(f) not in self.obj_index or self.tgt.get(f) not in self.obj_index:
                raise ValueError(f"bad endpoints for {f!r}")
        for x in self.objects:
            e = self.ident.get(x)
            if e is None or self.src[e] != x or self.tgt[e] != x:
                raise ValueError(f"bad identity at {x!r}")
        idx, src, tgt, comp = self.mor_index, self.src, self.tgt, self.comp
        out: dict[Label, list] = {x: [] for x in self.objects}
        for f in self.morphisms:
            out[src[f]].append(f)
        # Failures are raised in the order of a scan over all pairs (f, g):
        # the first table entry on a pair that does not compose, found among
        # the keys, unless a composable pair before it is missing or lands
        # on the wrong endpoints.
        extra = min(((idx[f], idx[g]) for f, g in comp
                     if f in idx and g in idx and tgt[f] != src[g]),
                    default=(len(idx), 0))
        for i, f in enumerate(self.morphisms):
            for g in out[tgt[f]]:
                if (i, idx[g]) > extra:
                    break
                if (f, g) not in comp:
                    raise ValueError(f"composition table mismatch at ({f!r}, {g!r})")
                h = comp[(f, g)]
                if src[h] != src[f] or tgt[h] != tgt[g]:
                    raise ValueError(f"composite endpoints wrong at ({f!r}, {g!r})")
        if extra[0] < len(idx):
            f, g = self.morphisms[extra[0]], self.morphisms[extra[1]]
            raise ValueError(f"composition table mismatch at ({f!r}, {g!r})")
        for f in self.morphisms:
            if self.then(self.ident[src[f]], f) != f or self.then(f, self.ident[tgt[f]]) != f:
                raise ValueError(f"unit law fails at {f!r}")
        for f in self.morphisms:
            for g in out[tgt[f]]:
                fg = self.then(f, g)
                for h in out[tgt[g]]:
                    if self.then(fg, h) != self.then(f, self.then(g, h)):
                        raise ValueError(f"associativity fails at ({f!r}, {g!r}, {h!r})")

    def __len__(self) -> int:
        return len(self.objects)

    def then(self, f: Label, g: Label) -> Label:
        return self.comp[(f, g)]

    def compose_path(self, fs: Iterable[Label], at: Label) -> Label:
        """Composite of a diagram-order list starting at object `at`."""
        return reduce(self.then, fs, self.ident[at])

    def hom(self, x: Label, y: Label) -> tuple:
        return self._hom.get((x, y), ())

    def is_identity(self, f: Label) -> bool:
        return self.ident[self.src[f]] == f

    def is_iso(self, f: Label) -> bool:
        x, y = self.src[f], self.tgt[f]
        return any(self.then(f, g) == self.ident[x] and self.then(g, f) == self.ident[y]
                   for g in self.hom(y, x))

    def equals(self, other: "FiniteCategory") -> bool:
        """Same objects and morphisms, endpoints, identities and composition."""
        return (set(self.objects) == set(other.objects)
                and set(self.morphisms) == set(other.morphisms)
                and self.src == other.src and self.tgt == other.tgt
                and self.ident == other.ident and self.comp == other.comp)

    def is_thin(self) -> bool:
        return all(len(v) <= 1 for v in self._hom.values())

    @classmethod
    def from_poset(cls, poset: Poset) -> "FiniteCategory":
        """Thin category with a morphism (a, b) for every a <= b."""
        objects = poset.elements
        morphisms = [(a, b) for a in objects for b in objects if poset.less_eq(a, b)]
        src = {m: m[0] for m in morphisms}
        tgt = {m: m[1] for m in morphisms}
        ident = {x: (x, x) for x in objects}
        comp = {(f, g): (f[0], g[1]) for f in morphisms for g in morphisms if f[1] == g[0]}
        return cls(objects, morphisms, src, tgt, ident, comp, validate=False)

    @classmethod
    def point(cls) -> "FiniteCategory":
        return cls(("*",), ("id",), {"id": "*"}, {"id": "*"}, {"*": "id"},
                   {("id", "id"): "id"}, validate=False)

    def to_json(self) -> dict:
        lab = label_str
        return {
            "objects": [lab(x) for x in self.objects],
            "morphisms": [{"name": lab(f), "src": lab(self.src[f]), "tgt": lab(self.tgt[f])}
                          for f in self.morphisms],
            "identities": {lab(x): lab(self.ident[x]) for x in self.objects},
            "composition": [[lab(f), lab(g), lab(h)] for (f, g), h in sorted(
                self.comp.items(), key=repr)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FiniteCategory":
        objects = data["objects"]
        morphisms = [m["name"] for m in data["morphisms"]]
        src = {m["name"]: m["src"] for m in data["morphisms"]}
        tgt = {m["name"]: m["tgt"] for m in data["morphisms"]}
        ident = dict(data["identities"])
        comp = {(f, g): h for f, g, h in data["composition"]}
        return cls(objects, morphisms, src, tgt, ident, comp)

    def __repr__(self) -> str:
        return f"FiniteCategory({len(self.objects)} objects, {len(self.morphisms)} morphisms)"


def chain_category(n: int) -> FiniteCategory:
    return FiniteCategory.from_poset(
        Poset.from_relation(list(range(n + 1)), lambda a, b: a <= b))


def walking_iso() -> FiniteCategory:
    """Two objects and an isomorphism between them."""
    objects = ("a", "b")
    morphisms = ("ida", "idb", "u", "v")
    src = {"ida": "a", "idb": "b", "u": "a", "v": "b"}
    tgt = {"ida": "a", "idb": "b", "u": "b", "v": "a"}
    ident = {"a": "ida", "b": "idb"}
    comp = {}
    for f in morphisms:
        for g in morphisms:
            if tgt[f] != src[g]:
                continue
            if f in ("ida", "idb"):
                comp[(f, g)] = g
            elif g in ("ida", "idb"):
                comp[(f, g)] = f
            else:
                comp[(f, g)] = ident["a"] if f == "u" else ident["b"]
    return FiniteCategory(objects, morphisms, src, tgt, ident, comp)


class CatFunctor:
    """Functor between finite categories, verified at construction."""

    def __init__(self, source: FiniteCategory, target: FiniteCategory,
                 obj: Mapping[Label, Label], mor: Mapping[Label, Label],
                 validate: bool = True):
        self.source = source
        self.target = target
        self.obj = dict(obj)
        self.mor = dict(mor)
        if validate:
            self._validate()

    def _validate(self) -> None:
        for x in self.source.objects:
            if x not in self.obj or self.obj[x] not in self.target.obj_index:
                raise ValueError(f"object map missing or bad at {x!r}")
        for f in self.source.morphisms:
            g = self.mor.get(f)
            if g is None or g not in self.target.mor_index:
                raise ValueError(f"morphism map missing or bad at {f!r}")
            if self.target.src[g] != self.obj[self.source.src[f]] or \
               self.target.tgt[g] != self.obj[self.source.tgt[f]]:
                raise ValueError(f"endpoints not preserved at {f!r}")
        for x in self.source.objects:
            if self.mor[self.source.ident[x]] != self.target.ident[self.obj[x]]:
                raise ValueError(f"identity not preserved at {x!r}")
        for (f, g), h in self.source.comp.items():
            if self.target.then(self.mor[f], self.mor[g]) != self.mor[h]:
                raise ValueError(f"composition not preserved at ({f!r}, {g!r})")

    def __call__(self, x: Label) -> Label:
        return self.obj[x]

    def on_mor(self, f: Label) -> Label:
        return self.mor[f]

    def then(self, other: "CatFunctor") -> "CatFunctor":
        assert self.target is other.source
        return CatFunctor(self.source, other.target,
                          {x: other.obj[y] for x, y in self.obj.items()},
                          {f: other.mor[g] for f, g in self.mor.items()},
                          validate=False)

    def equals(self, other: "CatFunctor") -> bool:
        return self.obj == other.obj and self.mor == other.mor

    @classmethod
    def identity(cls, e: FiniteCategory) -> "CatFunctor":
        return cls(e, e, {x: x for x in e.objects}, {f: f for f in e.morphisms},
                   validate=False)

    @classmethod
    def constant(cls, source: FiniteCategory, target: FiniteCategory,
                 at: Label) -> "CatFunctor":
        return cls(source, target, {x: at for x in source.objects},
                   {f: target.ident[at] for f in source.morphisms}, validate=False)


def is_natural(f: CatFunctor, g: CatFunctor, eta: Mapping[Label, Label]) -> bool:
    """Check eta: f => g componentwise for functors with common ends."""
    e1, e2 = f.source, f.target
    for x in e1.objects:
        m = eta.get(x)
        if m is None or e2.src[m] != f.obj[x] or e2.tgt[m] != g.obj[x]:
            return False
    for h in e1.morphisms:
        x, y = e1.src[h], e1.tgt[h]
        if e2.then(f.mor[h], eta[y]) != e2.then(eta[x], g.mor[h]):
            return False
    return True


def extend_covers(p: Poset, e: FiniteCategory, obj: Mapping,
                  cov: Mapping) -> dict | None:
    """Extend cover values of a functor p -> e to every comparable pair.

    obj maps each label of p to an object of e, cov each cover (a, b) of
    labels to a morphism obj[a] -> obj[b].  Pairs are derived shortest
    interval first from their first cover steps.  Returns the morphisms
    on every comparable pair, or None when a cover value has the wrong
    endpoints or two first steps disagree (no functor extends cov).
    """
    els = p.elements
    steps = [[] for _ in els]  # per element, the covers (d, value) leaving it
    for ia, ib in p.covers:
        m = cov[(els[ia], els[ib])]
        if e.src[m] != obj[els[ia]] or e.tgt[m] != obj[els[ib]]:
            return None
        steps[ia].append((ib, m))
    mor = {(a, a): e.ident[obj[a]] for a in els}
    for ia, ib in p.strict_pairs:
        b, down = els[ib], p.down_masks[ib]
        vals = {e.then(m, mor[(els[d], b)])
                for d, m in steps[ia] if down >> d & 1}
        if len(vals) != 1:
            return None
        mor[(els[ia], b)] = vals.pop()
    return mor


def poset_functors(p: Poset, e: FiniteCategory,
                   obj_pin: Mapping | None = None,
                   edge_pin: Mapping | None = None) -> list[tuple[dict, dict]]:
    """All functors from a poset to a finite category, as (obj, mor) pairs.

    obj maps each label to an object and mor each comparable label pair
    to a morphism, the format of the nerves' theta.  Objects are placed
    along a linear extension, each kept only when every cover into it
    has a nonempty hom; the cover values of each object assignment form
    one product, and extend_covers keeps the path-independent ones.
    Optional pins fix object values (by label) or morphism values (by
    comparable label pair) in advance.
    """
    obj_pin = obj_pin or {}
    edge_pin = edge_pin or {}
    els = p.elements
    into = [[] for _ in els]  # per element, the labels it covers
    for ia, ib in p.covers:
        into[ib].append(els[ia])
    objs = [{}]
    for i in sorted(range(len(p)), key=p.topo_rank.__getitem__):
        b = els[i]
        objs = [{**obj, b: x} for obj in objs
                for x in ((obj_pin[b],) if b in obj_pin else e.objects)
                if x in e.obj_index and all(e.hom(obj[a], x) for a in into[i])]
    covers = [(els[ia], els[ib]) for ia, ib in sorted(p.covers)]
    results = []
    for obj in objs:
        options = [e.hom(obj[a], obj[b]) for a, b in covers]
        for k, c in enumerate(covers):
            if c in edge_pin:
                options[k] = (edge_pin[c],) if edge_pin[c] in options[k] else ()
        for ms in product(*options):
            mor = extend_covers(p, e, obj, dict(zip(covers, ms)))
            if mor is not None and all(mor.get(pq) == m for pq, m in edge_pin.items()):
                results.append((dict(obj), mor))
    return results
