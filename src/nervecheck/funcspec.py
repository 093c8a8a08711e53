"""Contravariant category-valued diagrams over small bases.

A diagram assigns a finite category to each object of the base, a
functor running backwards to each 1-cell, and a natural transformation
running backwards to each inequality of parallel 1-cells.  Two base
shapes are supported: a finite category (no 2-cell data), and the
oriental on {0..m} whose 1-cells i -> j are the subsets of [i..j]
containing both endpoints, composed by union and ordered by inclusion.
"""

from __future__ import annotations

from typing import Mapping

from .bits import (bit_list, digits, from_digits, interval_mask, max_bit,
                   min_bit, subsets_with_min_max)
from .category import CatFunctor, FiniteCategory, is_natural, label_str


def one_cells(i: int, j: int) -> list[int]:
    """1-cells i -> j of an oriental: subsets of [i..j] with both ends."""
    return list(subsets_with_min_max(interval_mask(i, j), i, j))


def strict_cell_pairs(m: int) -> list[tuple[int, int]]:
    """Pairs (small, big) of distinct parallel 1-cells of the oriental on
    0..m with small inside big, by endpoints, then small, then big."""
    return [(s, sp) for i in range(m + 1) for j in range(i + 1, m + 1)
            for s in one_cells(i, j) for sp in one_cells(i, j)
            if s != sp and s & sp == s]


def pair_mask(a: int, b: int) -> int:
    return (1 << a) | (1 << b)


class FunctorSpec:
    """Validated diagram of categories over a category or oriental base.

    For an oriental base m, `values` is keyed by 0..m, `action` by the
    two-element cells {a, b} as masks (general cells are composites of
    consecutive pairs), and `two_cells` by every strictly comparable
    pair (small, big) of parallel cells, giving the components of a
    transformation F(big) => F(small).
    """

    def __init__(self, base, values: Mapping, action: Mapping,
                 two_cells: Mapping | None = None, validate: bool = True):
        self.base = base
        self.values = dict(values)
        self.action = dict(action)
        self.two_cells = dict(two_cells or {})
        self._functors: dict = {}
        self._identities: dict = {}
        if validate:
            self._validate()

    @property
    def oriental_base(self) -> bool:
        return isinstance(self.base, int)

    def functor(self, cell) -> CatFunctor:
        """The functor assigned to a 1-cell, composites included."""
        if cell not in self._functors:
            self._functors[cell] = self._functor(cell)
        return self._functors[cell]

    def _functor(self, cell) -> CatFunctor:
        if self.oriental_base:
            bs = bit_list(cell)
            if len(bs) == 1:
                return CatFunctor.identity(self.values[bs[0]])
            out = None
            for a, b in reversed(list(zip(bs, bs[1:]))):
                step = self.action[pair_mask(a, b)]
                out = step if out is None else out.then(step)
            return out
        if self.base.is_identity(cell):
            return CatFunctor.identity(self.values[self.base.src[cell]])
        return self.action[cell]

    def tau(self, small, big) -> dict:
        """Components of the transformation F(big) => F(small), kept per
        cell when they are identities; callers only read them."""
        if small != big:
            return self.two_cells[(small, big)]
        if small not in self._identities:
            f = self.functor(small)
            self._identities[small] = {x: f.target.ident[f.obj[x]]
                                       for x in f.source.objects}
        return self._identities[small]

    # --- validation ----------------------------------------------------

    def _validate(self) -> None:
        if self.oriental_base:
            self._validate_oriental()
        else:
            self._validate_category()

    def _validate_category(self) -> None:
        base = self.base
        if set(self.values) != set(base.objects):
            raise ValueError("values must cover the base objects")
        if self.two_cells:
            raise ValueError("category bases carry no two-cell data")
        for f in base.morphisms:
            if base.is_identity(f):
                g = self.action.get(f)
                if g is not None and not g.equals(
                        CatFunctor.identity(self.values[base.src[f]])):
                    raise ValueError(f"identity cell {f!r} must act trivially")
                continue
            g = self.action.get(f)
            if g is None:
                raise ValueError(f"no action for {f!r}")
            if g.source is not self.values[base.tgt[f]] or \
               g.target is not self.values[base.src[f]]:
                raise ValueError(f"action endpoints wrong at {f!r}")
        for (f, g), h in base.comp.items():
            if not self.functor(h).equals(self.functor(g).then(self.functor(f))):
                raise ValueError(f"action not functorial at ({f!r}, {g!r})")

    def _validate_oriental(self) -> None:
        m = self.base
        if m < 0:
            raise ValueError(f"an oriental base needs m >= 0, got {m}")
        if sorted(self.values) != list(range(m + 1)):
            raise ValueError("values must be keyed by 0..m")
        pairs = sorted(pair_mask(a, b)
                       for a in range(m + 1) for b in range(a + 1, m + 1))
        if sorted(self.action) != pairs:
            raise ValueError("action must be keyed by the two-element cells")
        for pm in pairs:
            a, b = bit_list(pm)
            f = self.action[pm]
            if f.source is not self.values[b] or f.target is not self.values[a]:
                raise ValueError(f"action endpoints wrong at {digits(pm)}")
        if set(self.two_cells) != set(strict_cell_pairs(m)):
            raise ValueError("two_cells must cover exactly the strict cell pairs")
        for (s, sp), comp in self.two_cells.items():
            if not is_natural(self.functor(sp), self.functor(s), comp):
                raise ValueError(f"two-cell {digits(s)}<{digits(sp)} not natural")
        self._check_vertical(m)
        self._check_interchange(m)

    def _check_vertical(self, m: int) -> None:
        for s, sp in strict_cell_pairs(m):
            i, j = min_bit(s), max_bit(s)
            e = self.values[i]
            for spp in one_cells(i, j):
                if sp == spp or sp & spp != sp:
                    continue
                lo, hi = self.tau(s, sp), self.tau(sp, spp)
                want = {x: e.then(hi[x], lo[x]) for x in hi}
                if self.tau(s, spp) != want:
                    raise ValueError(
                        f"vertical composition fails "
                        f"{digits(s)}<{digits(sp)}<{digits(spp)}")

    def _check_interchange(self, m: int) -> None:
        for i in range(m + 1):
            for j in range(i, m + 1):
                for k in range(j, m + 1):
                    for s in one_cells(i, j):
                        for sp in one_cells(i, j):
                            if s & sp != s:
                                continue
                            for t in one_cells(j, k):
                                for tp in one_cells(j, k):
                                    if t & tp != t or (s == sp and t == tp):
                                        continue
                                    self._interchange_square(i, s, sp, t, tp)

    def _interchange_square(self, i, s, sp, t, tp) -> None:
        e = self.values[i]
        fs, ftp = self.functor(s), self.functor(tp)
        left_tau, right_tau = self.tau(s, sp), self.tau(t, tp)
        whole = self.tau(s | t, sp | tp)
        for x in ftp.source.objects:
            want = e.then(left_tau[ftp.obj[x]], fs.on_mor(right_tau[x]))
            if whole[x] != want:
                raise ValueError(
                    f"interchange fails at {digits(s | t)}<{digits(sp | tp)}")

    # --- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        lab = label_str

        def functor_json(f: CatFunctor) -> dict:
            return {"obj": {lab(x): lab(y) for x, y in f.obj.items()},
                    "mor": {lab(a): lab(b) for a, b in f.mor.items()}}

        if self.oriental_base:
            return {
                "base": {"kind": "oriental", "m": self.base},
                "values": {str(i): e.to_json() for i, e in self.values.items()},
                "action": {digits(pm): functor_json(f)
                           for pm, f in sorted(self.action.items())},
                "two_cells": {f"{digits(s)}|{digits(sp)}":
                              {lab(x): lab(h) for x, h in comp.items()}
                              for (s, sp), comp in sorted(self.two_cells.items())},
            }
        return {
            "base": {"kind": "category", "category": self.base.to_json()},
            "values": {lab(c): e.to_json() for c, e in self.values.items()},
            "action": {lab(f): functor_json(g) for f, g in self.action.items()
                       if not self.base.is_identity(f)},
            "two_cells": {},
        }

    @classmethod
    def from_json(cls, data: dict) -> "FunctorSpec":
        kind = data["base"]["kind"]
        if kind == "oriental":
            m = int(data["base"]["m"])
            values = {int(k): FiniteCategory.from_json(v)
                      for k, v in data["values"].items()}

            def functor_of(key: str, blob: dict) -> CatFunctor:
                pm = from_digits(key)
                a, b = bit_list(pm)
                return CatFunctor(values[b], values[a],
                                  dict(blob["obj"]), dict(blob["mor"]))

            action = {from_digits(k): functor_of(k, v)
                      for k, v in data["action"].items()}
            two = {}
            for key, comp in data.get("two_cells", {}).items():
                s, sp = (from_digits(part) for part in key.split("|"))
                two[(s, sp)] = dict(comp)
            return cls(m, values, action, two)
        if kind != "category":
            raise ValueError(f"unknown base kind {kind!r}")
        base = FiniteCategory.from_json(data["base"]["category"])
        values = {c: FiniteCategory.from_json(v) for c, v in data["values"].items()}
        action = {f: CatFunctor(values[base.tgt[f]], values[base.src[f]],
                                dict(blob["obj"]), dict(blob["mor"]))
                  for f, blob in data["action"].items()}
        return cls(base, values, action)


def identity_two_cells(m: int, values: Mapping, action: Mapping) -> dict:
    """Identity components for every strict cell pair.

    Only valid when parallel composites agree objectwise, as in specs
    whose pair actions commute on the nose.
    """
    probe = FunctorSpec(m, values, action, validate=False)
    return {(s, sp): {x: values[min_bit(s)].ident[probe.functor(sp).obj[x]]
                      for x in values[max_bit(s)].objects}
            for s, sp in strict_cell_pairs(m)}


def constant_spec(base, e: FiniteCategory) -> FunctorSpec:
    """Everything is a single category with identity transport."""
    if isinstance(base, int):
        values = {i: e for i in range(base + 1)}
        ident = CatFunctor.identity(e)
        action = {pair_mask(a, b): ident
                  for a in range(base + 1) for b in range(a + 1, base + 1)}
        return FunctorSpec(base, values, action,
                           identity_two_cells(base, values, action))
    values = {x: e for x in base.objects}
    action = {f: CatFunctor.identity(e)
              for f in base.morphisms if not base.is_identity(f)}
    return FunctorSpec(base, values, action)
