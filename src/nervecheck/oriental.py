"""Hom-posets of orientals and the associated subset posets D^I.

All subsets live inside a finite "ground" set I of naturals (itself a
bitmask).  The hom-poset from i to j has as elements the subsets of I
with minimum i and maximum j, ordered by inclusion; composition is
union.  D^I is the poset of subsets of I containing min(I), where
S <= T iff max(S) <= max(T) and T is contained in S together with the
integer interval [max(S), max(T)].

`d_leq` is that two-condition predicate.  `build_d` does not call it:
it lists each row of D^I pair by pair, the sets T above S for every
top max(T) >= max(S), so its cost grows with the related pairs rather
than with the square of the element count.  `d_leq` stays as the
predicate `Geometry` and `rho_fully_faithful` read and as the oracle
the rows are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .bits import (bit_list, bits, interval_mask, max_bit, min_bit,
                   subsets_of, subsets_with_min_max)
from .poset import Poset


def standard_interval(n: int) -> int:
    """Ground mask for [0, n]."""
    return interval_mask(0, n)


def d_leq(s: int, t: int) -> bool:
    """The two-condition order on subsets sharing their minimum."""
    ms, mt = max_bit(s), max_bit(t)
    if ms > mt:
        return False
    return t & ~(s | interval_mask(ms, mt)) == 0


@dataclass
class DPoset:
    """D^I for a ground mask I: all subsets containing min(I)."""

    ground: int
    poset: Poset

    @classmethod
    def build(cls, ground: int) -> "DPoset":
        if ground == 0:
            raise ValueError("empty ground set")
        els = d_elements(ground)
        return cls(ground, Poset(els, _up_rows(ground, els)))

    @property
    def n(self) -> int:
        return max_bit(self.ground)

    def __len__(self) -> int:
        return len(self.poset)

    @cached_property
    def geometry(self) -> "Geometry":
        return Geometry(self)


def d_elements(ground: int) -> list[int]:
    """The subsets of a nonempty ground mask that contain its minimum, sorted."""
    lo_bit = 1 << min_bit(ground)
    return [lo_bit | rest for rest in sorted(subsets_of(ground & ~lo_bit))]


def _up_rows(ground: int, els: list[int]) -> list[int]:
    """Up-mask rows of D^ground over els, listed pair by pair.

    The sets T >= S with max(T) = mt are min(I) | mt | x, where x runs
    over the subsets of (S | [max(S), mt]) & I strictly below mt,
    min(I) left out."""
    index = {e: i for i, e in enumerate(els)}
    lo_bit = ground & -ground
    rows = []
    for s in els:
        ms = max_bit(s)
        row = 0
        for mt in bits(ground >> ms << ms):
            ends = lo_bit | 1 << mt
            free = (s | interval_mask(ms, mt)) & ground & ~lo_bit & ((1 << mt) - 1)
            for x in subsets_of(free):
                row |= 1 << index[ends | x]
        rows.append(row)
    return rows


def build_d(ground: int) -> DPoset:
    return DPoset.build(ground)


def witness_set(ground: int, s: int, t: int) -> list[int]:
    """Subsets U of ground with min(U) = max(s), max(U) = max(t), t <= s | U."""
    out = []
    for u in subsets_with_min_max(ground, max_bit(s), max_bit(t)):
        if t & ~(s | u) == 0:
            out.append(u)
    return out


def _zigzag_components(witnesses: list[int]) -> int:
    """Components of the witness family under inclusion zigzags."""
    n = len(witnesses)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(n):
        for b in range(a + 1, n):
            if witnesses[a] | witnesses[b] in (witnesses[a], witnesses[b]):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    return len({find(x) for x in range(n)})


def d_via_under_category(ground: int) -> Poset:
    """Oracle for D^I through the under-2-category description.

    Objects are the same subsets; S <= T is declared when the witness
    family is nonempty.  Each hom-category must be connected (a single
    zigzag component), otherwise the homotopy category would retain
    parallel arrows and the construction would not be a poset.
    """
    els = d_elements(ground)
    ups = [0] * len(els)
    for a, s in enumerate(els):
        for b, t in enumerate(els):
            ws = witness_set(ground, s, t)
            if not ws:
                continue
            comps = _zigzag_components(ws)
            if comps != 1:
                raise ValueError(
                    f"hom from {bit_list(s)} to {bit_list(t)} has {comps} components")
            ups[a] |= 1 << b
    return Poset(els, ups)


class Geometry:
    """Coordinate embedding of D^n into Z^(n-1) and the derived metric.

    Only defined for the standard ground set [0, n].  Coordinates are
    indexed by j in {1, ..., n-1}; the element J goes to
    max(J) * e_{n-1} plus one e_j for each j strictly between 0 and
    max(J) that is missing from J.
    """

    def __init__(self, dposet: DPoset):
        if dposet.ground != standard_interval(dposet.n):
            raise ValueError("geometry needs the standard interval ground set")
        self.dposet = dposet
        self.n = dposet.n
        self.coords: dict[int, tuple[int, ...]] = {
            e: self._coord(e) for e in dposet.poset.elements}

    def _coord(self, mask: int) -> tuple[int, ...]:
        n = self.n
        if n <= 1:
            return ()
        v = [0] * (n - 1)
        top = max_bit(mask)
        v[n - 2] += top
        for j in range(1, top):
            if not (mask >> j) & 1:
                v[j - 1] += 1
        return tuple(v)

    def distance(self, s: int, t: int) -> int:
        """Taxicab distance between coordinate vectors."""
        return sum(abs(a - b) for a, b in zip(self.coords[s], self.coords[t]))

    def atomic(self, s: int, t: int) -> bool:
        """True when s < t and the coordinates differ by one unit step."""
        if s == t or not d_leq(s, t):
            return False
        diff = [b - a for a, b in zip(self.coords[s], self.coords[t])]
        return sum(diff) == 1 and all(d in (0, 1) for d in diff)

    def close(self, s: int, t: int) -> bool:
        """Last coordinate gap at most one (both fit in a unit cube)."""
        if self.n <= 1:
            return True
        return abs(self.coords[t][-1] - self.coords[s][-1]) <= 1


def rho_image(ground: int, sub: int) -> list[int]:
    """Elements of D^ground of the form s1 | s2 as above, sorted."""
    lo, sub_lo = min_bit(ground), min_bit(sub)
    d_sub = d_elements(sub)
    out = set()
    for s1 in subsets_with_min_max(ground, lo, sub_lo):
        for s2 in d_sub:
            out.add(s1 | s2)
    return sorted(out)


def rho_preimage(sub: int, element: int) -> tuple[int, int]:
    """Split an image element back into its unique (s1, s2) pair.

    The first component collects the bits at or below min(sub), the
    second the bits at or above; they overlap exactly in min(sub).
    """
    sub_lo = min_bit(sub)
    s1 = element & ((1 << (sub_lo + 1)) - 1)
    s2 = element & ~((1 << sub_lo) - 1)
    return s1, s2


def rho_fully_faithful(ground: int, sub: int) -> bool:
    """Check order-embedding of the product onto the image subposet.

    Product order: first factor under reverse inclusion, second factor
    under the D-order of the sub ground set.
    """
    lo, sub_lo = min_bit(ground), min_bit(sub)
    hom = list(subsets_with_min_max(ground, lo, sub_lo))
    pairs = list(product(hom, d_elements(sub)))
    seen: dict[int, tuple[int, int]] = {}
    for s1, s2 in pairs:
        el = s1 | s2
        if el in seen:
            return False
        seen[el] = (s1, s2)
    for (a1, a2), (b1, b2) in product(pairs, pairs):
        left = (a1 | b1 == a1) and d_leq(a2, b2)  # first factor reversed
        right = d_leq(a1 | a2, b1 | b2)
        if left != right:
            return False
    return True
