"""Hom-posets of orientals and the associated subset posets D^I.

All subsets live inside a finite "ground" set I of naturals (itself a
bitmask).  The hom-poset from i to j has as elements the subsets of I
with minimum i and maximum j, ordered by inclusion; composition is
union.  D^I is the poset of subsets of I containing min(I), where
S <= T iff max(S) <= max(T) and T is contained in S together with the
integer interval [max(S), max(T)].

`d_leq` is that two-condition predicate.  `build_d` does not call it:
it builds each row of D^I from whole-row bit operations, one shifted
mask for the sets T above S at each top max(T) >= max(S), so a row
costs a few big-int operations per top rather than one step per
related pair.  `d_leq` stays as the predicate `Geometry` and
`rho_fully_faithful` read and as the oracle the rows are tested
against.
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


def _up_rows(n: int) -> list[int]:
    """Up-mask rows of D^[0,n], whose element k is S = 1 | k << 1.

    The sets T >= S with max(T) = mt are {0, mt} | x for each x inside
    free = (S | [max(S), mt]) & [1, mt - 1], at index (1 << mt >> 1) + (x >> 1).
    So a row holds one block per top mt: the mask with bit y set for every
    y inside free >> 1, shifted left by 1 << mt >> 1.  That mask is built
    by doubling, m |= m << (1 << f) for each bit f of free >> 1, and the
    step from mt to mt + 1 adds mt to free, one more doubling."""
    rows = []
    for k in range(1 << n):
        ms = k.bit_length()  # max(S)
        m = 1
        for f in bits(k & ~(1 << ms >> 1)):
            m |= m << (1 << f)
        row = 0
        for mt in range(ms, n + 1):
            shift = 1 << mt >> 1
            row |= m << shift
            m |= m << shift
        rows.append(row)
    return rows


def build_d(ground: int) -> DPoset:
    if ground == 0:
        raise ValueError("empty ground set")
    # relabelling I monotonically onto [0, n] keeps the order of the
    # elements and the relation, so D^I has the rows of D^[0,n]
    return DPoset(ground, Poset(d_elements(ground), _up_rows(ground.bit_count() - 1)))


def comparable_pairs(dp: DPoset, strict: bool = True) -> list[tuple[int, int]]:
    """Pairs (s, t) of elements with s <= t (s < t when strict), sorted."""
    els = dp.poset.elements
    return [(els[i], els[j]) for i, up in enumerate(dp.poset.up_masks)
            for j in bits(up & ~(1 << i) if strict else up)]


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
